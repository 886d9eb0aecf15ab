package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	csj "github.com/opencsj/csj"
)

func TestGenerateSingleCommunity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sport.csv")
	var out bytes.Buffer
	err := run([]string{"-kind", "vk", "-size", "50", "-category", "Sport",
		"-name", "Sport fans", "-seed", "3", "-o", path}, &out, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	c, err := csj.LoadCommunity(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 50 || c.Dim() != 27 || c.Name != "Sport fans" {
		t.Errorf("generated community = %s/%d users/d=%d", c.Name, c.Size(), c.Dim())
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Error("missing confirmation output")
	}
}

func TestGenerateBinaryCommunity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syn.bin")
	var out bytes.Buffer
	if err := run([]string{"-kind", "synthetic", "-size", "30", "-o", path}, &out, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	c, err := csj.LoadCommunity(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 30 {
		t.Errorf("size = %d, want 30", c.Size())
	}
}

func TestGenerateCoupleHasPlantedSimilarity(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "pair.csv")
	var out bytes.Buffer
	err := run([]string{"-kind", "vk", "-couple", "-size", "200", "-sizea", "300",
		"-target", "0.3", "-seed", "5", "-o", prefix}, &out, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := csj.LoadCommunity(filepath.Join(dir, "pair_B.csv"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := csj.LoadCommunity(filepath.Join(dir, "pair_A.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 200 || a.Size() != 300 {
		t.Fatalf("sizes = %d|%d, want 200|300", b.Size(), a.Size())
	}
	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Similarity < 0.28 {
		t.Errorf("similarity %.3f below the planted 30%%", res.Similarity)
	}
}

func TestGenerateCoupleSet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "couples")
	var out bytes.Buffer
	err := run([]string{"-kind", "synthetic", "-couples", "-scale", "0.0005",
		"-minsize", "20", "-o", dir}, &out, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "wrote 20 couples") {
		t.Errorf("missing confirmation: %s", out.String())
	}
	b, err := csj.LoadCommunity(filepath.Join(dir, "couple01_B.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Dim() != 27 {
		t.Errorf("couple community has d=%d, want 27", b.Dim())
	}
}

func TestGenerateErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "10"}, &out, &out); err == nil {
		t.Error("expected error without -o")
	}
	if err := run([]string{"-kind", "mars", "-o", "x.csv"}, &out, &out); err == nil {
		t.Error("expected error for unknown kind")
	}
	if err := run([]string{"-category", "Nonsense", "-o", "x.csv"}, &out, &out); err == nil {
		t.Error("expected error for unknown category")
	}
	if err := run([]string{"-couple", "-size", "10", "-sizea", "100", "-o",
		filepath.Join(t.TempDir(), "p.csv")}, &out, &out); err == nil {
		t.Error("expected error for a couple violating the size precondition")
	}
}
