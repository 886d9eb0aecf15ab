package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFigures(t *testing.T) {
	for _, tc := range []struct {
		figure string
		want   string
	}{
		{"1", "encoded_ID  = 46"},
		{"2", "similarity = 2/5 = 40%"},
		{"3", "similarity = 3/5 = 60%"},
	} {
		var out, errb bytes.Buffer
		if err := run([]string{"-figure", tc.figure, "-q"}, &out, &errb); err != nil {
			t.Fatalf("figure %s: %v", tc.figure, err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("figure %s output missing %q:\n%s", tc.figure, tc.want, out.String())
		}
	}
}

func TestRunTable2(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-table", "2", "-q"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FC Barcelona") {
		t.Errorf("Table 2 output missing content:\n%s", out.String())
	}
}

func TestRunTableMarkdownAndCSV(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-table", "2", "-format", "markdown", "-q"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| cID |") {
		t.Errorf("markdown output wrong:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-table", "2", "-format", "csv", "-q"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "cID,name_B") {
		t.Errorf("csv output wrong:\n%s", out.String())
	}
}

func TestRunCaseStudyTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("case study takes a few seconds")
	}
	var out, errb bytes.Buffer
	err := run([]string{"-table", "4", "-scale", "0.001", "-minsize", "40", "-q"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Ex-MinMax") {
		t.Errorf("Table 4 output missing methods:\n%s", out.String())
	}
}

func TestRunAblationTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes a few seconds")
	}
	var out, errb bytes.Buffer
	err := run([]string{"-ablation", "parts", "-scale", "0.001", "-minsize", "40", "-q"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "parts") {
		t.Errorf("ablation output wrong:\n%s", out.String())
	}
}

func TestRunWritesOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t2.txt")
	var out, errb bytes.Buffer
	if err := run([]string{"-table", "2", "-q", "-o", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Error("stdout should be empty when -o is set")
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, "Quick Recipes") {
		t.Errorf("output file missing content:\n%s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-q"}, &out, &errb); err == nil {
		t.Error("expected error without a mode flag")
	}
	if err := run([]string{"-table", "12", "-q"}, &out, &errb); err == nil {
		t.Error("expected error for table 12")
	}
	if err := run([]string{"-figure", "9", "-q"}, &out, &errb); err == nil {
		t.Error("expected error for figure 9")
	}
	if err := run([]string{"-ablation", "bogus", "-q"}, &out, &errb); err == nil {
		t.Error("expected error for unknown ablation")
	}
	if err := run([]string{"-table", "2", "-format", "xml", "-q"}, &out, &errb); err == nil {
		t.Error("expected error for unknown format")
	}
}

func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}

// TestMedianIQR pins the batch records' spread: the median of the runs
// and the distance between their nearest-rank quartiles, whatever the
// order the runs came in.
func TestMedianIQR(t *testing.T) {
	for _, c := range []struct {
		runs        []int64
		median, iqr int64
	}{
		{[]int64{50, 10, 40, 20, 30}, 30, 20},
		{[]int64{7}, 7, 0},
		{[]int64{4, 1, 3, 2}, 3, 2},
	} {
		if median, iqr := medianIQR(c.runs); median != c.median || iqr != c.iqr {
			t.Errorf("medianIQR(%v) = %d, %d; want %d, %d", c.runs, median, iqr, c.median, c.iqr)
		}
	}
}
