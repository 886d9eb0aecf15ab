package csj_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/vector"
)

func TestIncrementalJoinTracksBatchResult(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, eps := 4, int32(1)
	ij, err := csj.NewIncrementalJoin(d, &csj.Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	var bUsers, aUsers []csj.Vector
	mk := func() csj.Vector {
		u := make(csj.Vector, d)
		for i := range u {
			u[i] = rng.Int31n(8)
		}
		return u
	}
	for i := 0; i < 40; i++ {
		u := mk()
		aUsers = append(aUsers, u)
		if _, err := ij.AddA(u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		u := mk()
		bUsers = append(bUsers, u)
		if _, err := ij.AddB(u); err != nil {
			t.Fatal(err)
		}
	}
	if ij.SizeB() != 30 || ij.SizeA() != 40 {
		t.Fatalf("sizes = %d|%d, want 30|40", ij.SizeB(), ij.SizeA())
	}

	batch, err := csj.Similarity(context.Background(),
		&csj.Community{Name: "B", Users: bUsers},
		&csj.Community{Name: "A", Users: aUsers},
		csj.ExMinMax,
		&csj.Options{Epsilon: eps, Matcher: csj.MatcherHopcroftKarp},
	)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ij.Similarity()
	if err != nil {
		t.Fatal(err)
	}
	if inc != batch.Similarity {
		t.Fatalf("incremental similarity %.4f != batch %.4f", inc, batch.Similarity)
	}
	if ij.Matched() != len(batch.Pairs) {
		t.Fatalf("incremental matched %d != batch %d", ij.Matched(), len(batch.Pairs))
	}
	// Pairs are valid and one-to-one.
	seenB := map[int32]bool{}
	seenA := map[int32]bool{}
	for _, p := range ij.Pairs() {
		if seenB[p.B] || seenA[p.A] {
			t.Fatal("pairs not one-to-one")
		}
		seenB[p.B], seenA[p.A] = true, true
	}
}

func TestIncrementalJoinStreamingChurn(t *testing.T) {
	d, eps := 3, int32(0)
	ij, err := csj.NewIncrementalJoin(d, &csj.Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	// Identical profile on both sides: one match.
	idB, _ := ij.AddB(csj.Vector{1, 2, 3})
	idA, _ := ij.AddA(csj.Vector{1, 2, 3})
	if ij.Matched() != 1 {
		t.Fatalf("Matched = %d, want 1", ij.Matched())
	}
	// Unfollow on the A side, match disappears.
	if err := ij.RemoveA(idA); err != nil {
		t.Fatal(err)
	}
	if ij.Matched() != 0 {
		t.Fatalf("Matched after unfollow = %d, want 0", ij.Matched())
	}
	// Re-follow restores it.
	if _, err := ij.AddA(csj.Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if ij.Matched() != 1 {
		t.Fatalf("Matched after re-follow = %d, want 1", ij.Matched())
	}
	// Removing the only B user empties the join.
	if err := ij.RemoveB(idB); err != nil {
		t.Fatal(err)
	}
	if _, err := ij.Similarity(); err == nil {
		t.Error("expected error on empty B side")
	}
}

func TestNewIncrementalJoinValidation(t *testing.T) {
	if _, err := csj.NewIncrementalJoin(3, &csj.Options{Epsilon: -1}); err == nil {
		t.Error("expected error for negative epsilon")
	}
	if _, err := csj.NewIncrementalJoin(0, nil); err == nil {
		t.Error("expected error for zero dimensionality")
	}
	// Every stored community has at most 1<<16 dimensions; a join past
	// that limit would size its layout by the request alone.
	if _, err := csj.NewIncrementalJoin(1<<16, &csj.Options{Parts: 1 << 16}); err != nil {
		t.Errorf("a join at the dimensionality limit: %v", err)
	}
	if _, err := csj.NewIncrementalJoin(1<<16+1, nil); !errors.Is(err, vector.ErrLimit) {
		t.Errorf("a join past the dimensionality limit: err = %v, want vector.ErrLimit", err)
	}
	if _, err := csj.NewIncrementalJoin(3, &csj.Options{Parts: -1}); err == nil {
		t.Error("expected error for a negative part count")
	}
}

// TestIncrementalJoinRemoveOutsideInt32: an id past int32's range names
// no live user; it must not wrap around onto a live one.
func TestIncrementalJoinRemoveOutsideInt32(t *testing.T) {
	ij, err := csj.NewIncrementalJoin(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ij.AddB(csj.Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ij.AddA(csj.Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1 << 32, 1<<32 + 1, -(1 << 32), 1 << 31} {
		if err := ij.RemoveB(id); err == nil {
			t.Errorf("RemoveB(%d) succeeded", id)
		}
		if err := ij.RemoveA(id); err == nil {
			t.Errorf("RemoveA(%d) succeeded", id)
		}
	}
	if ij.SizeB() != 1 || ij.SizeA() != 1 || ij.Matched() != 1 {
		t.Errorf("after the failed removals: sizes %d|%d, matched %d; want 1|1, 1",
			ij.SizeB(), ij.SizeA(), ij.Matched())
	}
}
