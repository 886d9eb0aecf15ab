package csj_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	csj "github.com/opencsj/csj"
)

// These tests pin that every result-returning API populates
// Result.Elapsed (PR 1 fixed one missing site; this covers all four)
// and that the observability callbacks fire across the batch engines.

func elapsedComms(t *testing.T, n int) []*csj.Community {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	comms := make([]*csj.Community, n)
	for i := range comms {
		comms[i] = randComm(rng, "c", 40+i, 6, 30)
	}
	return comms
}

func TestElapsedPopulatedEverywhere(t *testing.T) {
	comms := elapsedComms(t, 5)
	opts := &csj.Options{Epsilon: 4}

	res, err := csj.Similarity(context.Background(), comms[0], comms[1], csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Similarity: Elapsed = %v, want > 0", res.Elapsed)
	}

	ranked, err := csj.Rank(context.Background(), comms[0], comms[1:], csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranked {
		if r.Result != nil && r.Result.Elapsed <= 0 {
			t.Errorf("Rank candidate %d: Elapsed = %v, want > 0", r.Index, r.Result.Elapsed)
		}
	}

	topk, err := csj.TopK(context.Background(), comms[0], comms[1:], 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	scored := 0
	for _, r := range topk {
		if r.Result == nil {
			continue
		}
		scored++
		if r.Result.Elapsed <= 0 {
			t.Errorf("TopK candidate %d: Elapsed = %v, want > 0", r.Index, r.Result.Elapsed)
		}
	}
	if scored == 0 {
		t.Error("TopK scored no candidates; Elapsed check did not run")
	}

	entries, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Skipped {
			continue
		}
		if e.Result.Elapsed <= 0 {
			t.Errorf("Matrix cell (%d,%d): Elapsed = %v, want > 0", e.I, e.J, e.Result.Elapsed)
		}
	}
}

func TestObserversFireAcrossBatchEngines(t *testing.T) {
	comms := elapsedComms(t, 5)
	var mu sync.Mutex
	joins := 0
	var comparisons int64
	stages := map[string]int{}
	opts := &csj.Options{
		Epsilon: 4,
		Workers: 2,
		OnJoinEvents: func(ev csj.Events) {
			mu.Lock()
			joins++
			comparisons += ev.Matches + ev.NoMatches
			mu.Unlock()
		},
		OnPoolStats: func(ps csj.PoolStats) {
			if ps.Wall <= 0 || len(ps.Workers) == 0 {
				t.Errorf("pool stage %q: Wall=%v Workers=%d", ps.Stage, ps.Wall, len(ps.Workers))
			}
			if u := ps.Utilization(); u < 0 || u > 1 {
				t.Errorf("pool stage %q: utilization %v outside [0,1]", ps.Stage, u)
			}
			mu.Lock()
			stages[ps.Stage]++
			mu.Unlock()
		},
	}

	if _, err := csj.Similarity(context.Background(), comms[0], comms[1], csj.ExMinMax, opts); err != nil {
		t.Fatal(err)
	}
	if joins != 1 {
		t.Errorf("OnJoinEvents fired %d times after one Similarity, want 1", joins)
	}

	if _, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := csj.Rank(context.Background(), comms[0], comms[1:], csj.ExMinMax, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := csj.TopK(context.Background(), comms[0], comms[1:], 2, opts); err != nil {
		t.Fatal(err)
	}

	// 1 (similarity) + 10 matrix cells + 4 rank probes, plus every
	// scored TopK candidate.
	if joins < 15 {
		t.Errorf("OnJoinEvents fired %d times across the batch APIs, want >= 15", joins)
	}
	if comparisons == 0 {
		t.Error("observed joins reported zero comparisons")
	}
	for _, stage := range []string{"matrix/prepare", "matrix/cells", "rank/probe"} {
		if stages[stage] == 0 {
			t.Errorf("pool stage %q never reported", stage)
		}
	}
}
