package csj_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	csj "github.com/opencsj/csj"
)

// heavyComms builds a community set whose full pairwise matrix takes
// long enough that a mid-run cancellation is observable: a small value
// range keeps the encoded windows dense, so (with a generous epsilon)
// the exact matcher sees large segments in every cell.
func heavyComms(rng *rand.Rand, n, size int) []*csj.Community {
	base := randComm(rng, "base", size, 8, 3)
	comms := make([]*csj.Community, n)
	for i := range comms {
		comms[i] = overlapped(rng, fmt.Sprintf("heavy-%02d", i), size, base, 0.4)
	}
	return comms
}

// TestQueriesHonorPreCanceledContext: every context-first query must
// refuse to start work on an already-canceled context and surface the
// context's own error.
func TestQueriesHonorPreCanceledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	comms := heavyComms(rng, 4, 40)
	views := precomputeAll(t, comms, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := map[string]func() error{
		"Similarity": func() error {
			_, err := csj.Similarity(ctx, comms[0], comms[1], csj.ExMinMax, nil)
			return err
		},
		"Rank": func() error {
			_, err := csj.Rank(ctx, comms[0], comms[1:], csj.ExMinMax, nil)
			return err
		},
		"TopK": func() error {
			_, err := csj.TopK(ctx, comms[0], comms[1:], 2, nil)
			return err
		},
		"SimilarityMatrix": func() error {
			_, err := csj.SimilarityMatrix(ctx, comms, csj.ExMinMax, nil)
			return err
		},
		"SimilarityMatrixCells": func() error {
			_, err := csj.SimilarityMatrixCells(ctx, views, [][2]int{{0, 1}}, csj.ExMinMax, nil)
			return err
		},
		"RankPreparedCtx": func() error {
			_, err := csj.RankPreparedCtx(ctx, views[0], views[1:], csj.ExMinMax, nil)
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on canceled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestSimilarityDeadlineSurfacesAsDeadlineExceeded: an expired
// compute budget must map to context.DeadlineExceeded (the HTTP layer
// turns this into 503), not the internal sentinel.
func TestSimilarityDeadlineSurfacesAsDeadlineExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	b := randComm(rng, "B", 400, 8, 6)
	a := randComm(rng, "A", 500, 8, 6)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // the budget has certainly expired
	if _, err := csj.Similarity(ctx, b, a, csj.ExMinMax, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSimilarityMatrixCancelMidRun: canceling a large in-flight matrix
// must return promptly — well before the full fan-out would finish —
// and release every worker goroutine.
func TestSimilarityMatrixCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	comms := heavyComms(rng, 12, 500)
	opts := &csj.Options{Workers: 4, Epsilon: 2}

	// Baseline: how long the uncanceled matrix takes.
	start := time.Now()
	if _, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax, opts); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 20*time.Millisecond {
		t.Skipf("matrix finished in %v; too fast to observe a mid-run cancel", full)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let a few cells get in flight, then pull the plug.
		time.Sleep(full / 10)
		cancel()
	}()
	start = time.Now()
	res, err := csj.SimilarityMatrix(ctx, comms, csj.ExMinMax, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled matrix returned a partial result (%d cells)", len(res))
	}
	if elapsed >= full {
		t.Errorf("canceled run took %v, full run only %v — cancellation did not shorten the work", elapsed, full)
	}
	// The pool goroutines must drain; give the runtime a moment to
	// reap them before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by canceled matrix: %d before, %d after", before, after)
	}
}
