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
// context's own error with no answer. The indexed engines must stop
// before their bound pass, reading no summary and resolving no view.
func TestQueriesHonorPreCanceledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	comms := heavyComms(rng, 4, 40)
	views := precomputeAll(t, comms, nil)
	src := &sliceSource{pcs: views[1:], sums: summarize(t, views[1:])}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Each call returns whether it answered, and its error.
	calls := map[string]func() (bool, error){
		"Similarity": func() (bool, error) {
			res, err := csj.Similarity(ctx, comms[0], comms[1], csj.ExMinMax, nil)
			return res != nil, err
		},
		"Rank": func() (bool, error) {
			res, err := csj.Rank(ctx, comms[0], comms[1:], csj.ExMinMax, nil)
			return res != nil, err
		},
		"TopK": func() (bool, error) {
			res, err := csj.TopK(ctx, comms[0], comms[1:], 2, nil)
			return res != nil, err
		},
		"SimilarityMatrix": func() (bool, error) {
			res, err := csj.SimilarityMatrix(ctx, comms, csj.ExMinMax, nil)
			return res != nil, err
		},
		"SimilarityMatrixCells": func() (bool, error) {
			res, err := csj.SimilarityMatrixCells(ctx, views, [][2]int{{0, 1}}, csj.ExMinMax, nil)
			return res != nil, err
		},
		"RankPreparedCtx": func() (bool, error) {
			res, err := csj.RankPreparedCtx(ctx, views[0], views[1:], csj.ExMinMax, nil)
			return res != nil, err
		},
		"TopKIndexedFrom": func() (bool, error) {
			res, err := csj.TopKIndexedFrom(ctx, views[0], src, 2, nil)
			return res != nil, err
		},
		"RankAboveIndexedFrom": func() (bool, error) {
			res, err := csj.RankAboveIndexedFrom(ctx, views[0], src, csj.ExMinMax, 0.01, nil)
			return res != nil, err
		},
	}
	for name, call := range calls {
		answered, err := call()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s on canceled ctx: err = %v, want context.Canceled", name, err)
		}
		if answered {
			t.Errorf("%s on canceled ctx returned an answer", name)
		}
	}
	if src.read != 0 || src.resolved != 0 {
		t.Errorf("the indexed engines read %d summaries and resolved %d views on a canceled ctx",
			src.read, src.resolved)
	}
}

// cancelingSource cancels the query's context when the engine resolves
// its first view.
type cancelingSource struct {
	*sliceSource
	cancel context.CancelFunc
}

func (s cancelingSource) View(i int) (*csj.PreparedCommunity, error) {
	s.cancel()
	return s.sliceSource.View(i)
}

// TestIndexedEnginesStopBetweenVisits: a cancellation that lands during
// the visits stops the indexed engines before their next join. A join
// of communities of 10 users ends before its scan's first cancellation
// checkpoint, so only the engines' own check can see it.
func TestIndexedEnginesStopBetweenVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	comms := make([]*csj.Community, 6)
	for i := range comms {
		comms[i] = randComm(rng, fmt.Sprintf("small-%d", i), 10, 4, 3)
	}
	opts := &csj.Options{Epsilon: 2}
	views := precomputeAll(t, comms, opts)
	sums := summarize(t, views[1:])
	calls := map[string]func(context.Context, csj.CandidateSource) (bool, error){
		"TopKIndexedFrom": func(ctx context.Context, src csj.CandidateSource) (bool, error) {
			res, err := csj.TopKIndexedFrom(ctx, views[0], src, len(sums), opts)
			return res != nil, err
		},
		"RankAboveIndexedFrom": func(ctx context.Context, src csj.CandidateSource) (bool, error) {
			res, err := csj.RankAboveIndexedFrom(ctx, views[0], src, csj.ExMinMax, 0.01, opts)
			return res != nil, err
		},
	}
	for name, call := range calls {
		ctx, cancel := context.WithCancel(context.Background())
		src := cancelingSource{&sliceSource{pcs: views[1:], sums: sums}, cancel}
		answered, err := call(ctx, src)
		if !errors.Is(err, context.Canceled) || answered {
			t.Errorf("%s canceled at its first visit: answered %v, err = %v, want context.Canceled and no answer",
				name, answered, err)
		}
		if src.resolved != 1 {
			t.Errorf("%s resolved %d views after the cancellation at the first, want 1", name, src.resolved)
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
