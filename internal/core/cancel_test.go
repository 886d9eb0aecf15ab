package core

import (
	"errors"
	"math/rand"
	"testing"
)

// closedDone returns an already-closed cancellation channel: every
// checkpoint that polls it sees a canceled scan.
func closedDone() chan struct{} {
	done := make(chan struct{})
	close(done)
	return done
}

// TestCancelPreClosedDoneStopsScans: with Done closed before the scan
// starts, both algorithms return ErrCanceled from the very first
// checkpoint instead of a result.
func TestCancelPreClosedDoneStopsScans(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	b := randCommunity(rng, "B", 40, 4, 8)
	a := randCommunity(rng, "A", 60, 4, 8)
	opts := Options{Eps: 1, Done: closedDone()}
	if _, err := ApMinMax(b, a, opts); !errors.Is(err, ErrCanceled) {
		t.Errorf("ApMinMax with closed Done: err = %v, want ErrCanceled", err)
	}
	if _, err := ExMinMax(b, a, opts); !errors.Is(err, ErrCanceled) {
		t.Errorf("ExMinMax with closed Done: err = %v, want ErrCanceled", err)
	}
}

// TestCancelPreClosedDoneStopsPreparedScans: the scratch-reusing
// prepared path honors Done the same way, and the scratch stays usable
// for the next (uncanceled) join afterwards.
func TestCancelPreClosedDoneStopsPreparedScans(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	opts := Options{Eps: 1}
	pb, err := Prepare(randCommunity(rng, "B", 40, 4, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Prepare(randCommunity(rng, "A", 60, 4, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	var res Result
	canceledOpts := opts
	canceledOpts.Done = closedDone()
	if err := ApMinMaxPreparedInto(pb, pa, canceledOpts, s, &res); !errors.Is(err, ErrCanceled) {
		t.Errorf("ApMinMaxPreparedInto: err = %v, want ErrCanceled", err)
	}
	if err := ExMinMaxPreparedInto(pb, pa, canceledOpts, s, &res); !errors.Is(err, ErrCanceled) {
		t.Errorf("ExMinMaxPreparedInto: err = %v, want ErrCanceled", err)
	}
	// The canceled run must not poison the reused scratch.
	if err := ApMinMaxPreparedInto(pb, pa, opts, s, &res); err != nil {
		t.Fatalf("scratch join after canceled run: %v", err)
	}
	want, err := ApMinMaxPrepared(pb, pa, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != want.Events || len(res.Pairs) != len(want.Pairs) {
		t.Errorf("post-cancel join diverged: events %+v vs %+v, %d vs %d pairs",
			res.Events, want.Events, len(res.Pairs), len(want.Pairs))
	}
}

// TestCancelOpenDoneChangesNothing: an open (non-nil, never closed)
// Done channel must not alter any result — the checkpoints are pure
// observers.
func TestCancelOpenDoneChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	b := randCommunity(rng, "B", 50, 4, 8)
	a := randCommunity(rng, "A", 70, 4, 8)
	plain := Options{Eps: 1}
	watched := Options{Eps: 1, Done: make(chan struct{})}
	for name, run := range map[string]func(opts Options) (*Result, error){
		"Ap": func(opts Options) (*Result, error) { return ApMinMax(b, a, opts) },
		"Ex": func(opts Options) (*Result, error) { return ExMinMax(b, a, opts) },
	} {
		want, err := run(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(watched)
		if err != nil {
			t.Fatalf("%s with open Done: %v", name, err)
		}
		if got.Events != want.Events || len(got.Pairs) != len(want.Pairs) {
			t.Errorf("%s: open Done changed the result: %+v vs %+v", name, got.Events, want.Events)
		}
	}
}

// cancelAfterComparer closes done at its closeAt-th comparison and
// counts every comparison the scan performs after that — the observable
// cancellation latency in units of work.
type cancelAfterComparer struct {
	done    chan struct{}
	closeAt int
	calls   int
	after   int
}

func (c *cancelAfterComparer) Compare(bPos, aPos int) Outcome {
	c.calls++
	if c.calls == c.closeAt {
		close(c.done)
	} else if c.calls > c.closeAt {
		c.after++
	}
	return OutcomeNoMatch
}

// TestCancelLatencyBoundedByStride pins the poll cadence in units of
// work: after Done closes mid-scan, the scan may perform at most one
// checkpoint stride of further comparisons before returning
// ErrCanceled. The input shape is the one the old per-row polling got
// wrong — few B rows (like 8-dimension communities with thousands of
// tiny vectors on the A side), each scanning thousands of wide A
// windows, so almost all scan steps are inner iterations. Counting
// only outer rows, the old code's worst case here was the whole
// remaining scan (~24k comparisons below) between polls; the carried
// budget bounds it at cancelCheckEvery regardless of row shape.
func TestCancelLatencyBoundedByStride(t *testing.T) {
	const (
		nB      = 8
		nA      = 4000
		closeAt = 1000
	)
	bid := make([]int64, nB)
	amin := make([]int64, nA)
	amax := make([]int64, nA)
	for i := range bid {
		bid[i] = 5
	}
	for i := range amax {
		amax[i] = 10 // every window [0,10] admits every B id
	}
	for name, run := range map[string]func(in *Input) error{
		"Ap": func(in *Input) error { _, err := ScanAp(in, &Events{}, nil); return err },
		"Ex": func(in *Input) error { _, err := ScanEx(in, nil, &Events{}, nil); return err },
	} {
		cmp := &cancelAfterComparer{done: make(chan struct{}), closeAt: closeAt}
		in := &Input{BID: bid, AMin: amin, AMax: amax, Cmp: cmp, Done: cmp.done}
		if err := run(in); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", name, err)
		}
		if cmp.after > cancelCheckEvery {
			t.Errorf("%s: %d comparisons after Done closed, want <= %d (one stride)",
				name, cmp.after, cancelCheckEvery)
		}
		if cmp.calls >= nB*nA {
			t.Errorf("%s: scan ran to completion (%d comparisons) despite mid-scan cancel", name, cmp.calls)
		}
	}
}

// TestCancelCheckpointsAreAllocationFree guards the tentpole's perf
// promise: threading a live Done channel through the prepared fast
// path must keep the Ap join at zero allocations per run.
func TestCancelCheckpointsAreAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	opts := Options{Eps: 1, Done: make(chan struct{})}
	pb, err := Prepare(randCommunity(rng, "B", 200, 4, 8), Options{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Prepare(randCommunity(rng, "A", 300, 4, 8), Options{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	var res Result
	// Warm the scratch so steady-state reuse is what gets measured.
	if err := ApMinMaxPreparedInto(pb, pa, opts, s, &res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := ApMinMaxPreparedInto(pb, pa, opts, s, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Ap prepared join with Done set allocates %.1f/op, want 0", allocs)
	}
}
