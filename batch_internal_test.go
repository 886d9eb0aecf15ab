package csj

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunPoolCoversEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		if err := runPool(context.Background(), workers, n, func(_, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunPoolFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := runPool(context.Background(), 4, 1000, func(_, i int) error {
		ran.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// In-flight tasks may finish, but the bulk of the queue must have
	// been abandoned after the failure.
	if got := ran.Load(); got >= 1000 {
		t.Errorf("ran %d tasks despite early error", got)
	}
}

func TestRunPoolWorkerIDsStayInRange(t *testing.T) {
	const workers = 5
	var bad atomic.Int32
	if err := runPool(context.Background(), workers, 200, func(w, _ int) error {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Errorf("%d tasks saw a worker id outside [0,%d)", bad.Load(), workers)
	}
}

func TestRunPoolZeroTasks(t *testing.T) {
	if err := runPool(context.Background(), 3, 0, func(_, _ int) error {
		t.Error("task ran with n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPoolPreCanceledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := runPool(ctx, workers, 100, func(_, _ int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The parallel pool may admit at most one task per worker that
		// raced the cancellation; the bulk must never be dispatched.
		if got := ran.Load(); got > int32(workers) {
			t.Errorf("workers=%d: %d tasks ran on a pre-canceled context", workers, got)
		}
	}
}

// TestRunPoolCancelMidRunStopsDispatch cancels at the 8th task. Every
// later task waits for the cancellation to land, so no worker can
// drain the queue while the canceling one is descheduled: the count
// checks dispatch, not scheduling. At most the first 8 tasks run, plus
// one in flight on each of the other 3 workers.
func TestRunPoolCancelMidRunStopsDispatch(t *testing.T) {
	const workers, cancelAt = 4, 8
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := runPool(ctx, workers, 1000, func(_, _ int) error {
		switch n := ran.Add(1); {
		case n == cancelAt:
			cancel()
		case n > cancelAt:
			<-ctx.Done()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > cancelAt+workers-1 {
		t.Errorf("ran %d tasks despite mid-run cancellation, want at most %d", got, cancelAt+workers-1)
	}
}

func TestRunPoolTaskErrorWinsOverLateCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := runPool(ctx, 2, 10, func(_, i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestRunPoolSerialInline pins the workers<=1 fast path: tasks run
// inline on the caller's goroutine, in ascending order, all as worker
// 0 — no goroutine, channel, or WaitGroup dispatch. (That dispatch is
// what turned PR 1's Workers=4 batch runs on a GOMAXPROCS=1 box into
// 0.80x "speedups".)
func TestRunPoolSerialInline(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		err := runPool(context.Background(), workers, 50, func(w, i int) error {
			if w != 0 {
				t.Fatalf("workers=%d: task %d ran as worker %d, want 0", workers, i, w)
			}
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: task order %v, want ascending", workers, order)
			}
		}
		if len(order) != 50 {
			t.Fatalf("workers=%d: ran %d tasks, want 50", workers, len(order))
		}
	}
	// n==1 collapses to the serial path regardless of requested workers.
	var asWorker = -1
	if err := runPool(context.Background(), 8, 1, func(w, _ int) error {
		asWorker = w
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if asWorker != 0 {
		t.Errorf("n=1: ran as worker %d, want 0 (inline)", asWorker)
	}
}

// BenchmarkRunPoolSerialOverhead measures the workers==1 pool path
// against a bare loop over the same task: the pool adds one ctx.Err()
// poll per task and nothing else, about 2 ns a task on a 2-vCPU Xeon
// (go test -run '^$' -bench BenchmarkRunPoolSerialOverhead .) — noise
// next to a join of microseconds.
func BenchmarkRunPoolSerialOverhead(b *testing.B) {
	const n = 256
	task := func(_, i int) error {
		sink += i
		return nil
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				if err := task(0, j); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pool-1", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if err := runPool(ctx, 1, n, task); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sink defeats dead-code elimination in BenchmarkRunPoolSerialOverhead.
var sink int

func TestBatchWorkersDefault(t *testing.T) {
	g := runtime.GOMAXPROCS(0)
	if got := batchWorkers(&Options{}); got != g {
		t.Errorf("batchWorkers(0) = %d, want GOMAXPROCS (%d)", got, g)
	}
	// An explicit request is honored up to the scheduler's parallelism:
	// CPU-bound pools never win from more goroutines than GOMAXPROCS,
	// only pay dispatch for them (the PR 1 0.80x "speedup").
	want := 3
	if g < want {
		want = g
	}
	if got := batchWorkers(&Options{Workers: 3}); got != want {
		t.Errorf("batchWorkers(3) = %d, want min(3, GOMAXPROCS) = %d", got, want)
	}
	if got := batchWorkers(&Options{Workers: 1}); got != 1 {
		t.Errorf("batchWorkers(1) = %d, want 1", got)
	}
}
