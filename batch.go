package csj

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the batch-join engine shared by SimilarityMatrix and
// Rank: a bounded worker pool with deterministic task numbering,
// first-error cancellation, and one reusable joinScratch per worker.
//
// Batch engines parallelize across pairs (the fan-out axis of the
// paper's broadcast scenario) and run each individual join serially, so
// total concurrency is bounded by the worker count and every cell is
// byte-for-byte the serial join's answer.

// batchWorkers resolves the effective worker count of the batch
// engines: opts.Workers when positive, else GOMAXPROCS — clamped to
// GOMAXPROCS either way. Pool tasks are pure CPU-bound joins, so
// goroutines beyond the scheduler's parallelism only add dispatch
// overhead: on a GOMAXPROCS=1 box a requested Workers=4 used to
// measure as a 0.80x "speedup" purely from goroutine+channel dispatch
// (BENCH_store.json, PR 1); clamping makes such runs take runPool's
// inline serial path instead. Results are identical for every worker
// count by construction, so the clamp is invisible except in time.
func batchWorkers(o *Options) int {
	w := o.Workers
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	if g := runtime.GOMAXPROCS(0); w > g {
		w = g
	}
	return w
}

// runPool fans n independent tasks across at most workers goroutines.
// Tasks are numbered 0..n-1; idx identifies the task (results are
// written to idx-addressed slots, keeping output order deterministic)
// and worker identifies the goroutine (0..workers-1, for per-worker
// scratch). The first task error stops the pool: no new task starts,
// in-flight tasks finish, and that error is returned. A canceled ctx
// likewise stops dispatch before the next task claim; the workers then
// unwind and ctx.Err() is returned (task errors win when both race).
func runPool(ctx context.Context, workers, n int, task func(worker, idx int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(0, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stopped.Load() && !poolCanceled(done) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := task(w, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stopped.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// WorkerStat is one pool worker's share of a batch-engine stage.
type WorkerStat struct {
	// Tasks is how many tasks the worker completed.
	Tasks int
	// Busy is the wall-clock time the worker spent inside tasks (its
	// idle tail — waiting for the slowest sibling — is Wall minus Busy).
	Busy time.Duration
}

// PoolStats reports per-worker utilization of one worker-pool stage of
// a batch engine (observability: skew across workers is the signal
// that drives repartitioning in distributed similarity-join designs).
type PoolStats struct {
	// Stage names the pool run: "matrix/prepare", "matrix/cells" or
	// "rank/probe".
	Stage string
	// Wall is the stage's total wall-clock duration.
	Wall time.Duration
	// Workers holds one entry per pool worker, indexed by worker ID.
	Workers []WorkerStat
}

// Utilization returns the fraction of the stage's worker-seconds spent
// busy: sum(Busy) / (Wall * len(Workers)). 1.0 means perfectly
// balanced work with no idle tails; low values mean skew or a fan-out
// smaller than the pool.
func (ps *PoolStats) Utilization() float64 {
	if ps.Wall <= 0 || len(ps.Workers) == 0 {
		return 0
	}
	var busy time.Duration
	for _, w := range ps.Workers {
		busy += w.Busy
	}
	return float64(busy) / (float64(ps.Wall) * float64(len(ps.Workers)))
}

// runPoolStats is runPool with per-worker utilization accounting: each
// task's wall time is charged to its worker, and the per-stage stats
// are delivered to report after the pool returns (even on error, so
// partial stages still show up). A nil report falls through to the
// uninstrumented pool — the hot path pays nothing when no observer is
// installed.
func runPoolStats(ctx context.Context, workers, n int, stage string, report func(PoolStats), task func(worker, idx int) error) error {
	if report == nil {
		return runPool(ctx, workers, n, task)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	stats := PoolStats{Stage: stage, Workers: make([]WorkerStat, workers)}
	start := time.Now()
	err := runPool(ctx, workers, n, func(worker, idx int) error {
		t0 := time.Now()
		terr := task(worker, idx)
		// Workers own their slot exclusively, so no synchronization is
		// needed beyond the pool's own WaitGroup.
		stats.Workers[worker].Tasks++
		stats.Workers[worker].Busy += time.Since(t0)
		return terr
	})
	stats.Wall = time.Since(start)
	report(stats)
	return err
}

// poolCanceled polls a Done channel without blocking; a nil channel
// (context.Background and friends) is never canceled.
func poolCanceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// scratchPool lazily hands each pool worker its own joinScratch, so
// repeated prepared joins on one worker stop allocating scan state.
type scratchPool []*joinScratch

func newScratchPool(workers int) scratchPool { return make(scratchPool, workers) }

func (sp scratchPool) get(worker int) *joinScratch {
	if sp[worker] == nil {
		sp[worker] = new(joinScratch)
	}
	return sp[worker]
}

// orientPrepared orders a prepared pair like Orient: the smaller
// community becomes B, ties keep the input order.
func orientPrepared(x, y *PreparedCommunity) (b, a *PreparedCommunity) {
	if x.Size() <= y.Size() {
		return x, y
	}
	return y, x
}
