package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/dataset"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/store"
)

// batchConfig parameterizes the -batch benchmark mode.
type batchConfig struct {
	Communities int
	Size        int
	Workers     int
	K           int
	Seed        int64
	Metrics     bool
}

// workerStat is one worker's share of a pool stage.
type workerStat struct {
	Tasks  int   `json:"tasks"`
	BusyNs int64 `json:"busy_ns"`
}

// poolStageReport is one batch-engine pool stage: wall clock,
// utilization (busy worker-time over wall × pool size), and the
// per-worker breakdown that exposes skew.
type poolStageReport struct {
	Stage       string       `json:"stage"`
	WallNs      int64        `json:"wall_ns"`
	Utilization float64      `json:"utilization"`
	Workers     []workerStat `json:"workers"`
}

// batchReport is the JSON emitted by -batch: wall-clock and allocation
// figures for the batch-join engine at the -workers pool size, and for
// the serial indexed TopK over the same communities.
type batchReport struct {
	Communities   int `json:"communities"`
	CommunitySize int `json:"community_size"`
	Workers       int `json:"workers"`
	GOMAXPROCS    int `json:"gomaxprocs"`

	// Each time is the median ns/op of legRuns benchmark runs, beside
	// its IQR; the allocations are the last matrix run's.
	MatrixNsOp     int64 `json:"matrix_ns_op"`
	MatrixIQRNs    int64 `json:"matrix_iqr_ns"`
	MatrixAllocsOp int64 `json:"matrix_allocs_op"`
	TopKNsOp       int64 `json:"topk_ns_op"`
	TopKIQRNs      int64 `json:"topk_iqr_ns"`

	// Steady-state allocations of one prepared join run through a
	// reused scratch and result (the batch engine's hot path).
	ApPreparedScratchAllocsOp float64 `json:"ap_prepared_scratch_allocs_op"`
	ExPreparedScratchAllocsOp float64 `json:"ex_prepared_scratch_allocs_op"`
	// The same joins through the one-shot prepared API, for comparison.
	ApPreparedFreshAllocsOp float64 `json:"ap_prepared_fresh_allocs_op"`
	ExPreparedFreshAllocsOp float64 `json:"ex_prepared_fresh_allocs_op"`

	// Store section: the same matrix run through the community store's
	// prepared-view cache, cold (every view is a miss that triggers a
	// build) versus warm (every view is a hit, zero core.Prepare calls).
	// Each time is the median of legRuns runs, beside its IQR; the
	// cache counters are one run's.
	StoreColdMatrixNs    int64 `json:"store_cold_matrix_ns"`
	StoreColdMatrixIQRNs int64 `json:"store_cold_matrix_iqr_ns"`
	StoreWarmMatrixNs    int64 `json:"store_warm_matrix_ns"`
	StoreWarmMatrixIQRNs int64 `json:"store_warm_matrix_iqr_ns"`
	StoreCacheHits       int64 `json:"store_cache_hits"`
	StoreCacheMisses     int64 `json:"store_cache_misses"`
	StoreCacheBuilds     int64 `json:"store_cache_builds"`
	StoreCacheBytes      int64 `json:"store_cache_bytes"`
	StoreCacheEntries    int   `json:"store_cache_entries"`

	// Durability section: the cost of one WAL append of a
	// cfg.Size-user community, with an fsync per append (the
	// -fsync=always acknowledgement price) versus none (DESIGN.md §11),
	// each the median of legRuns runs, beside its IQR.
	WALAppendFsyncNs      int64 `json:"wal_append_fsync_ns"`
	WALAppendFsyncIQRNs   int64 `json:"wal_append_fsync_iqr_ns"`
	WALAppendNoFsyncNs    int64 `json:"wal_append_nofsync_ns"`
	WALAppendNoFsyncIQRNs int64 `json:"wal_append_nofsync_iqr_ns"`

	// With -metrics: scan-event totals from one instrumented Matrix +
	// TopK run, and the matrix's per-worker pool utilization (TopK runs
	// no pool).
	ScanEvents map[string]int64  `json:"scan_events,omitempty"`
	PoolStages []poolStageReport `json:"pool_stages,omitempty"`
}

// batchCommunities synthesizes n communities over a shared VK-like user
// pool, so pairwise similarities are non-trivial (the paper's broadcast
// scenario: brand pages with overlapping subscriber bases).
func batchCommunities(cfg batchConfig) []*csj.Community {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := dataset.NewGenerator(dataset.VK, rng, 0)
	pool := make([]csj.Vector, cfg.Size*2)
	for i := range pool {
		pool[i] = gen.User()
	}
	comms := make([]*csj.Community, cfg.Communities)
	for c := range comms {
		// Sizes vary within ±10% so every pair satisfies the CSJ size
		// precondition; ~30% of each community comes from the pool.
		size := cfg.Size - cfg.Size/10 + rng.Intn(cfg.Size/5+1)
		users := make([]csj.Vector, size)
		for i := range users {
			if rng.Float64() < 0.3 {
				users[i] = slices.Clone(pool[rng.Intn(len(pool))])
			} else {
				users[i] = gen.User()
			}
		}
		comms[c] = &csj.Community{Name: fmt.Sprintf("brand-%02d", c), Category: -1, Users: users}
	}
	return comms
}

func runBatch(w io.Writer, cfg batchConfig) error {
	if cfg.Communities < 2 {
		return fmt.Errorf("-batch needs at least 2 communities, got %d", cfg.Communities)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	comms := batchCommunities(cfg)
	const eps = dataset.EpsilonVK

	rep := batchReport{
		Communities:   cfg.Communities,
		CommunitySize: cfg.Size,
		Workers:       cfg.Workers,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}

	opts := &csj.Options{Epsilon: eps, Workers: cfg.Workers}
	pivot, cands := comms[0], comms[1:]
	var matrixNs, topkNs []int64
	for range legRuns {
		// The legs alternate, so drift on the machine reaches both.
		matrix := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.MatrixAllocsOp = matrix.AllocsPerOp()
		topk := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := csj.TopK(context.Background(), pivot, cands, cfg.K, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		matrixNs, topkNs = append(matrixNs, matrix.NsPerOp()), append(topkNs, topk.NsPerOp())
	}
	rep.MatrixNsOp, rep.MatrixIQRNs = medianIQR(matrixNs)
	rep.TopKNsOp, rep.TopKIQRNs = medianIQR(topkNs)

	// Prepared-join allocation profile: the same pair joined through the
	// scratch hot path versus the one-shot API.
	ib, ia := comms[0], comms[1]
	if ib.Size() > ia.Size() {
		ib, ia = ia, ib
	}
	copts := core.Options{Eps: eps}
	pb, err := core.Prepare(ib, copts)
	if err != nil {
		return err
	}
	pa, err := core.Prepare(ia, copts)
	if err != nil {
		return err
	}
	scratch := core.NewScratch()
	var res core.Result
	rep.ApPreparedScratchAllocsOp = testing.AllocsPerRun(100, func() {
		if err := core.ApMinMaxPreparedInto(pb, pa, copts, scratch, &res); err != nil {
			panic(err)
		}
	})
	rep.ExPreparedScratchAllocsOp = testing.AllocsPerRun(100, func() {
		if err := core.ExMinMaxPreparedInto(pb, pa, copts, scratch, &res); err != nil {
			panic(err)
		}
	})
	rep.ApPreparedFreshAllocsOp = testing.AllocsPerRun(100, func() {
		if _, err := core.ApMinMaxPrepared(pb, pa, copts); err != nil {
			panic(err)
		}
	})
	rep.ExPreparedFreshAllocsOp = testing.AllocsPerRun(100, func() {
		if _, err := core.ExMinMaxPrepared(pb, pa, copts); err != nil {
			panic(err)
		}
	})

	if err := storeRun(comms, eps, opts, &rep); err != nil {
		return err
	}

	if err := durableRun(comms[0], &rep); err != nil {
		return err
	}

	if cfg.Metrics {
		if err := instrumentedRun(comms, pivot, cands, cfg, eps, &rep); err != nil {
			return err
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// instrumentedRun performs one Matrix + TopK pass with the
// join-event and pool-stats observers attached and folds the tallies
// into the report. Kept out of the benchmark loops so the timing
// figures stay uninstrumented.
func instrumentedRun(comms []*csj.Community, pivot *csj.Community, cands []*csj.Community, cfg batchConfig, eps int32, rep *batchReport) error {
	events := make(map[string]int64)
	var stages []poolStageReport
	var mu sync.Mutex // observers fire concurrently from pool workers
	opts := &csj.Options{
		Epsilon: eps,
		Workers: cfg.Workers,
		OnJoinEvents: func(ev csj.Events) {
			mu.Lock()
			ev.AddTo(func(name string, n int64) { events[name] += n })
			mu.Unlock()
		},
		OnPoolStats: func(ps csj.PoolStats) {
			sr := poolStageReport{
				Stage:       ps.Stage,
				WallNs:      ps.Wall.Nanoseconds(),
				Utilization: ps.Utilization(),
			}
			for _, ws := range ps.Workers {
				sr.Workers = append(sr.Workers, workerStat{Tasks: ws.Tasks, BusyNs: ws.Busy.Nanoseconds()})
			}
			mu.Lock()
			stages = append(stages, sr)
			mu.Unlock()
		},
	}
	if _, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax, opts); err != nil {
		return err
	}
	if _, err := csj.TopK(context.Background(), pivot, cands, cfg.K, opts); err != nil {
		return err
	}
	rep.ScanEvents = events
	rep.PoolStages = stages
	return nil
}

// legRuns is how many times runBatch, storeRun and durableRun run each
// leg: one timing of a leg moved by half between runs of the same code.
const legRuns = 5

// medianIQR returns the median of the runs' times and their
// interquartile range, with nearest-rank quartiles.
func medianIQR(runs []int64) (median, iqr int64) {
	s := slices.Clone(runs)
	slices.Sort(s)
	n := len(s)
	return s[n/2], s[3*n/4] - s[n/4]
}

// storeRun measures the community store's prepared-view cache on the
// matrix workload, legRuns times on a fresh store: a cold pass (every
// view misses and builds) and a warm pass over the same snapshot
// (every view hits; zero core.Prepare calls). The last store's cache
// counters are folded into the report.
func storeRun(comms []*csj.Community, eps int32, opts *csj.Options, rep *batchReport) error {
	var cells [][2]int // every unordered pair, as SimilarityMatrix joins them
	for i := range comms {
		for j := i + 1; j < len(comms); j++ {
			cells = append(cells, [2]int{i, j})
		}
	}
	pass := func(st *store.Store, ids []int64) (int64, error) {
		snap := st.Snapshot()
		views := make([]*csj.PreparedCommunity, len(ids))
		start := time.Now()
		for i, id := range ids {
			v, err := snap.PreparedSpec(id, csj.MatchSpec{Epsilon: eps})
			if err != nil {
				return 0, err
			}
			views[i] = v
		}
		if _, err := csj.SimilarityMatrixCells(context.Background(), views, cells, csj.ExMinMax, opts); err != nil {
			return 0, err
		}
		return time.Since(start).Nanoseconds(), nil
	}
	var st *store.Store
	var cold, warm []int64
	for range legRuns {
		st = store.New(store.Config{})
		ids := make([]int64, len(comms))
		for i, c := range comms {
			e, err := st.Create(c)
			if err != nil {
				return err
			}
			ids[i] = e.ID
		}
		coldNs, err := pass(st, ids)
		if err != nil {
			return err
		}
		warmNs, err := pass(st, ids)
		if err != nil {
			return err
		}
		cold, warm = append(cold, coldNs), append(warm, warmNs)
	}
	rep.StoreColdMatrixNs, rep.StoreColdMatrixIQRNs = medianIQR(cold)
	rep.StoreWarmMatrixNs, rep.StoreWarmMatrixIQRNs = medianIQR(warm)
	cs := st.CacheStats()
	rep.StoreCacheHits = cs.Hits
	rep.StoreCacheMisses = cs.Misses
	rep.StoreCacheBuilds = cs.Builds
	rep.StoreCacheBytes = cs.Bytes
	rep.StoreCacheEntries = cs.Entries
	return nil
}

// durableRun prices one WAL append of community c under both fsync
// extremes, into throwaway log directories, legRuns times each with the
// two legs alternating, so drift on the machine reaches both. The gap
// between the two rows is what -fsync=always charges per acknowledged
// ingest.
func durableRun(c *csj.Community, rep *batchReport) error {
	bench := func(policy durable.FsyncPolicy) (int64, error) {
		dir, err := os.MkdirTemp("", "csjbench-wal-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		// Automatic checkpoints off: the benchmark prices appends only.
		l, err := durable.Open(dir, durable.Options{Fsync: policy, CheckpointEvery: -1})
		if err != nil {
			return 0, err
		}
		defer l.Close()
		var id int64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id++
				if err := l.AppendPut(id, uint64(id), c); err != nil {
					b.Fatal(err)
				}
			}
		})
		return r.NsPerOp(), nil
	}
	var fsync, noFsync []int64
	for range legRuns {
		fsyncNs, err := bench(durable.FsyncAlways)
		if err != nil {
			return err
		}
		noFsyncNs, err := bench(durable.FsyncOff)
		if err != nil {
			return err
		}
		fsync, noFsync = append(fsync, fsyncNs), append(noFsync, noFsyncNs)
	}
	rep.WALAppendFsyncNs, rep.WALAppendFsyncIQRNs = medianIQR(fsync)
	rep.WALAppendNoFsyncNs, rep.WALAppendNoFsyncIQRNs = medianIQR(noFsync)
	return nil
}
