package csj

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/ego"
)

// PreparedCommunity is a community with its MinMax encodings cached for
// repeated joins (see Precompute). The underlying community must not be
// mutated while the prepared form is in use. It has no file form: save
// Community() with SaveCommunity, and Precompute the loaded community
// with the same options to get the same view back.
type PreparedCommunity struct {
	p    *core.Prepared
	name string

	// centroidOnce/centroidVal lazily cache the normalized centroid the
	// composite scorer's cosine signal reads. Computed on the first
	// scored join only — unscored workloads never pay the O(n·d) pass.
	centroidOnce sync.Once
	centroidVal  []float64
}

// Name returns the community's name.
func (pc *PreparedCommunity) Name() string { return pc.name }

// Size returns the community's size.
func (pc *PreparedCommunity) Size() int { return pc.p.Size() }

// Community returns the underlying community (shared, not copied).
func (pc *PreparedCommunity) Community() *Community {
	return pc.p.Community()
}

// centroid returns the cached normalized centroid (see ScorerSpec).
func (pc *PreparedCommunity) centroid() []float64 {
	pc.centroidOnce.Do(func() {
		pc.centroidVal = ego.NormalizedCentroid(pc.p.Community())
	})
	return pc.centroidVal
}

// Precompute encodes a community once for repeated MinMax joins under
// the given options (Epsilon and Parts are used). The paper's broadcast
// scenario joins "a variety of community pairs"; precomputing turns
// N*(N-1)/2 pairwise joins from O(N^2) encodings into O(N).
func Precompute(c *Community, opts *Options) (*PreparedCommunity, error) {
	o := opts.orDefault()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p, err := core.Prepare(c, core.Options{Eps: o.Epsilon, EpsVec: o.EpsilonVec, Parts: o.Parts})
	if err != nil {
		return nil, err
	}
	return &PreparedCommunity{p: p, name: c.Name}, nil
}

// SimilarityPrepared joins two precomputed communities with a MinMax
// method (ApMinMax or ExMinMax; the other methods do not use the cached
// encodings). b must be the smaller community unless
// opts.AllowSizeImbalance is set.
func SimilarityPrepared(b, a *PreparedCommunity, method Method, opts *Options) (*Result, error) {
	return SimilarityPreparedCtx(context.Background(), b, a, method, opts)
}

// SimilarityPreparedCtx is SimilarityPrepared with cooperative
// cancellation (see Similarity for the semantics).
func SimilarityPreparedCtx(ctx context.Context, b, a *PreparedCommunity, method Method, opts *Options) (*Result, error) {
	o := opts.orDefault()
	return similarityPrepared(ctx, b, a, method, &o, new(joinScratch))
}

// MatrixEntry is one cell of a similarity matrix: communities I and J
// (indexes into the input slice) and their CSJ result, or the reason
// the pair was not scored.
type MatrixEntry struct {
	I, J int
	// Result is the join result with the smaller community as B; nil
	// when Skipped.
	Result *Result
	// Skipped reports a violated size precondition.
	Skipped bool
}

// SimilarityMatrix scores every unordered pair of the given communities
// with a MinMax method, encoding each community exactly once. Pairs
// violating ceil(|A|/2) <= |B| are skipped unless
// opts.AllowSizeImbalance is set. Entries are returned in (I, J) order
// with I < J.
//
// Preparation and the cells fan out across a bounded worker pool of
// opts.Workers goroutines (0 selects GOMAXPROCS; 1 runs serially). Each
// cell is an independent serial join, so the entries are identical to a
// Workers=1 run for any worker count; the first join error cancels the
// remaining cells. A canceled ctx stops the pool from dispatching
// further cells, interrupts in-flight scans at their next checkpoint,
// and returns ctx's error once the workers have unwound. No partial
// matrix is returned.
func SimilarityMatrix(ctx context.Context, comms []*Community, method Method, opts *Options) ([]MatrixEntry, error) {
	if len(comms) < 2 {
		return nil, errors.New("csj: SimilarityMatrix needs at least two communities")
	}
	o := opts.orDefault()
	workers := batchWorkers(&o)
	prepared := make([]*PreparedCommunity, len(comms))
	if err := runPoolStats(ctx, workers, len(comms), "matrix/prepare", o.OnPoolStats, func(_, i int) error {
		p, err := Precompute(comms[i], &o)
		if err != nil {
			return fmt.Errorf("csj: preparing community %d (%s): %w", i, comms[i].Name, err)
		}
		prepared[i] = p
		return nil
	}); err != nil {
		return nil, err
	}
	return matrixCells(ctx, prepared, allPairs(len(prepared)), method, &o, workers)
}

// SimilarityMatrixCells scores an explicit list of cells over
// already-prepared communities — the workload the community store's
// view cache serves, where a request names its cells. Cell k joins
// prepared[cells[k][0]] with prepared[cells[k][1]], and entry k reports
// it with those indexes as I and J. The cells run on the batch pool
// like SimilarityMatrix's, with its cancellation semantics, and skip
// the encoding phase entirely. All views must agree on epsilon and
// parts (Precompute with the same options, or views from one store
// snapshot); a mismatch surfaces as a join error.
func SimilarityMatrixCells(ctx context.Context, prepared []*PreparedCommunity, cells [][2]int, method Method, opts *Options) ([]MatrixEntry, error) {
	for k, cell := range cells {
		for _, i := range cell {
			if i < 0 || i >= len(prepared) || prepared[i] == nil {
				return nil, fmt.Errorf("csj: cell %d names no prepared community at index %d", k, i)
			}
		}
	}
	o := opts.orDefault()
	return matrixCells(ctx, prepared, cells, method, &o, batchWorkers(&o))
}

// allPairs lists every unordered pair (i, j), i < j, of n communities
// in row-major order.
func allPairs(n int) [][2]int {
	cells := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cells = append(cells, [2]int{i, j})
		}
	}
	return cells
}

// matrixCells is the cell engine behind both matrix entry points: the
// given cells, fanned out across the worker pool with per-worker
// scratch, smaller community as B.
func matrixCells(ctx context.Context, prepared []*PreparedCommunity, cells [][2]int, method Method, o *Options, workers int) ([]MatrixEntry, error) {
	out := make([]MatrixEntry, len(cells))
	scratches := newScratchPool(workers)
	err := runPoolStats(ctx, workers, len(cells), "matrix/cells", o.OnPoolStats, func(w, idx int) error {
		i, j := cells[idx][0], cells[idx][1]
		b, a := prepared[i], prepared[j]
		entry := MatrixEntry{I: i, J: j}
		if b.Size() > a.Size() {
			b, a = a, b
		}
		res, err := similarityPrepared(ctx, b, a, method, o, scratches.get(w))
		switch {
		case err == nil:
			entry.Result = res
		case errors.Is(err, ErrSizeConstraint):
			entry.Skipped = true
		default:
			return fmt.Errorf("csj: joining %s with %s: %w", b.Name(), a.Name(), err)
		}
		out[idx] = entry
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
