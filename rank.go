package csj

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Ranked is one entry of a Rank result: a candidate community scored
// against the pivot.
type Ranked struct {
	// Index is the candidate's position in the input slice.
	Index int
	// Name is the candidate community's name.
	Name string
	// Result is the CSJ result against the pivot, nil when Skipped.
	Result *Result
	// Skipped reports that the pair violated the CSJ size precondition
	// and AllowSizeImbalance was not set.
	Skipped bool
	// Err records a per-candidate failure other than the size
	// precondition (e.g. dimension mismatch); such candidates sort last.
	Err error
}

// Rank scores every candidate community against the pivot and returns
// them in descending similarity order — the paper's broadcast
// recommendation: the online system compares a variety of community
// pairs and prioritizes recommendations by the resulting ranking
// (Section 1.2 (ii.b)).
//
// Each pivot/candidate pair is oriented automatically (the smaller
// community becomes B). Pairs that violate ceil(|A|/2) <= |B| are
// skipped unless opts.AllowSizeImbalance is set; skipped and failed
// candidates sort after scored ones.
//
// The per-candidate probes fan out across a bounded worker pool of
// opts.Workers goroutines (0 selects GOMAXPROCS; 1 runs serially). The
// parallel axis is the candidate fan-out: each probe joins serially, so
// the ranking is identical to a Workers=1 run for any worker count.
func Rank(pivot *Community, candidates []*Community, method Method, opts *Options) ([]Ranked, error) {
	return RankCtx(context.Background(), pivot, candidates, method, opts)
}

// RankCtx is Rank with cooperative cancellation. Per-candidate
// failures are still recorded in the entries rather than aborting the
// ranking, but a canceled ctx is fatal: undispatched probes are
// abandoned, in-flight MinMax scans stop at their next checkpoint, and
// ctx's error is returned with no partial ranking.
func RankCtx(ctx context.Context, pivot *Community, candidates []*Community, method Method, opts *Options) ([]Ranked, error) {
	if pivot == nil || len(candidates) == 0 {
		return nil, errors.New("csj: Rank needs a pivot and at least one candidate")
	}
	o := opts.orDefault()
	workers := batchWorkers(&o)
	out := make([]Ranked, len(candidates))
	err := runPoolStats(ctx, workers, len(candidates), "rank/probe", o.OnPoolStats, func(_, i int) error {
		cand := candidates[i]
		out[i] = Ranked{Index: i, Name: cand.Name}
		b, a := Orient(pivot, cand)
		res, err := SimilarityCtx(ctx, b, a, method, &o)
		switch {
		case err == nil:
			out[i].Result = res
		case errors.Is(err, ErrSizeConstraint):
			out[i].Skipped = true
		case ctx.Err() != nil:
			return ctx.Err() // cancellation is fatal, not a candidate failure
		default:
			out[i].Err = err
		}
		return nil // per-candidate failures are recorded, not fatal
	})
	if err != nil {
		return nil, err
	}
	sortRanked(out)
	return out, nil
}

// RankPrepared is Rank over already-prepared communities with a MinMax
// method (ApMinMax or ExMinMax; the other methods do not use the cached
// encodings). The encoding phase is skipped entirely, so repeated
// rankings over a stored corpus re-encode nothing. All views must agree
// on epsilon and parts.
//
// With opts.Index attached (candidate-aligned summaries), candidates
// whose upper bound is zero — provably no matchable user pair under
// epsilon — receive a synthesized zero-similarity result without
// running a join (no OnJoinEvents callback fires for them, since no
// scan ran). A full ranking must score every candidate, so this is the
// only pruning an index can offer here; use RankAbovePrepared or
// TopKPrepared for threshold/top-k pruning.
func RankPrepared(pivot *PreparedCommunity, candidates []*PreparedCommunity, method Method, opts *Options) ([]Ranked, error) {
	return RankPreparedCtx(context.Background(), pivot, candidates, method, opts)
}

// RankPreparedCtx is RankPrepared with cooperative cancellation (see
// RankCtx for the semantics: per-candidate failures are recorded,
// cancellation is fatal).
func RankPreparedCtx(ctx context.Context, pivot *PreparedCommunity, candidates []*PreparedCommunity, method Method, opts *Options) ([]Ranked, error) {
	if pivot == nil || len(candidates) == 0 {
		return nil, errors.New("csj: Rank needs a pivot and at least one candidate")
	}
	for i, pc := range candidates {
		if pc == nil {
			return nil, fmt.Errorf("csj: prepared candidate %d is nil", i)
		}
	}
	o := opts.orDefault()
	bounds, stats, err := rankBounds(pivot, candidates, &o)
	if err != nil {
		return nil, err
	}
	workers := batchWorkers(&o)
	scratches := newScratchPool(workers)
	out := make([]Ranked, len(candidates))
	err = runPoolStats(ctx, workers, len(candidates), "rank/probe", o.OnPoolStats, func(w, i int) error {
		pc := candidates[i]
		out[i] = Ranked{Index: i, Name: pc.Name()}
		b, a := orientPrepared(pivot, pc)
		if bounds != nil && bounds[i] == 0 {
			// The index proves no user pair can match under epsilon:
			// the join's answer is exactly zero, no scan needed.
			out[i].Result = zeroResult(method, b, a, &o)
			return nil
		}
		res, err := similarityPrepared(ctx, b, a, method, &o, scratches.get(w))
		switch {
		case err == nil:
			out[i].Result = res
		case errors.Is(err, ErrSizeConstraint):
			out[i].Skipped = true
		case ctx.Err() != nil:
			return ctx.Err() // cancellation is fatal, not a candidate failure
		case errors.Is(err, ErrUnknownMethod):
			return err // a non-MinMax method fails every probe identically
		default:
			out[i].Err = err
		}
		return nil // per-candidate failures are recorded, not fatal
	})
	if err != nil {
		return nil, err
	}
	sortRanked(out)
	if stats != nil && o.OnIndexStats != nil {
		o.OnIndexStats(*stats)
	}
	return out, nil
}

// rankBounds computes the per-candidate pairs bounds of a full ranking
// when opts.Index is attached (nil bounds otherwise). bounds[i] is -1
// when the size precondition fails from the summary sizes alone — the
// probe must still run so the join records the Skipped outcome exactly
// as the unindexed engine would — and the upper bound otherwise; a
// bound of zero lets the probe synthesize its result without a join.
func rankBounds(pivot *PreparedCommunity, candidates []*PreparedCommunity, o *Options) ([]int, *IndexStats, error) {
	if o.Index == nil {
		return nil, nil, nil
	}
	if o.Index.Len() != len(candidates) {
		return nil, nil, fmt.Errorf("csj: index has %d summaries for %d candidates", o.Index.Len(), len(candidates))
	}
	ps, err := pivot.Summarize(0)
	if err != nil {
		return nil, nil, fmt.Errorf("csj: summarizing pivot %s: %w", pivot.Name(), err)
	}
	stats := &IndexStats{Candidates: int64(len(candidates))}
	bounds := make([]int, len(candidates))
	pSize := pivot.Size()
	for i := range candidates {
		cs := o.Index.Summary(i)
		bSize, aSize := pSize, cs.Size()
		if aSize < bSize {
			bSize, aSize = aSize, bSize
		}
		if !o.AllowSizeImbalance && bSize < (aSize+1)/2 {
			bounds[i] = -1
			stats.Skipped++
			continue
		}
		stats.BoundChecks++
		bounds[i] = upperBoundPairsOpts(ps, cs, o)
		if bounds[i] == 0 {
			stats.Pruned++
		} else {
			stats.Visited++
		}
	}
	return bounds, stats, nil
}

// zeroResult synthesizes the answer of a pruned probe: zero pairs,
// hence a zero CSJ score. With a composite scorer attached the category
// and cosine components are still live — they are functions of the
// communities alone — so the blend is applied exactly as a real join
// would have.
func zeroResult(method Method, b, a *PreparedCommunity, o *Options) *Result {
	out := &Result{Method: method, SizeB: b.Size(), SizeA: a.Size()}
	applyScorerPrepared(o, b, a, out)
	return out
}

// sortRanked orders entries by descending similarity with an explicit
// ascending-index tie-break, so equal scores rank identically
// regardless of visitation or input order; skipped and failed
// candidates keep their relative order after the scored ones.
func sortRanked(out []Ranked) {
	sort.SliceStable(out, func(x, y int) bool {
		rx, ry := out[x].Result, out[y].Result
		switch {
		case rx != nil && ry != nil:
			if rx.Similarity != ry.Similarity {
				return rx.Similarity > ry.Similarity
			}
			return out[x].Index < out[y].Index
		case rx != nil:
			return true
		default:
			return false
		}
	})
}
