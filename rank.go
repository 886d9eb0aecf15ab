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
	// Index is the candidate's position among the candidates (the
	// input slice, or the CandidateSource); it settles ties.
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
// on epsilon and parts. A full ranking joins every candidate; the
// indexed engines, RankAboveIndexedFrom and TopKIndexedFrom, prune the
// threshold and top-k forms.
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
	workers := batchWorkers(&o)
	scratches := newScratchPool(workers)
	out := make([]Ranked, len(candidates))
	err := runPoolStats(ctx, workers, len(candidates), "rank/probe", o.OnPoolStats, func(w, i int) error {
		pc := candidates[i]
		out[i] = Ranked{Index: i, Name: pc.Name()}
		b, a := orientPrepared(pivot, pc)
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
	return out, nil
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
