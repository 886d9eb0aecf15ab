package csj

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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
// skipped unless opts.AllowSizeImbalance is set; other per-candidate
// failures are recorded in Err rather than aborting the ranking, and
// skipped and failed candidates sort after scored ones. A canceled ctx
// is fatal: undispatched probes are abandoned, in-flight MinMax scans
// stop at their next checkpoint, and ctx's error is returned with no
// partial ranking.
//
// The per-candidate probes fan out across a bounded worker pool of
// opts.Workers goroutines (0 selects GOMAXPROCS; 1 runs serially). The
// parallel axis is the candidate fan-out: each probe joins serially, so
// the ranking is identical to a Workers=1 run for any worker count.
func Rank(ctx context.Context, pivot *Community, candidates []*Community, method Method, opts *Options) ([]Ranked, error) {
	if pivot == nil || len(candidates) == 0 {
		return nil, errors.New("csj: Rank needs a pivot and at least one candidate")
	}
	o := opts.orDefault()
	return rankProbes(ctx, &o, batchWorkers(&o), len(candidates), func(_, i int) (string, *Result, error) {
		b, a := Orient(pivot, candidates[i])
		res, err := Similarity(ctx, b, a, method, &o)
		return candidates[i].Name, res, err
	})
}

// RankPrepared is Rank over already-prepared communities with a MinMax
// method (ApMinMax or ExMinMax; the other methods do not use the cached
// encodings and fail with ErrUnknownMethod). The encoding phase is
// skipped entirely, so repeated rankings over a stored corpus re-encode
// nothing. All views must agree on epsilon and parts. A full ranking
// joins every candidate; the indexed engines, RankAboveIndexedFrom and
// TopKIndexedFrom, prune the threshold and top-k forms.
func RankPrepared(pivot *PreparedCommunity, candidates []*PreparedCommunity, method Method, opts *Options) ([]Ranked, error) {
	return RankPreparedCtx(context.Background(), pivot, candidates, method, opts)
}

// RankPreparedCtx is RankPrepared with cooperative cancellation (see
// Rank for the semantics: per-candidate failures are recorded,
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
	if err := checkPreparedMethod(method); err != nil {
		return nil, err
	}
	o := opts.orDefault()
	workers := batchWorkers(&o)
	scratches := newScratchPool(workers)
	return rankProbes(ctx, &o, workers, len(candidates), func(w, i int) (string, *Result, error) {
		b, a := orientPrepared(pivot, candidates[i])
		res, err := similarityPrepared(ctx, b, a, method, &o, scratches.get(w))
		return candidates[i].Name(), res, err
	})
}

// rankProbes is the pool loop of both rankings: on worker w, probe i
// joins the pivot with candidate i and returns the candidate's name and
// result. A size violation becomes Skipped, a canceled ctx is fatal,
// and any other error goes in Err.
func rankProbes(ctx context.Context, o *Options, workers, n int, probe func(w, i int) (string, *Result, error)) ([]Ranked, error) {
	out := make([]Ranked, n)
	err := runPoolStats(ctx, workers, n, "rank/probe", o.OnPoolStats, func(w, i int) error {
		name, res, err := probe(w, i)
		out[i] = Ranked{Index: i, Name: name}
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

// sortRanked orders entries by descending similarity with an explicit
// ascending-index tie-break, so equal scores rank identically
// regardless of visitation or input order; skipped and failed
// candidates follow the scored ones by ascending index.
func sortRanked(out []Ranked) {
	slices.SortFunc(out, func(x, y Ranked) int {
		rx, ry := x.Result, y.Result
		switch {
		case rx != nil && ry != nil:
			if c := cmp.Compare(ry.Similarity, rx.Similarity); c != 0 {
				return c
			}
		case rx != nil:
			return -1
		case ry != nil:
			return 1
		}
		return cmp.Compare(x.Index, y.Index)
	})
}
