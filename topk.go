package csj

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// TopKResult is one entry of a TopK answer.
type TopKResult struct {
	// Index is the candidate's position among the candidates (the
	// input slice, or the CandidateSource); it settles ties.
	Index int
	// Name is the candidate community's name.
	Name string
	// ApproxSimilarity is the score that gated the exact join: the
	// phase-1 Ap-MinMax score in TopK, the index upper bound in
	// TopKIndexed and TopKIndexedFrom.
	ApproxSimilarity float64
	// Result is the Ex-MinMax result; nil when the candidate was
	// eliminated by the gate or skipped.
	Result *Result
	// Skipped reports a violated size precondition.
	Skipped bool
}

// TopK returns the k candidate communities most similar to the pivot,
// using the paper's two-phase workflow: the fast approximate method
// prefilters all candidates, and the exact method refines only the
// survivors ("the time-consuming exact method uses the results of the
// fast approximate method as input to alleviate its total execution
// overhead", Section 3). The exact method re-ranks the survivors, so
// the returned order reflects exact similarities.
//
// Each pair is oriented automatically; pairs violating
// ceil(|A|/2) <= |B| are skipped unless opts.AllowSizeImbalance is set.
// The refinement pool is 2k (or all candidates when fewer score), which
// absorbs the approximate ranking's noise; candidates eliminated in
// phase 1 carry only their approximate score.
//
// The pivot and every candidate are encoded once and reused by both
// phases, and the phase-1 and phase-2 probes fan out across a bounded
// worker pool of opts.Workers goroutines (0 selects GOMAXPROCS; 1 runs
// serially). Each probe is an independent serial join, so the answer is
// identical to a Workers=1 run for any worker count. A canceled ctx
// stops both phases' probe pools, interrupts in-flight scans at their
// next checkpoint, and returns ctx's error. No partial answer is
// returned.
func TopK(ctx context.Context, pivot *Community, candidates []*Community, k int, opts *Options) ([]TopKResult, error) {
	if pivot == nil || len(candidates) == 0 {
		return nil, errors.New("csj: TopK needs a pivot and at least one candidate")
	}
	if k <= 0 {
		return nil, fmt.Errorf("csj: TopK needs k >= 1, got %d", k)
	}
	o := opts.orDefault()
	workers := batchWorkers(&o)

	pp, err := Precompute(pivot, &o)
	if err != nil {
		return nil, fmt.Errorf("csj: preparing pivot %s: %w", pivot.Name, err)
	}
	pcs, err := precomputeAll(ctx, candidates, &o, workers, "topk/prepare")
	if err != nil {
		return nil, err
	}
	return topKPhases(ctx, pp, pcs, k, &o, workers)
}

// topKPhases is TopK's two-phase engine over the prepared views:
// approximate prefilter over all candidates, exact refinement of the 2k
// survivors.
func topKPhases(ctx context.Context, pp *PreparedCommunity, pcs []*PreparedCommunity, k int, o *Options, workers int) ([]TopKResult, error) {
	scratches := newScratchPool(workers)

	// Phase 1: approximate prefilter, one probe per candidate.
	results := make([]TopKResult, len(pcs))
	err := runPoolStats(ctx, workers, len(pcs), "topk/phase1", o.OnPoolStats, func(w, i int) error {
		results[i] = TopKResult{Index: i, Name: pcs[i].Name(), Skipped: true}
		b, a := orientPrepared(pp, pcs[i])
		res, err := similarityPrepared(ctx, b, a, ApMinMax, o, scratches.get(w))
		if err != nil {
			if errors.Is(err, ErrSizeConstraint) {
				return nil
			}
			return fmt.Errorf("csj: phase 1 on %s: %w", pcs[i].Name(), err)
		}
		results[i].Skipped = false
		results[i].ApproxSimilarity = res.Similarity
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(x, y int) bool {
		if results[x].Skipped != results[y].Skipped {
			return !results[x].Skipped
		}
		if results[x].ApproxSimilarity != results[y].ApproxSimilarity {
			return results[x].ApproxSimilarity > results[y].ApproxSimilarity
		}
		// Explicit index tie-break: equal scores must rank identically
		// regardless of visitation or input order.
		return results[x].Index < results[y].Index
	})

	// Phase 2: exact refinement of the survivors.
	pool := 2 * k
	refine := make([]int, 0, pool)
	for i := range results {
		if results[i].Skipped || len(refine) >= pool {
			break
		}
		refine = append(refine, i)
	}
	err = runPoolStats(ctx, workers, len(refine), "topk/phase2", o.OnPoolStats, func(w, x int) error {
		ri := refine[x]
		b, a := orientPrepared(pp, pcs[results[ri].Index])
		res, err := similarityPrepared(ctx, b, a, ExMinMax, o, scratches.get(w))
		if err != nil {
			return fmt.Errorf("csj: phase 2 on %s: %w", results[ri].Name, err)
		}
		results[ri].Result = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(x, y int) bool {
		rx, ry := results[x].Result, results[y].Result
		switch {
		case rx != nil && ry != nil:
			if rx.Similarity != ry.Similarity {
				return rx.Similarity > ry.Similarity
			}
		case rx != nil:
			return true
		case ry != nil:
			return false
		case results[x].Skipped != results[y].Skipped:
			return !results[x].Skipped
		default:
			if results[x].ApproxSimilarity != results[y].ApproxSimilarity {
				return results[x].ApproxSimilarity > results[y].ApproxSimilarity
			}
		}
		// Explicit index tie-break (see phase-1 sort).
		return results[x].Index < results[y].Index
	})
	if k > len(results) {
		k = len(results)
	}
	return results[:k], nil
}
