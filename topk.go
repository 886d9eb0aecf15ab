package csj

import (
	"context"
	"errors"
	"fmt"
)

// TopKResult is one entry of a TopK answer.
type TopKResult struct {
	// Index is the candidate's position among the candidates (the
	// input slice, or the CandidateSource); it settles ties.
	Index int
	// Name is the candidate community's name.
	Name string
	// ApproxSimilarity is the candidate's index upper bound, the key
	// that ordered its visit (lifted into the composite domain when a
	// scorer is attached), so it is at least Result.Similarity; 0 when
	// Skipped.
	ApproxSimilarity float64
	// Result is the Ex-MinMax result; nil when Skipped.
	Result *Result
	// Skipped reports a violated size precondition.
	Skipped bool
}

// TopK returns the k candidate communities most similar to the pivot by
// Ex-MinMax similarity. It runs the exact indexed engine,
// TopKIndexedFrom, over the candidates: every candidate is summarized
// for its upper bound, and a candidate is prepared and joined only when
// its bound can still reach the answer, so the result is, cell for
// cell, the exhaustive Ex-MinMax ranking truncated to k, with ties
// broken by ascending candidate index. The paper's two-phase workflow,
// an Ap-MinMax prefilter whose survivors Ex-MinMax refines (Section 3),
// is not an engine here: it has no recall guarantee, and
// examples/partners builds it from Similarity calls.
//
// Each pair is oriented automatically; pairs violating
// ceil(|A|/2) <= |B| are skipped unless opts.AllowSizeImbalance is set,
// and pad the tail when fewer than k candidates score. A candidate that
// fails validation is a fatal error naming its index and name. The
// engine runs serially; opts.Workers is ignored. A canceled ctx stops
// the engine before its next block of summaries or its next join,
// interrupts an in-flight scan at its next checkpoint, and returns
// ctx's error with no partial answer.
func TopK(ctx context.Context, pivot *Community, candidates []*Community, k int, opts *Options) ([]TopKResult, error) {
	if pivot == nil {
		return nil, errors.New("csj: TopK needs a pivot and at least one candidate")
	}
	pp, err := Precompute(pivot, opts)
	if err != nil {
		return nil, fmt.Errorf("csj: preparing pivot %s: %w", pivot.Name, err)
	}
	return TopKIndexedFrom(ctx, pp, communitySource{comms: candidates, opts: opts}, k, opts)
}

// communitySource is TopK's CandidateSource over raw communities: a
// candidate is summarized when the engine bounds it, and prepared only
// when the engine visits it.
type communitySource struct {
	comms []*Community
	opts  *Options
}

func (s communitySource) Len() int          { return len(s.comms) }
func (s communitySource) Name(i int) string { return s.comms[i].Name }

func (s communitySource) Summary(i int) (*CommunitySummary, error) {
	cs, err := SummarizeCommunity(s.comms[i], 0)
	if err != nil {
		return nil, fmt.Errorf("csj: summarizing community %d (%s): %w", i, s.comms[i].Name, err)
	}
	return cs, nil
}

func (s communitySource) View(i int) (*PreparedCommunity, error) {
	pc, err := Precompute(s.comms[i], s.opts)
	if err != nil {
		return nil, fmt.Errorf("csj: preparing community %d (%s): %w", i, s.comms[i].Name, err)
	}
	return pc, nil
}
