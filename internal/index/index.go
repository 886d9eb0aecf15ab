// Package index implements the envelope-pruning candidate index that
// makes Rank/TopK over a stored corpus sublinear in practice
// (DESIGN.md §12).
//
// For every community it keeps a Summary: the per-dimension min/max
// envelope of the user profiles plus one coarse equi-width value
// histogram per dimension. From two summaries alone — no encodings, no
// prepared views, no scan — UpperBoundPairs computes a provable upper
// bound on the number of user pairs ANY CSJ join (approximate or
// exact, any matcher) can match between the two communities under a
// given epsilon. A candidate whose bound cannot beat the current
// top-k threshold is eliminated without ever being encoded or joined;
// the paper's own two-phase trick (a cheap pass gating the expensive
// one) lifted one level up, from user pairs to whole communities.
//
// The bound is built from two sound relaxations:
//
//  1. Per-dimension relaxation. A matched pair must agree within eps
//     on EVERY dimension, so for each dimension i the true one-to-one
//     matching is at most the maximum matching of the bipartite graph
//     whose only constraint is |b_i - a_i| <= eps. The minimum of
//     these per-dimension maxima (and of the two community sizes)
//     bounds the real matching.
//  2. Bucket over-approximation. The per-dimension graph is relaxed
//     once more onto the histograms: users collapse into buckets
//     (capacity = occupancy count) and two buckets are connected when
//     their value ranges come within eps of each other. Every real
//     matching maps to a feasible bucket flow, so the maximum bucket
//     flow bounds the per-dimension maximum matching. Because both
//     bucket sequences are sorted and each B bucket's compatible A
//     buckets form an interval whose endpoints only move right, the
//     greedy leftmost-assignment sweep (Glover's rule for convex
//     bipartite graphs) computes that maximum flow exactly in one
//     O(buckets) two-pointer pass — and "exactly" matters: a
//     sub-optimal flow could undercut the true matching and prune a
//     genuine answer.
//
// Pruning with this bound is therefore exact: an eliminated candidate
// provably cannot enter the answer. The property suite in the root
// package (TestIndexedTopKExactness, TestRankAboveExactness) compares
// pruned and unpruned engines
// cell-for-cell on randomized corpora and epsilons.
package index

import (
	"fmt"

	"github.com/opencsj/csj/internal/vector"
)

// DefaultBuckets is the default histogram resolution per dimension: a
// small power of two keeping the summary tiny (buckets+3 int32 words
// per dimension) while still separating multi-modal value
// distributions that a bare min/max envelope would blur together.
const DefaultBuckets = 16

// Summary is the pruning summary of one community: its size, the
// per-dimension min/max envelope, and one equi-width occupancy
// histogram per dimension. Summaries are immutable after construction
// and safe for concurrent use; they are pure functions of the
// community, so a summary rebuilt after recovery is bit-identical to
// the one built on ingest (pinned by the store's recovery tests).
type Summary struct {
	// Size is the number of users summarized.
	Size int32
	// Buckets is the histogram resolution (counts per dimension).
	Buckets int32
	// Mins and Maxs are the per-dimension envelope, len d.
	Mins, Maxs []int32
	// Steps is the per-dimension bucket width, len d, always >= 1:
	// bucket j of dimension i covers values
	// [Mins[i]+j*Steps[i], Mins[i]+(j+1)*Steps[i]-1].
	Steps []int32
	// Counts is the flat histogram, len d*Buckets, row per dimension.
	Counts []int32
}

// NewSummary builds the summary of a community. buckets <= 0 selects
// DefaultBuckets. The community must be non-empty and dimensionally
// consistent (callers validate on ingest).
func NewSummary(c *vector.Community, buckets int) (*Summary, error) {
	if c.Size() == 0 {
		return nil, vector.ErrEmptyCommunity
	}
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	d := c.Dim()
	s := &Summary{
		Size:    int32(c.Size()),
		Buckets: int32(buckets),
		Mins:    make([]int32, d),
		Maxs:    make([]int32, d),
		Steps:   make([]int32, d),
		Counts:  make([]int32, d*buckets),
	}
	for i := 0; i < d; i++ {
		lo, hi := c.Users[0][i], c.Users[0][i]
		for _, u := range c.Users[1:] {
			if len(u) != d {
				return nil, fmt.Errorf("%w: user has %d dimensions, community has %d",
					vector.ErrDimensionMismatch, len(u), d)
			}
			if u[i] < lo {
				lo = u[i]
			}
			if u[i] > hi {
				hi = u[i]
			}
		}
		// step = span/buckets + 1 keeps every bucket index strictly
		// below Buckets: (hi-lo)/step <= span/(span/buckets+1) < buckets.
		step := int32((int64(hi)-int64(lo))/int64(buckets)) + 1
		s.Mins[i], s.Maxs[i], s.Steps[i] = lo, hi, step
		row := s.Counts[i*buckets : (i+1)*buckets]
		for _, u := range c.Users {
			row[(u[i]-lo)/step]++
		}
	}
	return s, nil
}

// Dim returns the summarized dimensionality.
func (s *Summary) Dim() int { return len(s.Mins) }

// Footprint approximates the resident bytes of the summary.
func (s *Summary) Footprint() int64 {
	const sliceHeader = 24
	return 8 + 4*sliceHeader +
		int64(len(s.Mins)+len(s.Maxs)+len(s.Steps)+len(s.Counts))*4
}

// Equal reports whether two summaries are identical — the recovery
// invariant: a summary rebuilt from a recovered community must equal
// the pre-crash one, so the rebuilt index prunes identically.
func (s *Summary) Equal(o *Summary) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Size != o.Size || s.Buckets != o.Buckets {
		return false
	}
	return eq32(s.Mins, o.Mins) && eq32(s.Maxs, o.Maxs) &&
		eq32(s.Steps, o.Steps) && eq32(s.Counts, o.Counts)
}

func eq32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// UpperBoundPairs returns a provable upper bound on |matched| for any
// CSJ join of the two summarized communities under eps: the true
// maximum one-to-one matching (and hence every method's pair count,
// greedy or exact) is <= the returned value. It runs in O(d*buckets)
// with zero allocations (TestUpperBoundZeroAllocs pins 0 B/op).
//
// The bound is min over dimensions of the per-dimension bucket-flow
// bound, capped at min(|X|, |Y|); a dimension whose envelopes are
// further than eps apart proves zero matches outright. Summaries with
// different dimensionalities cannot be joined at all; the cap is
// returned so callers fall through to the join and surface its error.
//
// A per-dimension tolerance generalizes the bound without touching its
// soundness argument: relaxation 1 holds dimension by dimension — a
// matched pair must agree within eps_i on dimension i, so dimension i's
// bucket flow under eps_i alone still dominates the true matching — and
// the min over dimensions of sound per-dimension bounds remains sound.
// A vector shorter than the summarized dimensionality falls back to
// its scalar for out-of-range dimensions (callers validate lengths
// before joining; the bound just must never under-count).
func UpperBoundPairs(x, y *Summary, eps vector.Eps) int {
	ub := x.Size
	if y.Size < ub {
		ub = y.Size
	}
	if x.Dim() != y.Dim() {
		return int(ub)
	}
	if v := eps.Vec(); v != nil && len(v) != x.Dim() {
		return int(ub)
	}
	nx, ny := int(x.Buckets), int(y.Buckets)
	for i := 0; i < x.Dim(); i++ {
		e := int64(eps.At(i))
		// Envelope check: if the dimension's value ranges are further
		// than eps apart, no pair can match on it — bound 0, no
		// histogram work.
		if int64(x.Mins[i]) > int64(y.Maxs[i])+e || int64(y.Mins[i]) > int64(x.Maxs[i])+e {
			return 0
		}
		f := dimFlow(
			x.Counts[i*nx:(i+1)*nx], int64(x.Mins[i]), int64(x.Steps[i]),
			y.Counts[i*ny:(i+1)*ny], int64(y.Mins[i]), int64(y.Steps[i]), e)
		if f < ub {
			ub = f
			if ub == 0 {
				return 0
			}
		}
	}
	return int(ub)
}

// dimFlow is the per-dimension bucket-flow bound: the exact maximum
// flow between the two histograms where bucket j of B (value range
// [bLo_j, bHi_j]) may send to bucket k of A (range [aLo_k, aHi_k])
// when the ranges come within eps: bLo_j - eps <= aHi_k and
// aLo_k <= bHi_j + eps.
//
// Both bucket sequences are value-sorted, so each B bucket's
// compatible A buckets form an interval whose endpoints are
// non-decreasing in j. For such "staircase" bipartite graphs the
// greedy sweep — process B buckets left to right, saturate the
// leftmost A bucket with remaining capacity — attains the maximum
// flow (Glover's rule for convex bipartite matching, lifted to
// capacities by node splitting). One two-pointer pass, no scratch.
func dimFlow(bCnt []int32, bMin, bStep int64, aCnt []int32, aMin, aStep, eps int64) int32 {
	var flow int32
	k := 0         // leftmost A bucket not yet exhausted or skipped
	var used int32 // units already taken from bucket k
	for j := range bCnt {
		need := bCnt[j]
		if need == 0 {
			continue
		}
		bLo := bMin + int64(j)*bStep
		bHi := bLo + bStep - 1
		// A buckets wholly below this window are dead for every later
		// j too (windows only move right): skip them for good.
		for k < len(aCnt) && aMin+int64(k+1)*aStep-1 < bLo-eps {
			k++
			used = 0
		}
		for k < len(aCnt) && need > 0 && aMin+int64(k)*aStep <= bHi+eps {
			avail := aCnt[k] - used
			if avail <= 0 {
				k++
				used = 0
				continue
			}
			take := avail
			if need < take {
				take = need
			}
			flow += take
			used += take
			need -= take
		}
	}
	return flow
}
