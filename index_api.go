package csj

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/opencsj/csj/internal/index"
	"github.com/opencsj/csj/internal/vector"
)

// This file is the public surface of the envelope-pruning index
// (internal/index, DESIGN.md §12): community summaries and the
// best-first indexed engines, TopKIndexedFrom and RankAboveIndexedFrom,
// that skip candidates whose upper bound provably cannot reach the
// answer. They are the only prepared top-k and threshold-rank engines.

// DefaultIndexBuckets is the default per-dimension histogram resolution
// of a community summary.
const DefaultIndexBuckets = index.DefaultBuckets

// CommunitySummary is the pruning summary of one community: its size,
// per-dimension min/max envelope, and coarse per-dimension value
// histograms. It is built once per community (O(users*d)), is immutable
// and safe for concurrent use, and is a pure function of the community
// — rebuilding after recovery yields an identical summary.
type CommunitySummary struct {
	s *index.Summary
}

// SummarizeCommunity builds the pruning summary of a community.
// buckets <= 0 selects DefaultIndexBuckets.
func SummarizeCommunity(c *Community, buckets int) (*CommunitySummary, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s, err := index.NewSummary(c, buckets)
	if err != nil {
		return nil, err
	}
	return &CommunitySummary{s: s}, nil
}

// Summarize builds the pruning summary of a prepared community without
// touching its encodings. buckets <= 0 selects DefaultIndexBuckets.
func (pc *PreparedCommunity) Summarize(buckets int) (*CommunitySummary, error) {
	s, err := index.NewSummary(pc.p.Community(), buckets)
	if err != nil {
		return nil, err
	}
	return &CommunitySummary{s: s}, nil
}

// Size returns the summarized community's user count.
func (cs *CommunitySummary) Size() int { return int(cs.s.Size) }

// Footprint approximates the resident bytes of the summary.
func (cs *CommunitySummary) Footprint() int64 { return cs.s.Footprint() }

// Equal reports whether two summaries are identical — the recovery
// invariant: a summary rebuilt from a recovered community equals the
// pre-crash one, so the rebuilt index prunes identically.
func (cs *CommunitySummary) Equal(o *CommunitySummary) bool {
	if cs == nil || o == nil {
		return cs == o
	}
	return cs.s.Equal(o.s)
}

// UpperBoundPairs returns a provable upper bound on the number of user
// pairs any CSJ join (approximate or exact, any matcher) can match
// between the two summarized communities under eps. It runs in
// O(d*buckets) from the summaries alone — no encodings, no scan — and
// allocates nothing (pinned by internal/index's TestUpperBoundZeroAllocs).
func UpperBoundPairs(x, y *CommunitySummary, eps int32) int {
	return index.UpperBoundPairs(x.s, y.s, vector.UniformEps(eps))
}

// upperBoundPairsOpts is the bound under the options' full tolerance —
// the scalar epsilon or the per-dimension vector when one is set. All
// indexed engines bound through here so pruning stays exact for both
// spellings.
func upperBoundPairsOpts(x, y *CommunitySummary, o *Options) int {
	return index.UpperBoundPairs(x.s, y.s, vector.NewEps(o.Epsilon, o.EpsilonVec))
}

// IndexStats tallies one indexed query's pruning outcome, reported via
// Options.OnIndexStats after the query completes.
type IndexStats struct {
	// Candidates is the input candidate count.
	Candidates int64
	// BoundChecks counts UpperBoundPairs evaluations.
	BoundChecks int64
	// Pruned counts candidates eliminated without view resolution or
	// join: by their bound, or — in top-k, on a tie between the bound
	// and the kth-best similarity — by their bound and index. Pruning
	// is exact: an eliminated candidate provably cannot enter the
	// answer.
	Pruned int64
	// Visited counts candidates that ran a full join.
	Visited int64
	// Skipped counts candidates excluded by the size precondition
	// (from summary sizes alone, before any bound work).
	Skipped int64
}

// CandidateSource is the candidate set of the indexed engines,
// addressed by position 0..Len()-1. A candidate's position is its index
// in the answer (TopKResult.Index, Ranked.Index) and settles ties. The
// engines read every candidate's Summary, but resolve a View only for
// candidates whose bound survives the running threshold, so a
// byte-capped view cache (internal/store) only materializes the
// candidates actually joined. A store snapshot implements it over its
// own listing with no per-candidate allocation; TopKIndexed adapts an
// IndexedCandidate slice to it. Methods are called serially.
type CandidateSource interface {
	// Len returns the candidate count.
	Len() int
	// Summary returns candidate i's pruning summary.
	Summary(i int) (*CommunitySummary, error)
	// Name labels candidate i in results; when empty, the view's name
	// is used instead.
	Name(i int) string
	// View resolves candidate i's prepared view. It is called at most
	// once per candidate.
	View(i int) (*PreparedCommunity, error)
}

// IndexedCandidate is one candidate of TopKIndexed: its summary,
// resolved lazily into a prepared view only if the candidate survives
// pruning. View is called at most once,
// serially. A caller holding many candidates in its own structure can
// implement CandidateSource instead and skip building one
// IndexedCandidate (and one View closure) per candidate.
type IndexedCandidate struct {
	// Name labels the candidate in results (View's name wins if empty).
	Name string
	// Summary is the candidate's pruning summary (required).
	Summary *CommunitySummary
	// View resolves the candidate's prepared view; it is only invoked
	// for candidates whose bound survives the running threshold.
	View func() (*PreparedCommunity, error)
}

// indexedCandidates adapts an IndexedCandidate slice to a
// CandidateSource.
type indexedCandidates []IndexedCandidate

func (c indexedCandidates) Len() int          { return len(c) }
func (c indexedCandidates) Name(i int) string { return c[i].Name }

func (c indexedCandidates) Summary(i int) (*CommunitySummary, error) {
	if cs := c[i].Summary; cs != nil && cs.s != nil {
		return cs, nil
	}
	return nil, fmt.Errorf("csj: indexed candidate %d has no summary", i)
}

func (c indexedCandidates) View(i int) (*PreparedCommunity, error) {
	if c[i].View == nil {
		return nil, fmt.Errorf("csj: indexed candidate %d has no view", i)
	}
	return c[i].View()
}

// TopKIndexed returns the k candidates most similar to the pivot by
// Ex-MinMax similarity, visiting candidates best-first by their index
// upper bound (bound descending, candidate index ascending). The k best
// candidates joined so far form the running answer; the scan stops at
// the first candidate whose (bound, index) ranks below the answer's
// worst (similarity, index) — below on the bound, or tied on it with a
// higher index — since neither it nor any later candidate can enter
// the answer. Pruning is exact: the returned ranking is identical,
// cell-for-cell, to an exhaustive Ex-MinMax ranking truncated to k
// (pinned by TestIndexedTopKExactness and the TestIndexedTopKTies
// suite).
//
// No approximate gate runs: every visited candidate is joined exactly,
// so the answer is the true top-k. The ApproxSimilarity field of each
// returned entry carries the candidate's index upper bound (lifted into
// the composite domain when a scorer is attached, so it always
// upper-bounds the reported Similarity). Ties on similarity break by
// ascending candidate index. If fewer than k candidates can be scored,
// size-skipped candidates pad the tail (Skipped set, no Result).
//
// The bound consultation makes the visit order data-dependent, so the
// engine runs serially; opts.Workers is ignored. TopKIndexed adapts
// the slice to a CandidateSource and runs TopKIndexedFrom, as TopK
// does over raw communities.
func TopKIndexed(pivot *PreparedCommunity, candidates []IndexedCandidate, k int, opts *Options) ([]TopKResult, error) {
	return TopKIndexedFrom(context.Background(), pivot, indexedCandidates(candidates), k, opts)
}

// boundEntry is one surviving candidate ordered for best-first visits.
type boundEntry struct {
	idx int
	// key upper-bounds the candidate's similarity in the engine's own
	// score domain: the pairs bound taken through csjScore, then lifted
	// by the scorer. It is exactly the value compared with similarities.
	key float64
}

// cmpBoundEntry is the best-first order: key descending, candidate
// index ascending — the answer's own order, with key for similarity.
func cmpBoundEntry(x, y boundEntry) int {
	if c := cmp.Compare(y.key, x.key); c != 0 {
		return c
	}
	return cmp.Compare(x.idx, y.idx)
}

// visitOrder is the best-first visit sequence of an indexed query's
// surviving candidates, in cmpBoundEntry order: the sorted entries
// whose key is above the floor, then the floor-key candidates by index.
// The floor is the key of a zero bound, the least key there is, so
// floor-key candidates all tie and need no sorting. On a selective
// corpus they are nearly every candidate, so they are not stored: the
// tail walks the candidate indices in order and steps over the
// above-floor and size-skipped ones, listed in off.
type visitOrder struct {
	above []boundEntry
	floor float64
	off   []int // ascending indices outside the floor tail
	n     int   // candidate count

	visited int // entries returned by next
	cand    int // next candidate index the floor tail considers
	offPos  int // first entry of off not yet stepped over
}

// len returns the number of entries in the order.
func (v *visitOrder) len() int { return len(v.above) + v.n - len(v.off) }

// left returns the number of entries next has not yet returned.
func (v *visitOrder) left() int { return v.len() - v.visited }

// next returns the next entry to visit, or false once none is left.
func (v *visitOrder) next() (boundEntry, bool) {
	if v.visited < len(v.above) {
		v.visited++
		return v.above[v.visited-1], true
	}
	for ; v.cand < v.n; v.cand++ {
		if v.offPos < len(v.off) && v.off[v.offPos] == v.cand {
			v.offPos++
			continue
		}
		v.visited++
		v.cand++
		return boundEntry{idx: v.cand - 1, key: v.floor}, true
	}
	return boundEntry{}, false
}

// indexOrder computes every candidate's similarity upper bound against
// the pivot under method and returns the survivors' visitOrder.
// Size-precondition violations are split out by index, ascending; they
// are detected from summary sizes alone, exactly mirroring
// vector.CheckSizes on the real communities.
//
// The order ranks the lifted key, not the raw pairs bound: a scorer can
// map distinct bounds to one key (with CSJWeight 0, every key is the
// same), and the top-k cutoff needs index order within every key.
//
// The pivot is summarized here on every query even when a store holds
// its summary: one summary costs about 40 bound checks (DESIGN.md §10).
// The context is checked before each block of summaries: TopK's source
// builds each one from its community.
func indexOrder(ctx context.Context, pivot *PreparedCommunity, src CandidateSource, method Method, o *Options, stats *IndexStats) (ord visitOrder, skipped []int, err error) {
	ps, err := pivot.Summarize(0)
	if err != nil {
		return ord, nil, fmt.Errorf("csj: summarizing pivot %s: %w", pivot.Name(), err)
	}
	pSize := pivot.Size()
	ord.floor = scoreBound(o.Scorer, 0)
	ord.n = src.Len()
	// Summaries are fetched a block at a time, ahead of their bounds. A
	// source's summary is typically a pointer read from a heap object
	// that ingest order scattered (a store entry): a tight fetch loop
	// overlaps those cache misses, where fetching inside the bound loop
	// pays them one after another. The block stays on the stack.
	var block [64]*CommunitySummary
	for lo := 0; lo < ord.n; lo += len(block) {
		if err := ctx.Err(); err != nil {
			return ord, nil, err
		}
		sums := block[:min(len(block), ord.n-lo)]
		for j := range sums {
			if sums[j], err = src.Summary(lo + j); err != nil {
				return ord, nil, err
			}
		}
		for j, cs := range sums {
			i := lo + j
			bSize, aSize := pSize, cs.Size()
			if aSize < bSize {
				bSize, aSize = aSize, bSize
			}
			if !o.AllowSizeImbalance && bSize < (aSize+1)/2 {
				skipped = append(skipped, i)
				ord.off = append(ord.off, i)
				stats.Skipped++
				continue
			}
			stats.BoundChecks++
			ub := upperBoundPairsOpts(ps, cs, o)
			if key := scoreBound(o.Scorer, csjScore(method, o, ub, bSize)); key > ord.floor {
				ord.above = append(ord.above, boundEntry{idx: i, key: key})
				ord.off = append(ord.off, i)
			}
		}
	}
	slices.SortFunc(ord.above, cmpBoundEntry)
	return ord, skipped, nil
}

// resolveView materializes a surviving candidate's prepared view.
func resolveView(src CandidateSource, idx int) (*PreparedCommunity, error) {
	pc, err := src.View(idx)
	if err != nil {
		return nil, fmt.Errorf("csj: resolving view of candidate %d: %w", idx, err)
	}
	if pc == nil {
		return nil, fmt.Errorf("csj: view of candidate %d is nil", idx)
	}
	return pc, nil
}

func candName(src CandidateSource, idx int, pc *PreparedCommunity) string {
	if name := src.Name(idx); name != "" {
		return name
	}
	if pc != nil {
		return pc.Name()
	}
	return ""
}

// TopKIndexedFrom is the indexed top-k engine of TopKIndexed over a
// CandidateSource, with cooperative cancellation: the context is
// checked before each block of summaries and each visited candidate,
// and a canceled ctx stops the engine, interrupts the in-flight scan at
// its next checkpoint, and returns ctx's error with no partial answer.
// Its memory grows with the candidates whose bound keys rise above the
// floor (a zero bound) and the size-skipped ones, not with the
// candidate count.
func TopKIndexedFrom(ctx context.Context, pivot *PreparedCommunity, src CandidateSource, k int, opts *Options) ([]TopKResult, error) {
	if pivot == nil || src.Len() == 0 {
		return nil, errors.New("csj: TopK needs a pivot and at least one candidate")
	}
	if k <= 0 {
		return nil, fmt.Errorf("csj: TopK needs k >= 1, got %d", k)
	}
	o := opts.orDefault()
	// A bad scorer would fail the first join; checked here, it fails
	// the query even when every candidate is size-skipped.
	if err := o.Scorer.validate(); err != nil {
		return nil, err
	}
	stats := IndexStats{Candidates: int64(src.Len())}
	order, skipped, err := indexOrder(ctx, pivot, src, ExMinMax, &o, &stats)
	if err != nil {
		return nil, err
	}

	// The running answer: the k best candidates joined so far, worst at
	// the root. Visits come in (key desc, index asc) order and a key
	// bounds its candidate's similarity, so once a candidate's
	// (key, index) ranks below the root, neither it nor any later
	// candidate can enter the answer — ties on the key included, which
	// the index tie-break settles against them (DESIGN.md §12).
	top := make(topKHeap, 0, min(k, order.len()))
	var sc joinScratch
	for {
		e, ok := order.next()
		if !ok {
			break
		}
		if len(top) == k && ranksBelow(e.key, e.idx, &top[0]) {
			stats.Pruned += int64(order.left() + 1)
			break
		}
		// A join over small communities ends before its scan's first
		// cancellation checkpoint, so the loop checks too.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pc, err := resolveView(src, e.idx)
		if err != nil {
			return nil, err
		}
		b, a := orientPrepared(pivot, pc)
		res, err := similarityPrepared(ctx, b, a, ExMinMax, &o, &sc)
		if err != nil {
			if errors.Is(err, ErrSizeConstraint) {
				// Unreachable when summaries match their communities
				// (sizes are exact); tolerate a stale summary anyway.
				skipped = append(skipped, e.idx)
				stats.Skipped++
				continue
			}
			return nil, fmt.Errorf("csj: indexed top-k on %s: %w", candName(src, e.idx, pc), err)
		}
		stats.Visited++
		top.offer(TopKResult{
			Index:            e.idx,
			Name:             candName(src, e.idx, pc),
			ApproxSimilarity: e.key,
			Result:           res,
		}, k)
	}

	scored := []TopKResult(top)
	slices.SortFunc(scored, func(x, y TopKResult) int {
		if c := cmp.Compare(y.Result.Similarity, x.Result.Similarity); c != 0 {
			return c
		}
		return cmp.Compare(x.Index, y.Index)
	})
	// Fewer than k scorable candidates: pad with size-skipped entries
	// by ascending index.
	sort.Ints(skipped)
	for _, i := range skipped {
		if len(scored) >= k {
			break
		}
		scored = append(scored, TopKResult{Index: i, Name: src.Name(i), Skipped: true})
	}
	if o.OnIndexStats != nil {
		o.OnIndexStats(stats)
	}
	return scored, nil
}

// ranksBelow reports whether a candidate scoring sim at index idx falls
// after the scored entry w in the answer order: similarity descending,
// candidate index ascending.
func ranksBelow(sim float64, idx int, w *TopKResult) bool {
	ws := w.Result.Similarity
	return sim < ws || sim == ws && idx > w.Index
}

// topKHeap holds the best scored entries seen so far with the one that
// ranks lowest at the root.
type topKHeap []TopKResult

// lower reports whether entry i ranks below entry j.
func (h topKHeap) lower(i, j int) bool {
	return ranksBelow(h[i].Result.Similarity, h[i].Index, &h[j])
}

// offer adds r while the heap holds fewer than k entries; after that r
// replaces the root if it ranks above it.
func (h *topKHeap) offer(r TopKResult, k int) {
	if len(*h) < k {
		*h = append(*h, r)
		hh := *h
		for i := len(hh) - 1; i > 0; {
			parent := (i - 1) / 2
			if !hh.lower(i, parent) {
				break
			}
			hh[parent], hh[i] = hh[i], hh[parent]
			i = parent
		}
		return
	}
	hh := *h
	if !ranksBelow(hh[0].Result.Similarity, hh[0].Index, &r) {
		return
	}
	hh[0] = r
	for i := 0; ; {
		l, rc := 2*i+1, 2*i+2
		low := i
		if l < len(hh) && hh.lower(l, low) {
			low = l
		}
		if rc < len(hh) && hh.lower(rc, low) {
			low = rc
		}
		if low == i {
			return
		}
		hh[i], hh[low] = hh[low], hh[i]
		i = low
	}
}

// RankAboveIndexedFrom returns every candidate whose similarity to the
// pivot reaches minSim, in descending similarity order (ties by
// ascending candidate index) — the threshold form of RankPrepared for
// the paper's broadcast scenario: "recommend communities at least this
// similar" rather than "rank everything". method must be ApMinMax or
// ExMinMax; any other is ErrUnknownMethod, whatever minSim prunes.
// Size-skipped candidates are excluded; candidates failing
// with a per-candidate error are returned at the tail, by index, with
// Err set so failures stay visible. A canceled ctx is fatal, as in
// Rank: the context is checked as in TopKIndexedFrom.
//
// Every candidate whose upper bound falls strictly below minSim is
// eliminated without resolving its view or running a join. Pruning is
// exact: the output equals the exhaustive RankPrepared ranking filtered
// to minSim (pinned by TestRankAboveExactness). The engine runs serially;
// opts.Workers is ignored.
func RankAboveIndexedFrom(ctx context.Context, pivot *PreparedCommunity, src CandidateSource, method Method, minSim float64, opts *Options) ([]Ranked, error) {
	if pivot == nil || src.Len() == 0 {
		return nil, errors.New("csj: Rank needs a pivot and at least one candidate")
	}
	// Checked before any bound, so the answer never depends on whether
	// minSim pruned every candidate before a join could fail.
	if err := checkPreparedMethod(method); err != nil {
		return nil, err
	}
	o := opts.orDefault()
	stats := IndexStats{Candidates: int64(src.Len())}
	// The keys carry the method's p discount (Eq. 1) before the scorer
	// lifts them — p applies to the CSJ component only, so lifting
	// before discounting would be unsound.
	order, _, err := indexOrder(ctx, pivot, src, method, &o, &stats)
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, 0, len(order.above))
	var sc joinScratch
	for {
		e, ok := order.next()
		if !ok {
			break
		}
		if e.key < minSim {
			// Best-first order: every remaining key is at most this
			// one, so the whole tail is provably below the threshold.
			stats.Pruned += int64(order.left() + 1)
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pc, err := resolveView(src, e.idx)
		if err != nil {
			return nil, err
		}
		entry := Ranked{Index: e.idx, Name: candName(src, e.idx, pc)}
		b, a := orientPrepared(pivot, pc)
		res, err := similarityPrepared(ctx, b, a, method, &o, &sc)
		switch {
		case err == nil:
			stats.Visited++
			if res.Similarity >= minSim {
				entry.Result = res
				out = append(out, entry)
			}
		case errors.Is(err, ErrSizeConstraint):
			stats.Skipped++ // stale summary; excluded like the precheck
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			stats.Visited++
			entry.Err = err
			out = append(out, entry) // failures stay visible at the tail
		}
	}
	// Entries arrive in bound order: scored by (similarity desc, index
	// asc), then errored by index.
	sortRanked(out)
	if o.OnIndexStats != nil {
		o.OnIndexStats(stats)
	}
	return out, nil
}
