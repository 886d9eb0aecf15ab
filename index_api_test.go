package csj_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/store"
)

// clusteredComm builds a community around an archetype base in the
// paper's synthetic [0, 500000]^d domain: every user is the base plus
// bounded noise, so communities of the same archetype join richly under
// a selective epsilon while foreign archetypes prune to nothing.
func clusteredComm(rng *rand.Rand, name string, size int, base []int32, noise int32) *csj.Community {
	users := make([]csj.Vector, size)
	for i := range users {
		u := make(csj.Vector, len(base))
		for j := range u {
			u[j] = base[j] + rng.Int31n(2*noise+1) - noise
		}
		users[i] = u
	}
	return &csj.Community{Name: name, Users: users}
}

func randBase(rng *rand.Rand, d int) []int32 {
	b := make([]int32, d)
	for i := range b {
		// Keep the noise band non-negative: profiles are counters.
		b[i] = 5000 + rng.Int31n(495000)
	}
	return b
}

// indexedCorpus builds a clustered corpus: nArch archetypes, candidates
// assigned round-robin, pivot on archetype 0. Returns prepared views
// and their summaries.
func indexedCorpus(t *testing.T, rng *rand.Rand, n, nArch, d int, noise int32, opts *csj.Options) (*csj.PreparedCommunity, []*csj.PreparedCommunity, []*csj.CommunitySummary) {
	t.Helper()
	bases := make([][]int32, nArch)
	for i := range bases {
		bases[i] = randBase(rng, d)
	}
	pivot, err := csj.Precompute(clusteredComm(rng, "pivot", 28+rng.Intn(8), bases[0], noise), opts)
	if err != nil {
		t.Fatal(err)
	}
	pcs := make([]*csj.PreparedCommunity, n)
	for i := range pcs {
		c := clusteredComm(rng, "", 26+rng.Intn(12), bases[i%nArch], noise)
		c.Name = "cand" + string(rune('A'+i%26)) + "-" + c.Name
		pcs[i], err = csj.Precompute(c, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	return pivot, pcs, summarize(t, pcs)
}

// summarize returns each prepared view's summary, aligned by position.
func summarize(t *testing.T, pcs []*csj.PreparedCommunity) []*csj.CommunitySummary {
	t.Helper()
	sums := make([]*csj.CommunitySummary, len(pcs))
	for i, pc := range pcs {
		var err error
		if sums[i], err = pc.Summarize(0); err != nil {
			t.Fatal(err)
		}
	}
	return sums
}

// sliceSource is a CandidateSource over prepared views and their
// summaries that counts the summaries the engines read and the views
// they resolve.
type sliceSource struct {
	pcs            []*csj.PreparedCommunity
	sums           []*csj.CommunitySummary
	read, resolved int
}

func (s *sliceSource) Len() int          { return len(s.pcs) }
func (s *sliceSource) Name(i int) string { return s.pcs[i].Name() }

func (s *sliceSource) Summary(i int) (*csj.CommunitySummary, error) {
	s.read++
	return s.sums[i], nil
}

func (s *sliceSource) View(i int) (*csj.PreparedCommunity, error) {
	s.resolved++
	return s.pcs[i], nil
}

// candidates returns the source as TopKIndexed's candidate slice.
func (s *sliceSource) candidates() []csj.IndexedCandidate {
	out := make([]csj.IndexedCandidate, len(s.pcs))
	for i := range out {
		out[i] = csj.IndexedCandidate{Name: s.Name(i), Summary: s.sums[i],
			View: func() (*csj.PreparedCommunity, error) { return s.View(i) }}
	}
	return out
}

// exactTopKReference computes the indexed engine's ground truth the
// slow way: an exhaustive unindexed Ex-MinMax ranking truncated to k,
// padded with size-skipped candidates exactly like the engine.
func exactTopKReference(t *testing.T, pivot *csj.PreparedCommunity, pcs []*csj.PreparedCommunity, k int, opts *csj.Options) []csj.Ranked {
	t.Helper()
	ranked, err := csj.RankPrepared(pivot, pcs, csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]csj.Ranked, 0, k)
	for _, r := range ranked {
		if len(out) == k {
			break
		}
		if r.Err != nil {
			t.Fatalf("reference ranking failed on %s: %v", r.Name, r.Err)
		}
		out = append(out, r)
	}
	return out
}

// snapshotRoute loads the candidates into a store, in index order, and
// the pivot's community under an id among theirs, and returns the
// store and its listing minus the pivot as a candidate source under
// opts' spec: the route the server's all-candidates queries take.
func snapshotRoute(t *testing.T, label string, pivot *csj.PreparedCommunity, pcs []*csj.PreparedCommunity, opts *csj.Options) (*store.Store, *store.CandidateSource) {
	t.Helper()
	st := store.New(store.Config{})
	pivotID := int64(len(pcs)/2 + 1)
	for i, pc := range pcs {
		id := int64(i + 1)
		if id >= pivotID {
			id++
		}
		if _, err := st.CreateWithID(id, pc.Community()); err != nil {
			t.Fatalf("%s: storing candidate %d: %v", label, i, err)
		}
	}
	// Last, so it lands inside the listing, out of id order.
	if _, err := st.CreateWithID(pivotID, pivot.Community()); err != nil {
		t.Fatalf("%s: storing the pivot: %v", label, err)
	}
	return st, st.Snapshot().Candidates(pivotID).Source(opts.Spec())
}

// checkIndexedTopK is the indexed top-k oracle: it runs one query
// through TopKIndexed over a candidate slice, through TopKIndexedFrom
// on a store snapshot's candidate source and through TopK over the
// views' communities, and requires each to return, cell for cell, the
// exhaustive RankPrepared ranking truncated to k, with the same stats,
// every candidate accounted for once, and a view resolved for exactly
// the visited candidates. label names the case (its seed) in every
// failure. It returns the stats.
func checkIndexedTopK(t *testing.T, label string, pivot *csj.PreparedCommunity, pcs []*csj.PreparedCommunity, sums []*csj.CommunitySummary, k int, opts *csj.Options) csj.IndexStats {
	t.Helper()
	want := exactTopKReference(t, pivot, pcs, k, opts)

	var stats csj.IndexStats
	iopts := *opts
	iopts.OnIndexStats = func(s csj.IndexStats) { stats = s }
	src := &sliceSource{pcs: pcs, sums: sums}
	got, err := csj.TopKIndexed(pivot, src.candidates(), k, &iopts)
	if err != nil {
		t.Fatalf("%s: TopKIndexed: %v", label, err)
	}
	checkTopKCells(t, label+" TopKIndexed", got, want)
	indexed := stats
	checkIndexStats(t, label, stats, len(pcs), src.resolved)

	slabel := label + " snapshot route"
	st, ssrc := snapshotRoute(t, slabel, pivot, pcs, opts)
	stats = csj.IndexStats{}
	got, err = csj.TopKIndexedFrom(context.Background(), pivot, ssrc, k, &iopts)
	if err != nil {
		t.Fatalf("%s: TopKIndexedFrom: %v", slabel, err)
	}
	checkTopKCells(t, slabel, got, want)
	if stats != indexed {
		t.Fatalf("%s: stats %+v, TopKIndexed %+v", slabel, stats, indexed)
	}
	if builds := st.CacheStats().Builds; builds != stats.Visited {
		t.Fatalf("%s: %d views built for %d visited candidates", slabel, builds, stats.Visited)
	}

	rlabel := label + " raw route"
	comms := make([]*csj.Community, len(pcs))
	for i, pc := range pcs {
		comms[i] = pc.Community()
	}
	stats = csj.IndexStats{}
	got, err = csj.TopK(context.Background(), pivot.Community(), comms, k, &iopts)
	if err != nil {
		t.Fatalf("%s: TopK: %v", rlabel, err)
	}
	checkTopKCells(t, rlabel, got, want)
	if stats != indexed {
		t.Fatalf("%s: stats %+v, TopKIndexed %+v", rlabel, stats, indexed)
	}
	return stats
}

// checkIndexStats requires an indexed query's stats to account for each
// of n candidates once and to count a visit per resolved view.
func checkIndexStats(t *testing.T, label string, stats csj.IndexStats, n, resolved int) {
	t.Helper()
	if stats.Candidates != int64(n) {
		t.Fatalf("%s: stats.Candidates = %d, want %d", label, stats.Candidates, n)
	}
	if stats.Visited+stats.Pruned+stats.Skipped != stats.Candidates {
		t.Fatalf("%s: stats do not partition the corpus: %+v", label, stats)
	}
	if int64(resolved) != stats.Visited {
		t.Fatalf("%s: %d views resolved for %d visited candidates", label, resolved, stats.Visited)
	}
}

// checkTopKCells compares an indexed top-k answer with the reference.
func checkTopKCells(t *testing.T, label string, got []csj.TopKResult, want []csj.Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", label, len(got), len(want))
	}
	for i := range got {
		w := want[i]
		if got[i].Index != w.Index || got[i].Skipped != w.Skipped {
			t.Fatalf("%s: entry %d = cand %d (skipped=%v), reference cand %d (skipped=%v)",
				label, i, got[i].Index, got[i].Skipped, w.Index, w.Skipped)
		}
		if (got[i].Result == nil) != (w.Result == nil) {
			t.Fatalf("%s: entry %d result presence diverges", label, i)
		}
		if got[i].Result == nil {
			continue
		}
		if got[i].Result.Similarity != w.Result.Similarity {
			t.Fatalf("%s: entry %d similarity %v, reference %v",
				label, i, got[i].Result.Similarity, w.Result.Similarity)
		}
		if len(got[i].Result.Pairs) != len(w.Result.Pairs) {
			t.Fatalf("%s: entry %d matched %d pairs, reference %d",
				label, i, len(got[i].Result.Pairs), len(w.Result.Pairs))
		}
		// The bound must dominate the exact similarity it gated.
		if got[i].ApproxSimilarity < got[i].Result.Similarity {
			t.Fatalf("%s: entry %d bound %v below exact similarity %v",
				label, i, got[i].ApproxSimilarity, got[i].Result.Similarity)
		}
	}
}

// TestIndexedTopKExactness is the pruning soundness property: across
// randomized clustered corpora and epsilons, the indexed top-k must
// return, cell for cell, the exhaustive exact ranking truncated to k.
// The last trial of each seed runs 150 candidates, past the engines'
// 64-summary fetch blocks. Failures name the seed.
func TestIndexedTopKExactness(t *testing.T) {
	for _, seed := range []int64{101, 202, 303, 404, 505} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			noise := int32(500 + rng.Intn(3000))
			eps := int32(rng.Intn(4000))
			k := 1 + rng.Intn(8)
			n := 40
			if trial == 3 {
				n = 150
			}
			opts := &csj.Options{Epsilon: eps, Workers: 1}
			pivot, pcs, sums := indexedCorpus(t, rng, n, 1+rng.Intn(12), 1+rng.Intn(6), noise, opts)
			label := fmt.Sprintf("seed=%d trial=%d n=%d eps=%d noise=%d k=%d", seed, trial, n, eps, noise, k)
			checkIndexedTopK(t, label, pivot, pcs, sums, k, opts)
		}
	}
}

// TestIndexedTopKDenseCorpus runs the oracle where scores crowd: a
// 40-user pivot and 12 candidates of 35-49 users over small counters,
// so nearly every pair joins and the best similarities lie a few
// hundredths apart. On this shape an Ap-MinMax prefilter of the 2k
// best drops true top-k members: at seed 2, d 4, the exact second
// (c3, 0.8250) ranks fifth by Ap score, tied with c1 at 0.7250.
func TestIndexedTopKDenseCorpus(t *testing.T) {
	shapes := []struct {
		d             int
		counters, eps int32
	}{{3, 10, 2}, {4, 8, 2}, {5, 8, 2}, {6, 10, 3}, {8, 10, 3}}
	for seed := int64(1); seed <= 8; seed++ {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(seed))
			opts := &csj.Options{Epsilon: sh.eps, Workers: 1}
			pivot, err := csj.Precompute(randComm(rng, "pivot", 40, sh.d, sh.counters), opts)
			if err != nil {
				t.Fatal(err)
			}
			pcs := make([]*csj.PreparedCommunity, 12)
			for i := range pcs {
				c := randComm(rng, fmt.Sprintf("c%d", i), 35+rng.Intn(15), sh.d, sh.counters)
				if pcs[i], err = csj.Precompute(c, opts); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("seed=%d d=%d counters=0-%d eps=%d", seed, sh.d, sh.counters, sh.eps)
			checkIndexedTopK(t, label, pivot, pcs, summarize(t, pcs), 2, opts)
		}
	}
}

// checkRankAbove is the indexed threshold-ranking oracle: it runs one
// query through RankAboveIndexedFrom on a candidate slice and on a
// store snapshot's candidate source, and requires each to return the
// exhaustive RankPrepared ranking filtered to minSim — the scored
// entries reaching it, then the errored ones — cell for cell, with the
// same stats, every candidate accounted for once, and a view resolved
// for exactly the visited candidates.
func checkRankAbove(t *testing.T, label string, pivot *csj.PreparedCommunity, pcs []*csj.PreparedCommunity, sums []*csj.CommunitySummary, method csj.Method, minSim float64, opts *csj.Options) {
	t.Helper()
	ranked, err := csj.RankPrepared(pivot, pcs, method, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	var want, failed []csj.Ranked
	for _, r := range ranked {
		switch {
		case r.Err != nil:
			failed = append(failed, r)
		case r.Result != nil && r.Result.Similarity >= minSim:
			want = append(want, r)
		}
	}
	want = append(want, failed...)

	var stats csj.IndexStats
	sopts := *opts
	sopts.OnIndexStats = func(s csj.IndexStats) { stats = s }
	src := &sliceSource{pcs: pcs, sums: sums}
	got, err := csj.RankAboveIndexedFrom(context.Background(), pivot, src, method, minSim, &sopts)
	if err != nil {
		t.Fatalf("%s: RankAboveIndexedFrom: %v", label, err)
	}
	checkRankedCells(t, label+" slice route", got, want)
	indexed := stats
	checkIndexStats(t, label, stats, len(pcs), src.resolved)

	slabel := label + " snapshot route"
	st, ssrc := snapshotRoute(t, slabel, pivot, pcs, opts)
	got, err = csj.RankAboveIndexedFrom(context.Background(), pivot, ssrc, method, minSim, &sopts)
	if err != nil {
		t.Fatalf("%s: RankAboveIndexedFrom: %v", slabel, err)
	}
	checkRankedCells(t, slabel, got, want)
	if stats != indexed {
		t.Fatalf("%s: stats %+v, slice route %+v", slabel, stats, indexed)
	}
	if builds := st.CacheStats().Builds; builds != stats.Visited {
		t.Fatalf("%s: %d views built for %d visited candidates", slabel, builds, stats.Visited)
	}
}

// checkRankedCells compares an indexed threshold ranking with the
// reference.
func checkRankedCells(t *testing.T, label string, got, want []csj.Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s: entry %d = cand %d (err %v), reference cand %d (err %v)",
				label, i, g.Index, g.Err, w.Index, w.Err)
		}
		if (g.Result == nil) != (w.Result == nil) {
			t.Fatalf("%s: entry %d result presence diverges", label, i)
		}
		if g.Result == nil {
			continue
		}
		if g.Result.Similarity != w.Result.Similarity || len(g.Result.Pairs) != len(w.Result.Pairs) {
			t.Fatalf("%s: entry %d similarity %v (%d pairs), reference %v (%d pairs)", label, i,
				g.Result.Similarity, len(g.Result.Pairs), w.Result.Similarity, len(w.Result.Pairs))
		}
	}
}

// TestRankAboveExactness: the indexed threshold ranking must equal the
// exhaustive ranking filtered to minSim, for exact and approximate
// methods alike. The approximate cases run 140 candidates, past the
// engines' 64-summary fetch blocks.
func TestRankAboveExactness(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		rng := rand.New(rand.NewSource(seed))
		for _, method := range []csj.Method{csj.ExMinMax, csj.ApMinMax} {
			noise := int32(500 + rng.Intn(2500))
			eps := int32(rng.Intn(3500))
			minSim := rng.Float64() * 0.9
			n := 36
			if method == csj.ApMinMax {
				n = 140
			}
			opts := &csj.Options{Epsilon: eps, Workers: 1}
			pivot, pcs, sums := indexedCorpus(t, rng, n, 1+rng.Intn(9), 1+rng.Intn(5), noise, opts)
			label := fmt.Sprintf("seed=%d method=%v n=%d eps=%d minSim=%.3f", seed, method, n, eps, minSim)
			checkRankAbove(t, label, pivot, pcs, sums, method, minSim, opts)
		}
	}
}

// TestTopKIndexedPrunesSelectiveCorpus: on a clustered corpus with a
// selective epsilon the indexed engine must actually skip most joins,
// not merely match the reference.
func TestTopKIndexedPrunesSelectiveCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	opts := &csj.Options{Epsilon: 1500, Workers: 1}
	pivot, pcs, sums := indexedCorpus(t, rng, 64, 16, 6, 1000, opts)
	var stats csj.IndexStats
	iopts := *opts
	iopts.OnIndexStats = func(s csj.IndexStats) { stats = s }
	src := &sliceSource{pcs: pcs, sums: sums}
	if _, err := csj.TopKIndexed(pivot, src.candidates(), 3, &iopts); err != nil {
		t.Fatal(err)
	}
	if stats.Pruned == 0 || stats.Visited >= stats.Candidates/2 {
		t.Fatalf("expected substantial pruning on a selective corpus, stats %+v", stats)
	}
	t.Logf("topk pruning: %+v", stats)
}

// TestTopKIndexedPadsWithSkipped: when fewer than k candidates satisfy
// the size precondition, the tail is padded with Skipped entries by
// ascending index.
func TestTopKIndexedPadsWithSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randBase(rng, 4)
	opts := &csj.Options{Epsilon: 100}
	pivot, err := csj.Precompute(clusteredComm(rng, "pivot", 40, base, 200), opts)
	if err != nil {
		t.Fatal(err)
	}
	cands := []*csj.Community{
		clusteredComm(rng, "tiny", 5, base, 200), // violates ceil(40/2) <= 5
		clusteredComm(rng, "ok", 38, base, 200),
		clusteredComm(rng, "tiny2", 6, base, 200),
	}
	pcs := make([]*csj.PreparedCommunity, len(cands))
	for i, c := range cands {
		if pcs[i], err = csj.Precompute(c, opts); err != nil {
			t.Fatal(err)
		}
	}
	src := &sliceSource{pcs: pcs, sums: summarize(t, pcs)}
	got, err := csj.TopKIndexed(pivot, src.candidates(), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d entries, want 3", len(got))
	}
	if got[0].Name != "ok" || got[0].Result == nil {
		t.Fatalf("first entry = %+v, want scored 'ok'", got[0])
	}
	if !got[1].Skipped || !got[2].Skipped || got[1].Index != 0 || got[2].Index != 2 {
		t.Fatalf("padding entries = %+v, %+v; want skipped cands 0 and 2", got[1], got[2])
	}
}

// TestIndexSummaryAPI covers the small summary surface: sizes,
// footprints, equality, and the public bound.
func TestIndexSummaryAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	base := randBase(rng, 5)
	c := clusteredComm(rng, "c", 30, base, 400)
	s1, err := csj.SummarizeCommunity(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Size() != 30 {
		t.Fatalf("summary size = %d, want 30", s1.Size())
	}
	if s1.Footprint() <= 0 {
		t.Fatal("summary footprint must be positive")
	}
	pc, err := csj.Precompute(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pc.Summarize(0)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Fatal("summaries from Community and PreparedCommunity differ")
	}
	if ub := csj.UpperBoundPairs(s1, s2, 0); ub != 30 {
		t.Fatalf("self bound = %d, want 30", ub)
	}
	far := clusteredComm(rng, "far", 30, randBase(rng, 5), 10)
	s3, err := csj.SummarizeCommunity(far, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Equal(s3) {
		t.Fatal("summaries of unrelated communities compare equal")
	}
}
