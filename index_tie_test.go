package csj_test

import (
	"fmt"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
)

// Tie regression suite for the indexed top-k cutoff (DESIGN.md §12):
// the engine stops at the first candidate whose (bound, index) ranks
// below the running answer's worst (similarity, index), so candidates
// tied with the kth-best score are pruned by index instead of joined.
// Each case checks every indexed route cell for cell against the
// exhaustive ranking (checkIndexedTopK) and pins the visit count.

// csjWeightZero scores by category alone: every candidate's lifted
// bound is the same, so the visit order must fall back to index order.
var csjWeightZero = &csj.ScorerSpec{CSJWeight: 0, CategoryWeight: 1}

const tieEps = 100

// farComm is a community whose envelope is provably disjoint from
// every other one drawn under tieEps (a fresh random base).
func farComm(rng *rand.Rand, name string, size, d int) *csj.Community {
	return clusteredComm(rng, name, size, randBase(rng, d), 50)
}

// prepareTieCorpus prepares the pivot and candidates and summarizes the
// candidates. Every candidate listed in zero must have an upper bound
// of exactly 0 against the pivot, and every candidate in positive a
// bound above 0, so a fixture cannot silently stop testing what it
// claims to.
func prepareTieCorpus(t *testing.T, pivot *csj.Community, cands []*csj.Community, zero, positive []int) (*csj.PreparedCommunity, []*csj.PreparedCommunity, []*csj.CommunitySummary) {
	t.Helper()
	opts := &csj.Options{Epsilon: tieEps}
	pv, err := csj.Precompute(pivot, opts)
	if err != nil {
		t.Fatal(err)
	}
	pcs := make([]*csj.PreparedCommunity, len(cands))
	for i, c := range cands {
		if pcs[i], err = csj.Precompute(c, opts); err != nil {
			t.Fatal(err)
		}
	}
	sums := summarize(t, pcs)
	ps, err := pv.Summarize(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range zero {
		if ub := csj.UpperBoundPairs(ps, sums[i], tieEps); ub != 0 {
			t.Fatalf("fixture: candidate %d bound = %d, want 0", i, ub)
		}
	}
	for _, i := range positive {
		if ub := csj.UpperBoundPairs(ps, sums[i], tieEps); ub == 0 {
			t.Fatalf("fixture: candidate %d bound = 0, want > 0", i)
		}
	}
	return pv, pcs, sums
}

// tieCase is one fixture with the visit counts it must produce without
// a scorer and under csjWeightZero.
type tieCase struct {
	name                          string
	k                             int
	pivot                         *csj.Community
	cands                         []*csj.Community
	zero, positive                []int
	visited, visitedCSJWeightZero int64
	// check asserts the fixture's facts on the exhaustive ranking.
	check func(t *testing.T, ranked []csj.Ranked)
}

func indexRange(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// nicheCase (a): a pivot with fewer than k positive-bound candidates.
// The engine joins those, then fills the answer with the first
// zero-bound candidates by index — every later one ties them at
// similarity 0 and loses on index — so it joins exactly k.
func nicheCase(rng *rand.Rand) tieCase {
	const d, k = 4, 5
	base := randBase(rng, d)
	pivot := clusteredComm(rng, "pivot", 20, base, 40)
	cands := make([]*csj.Community, 24)
	near := []int{7, 19}
	for i := range cands {
		cands[i] = farComm(rng, fmt.Sprintf("far%d", i), 18+rng.Intn(5), d)
	}
	for _, i := range near {
		cands[i] = clusteredComm(rng, fmt.Sprintf("near%d", i), 20, base, 40)
	}
	var zero []int
	for i := range cands {
		if i != near[0] && i != near[1] {
			zero = append(zero, i)
		}
	}
	return tieCase{name: "niche", k: k, pivot: pivot, cands: cands, zero: zero, positive: near,
		visited: k, visitedCSJWeightZero: k,
		check: func(t *testing.T, ranked []csj.Ranked) {
			// The near candidates must score above 0, or the zero-score
			// tie would start among them instead of the far ones.
			for _, r := range ranked[:len(near)] {
				if r.Index != near[0] && r.Index != near[1] || r.Result.Similarity == 0 {
					t.Fatalf("fixture: near candidates do not lead with positive scores: %+v", r)
				}
			}
		}}
}

// copiesCase (b): more than k exact copies of the pivot, tied at
// bound = similarity = 1.0, after lower-index zero-bound candidates.
// The first k copies fill the answer and the next copy ties the kth at
// 1.0 with a higher index, so exactly k are joined. Under
// csjWeightZero every key is equal, the zero-bound candidates come
// first by index and tie the copies at category overlap 1.
func copiesCase(rng *rand.Rand) tieCase {
	const d, k = 4, 3
	pivot := clusteredComm(rng, "pivot", 20, randBase(rng, d), 40)
	var cands []*csj.Community
	for i := 0; i < 6; i++ {
		cands = append(cands, farComm(rng, fmt.Sprintf("far%d", i), 20, d))
	}
	for i := 0; i < 5; i++ {
		cands = append(cands, cloneCommunity(pivot, fmt.Sprintf("copy%d", i)))
	}
	return tieCase{name: "copies", k: k, pivot: pivot, cands: cands,
		zero: indexRange(0, 6), positive: indexRange(6, 11),
		visited: k, visitedCSJWeightZero: k,
		check: func(t *testing.T, ranked []csj.Ranked) {
			for _, r := range ranked[:5] {
				if r.Result.Similarity != 1 {
					t.Fatalf("fixture: copy %d scores %v, want 1", r.Index, r.Result.Similarity)
				}
			}
		}}
}

// decoyCase (c): the highest-index candidate has a positive bound but
// exact similarity 0 — each of its users matches the pivot's on one
// dimension and misses on the other — among lower-index zero-bound
// candidates. Visited first, it enters the answer, and the index
// tie-break then swaps it out for a zero-bound candidate at similarity
// 0: k+1 joins. Under csjWeightZero the visits run by index: k joins.
func decoyCase(rng *rand.Rand) tieCase {
	const k, far = 3, 10
	base := randBase(rng, 2)
	pivot := clusteredComm(rng, "pivot", 20, base, 40)
	var cands []*csj.Community
	for i := 0; i < far; i++ {
		cands = append(cands, farComm(rng, fmt.Sprintf("far%d", i), 20, 2))
	}
	decoy := &csj.Community{Name: "decoy"}
	for i := 0; i < 20; i++ {
		u := csj.Vector{base[0] + rng.Int31n(80) - 40, base[1] + rng.Int31n(80) - 40}
		u[i%2] += 100000 // far on one dimension, near on the other
		decoy.Users = append(decoy.Users, u)
	}
	cands = append(cands, decoy)
	return tieCase{name: "decoy", k: k, pivot: pivot, cands: cands,
		zero: indexRange(0, far), positive: []int{far},
		visited: k + 1, visitedCSJWeightZero: k,
		check: func(t *testing.T, ranked []csj.Ranked) {
			for _, r := range ranked {
				if r.Result.Similarity != 0 {
					t.Fatalf("fixture: candidate %d scores %v, want 0", r.Index, r.Result.Similarity)
				}
			}
		}}
}

// TestIndexedTopKTies runs cases (a)-(c) without a scorer and again
// under a scorer with CSJWeight 0 (case d), pinning the visit counts.
func TestIndexedTopKTies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []tieCase{nicheCase(rng), copiesCase(rng), decoyCase(rng)} {
		pivot, pcs, sums := prepareTieCorpus(t, tc.pivot, tc.cands, tc.zero, tc.positive)
		ranked, err := csj.RankPrepared(pivot, pcs, csj.ExMinMax, &csj.Options{Epsilon: tieEps})
		if err != nil {
			t.Fatal(err)
		}
		tc.check(t, ranked)
		for _, sc := range []*csj.ScorerSpec{nil, csjWeightZero} {
			label := fmt.Sprintf("%s scorer=%+v", tc.name, sc)
			opts := &csj.Options{Epsilon: tieEps, Workers: 1, Scorer: sc}
			stats := checkIndexedTopK(t, label, pivot, pcs, sums, tc.k, opts)
			want := tc.visited
			if sc != nil {
				want = tc.visitedCSJWeightZero
			}
			if stats.Visited != want {
				t.Errorf("%s: visited %d candidates, want %d (stats %+v)", label, stats.Visited, want, stats)
			}
		}
	}
}

// tieScorers mixes the plain score with composite scorers, including
// CSJWeight 0 ones whose lifted bounds are all equal.
var tieScorers = []*csj.ScorerSpec{
	nil,
	{CSJWeight: 1, CategoryWeight: 1},
	{CSJWeight: 3, CategoryWeight: 1, CosineWeight: 1},
	csjWeightZero,
	{CSJWeight: 0, CategoryWeight: 1, CosineWeight: 1},
}

// tieProneCorpus draws a small corpus built to tie: exact copies of
// the pivot and of earlier candidates, near and far communities, a
// few undersized ones (size-skipped), and categories from {-1, 0, 1}.
func tieProneCorpus(rng *rand.Rand) (pivot *csj.Community, cands []*csj.Community) {
	d := 1 + rng.Intn(4)
	bases := make([][]int32, 1+rng.Intn(3))
	for i := range bases {
		bases[i] = randBase(rng, d)
	}
	category := func() int { return rng.Intn(3) - 1 }
	pivot = clusteredComm(rng, "pivot", 10+rng.Intn(4), bases[0], 100)
	pivot.Category = category()
	cands = make([]*csj.Community, 4+rng.Intn(16))
	for i := range cands {
		name := fmt.Sprintf("c%d", i)
		var c *csj.Community
		switch r := rng.Intn(10); {
		case r < 2:
			c = cloneCommunity(pivot, name)
		case r < 4 && i > 0:
			c = cloneCommunity(cands[rng.Intn(i)], name)
		case r < 7:
			c = clusteredComm(rng, name, 9+rng.Intn(6), bases[rng.Intn(len(bases))], 100)
		case r < 9:
			c = farComm(rng, name, 9+rng.Intn(6), d)
		default:
			c = clusteredComm(rng, name, 2+rng.Intn(3), bases[0], 100) // size-skipped
		}
		if rng.Intn(3) == 0 {
			c.Category = category()
		}
		cands[i] = c
	}
	return pivot, cands
}

// TestIndexedTopKTiesRandomized is the seeded randomized check (case
// e): tie-prone corpora under random epsilons, scorers and k (up to
// past the candidate count, so size-skipped padding shows), with the
// threshold ranking checked too at a minSim taken from the achieved
// scores, where ties with the threshold sit. A failure names its seed.
func TestIndexedTopKTiesRandomized(t *testing.T) {
	for c := int64(0); c < 300; c++ {
		seed := 9000 + c
		rng := rand.New(rand.NewSource(seed))
		pivot, cands := tieProneCorpus(rng)
		opts := &csj.Options{
			Epsilon: []int32{0, 50, 150, 1000}[rng.Intn(4)],
			Workers: 1,
			Scorer:  tieScorers[rng.Intn(len(tieScorers))],
		}
		pv, err := csj.Precompute(pivot, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pcs := make([]*csj.PreparedCommunity, len(cands))
		for i, cm := range cands {
			if pcs[i], err = csj.Precompute(cm, opts); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		sums := summarize(t, pcs)
		k := 1 + rng.Intn(len(cands)+2)
		label := fmt.Sprintf("seed %d (eps=%d scorer=%+v k=%d n=%d)", seed, opts.Epsilon, opts.Scorer, k, len(cands))
		checkIndexedTopK(t, label, pv, pcs, sums, k, opts)

		method := []csj.Method{csj.ExMinMax, csj.ApMinMax}[rng.Intn(2)]
		aopts := *opts
		aopts.P = []float64{0, 0.7, 0.9}[rng.Intn(3)]
		ranked, err := csj.RankPrepared(pv, pcs, method, &aopts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		minSim := 0.5
		if r := ranked[rng.Intn(len(ranked))]; r.Result != nil && r.Result.Similarity > 0 {
			minSim = r.Result.Similarity
		}
		checkRankAbove(t, fmt.Sprintf("%s method=%v p=%v minSim=%v", label, method, aopts.P, minSim),
			pv, pcs, sums, method, minSim, &aopts)
	}
}
