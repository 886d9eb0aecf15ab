package csj_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	csj "github.com/opencsj/csj"
)

// randEpsVec synthesizes a heterogeneous per-dimension tolerance in a
// band around scale, guaranteed not all-equal for d >= 2.
func randEpsVec(rng *rand.Rand, d int, scale int32) []int32 {
	vec := make([]int32, d)
	for j := range vec {
		vec[j] = rng.Int31n(scale + 1)
	}
	if d >= 2 && vec[0] == vec[1] {
		vec[0]++
	}
	return vec
}

// TestSpecAllEqualVecMatchesScalar is the public canonicalization
// property: an all-equal epsilon vector must be cell-for-cell
// identical to the scalar spelling across every method — including
// Baseline and SuperEGO, which only understand scalars, because the
// all-equal vector collapses before method dispatch.
func TestSpecAllEqualVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 8; trial++ {
		d := 1 + rng.Intn(5)
		eps := rng.Int31n(3)
		vec := make([]int32, d)
		for j := range vec {
			vec[j] = eps
		}
		nB := 5 + rng.Intn(15)
		b := randComm(rng, "B", nB, d, 8)
		a := randComm(rng, "A", nB+rng.Intn(nB), d, 8) // |A| < 2|B| keeps the size precondition

		for _, m := range csj.Methods {
			sres, err := csj.Similarity(context.Background(), b, a, m, &csj.Options{Epsilon: eps, VerifyInteger: true})
			if err != nil {
				t.Fatalf("%v scalar: %v", m, err)
			}
			vres, err := csj.Similarity(context.Background(), b, a, m, &csj.Options{EpsilonVec: vec, VerifyInteger: true})
			if err != nil {
				t.Fatalf("%v vector: %v", m, err)
			}
			if sres.Similarity != vres.Similarity || !reflect.DeepEqual(sres.Pairs, vres.Pairs) {
				t.Fatalf("%v: all-equal vector diverges from scalar (sim %v vs %v)",
					m, sres.Similarity, vres.Similarity)
			}
		}
		// Prepared path: both spellings must build compatible views and
		// join identically.
		ps, err := csj.Precompute(b, &csj.Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		pv, err := csj.Precompute(a, &csj.Options{EpsilonVec: vec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := csj.SimilarityPrepared(ps, pv, csj.ExMinMax, &csj.Options{EpsilonVec: vec})
		if err != nil {
			t.Fatalf("mixed-spelling prepared join: %v", err)
		}
		want, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.Similarity != want.Similarity {
			t.Fatalf("prepared all-equal vector diverges: %v vs %v", res.Similarity, want.Similarity)
		}
	}
}

// TestEpsilonVecRequiresMinMax: a genuinely heterogeneous vector must
// be rejected by the scalar-only method families with the pinned
// sentinel, and accepted by the MinMax family.
func TestEpsilonVecRequiresMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	b := randComm(rng, "B", 6, 3, 8)
	a := randComm(rng, "A", 8, 3, 8)
	vec := []int32{0, 2, 1}
	for _, m := range []csj.Method{csj.ApBaseline, csj.ExBaseline, csj.ApSuperEGO, csj.ExSuperEGO} {
		if _, err := csj.Similarity(context.Background(), b, a, m, &csj.Options{EpsilonVec: vec}); !errors.Is(err, csj.ErrEpsilonVecUnsupported) {
			t.Fatalf("%v: err = %v, want ErrEpsilonVecUnsupported", m, err)
		}
	}
	for _, m := range []csj.Method{csj.ApMinMax, csj.ExMinMax} {
		if _, err := csj.Similarity(context.Background(), b, a, m, &csj.Options{EpsilonVec: vec}); err != nil {
			t.Fatalf("%v rejected a valid epsilon vector: %v", m, err)
		}
	}
	if _, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{EpsilonVec: []int32{1, 2}}); err == nil {
		t.Fatal("length-mismatched vector accepted")
	}
	if _, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{EpsilonVec: []int32{1, -2, 0}}); err == nil {
		t.Fatal("negative vector entry accepted")
	}
}

// TestEpsilonVecIndexedExactness is the heterogeneous-tolerance
// pruning soundness property: with a per-dimension vector, the indexed
// top-k and threshold-ranking engines must return, cell for cell, the
// exhaustive ranking cut to k or to the threshold.
func TestEpsilonVecIndexedExactness(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 3; trial++ {
			d := 2 + rng.Intn(5)
			noise := int32(500 + rng.Intn(2500))
			vec := randEpsVec(rng, d, 4000)
			k := 1 + rng.Intn(6)
			minSim := rng.Float64() * 0.9
			opts := &csj.Options{EpsilonVec: vec, Workers: 1}
			pivot, pcs, sums := indexedCorpus(t, rng, 36, 1+rng.Intn(10), d, noise, opts)
			label := fmt.Sprintf("seed=%d trial=%d vec=%v k=%d minSim=%.3f", seed, trial, vec, k, minSim)
			checkIndexedTopK(t, label, pivot, pcs, sums, k, opts)
			checkRankAbove(t, label, pivot, pcs, sums, csj.ExMinMax, minSim, opts)
		}
	}
}

// TestScorerIndexedExactness: composite-scorer pruning must stay
// exact — the lifted bounds may only widen, never cut a true answer
// (checkIndexedTopK also requires each bound to dominate its blended
// similarity).
func TestScorerIndexedExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	sc := &csj.ScorerSpec{CSJWeight: 2, CategoryWeight: 1, CosineWeight: 1}
	opts := &csj.Options{Epsilon: 2000, Workers: 1, Scorer: sc}
	pivot, pcs, sums := indexedCorpus(t, rng, 32, 6, 4, 1200, opts)
	checkIndexedTopK(t, "scorer", pivot, pcs, sums, 5, opts)
	checkRankAbove(t, "scorer", pivot, pcs, sums, csj.ExMinMax, 0.4, opts)
}

// TestScorerBlend pins the composite score on a hand-built pair: CSJ 0
// (no profile matches under eps 0), category overlap 1, cosine 1
// (parallel centroids), so a (2, 1, 1)-weighted blend is exactly 0.5.
func TestScorerBlend(t *testing.T) {
	b := &csj.Community{Name: "B", Category: 3, Users: []csj.Vector{{1, 1}}}
	a := &csj.Community{Name: "A", Category: 3, Users: []csj.Vector{{0, 2}, {2, 0}}}
	sc := &csj.ScorerSpec{CSJWeight: 2, CategoryWeight: 1, CosineWeight: 1}
	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 0, Scorer: sc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blend == nil {
		t.Fatal("scored result has no Blend")
	}
	if res.Blend.CSJ != 0 || res.Blend.Category != 1 {
		t.Fatalf("Blend = %+v, want CSJ 0 and Category 1", res.Blend)
	}
	// b's centroid normalizes to (1, 1) and a's to (0.5, 0.5): parallel,
	// cosine 1 up to float rounding.
	if math.Abs(res.Blend.Cosine-1) > 1e-12 {
		t.Fatalf("Blend.Cosine = %v, want 1", res.Blend.Cosine)
	}
	if math.Abs(res.Similarity-0.5) > 1e-12 {
		t.Fatalf("blended similarity = %v, want 0.5", res.Similarity)
	}

	// Prepared path must blend identically, including on reused results.
	pb, err := csj.Precompute(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := csj.Precompute(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := csj.SimilarityPrepared(pb, pa, csj.ExMinMax, &csj.Options{Epsilon: 0, Scorer: sc})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Similarity != res.Similarity || *pres.Blend != *res.Blend {
		t.Fatalf("prepared blend diverges: %v %+v vs %v %+v",
			pres.Similarity, pres.Blend, res.Similarity, res.Blend)
	}

	// Different categories: the category component drops to 0. Two
	// unknown categories (-1) must not count as agreement either.
	a2 := &csj.Community{Name: "A2", Category: 9, Users: a.Users}
	res2, err := csj.Similarity(context.Background(), b, a2, csj.ExMinMax, &csj.Options{Epsilon: 0, Scorer: sc})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Blend.Category != 0 {
		t.Fatalf("mismatched categories blend Category = %v, want 0", res2.Blend.Category)
	}
	bu := &csj.Community{Name: "BU", Category: -1, Users: b.Users}
	au := &csj.Community{Name: "AU", Category: -1, Users: a.Users}
	res3, err := csj.Similarity(context.Background(), bu, au, csj.ExMinMax, &csj.Options{Epsilon: 0, Scorer: sc})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Blend.Category != 0 {
		t.Fatalf("two unknown categories blend Category = %v, want 0", res3.Blend.Category)
	}
}

// TestScorerValidationAndNoop: invalid scorers are rejected with the
// pinned sentinel on every entry point; a scorer that normalizes to
// the pure CSJ score is canonicalized away entirely (no Blend).
// TestScorerRejectsNonFiniteWeights pins that a NaN or infinite
// weight, and finite weights whose sum overflows, are bad scorers: the
// normalization divides by the sum, so such a scorer would blend every
// similarity to 0 or NaN. Large weights with a finite sum still blend.
func TestScorerRejectsNonFiniteWeights(t *testing.T) {
	b := &csj.Community{Name: "B", Category: 2, Users: []csj.Vector{{1, 2}, {3, 4}, {5, 6}}}
	for _, sc := range []*csj.ScorerSpec{
		{CSJWeight: math.NaN(), CategoryWeight: 1},
		{CSJWeight: 1, CosineWeight: math.Inf(1)},
		{CSJWeight: 1e308, CategoryWeight: 1e308},
	} {
		if err := sc.Validate(); !errors.Is(err, csj.ErrBadScorer) {
			t.Errorf("Validate(%+v) = %v, want ErrBadScorer", sc, err)
		}
		if _, err := csj.Similarity(context.Background(), b, b, csj.ExMinMax, &csj.Options{Scorer: sc}); !errors.Is(err, csj.ErrBadScorer) {
			t.Errorf("Similarity with scorer %+v: err = %v, want ErrBadScorer", sc, err)
		}
	}
	res, err := csj.Similarity(context.Background(), b, b, csj.ExMinMax, &csj.Options{Scorer: &csj.ScorerSpec{CSJWeight: 1e307, CategoryWeight: 1e307}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Similarity-1) > 1e-12 {
		t.Fatalf("self-join blended similarity = %v, want 1", res.Similarity)
	}
}

func TestScorerValidationAndNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	b := randComm(rng, "B", 5, 3, 6)
	a := randComm(rng, "A", 6, 3, 6)
	for _, sc := range []*csj.ScorerSpec{
		{CSJWeight: -1, CategoryWeight: 1},
		{},
	} {
		if _, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1, Scorer: sc}); !errors.Is(err, csj.ErrBadScorer) {
			t.Fatalf("scorer %+v: err = %v, want ErrBadScorer", sc, err)
		}
		pb, err := csj.Precompute(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := csj.Precompute(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := csj.SimilarityPrepared(pb, pa, csj.ExMinMax, &csj.Options{Epsilon: 1, Scorer: sc}); !errors.Is(err, csj.ErrBadScorer) {
			t.Fatalf("prepared scorer %+v: err = %v, want ErrBadScorer", sc, err)
		}
	}
	plain, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	noop, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1, Scorer: &csj.ScorerSpec{CSJWeight: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if noop.Similarity != plain.Similarity || noop.Blend != nil {
		t.Fatalf("no-op scorer not canonicalized away: sim %v vs %v, blend %+v",
			noop.Similarity, plain.Similarity, noop.Blend)
	}
}

// TestMatchSpecDigest pins the spec-digest contract the store's view
// cache keys on: canonical spellings collapse, distinct specs (even
// ones whose naive string encodings would collide) stay distinct, and
// the digest is deterministic.
func TestMatchSpecDigest(t *testing.T) {
	const d = 2
	s1 := csj.MatchSpec{EpsilonVec: []int32{1, 23}}
	s2 := csj.MatchSpec{EpsilonVec: []int32{12, 3}}
	if s1.Digest(d) == s2.Digest(d) {
		t.Fatal("epsilon vectors [1,23] and [12,3] share a digest")
	}
	if s1.Digest(d) != s1.Digest(d) {
		t.Fatal("digest is not deterministic")
	}

	// Canonicalization: all-equal vector == scalar, parts 0 == the
	// explicit default, no-op scorer == no scorer.
	if (csj.MatchSpec{EpsilonVec: []int32{2, 2}}).Digest(d) != (csj.MatchSpec{Epsilon: 2}).Digest(d) {
		t.Fatal("all-equal vector digests differently from its scalar")
	}
	if (csj.MatchSpec{Epsilon: 1}).Digest(d) != (csj.MatchSpec{Epsilon: 1, Parts: csj.DefaultParts}).Digest(d) {
		t.Fatal("default parts digests differently from the explicit default")
	}
	if (csj.MatchSpec{Epsilon: 1, Scorer: &csj.ScorerSpec{CSJWeight: 3}}).Digest(d) != (csj.MatchSpec{Epsilon: 1}).Digest(d) {
		t.Fatal("no-op scorer digests differently from no scorer")
	}

	// Distinctions that must hold.
	if (csj.MatchSpec{Epsilon: 1}).Digest(d) == (csj.MatchSpec{Epsilon: 2}).Digest(d) {
		t.Fatal("different scalars share a digest")
	}
	// A negative part count is an error everywhere else, so it must not
	// share the default's digest (or a cached default view).
	if (csj.MatchSpec{Epsilon: 1, Parts: -1}).Digest(d) == (csj.MatchSpec{Epsilon: 1}).Digest(d) {
		t.Fatal("parts -1 digests like the default parts")
	}
	scored := csj.MatchSpec{Epsilon: 1, Scorer: &csj.ScorerSpec{CSJWeight: 1, CosineWeight: 1}}
	if scored.Digest(d) == (csj.MatchSpec{Epsilon: 1}).Digest(d) {
		t.Fatal("a real scorer does not change the digest")
	}
	// ViewSpec strips the scorer: view digests are scorer-independent.
	if scored.ViewSpec().Digest(d) != (csj.MatchSpec{Epsilon: 1}).Digest(d) {
		t.Fatal("ViewSpec digest still depends on the scorer")
	}
	// Scorer weights digest by normalized value: (1, 0, 1) == (2, 0, 2).
	if scored.Digest(d) != (csj.MatchSpec{Epsilon: 1, Scorer: &csj.ScorerSpec{CSJWeight: 2, CosineWeight: 2}}).Digest(d) {
		t.Fatal("proportional scorer weights digest differently")
	}
}
