package core

import (
	"math/rand"
	"testing"

	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

func randCommunity(rng *rand.Rand, name string, n, d int, maxVal int32) *vector.Community {
	users := make([]vector.Vector, n)
	for i := range users {
		u := make(vector.Vector, d)
		for j := range u {
			u[j] = rng.Int31n(maxVal + 1)
		}
		users[i] = u
	}
	return &vector.Community{Name: name, Category: -1, Users: users}
}

// checkValidResult asserts that the result is a valid CSJ answer: a
// one-to-one matching whose every pair satisfies the per-dimension
// epsilon condition.
func checkValidResult(t *testing.T, b, a *vector.Community, res *Result, eps int32) {
	t.Helper()
	seenB := map[int32]bool{}
	seenA := map[int32]bool{}
	for _, p := range res.Pairs {
		if p.B < 0 || int(p.B) >= b.Size() || p.A < 0 || int(p.A) >= a.Size() {
			t.Fatalf("pair %v out of range", p)
		}
		if seenB[p.B] || seenA[p.A] {
			t.Fatalf("pairs are not one-to-one: %v repeated", p)
		}
		seenB[p.B], seenA[p.A] = true, true
		if !vector.MatchEpsilon(b.Users[p.B], a.Users[p.A], eps) {
			t.Fatalf("pair %v does not satisfy the epsilon condition", p)
		}
	}
}

// optimum computes the true maximum number of one-to-one matches by
// building the full match graph and running Hopcroft–Karp.
func optimum(b, a *vector.Community, eps int32) int {
	g := matching.NewGraph()
	for bi, ub := range b.Users {
		for ai, ua := range a.Users {
			if vector.MatchEpsilon(ub, ua, eps) {
				g.AddEdge(int32(bi), int32(ai))
			}
		}
	}
	return matching.MaximumMatchingSize(g)
}

// The paper's Section 3 worked example: the exact method must reach
// similarity 100% by pairing b1 with a2 and b2 with a3.
func TestSection3ExampleExact(t *testing.T) {
	b := &vector.Community{Name: "B", Users: []vector.Vector{
		{3, 4, 2}, // b1 = Music 3, Sport 4, Education 2
		{2, 2, 3}, // b2
	}}
	a := &vector.Community{Name: "A", Users: []vector.Vector{
		{2, 3, 5}, // a1
		{2, 3, 1}, // a2
		{3, 3, 3}, // a3
	}}
	res, err := ExMinMax(b, a, Options{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkValidResult(t, b, a, res, 1)
	if got := res.Similarity(b.Size()); got != 1.0 {
		t.Errorf("exact similarity = %.2f, want 1.00", got)
	}
	// The approximate method on this input also reaches 100% thanks to
	// the encoded order (b2 scans first), but in general it may not;
	// assert only validity and a lower bound of one pair.
	apRes, err := ApMinMax(b, a, Options{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkValidResult(t, b, a, apRes, 1)
	if len(apRes.Pairs) < 1 {
		t.Error("approximate method should find at least one pair here")
	}
}

func TestIdenticalCommunitiesPerfectSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randCommunity(rng, "C", 60, 8, 20)
	// With the optimal matcher, joining a community with itself must give
	// similarity 1.0 (the identity matching exists).
	res, err := ExMinMax(c, c, Options{Eps: 0, Matcher: matching.HopcroftKarp})
	if err != nil {
		t.Fatal(err)
	}
	checkValidResult(t, c, c, res, 0)
	if got := res.Similarity(c.Size()); got != 1.0 {
		t.Errorf("self-similarity = %.3f, want 1.0", got)
	}
}

func TestDisjointCommunitiesZeroSimilarity(t *testing.T) {
	b := &vector.Community{Name: "B", Users: []vector.Vector{{0, 0}, {1, 1}}}
	a := &vector.Community{Name: "A", Users: []vector.Vector{{100, 100}, {200, 200}}}
	for _, f := range []func(*vector.Community, *vector.Community, Options) (*Result, error){ApMinMax, ExMinMax} {
		res, err := f(b, a, Options{Eps: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != 0 {
			t.Errorf("found %d pairs between disjoint communities, want 0", len(res.Pairs))
		}
	}
}

func TestValidationErrors(t *testing.T) {
	good := &vector.Community{Name: "g", Users: []vector.Vector{{1, 2}}}
	empty := &vector.Community{Name: "e"}
	badDim := &vector.Community{Name: "d", Users: []vector.Vector{{1, 2, 3}}}
	if _, err := ApMinMax(empty, good, Options{Eps: 1}); err == nil {
		t.Error("expected error for empty B")
	}
	if _, err := ExMinMax(good, empty, Options{Eps: 1}); err == nil {
		t.Error("expected error for empty A")
	}
	if _, err := ApMinMax(good, badDim, Options{Eps: 1}); err == nil {
		t.Error("expected error for dimension mismatch")
	}
	if _, err := ExMinMax(good, good, Options{Eps: -1}); err == nil {
		t.Error("expected error for negative epsilon")
	}
}

// Ex-MinMax with the Hopcroft–Karp matcher must equal the global
// optimum: the maxV segment flushing provably partitions the match graph
// into independent components, so per-segment maxima sum to the global
// maximum.
func TestExMinMaxWithHKEqualsGlobalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(8)
		eps := rng.Int31n(3)
		maxVal := int32(2 + rng.Intn(12)) // small domain -> dense matches
		nb, na := 5+rng.Intn(60), 5+rng.Intn(60)
		b := randCommunity(rng, "B", nb, d, maxVal)
		a := randCommunity(rng, "A", na, d, maxVal)
		res, err := ExMinMax(b, a, Options{Eps: eps, Matcher: matching.HopcroftKarp})
		if err != nil {
			t.Fatal(err)
		}
		checkValidResult(t, b, a, res, eps)
		if want := optimum(b, a, eps); len(res.Pairs) != want {
			t.Fatalf("trial %d: ExMinMax(HK) found %d pairs, optimum is %d (d=%d eps=%d nb=%d na=%d)",
				trial, len(res.Pairs), want, d, eps, nb, na)
		}
	}
}

// Randomized cross-checks of all MinMax variants: validity, the
// approximate <= optimum ordering, and CSF staying within the optimum.
func TestMinMaxRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(10)
		parts := 1 + rng.Intn(min(4, d))
		eps := rng.Int31n(4)
		maxVal := int32(2 + rng.Intn(20))
		nb, na := 1+rng.Intn(50), 1+rng.Intn(50)
		b := randCommunity(rng, "B", nb, d, maxVal)
		a := randCommunity(rng, "A", na, d, maxVal)
		opt := optimum(b, a, eps)

		ap, err := ApMinMax(b, a, Options{Eps: eps, Parts: parts})
		if err != nil {
			t.Fatal(err)
		}
		checkValidResult(t, b, a, ap, eps)
		if len(ap.Pairs) > opt {
			t.Fatalf("Ap-MinMax found %d pairs, exceeding optimum %d", len(ap.Pairs), opt)
		}

		ex, err := ExMinMax(b, a, Options{Eps: eps, Parts: parts})
		if err != nil {
			t.Fatal(err)
		}
		checkValidResult(t, b, a, ex, eps)
		if len(ex.Pairs) > opt {
			t.Fatalf("Ex-MinMax(CSF) found %d pairs, exceeding optimum %d", len(ex.Pairs), opt)
		}
		// The match events of the exact scan must cover every edge of the
		// full match graph: no false misses.
		var full int64
		for _, ub := range b.Users {
			for _, ua := range a.Users {
				if vector.MatchEpsilon(ub, ua, eps) {
					full++
				}
			}
		}
		if ex.Events.Matches != full {
			t.Fatalf("Ex-MinMax observed %d match events, full graph has %d edges",
				ex.Events.Matches, full)
		}
	}
}

// The skip/offset mechanism is a pure fast-forward: disabling it must
// not change any result, only the amount of work.
func TestDisableSkipOffsetSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		d := 1 + rng.Intn(8)
		eps := rng.Int31n(3)
		b := randCommunity(rng, "B", 5+rng.Intn(40), d, 10)
		a := randCommunity(rng, "A", 5+rng.Intn(40), d, 10)

		ap1, _ := ApMinMax(b, a, Options{Eps: eps})
		ap2, _ := ApMinMax(b, a, Options{Eps: eps, DisableSkipOffset: true})
		if len(ap1.Pairs) != len(ap2.Pairs) {
			t.Fatalf("Ap-MinMax results differ with skip/offset disabled: %d vs %d",
				len(ap1.Pairs), len(ap2.Pairs))
		}
		for i := range ap1.Pairs {
			if ap1.Pairs[i] != ap2.Pairs[i] {
				t.Fatalf("Ap-MinMax pair %d differs: %v vs %v", i, ap1.Pairs[i], ap2.Pairs[i])
			}
		}

		ex1, _ := ExMinMax(b, a, Options{Eps: eps})
		ex2, _ := ExMinMax(b, a, Options{Eps: eps, DisableSkipOffset: true})
		if len(ex1.Pairs) != len(ex2.Pairs) {
			t.Fatalf("Ex-MinMax results differ with skip/offset disabled: %d vs %d",
				len(ex1.Pairs), len(ex2.Pairs))
		}
	}
}

// Varying the parts count changes pruning power but never the exact
// result (with the optimal matcher).
func TestPartsCountDoesNotChangeExactResult(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	d := 12
	b := randCommunity(rng, "B", 50, d, 8)
	a := randCommunity(rng, "A", 60, d, 8)
	var base int
	for i, parts := range []int{1, 2, 4, 6, 12} {
		res, err := ExMinMax(b, a, Options{Eps: 1, Parts: parts, Matcher: matching.HopcroftKarp})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = len(res.Pairs)
			continue
		}
		if len(res.Pairs) != base {
			t.Errorf("parts=%d changed the exact match count: %d vs %d", parts, len(res.Pairs), base)
		}
	}
}

func TestEpsilonZeroMeansExactEquality(t *testing.T) {
	b := &vector.Community{Name: "B", Users: []vector.Vector{{1, 2}, {3, 4}}}
	a := &vector.Community{Name: "A", Users: []vector.Vector{{1, 2}, {5, 6}}}
	res, err := ExMinMax(b, a, Options{Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("found %d pairs, want exactly 1 (the identical vectors)", len(res.Pairs))
	}
	if res.Pairs[0].B != 0 || res.Pairs[0].A != 0 {
		t.Errorf("pair = %v, want <0,0>", res.Pairs[0])
	}
}

func TestSingletonCommunities(t *testing.T) {
	b := &vector.Community{Name: "B", Users: []vector.Vector{{5}}}
	a := &vector.Community{Name: "A", Users: []vector.Vector{{6}}}
	for _, eps := range []int32{0, 1} {
		res, err := ApMinMax(b, a, Options{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if eps >= 1 {
			want = 1
		}
		if len(res.Pairs) != want {
			t.Errorf("eps=%d: found %d pairs, want %d", eps, len(res.Pairs), want)
		}
	}
}

// Large epsilon turns the join into a complete bipartite graph; the
// exact method must then match every b (similarity 1.0 when |B| <= |A|).
func TestHugeEpsilonMatchesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	b := randCommunity(rng, "B", 20, 5, 100)
	a := randCommunity(rng, "A", 30, 5, 100)
	res, err := ExMinMax(b, a, Options{Eps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Similarity(b.Size()); got != 1.0 {
		t.Errorf("similarity = %.3f, want 1.0", got)
	}
}

func TestResultSimilarity(t *testing.T) {
	r := &Result{Pairs: []matching.Pair{{B: 0, A: 0}, {B: 1, A: 2}}}
	if got := r.Similarity(4); got != 0.5 {
		t.Errorf("Similarity(4) = %v, want 0.5", got)
	}
	if got := r.Similarity(0); got != 0 {
		t.Errorf("Similarity(0) = %v, want 0", got)
	}
}

func TestEventsAddAndComparisons(t *testing.T) {
	e := Events{MinPrunes: 11, MaxPrunes: 5, NoMatches: 3, Matches: 3, CSFCalls: 2}
	if got := e.Comparisons(); got != 6 {
		t.Errorf("Comparisons = %d, want 6", got)
	}
}

func TestEventKindStrings(t *testing.T) {
	wants := map[EventKind]string{
		EvMinPrune:  "MIN PRUNE",
		EvMaxPrune:  "MAX PRUNE",
		EvNoOverlap: "NO OVERLAP",
		EvNoMatch:   "NO MATCH",
		EvMatch:     "MATCH",
		EvCSFFlush:  "CSF",
	}
	for k, want := range wants {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := EventKind(99).String(); got != "EventKind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}
