package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/opencsj/csj/internal/dataset"
	"github.com/opencsj/csj/internal/vector"
)

// extremeCommunity synthesizes a community whose counters span the full
// int32 domain, including MinInt32/MaxInt32, so the compare paths are
// exercised where int32 subtraction overflows. (The public API rejects
// negative counters; the core layer must still classify them correctly,
// and the kernel must never wrap.)
func extremeCommunity(rng *rand.Rand, name string, n, d int) *vector.Community {
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	users := make([]vector.Vector, n)
	for i := range users {
		u := make(vector.Vector, d)
		for j := range u {
			if rng.Intn(2) == 0 {
				u[j] = extremes[rng.Intn(len(extremes))]
			} else {
				u[j] = int32(rng.Uint32())
			}
		}
		users[i] = u
	}
	return &vector.Community{Name: name, Category: -1, Users: users}
}

// dupCommunity synthesizes a community with heavy duplication: few
// distinct vectors, each repeated, so encoded IDs and windows collide
// (duplicate scores, tie-heavy buffers).
func dupCommunity(rng *rand.Rand, name string, n, d int, maxVal int32) *vector.Community {
	distinct := 1 + rng.Intn(4)
	protos := make([]vector.Vector, distinct)
	for i := range protos {
		u := make(vector.Vector, d)
		for j := range u {
			u[j] = rng.Int31n(maxVal + 1)
		}
		protos[i] = u
	}
	users := make([]vector.Vector, n)
	for i := range users {
		users[i] = slices.Clone(protos[rng.Intn(distinct)])
	}
	return &vector.Community{Name: name, Category: -1, Users: users}
}

// requireBothPathsEqual joins b and a in both shapes — one-shot, which
// scans with the scalar reference comparer, and prepared, which runs
// the fused SoA sweep — and requires identical results for Ap and Ex:
// the same pairs in the same order and the same event tallies.
func requireBothPathsEqual(t *testing.T, label string, b, a *vector.Community, opts Options) {
	t.Helper()
	apR, err := ApMinMax(b, a, opts)
	if err != nil {
		t.Fatalf("%s: one-shot Ap: %v", label, err)
	}
	exR, err := ExMinMax(b, a, opts)
	if err != nil {
		t.Fatalf("%s: one-shot Ex: %v", label, err)
	}
	pb, err := Prepare(b, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pa, err := Prepare(a, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	apS, err := ApMinMaxPrepared(pb, pa, opts)
	if err != nil {
		t.Fatalf("%s: prepared Ap: %v", label, err)
	}
	exS, err := ExMinMaxPrepared(pb, pa, opts)
	if err != nil {
		t.Fatalf("%s: prepared Ex: %v", label, err)
	}
	if !slices.Equal(apS.Pairs, apR.Pairs) {
		t.Fatalf("%s: Ap pairs diverge\nsoa: %v\nref: %v", label, apS.Pairs, apR.Pairs)
	}
	if apS.Events != apR.Events {
		t.Fatalf("%s: Ap events diverge\nsoa: %+v\nref: %+v", label, apS.Events, apR.Events)
	}
	if !slices.Equal(exS.Pairs, exR.Pairs) {
		t.Fatalf("%s: Ex pairs diverge\nsoa: %v\nref: %v", label, exS.Pairs, exR.Pairs)
	}
	if exS.Events != exR.Events {
		t.Fatalf("%s: Ex events diverge\nsoa: %+v\nref: %+v", label, exS.Events, exR.Events)
	}
}

// TestSoAKernelMatchesReference is the exactness property of the SoA
// scan path: over seeded random corpora — varied sizes, dimensions
// (below, at, and above the kernel block width), epsilons, duplicate
// scores, part counts 1–5 (the exact sweep's 4-part and generic pass
// 1), each corpus with the skip offset on and off — the prepared
// joins' flat kernel must produce byte-identical pairs and event
// tallies to the one-shot scalar reference. A failing seed is named by
// the trial index.
func TestSoAKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(40) // crosses the soaBlock=16 boundary both ways
		eps := rng.Int31n(4)
		if trial%7 == 0 {
			eps = rng.Int31n(1 << 20) // occasionally huge, wide windows
		}
		b := randCommunity(rng, "B", 1+rng.Intn(60), d, 12)
		a := randCommunity(rng, "A", 1+rng.Intn(60), d, 12)
		opts := Options{Eps: eps, Parts: 1 + rng.Intn(min(5, d))}
		for _, off := range []bool{false, true} {
			opts.DisableSkipOffset = off
			requireBothPathsEqual(t, fmt.Sprintf("random trial %d, skip offset off=%v", trial, off), b, a, opts)
		}
	}
}

// TestSoAKernelServedShapes extends the property to the join shapes
// the served reads run: node-rank's VK-like 1,500 × 27 pairs under eps
// 1, whose rows see a hundred NO OVERLAPs each, and a top-k read's
// 16–24 × 6 archetype siblings under eps 1500, which match often. The
// top-k pairs run at part counts 1–5 and the rank pairs at 1, 3, 4 and
// 5, both with the skip offset on and off. Three rank pairs make most
// rows' windows span several pass-1 chunks: two with the offset off,
// so every window starts at the first A entry, and one under eps 5.
func TestSoAKernelServedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1500))
	rank := rankShapeCorpus(rng, 3, 1500)
	for i, opts := range []Options{
		{Eps: dataset.EpsilonVK},
		{Eps: dataset.EpsilonVK, DisableSkipOffset: true},
		{Eps: 5},
		{Eps: dataset.EpsilonVK, Parts: 1},
		{Eps: dataset.EpsilonVK, Parts: 3, DisableSkipOffset: true},
		{Eps: dataset.EpsilonVK, Parts: 5},
	} {
		b, a := rank[i%3], rank[(i+1)%3]
		requireBothPathsEqual(t, fmt.Sprintf("rank shape %d", i), b, a, opts)
	}
	group := topkShapeGroup(rng, 21)
	for i := 1; i < len(group); i++ {
		b, a := group[0], group[i]
		if a.Size() < b.Size() {
			b, a = a, b
		}
		opts := Options{Eps: 1500, Parts: 1 + i%5, DisableSkipOffset: i%2 == 0}
		requireBothPathsEqual(t, fmt.Sprintf("top-k shape %d", i), b, a, opts)
	}
}

// TestSoAKernelDuplicateScores covers tie-heavy corpora: repeated
// identical vectors collapse encoded IDs and windows, stressing the
// greedy consumption and offset logic on both shapes, each corpus with
// the skip offset on and off.
func TestSoAKernelDuplicateScores(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(10)
		b := dupCommunity(rng, "B", 2+rng.Intn(30), d, 3)
		a := dupCommunity(rng, "A", 2+rng.Intn(30), d, 3)
		opts := Options{Eps: rng.Int31n(3)}
		for _, off := range []bool{false, true} {
			opts.DisableSkipOffset = off
			requireBothPathsEqual(t, fmt.Sprintf("dups trial %d, skip offset off=%v", trial, off), b, a, opts)
		}
	}
}

// TestSoAKernelExtremeValues is the overflow regression of the epsilon
// predicate: corpora spanning MinInt32..MaxInt32 must classify
// identically on the fixed scalar path (one-shot) and the saturating
// SoA path (prepared).
// Before the fix, the scalar compare computed MaxInt32 - MinInt32 in
// int32 (wraps to -1) and declared extreme opposites a match.
func TestSoAKernelExtremeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(616))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(20)
		b := extremeCommunity(rng, "B", 1+rng.Intn(25), d)
		a := extremeCommunity(rng, "A", 1+rng.Intn(25), d)
		eps := rng.Int31n(10)
		if trial%5 == 0 {
			eps = math.MaxInt32 // saturates every window bound
		}
		requireBothPathsEqual(t, "extremes", b, a, Options{Eps: eps})
	}

	// The directed case the int32 subtraction got wrong: opposite
	// extremes are 2^32-1 apart and must never match under a small eps,
	// in either shape.
	b := &vector.Community{Name: "B", Category: -1, Users: []vector.Vector{{math.MaxInt32}}}
	a := &vector.Community{Name: "A", Category: -1, Users: []vector.Vector{{math.MinInt32}}}
	opts := Options{Eps: 5}
	oneShot, err := ApMinMax(b, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Prepare(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Prepare(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := ApMinMaxPrepared(pb, pa, opts)
	if err != nil {
		t.Fatal(err)
	}
	for shape, res := range map[string]*Result{"one-shot": oneShot, "prepared": prepared} {
		if len(res.Pairs) != 0 {
			t.Fatalf("%s: MaxInt32 vs MinInt32 matched under eps=5 (overflow)", shape)
		}
	}
}

// TestSoAKernelEmptyPartRange pins the directed case of an empty part
// range. The encoding clamps a range's low end at 0, so an A counter
// below -eps gives its part a range whose high end lies below its low
// end. Here A's first counter is -5 under eps 3: part 0's range is
// [0, -2]. B's encoded ID lies inside A's window and its vector is
// within eps of A's, but its part-0 sum (-5) is outside the empty
// range, so the reference reports NO OVERLAP and no pair; the prepared
// sweep must agree, with four parts (admit4) and with two (the generic
// pass 1). A one-compare range test, uint64(s-lo) <= uint64(hi-lo),
// admits every s when hi < lo and would report a MATCH.
func TestSoAKernelEmptyPartRange(t *testing.T) {
	for _, c := range []struct {
		b, a vector.Vector
	}{
		{vector.Vector{-5, 12, 10, 10}, vector.Vector{-5, 10, 10, 10}},
		{vector.Vector{-5, 12}, vector.Vector{-5, 10}},
	} {
		b := &vector.Community{Name: "B", Category: -1, Users: []vector.Vector{c.b}}
		a := &vector.Community{Name: "A", Category: -1, Users: []vector.Vector{c.a}}
		for _, skipOff := range []bool{false, true} {
			opts := Options{Eps: 3, Parts: len(c.a), DisableSkipOffset: skipOff}
			label := fmt.Sprintf("d=%d skip offset off=%v", len(c.a), skipOff)
			requireBothPathsEqual(t, label, b, a, opts)
			// The pair reaches the part check: the window admits it and
			// the empty range rejects it.
			ref, err := ExMinMax(b, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Pairs) != 0 || ref.Events.NoOverlaps != 1 || ref.Events.Comparisons() != 0 {
				t.Fatalf("%s: got %d pairs and %+v, want no pair and one NO OVERLAP", label, len(ref.Pairs), ref.Events)
			}
		}
	}
}

// TestEpsWithinKernelEdges pins the kernel's block handling: empty
// input (d=0 is vacuous truth), exact block multiples, one under and
// one over, and single mismatches planted in head, tail, and block
// boundary positions.
func TestEpsWithinKernelEdges(t *testing.T) {
	for _, d := range []int{0, 1, 15, 16, 17, 32, 33, 100} {
		v := make([]int32, d)
		lo := make([]int32, d)
		hi := make([]int32, d)
		for i := 0; i < d; i++ {
			v[i] = int32(i)
			lo[i] = int32(i) - 1
			hi[i] = int32(i) + 1
		}
		if !epsWithin(v, lo, hi) {
			t.Fatalf("d=%d: in-window input rejected", d)
		}
		for _, planted := range []int{0, d / 2, d - 1} {
			if planted < 0 || planted >= d {
				continue
			}
			save := lo[planted]
			lo[planted] = v[planted] + 1 // dimension out of window
			if epsWithin(v, lo, hi) {
				t.Fatalf("d=%d: mismatch at %d accepted", d, planted)
			}
			lo[planted] = save
		}
	}
	// Saturated windows: every value is inside [MinInt32, MaxInt32].
	v := []int32{math.MinInt32, -7, 0, 9, math.MaxInt32}
	lo := []int32{math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32}
	hi := []int32{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32}
	if !epsWithin(v, lo, hi) {
		t.Fatal("saturated window rejected an in-range value")
	}
}

// TestSatInt32 pins the window-bound saturation.
func TestSatInt32(t *testing.T) {
	cases := []struct {
		in   int64
		want int32
	}{
		{0, 0},
		{math.MaxInt32, math.MaxInt32},
		{math.MinInt32, math.MinInt32},
		{math.MaxInt32 + 1, math.MaxInt32},
		{math.MinInt32 - 1, math.MinInt32},
		{math.MaxInt32 + math.MaxInt32, math.MaxInt32},
		{math.MinInt32 + math.MinInt32, math.MinInt32},
	}
	for _, c := range cases {
		if got := satInt32(c.in); got != c.want {
			t.Errorf("satInt32(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestKernelGuardSoAZeroAlloc is the kernel's allocation gate: a
// steady-state prepared join through the SoA kernel — the serving hot
// path — must perform zero allocations per operation, Ap and Ex alike.
// The SoA streams are built once at Prepare time; binding the scan view
// into the scratch, sweeping, and (Ex) running CSF on every segment
// flush in the scratch's match graph must not touch the heap.
func TestKernelGuardSoAZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rng := rand.New(rand.NewSource(828))
	opts := Options{Eps: 1, Parts: 2} // parts on: both stream families bound
	pb, err := Prepare(randCommunity(rng, "B", 400, 8, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Prepare(randCommunity(rng, "A", 500, 8, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		run  func(b, a *Prepared, opts Options, s *Scratch, res *Result) error
	}{
		{"Ap", ApMinMaxPreparedInto},
		{"Ex", ExMinMaxPreparedInto},
	} {
		s := NewScratch()
		var res Result
		if err := leg.run(pb, pa, opts, s, &res); err != nil {
			t.Fatal(err)
		}
		if res.Events.Matches == 0 {
			t.Fatalf("%s: corpus produced no matches; the guard would measure an empty scan", leg.name)
		}
		if leg.name == "Ex" && res.Events.CSFCalls == 0 {
			t.Fatal("Ex: the join made no CSF flush; the guard would not measure the matcher")
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := leg.run(pb, pa, opts, s, &res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("prepared SoA %s join: %v allocs/op, want 0", leg.name, allocs)
		}
	}
}
