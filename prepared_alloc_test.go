//go:build !race

// The prepared-join guard: a warm scratch and a reused result make a
// prepared join 0 allocs/op, Ap and Ex alike, the Ex join's CSF flushes
// and a per-dimension tolerance included. Every batch engine and the
// store-backed server requests run this join on a warm per-worker
// scratch, allocating only the Result they return and its Pairs;
// internal/store's TestStoreCacheHitPreparedZeroAllocs guards the
// snapshot and view lookups in front of it. Skipped under -race because
// the detector's instrumentation inflates allocation counts (same
// convention as internal/metrics' alloc guard).

package csj

import (
	"context"
	"math/rand"
	"testing"
)

// allocComm is a community of n users × d dimensions with counters in
// [0, 20).
func allocComm(name string, rng *rand.Rand, n, d int) *Community {
	users := make([]Vector, n)
	for i := range users {
		u := make(Vector, d)
		for j := range u {
			u[j] = rng.Int31n(20)
		}
		users[i] = u
	}
	return &Community{Name: name, Category: -1, Users: users}
}

func TestPreparedJoinZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := allocComm("b", rng, 96, 8)
	a := allocComm("a", rng, 128, 8)

	// The Ex leg runs at a wider epsilon than the Ap leg: at eps 2 this
	// pair has no match, so an Ex join would never reach CSF. The third
	// leg runs a per-dimension tolerance, whose views and kernel differ
	// from the scalar ones.
	for _, leg := range []struct {
		name   string
		method Method
		opts   Options
	}{
		{"Ap eps 2", ApMinMax, Options{Epsilon: 2}},
		{"Ex eps 8", ExMinMax, Options{Epsilon: 8}},
		{"Ap eps vector", ApMinMax, Options{EpsilonVec: []int32{0, 2, 1, 3, 0, 2, 4, 1}}},
	} {
		o := leg.opts.orDefault()
		pb, err := Precompute(b, &o)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Precompute(a, &o)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var sc joinScratch
		var res Result
		join := func() {
			if err := similarityPreparedInto(ctx, pb, pa, leg.method, &o, &sc, &res); err != nil {
				panic(err)
			}
		}
		join() // warm: grow the scratch and the result to steady state

		if allocs := testing.AllocsPerRun(200, join); allocs != 0 {
			t.Errorf("warm prepared %s join allocates %.1f allocs/op, want 0", leg.name, allocs)
		}
		if len(res.Pairs) == 0 && res.Events.Comparisons() == 0 {
			t.Fatalf("%s: guard join did no work; test data is degenerate", leg.name)
		}
		if leg.method == ExMinMax && res.Events.CSFCalls == 0 {
			t.Fatalf("%s: guard join made no CSF flush; the matcher is not measured", leg.name)
		}
	}
}
