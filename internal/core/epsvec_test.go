package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/opencsj/csj/internal/vector"
)

// randEpsVec synthesizes a heterogeneous per-dimension tolerance:
// mixed zero, small, and occasionally huge entries, guaranteed not
// all-equal for d >= 2 so the vector code path actually runs.
func randEpsVec(rng *rand.Rand, d int) []int32 {
	vec := make([]int32, d)
	for j := range vec {
		switch rng.Intn(4) {
		case 0:
			vec[j] = 0
		case 1:
			vec[j] = rng.Int31n(1 << 20)
		default:
			vec[j] = rng.Int31n(4)
		}
	}
	if d >= 2 && vector.NewEps(0, vec).Vec() == nil {
		vec[0]++ // force heterogeneity so the test covers the vector path
	}
	return vec
}

// TestEpsVecKernelMatchesReference extends the kernel exactness
// property to per-dimension tolerances: over seeded random corpora
// with heterogeneous epsilon vectors, the prepared joins' flat SoA
// kernel must produce byte-identical pairs and event tallies to the
// one-shot scalar reference, Ap and Ex.
func TestEpsVecKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9191))
	for trial := 0; trial < 60; trial++ {
		d := 2 + rng.Intn(39) // crosses the soaBlock=16 boundary both ways
		b := randCommunity(rng, "B", 1+rng.Intn(60), d, 12)
		a := randCommunity(rng, "A", 1+rng.Intn(60), d, 12)
		opts := Options{EpsVec: randEpsVec(rng, d), Parts: 1 + rng.Intn(min(4, d))}
		requireBothPathsEqual(t, "epsvec", b, a, opts)
	}
}

// TestEpsVecAllEqualMatchesScalar is the canonicalization property at
// the engine level: an all-equal epsilon vector must produce results
// cell-for-cell identical to the equivalent scalar, in both join shapes
// (one-shot reference scan, prepared SoA sweep) and both method
// variants — all pinned to the one-shot scalar run — and a view
// prepared under it must hold the scalar.
func TestEpsVecAllEqualMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2727))
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.Intn(12)
		eps := rng.Int31n(4)
		vec := make([]int32, d)
		for j := range vec {
			vec[j] = eps
		}
		b := randCommunity(rng, "B", 1+rng.Intn(40), d, 10)
		a := randCommunity(rng, "A", 1+rng.Intn(40), d, 10)
		scalarOpts := Options{Eps: eps}
		vecOpts := Options{EpsVec: vec}
		shapes := []struct {
			name string
			run  func(o Options, exact bool) (*Result, error)
		}{
			{"one-shot", func(o Options, exact bool) (*Result, error) {
				if exact {
					return ExMinMax(b, a, o)
				}
				return ApMinMax(b, a, o)
			}},
			{"prepared", func(o Options, exact bool) (*Result, error) {
				pb, err := Prepare(b, o)
				if err != nil {
					return nil, err
				}
				pa, err := Prepare(a, o)
				if err != nil {
					return nil, err
				}
				// An all-equal vector prepares as its scalar: there is
				// one canonical tolerance per view.
				for _, p := range []*Prepared{pb, pa} {
					if !p.eps.Equal(vector.UniformEps(eps)) {
						t.Fatalf("trial %d: prepared under %v, the view keeps tolerance %s, want the scalar %d",
							trial, o.EpsVec, epsString(p.eps), eps)
					}
				}
				if exact {
					return ExMinMaxPrepared(pb, pa, o)
				}
				return ApMinMaxPrepared(pb, pa, o)
			}},
		}
		for _, exact := range []bool{false, true} {
			want, err := shapes[0].run(scalarOpts, exact)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shapes {
				for _, o := range []Options{scalarOpts, vecOpts} {
					got, err := sh.run(o, exact)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Pairs, want.Pairs) || got.Events != want.Events {
						t.Fatalf("trial %d %s exact=%v vec=%v: diverges from the one-shot scalar run\ngot:  %v %+v\nwant: %v %+v",
							trial, sh.name, exact, o.EpsVec != nil, got.Pairs, got.Events, want.Pairs, want.Events)
					}
				}
			}
		}
	}
}

// TestEpsVecValidation pins the engine-level spec errors: a vector of
// the wrong length and a negative entry are rejected before any scan.
func TestEpsVecValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := randCommunity(rng, "B", 4, 3, 5)
	a := randCommunity(rng, "A", 5, 3, 5)
	if _, err := ApMinMax(b, a, Options{EpsVec: []int32{1, 2}}); !errors.Is(err, vector.ErrDimensionMismatch) {
		t.Fatalf("length mismatch: %v, want ErrDimensionMismatch", err)
	}
	if _, err := ExMinMax(b, a, Options{EpsVec: []int32{1, -2, 3}}); !errors.Is(err, vector.ErrNegativeEpsilon) {
		t.Fatalf("negative entry: %v, want ErrNegativeEpsilon", err)
	}
	if _, err := Prepare(b, Options{EpsVec: []int32{0, 1}}); !errors.Is(err, vector.ErrDimensionMismatch) {
		t.Fatalf("Prepare length mismatch: %v, want ErrDimensionMismatch", err)
	}
}

// TestEpsVecPreparedCompatibility: joining two views prepared under
// different tolerances must fail loudly, including scalar-vs-vector
// and vector-vs-vector mismatches.
func TestEpsVecPreparedCompatibility(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	b := randCommunity(rng, "B", 10, 3, 5)
	a := randCommunity(rng, "A", 12, 3, 5)
	pb, err := Prepare(b, Options{EpsVec: []int32{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Prepare(a, Options{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExMinMaxPrepared(pb, pa, Options{EpsVec: []int32{1, 2, 3}}); err == nil {
		t.Fatal("scalar-prepared view joined a vector-prepared view")
	}
	pa2, err := Prepare(a, Options{EpsVec: []int32{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExMinMaxPrepared(pb, pa2, Options{EpsVec: []int32{1, 2, 3}}); err == nil {
		t.Fatal("views prepared under different vectors joined")
	}
}
