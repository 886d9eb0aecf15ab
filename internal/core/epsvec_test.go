package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
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
// one-shot scalar reference, Ap and Ex. Part of `make specguard`.
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
// variants — all pinned to the one-shot scalar run.
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

// TestPreparedIOEpsVec covers the v2 prepared-file format: a prepared
// community with a heterogeneous tolerance round-trips losslessly, and
// joins against the recovered form are identical to the original.
// Scalar-tolerance files must keep the v1 magic byte-for-byte, so
// files written by older builds stay readable and vice versa.
func TestPreparedIOEpsVec(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	d := 6
	b := randCommunity(rng, "B", 30, d, 9)
	a := randCommunity(rng, "A", 35, d, 9)
	vecOpts := Options{EpsVec: []int32{0, 1, 3, 1, 0, 2}, Parts: 2}
	pb, err := Prepare(b, vecOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePrepared(&buf, pb); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:len(preparedMagicVec)]); got != preparedMagicVec {
		t.Fatalf("vector-tolerance file magic = %q, want %q", got, preparedMagicVec)
	}
	back, err := ReadPrepared(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.eps.Equal(pb.eps) {
		t.Fatalf("tolerance did not round-trip: %s vs %s", epsString(back.eps), epsString(pb.eps))
	}
	pa, err := Prepare(a, vecOpts)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := ExMinMaxPrepared(pb, pa, vecOpts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ExMinMaxPrepared(back, pa, vecOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Pairs, rec.Pairs) || orig.Events != rec.Events {
		t.Fatal("join against the recovered prepared form diverges")
	}

	// Scalar tolerances keep the v1 format byte-for-byte.
	ps, err := Prepare(b, Options{Eps: 2, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := WritePrepared(&sbuf, ps); err != nil {
		t.Fatal(err)
	}
	if got := string(sbuf.Bytes()[:len(preparedMagic)]); got != preparedMagic {
		t.Fatalf("scalar-tolerance file magic = %q, want %q", got, preparedMagic)
	}
	if _, err := ReadPrepared(&sbuf); err != nil {
		t.Fatal(err)
	}

	// An all-equal vector canonicalizes at Prepare time and therefore
	// also writes the v1 format: there is no second on-disk spelling.
	pe, err := Prepare(b, Options{EpsVec: []int32{2, 2, 2, 2, 2, 2}, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ebuf bytes.Buffer
	if err := WritePrepared(&ebuf, pe); err != nil {
		t.Fatal(err)
	}
	if got := string(ebuf.Bytes()[:len(preparedMagic)]); got != preparedMagic {
		t.Fatalf("all-equal vector wrote magic %q, want v1 %q", got, preparedMagic)
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
