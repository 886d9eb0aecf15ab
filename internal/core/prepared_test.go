package core

import (
	"math/rand"
	"testing"
)

func TestPreparedEqualsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		d := 1 + rng.Intn(8)
		eps := rng.Int31n(3)
		b := randCommunity(rng, "B", 10+rng.Intn(50), d, 10)
		a := randCommunity(rng, "A", 10+rng.Intn(50), d, 10)
		opts := Options{Eps: eps}
		pb, err := Prepare(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Prepare(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		apDirect, _ := ApMinMax(b, a, opts)
		apPrep, err := ApMinMaxPrepared(pb, pa, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(apDirect.Pairs) != len(apPrep.Pairs) {
			t.Fatalf("Ap: direct %d pairs, prepared %d", len(apDirect.Pairs), len(apPrep.Pairs))
		}
		exDirect, _ := ExMinMax(b, a, opts)
		exPrep, err := ExMinMaxPrepared(pb, pa, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(exDirect.Pairs) != len(exPrep.Pairs) {
			t.Fatalf("Ex: direct %d pairs, prepared %d", len(exDirect.Pairs), len(exPrep.Pairs))
		}
	}
}

// Preparing once and playing both roles (B in one join, A in another)
// must give the same results as direct joins.
func TestPreparedPlaysBothRoles(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	opts := Options{Eps: 1}
	x := randCommunity(rng, "x", 40, 5, 8)
	y := randCommunity(rng, "y", 50, 5, 8)
	z := randCommunity(rng, "z", 45, 5, 8)
	px, _ := Prepare(x, opts)
	py, _ := Prepare(y, opts)
	pz, _ := Prepare(z, opts)

	// x as B against y, and as A against z.
	r1, err := ExMinMaxPrepared(px, py, opts)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := ExMinMax(x, y, opts)
	if len(r1.Pairs) != len(d1.Pairs) {
		t.Errorf("x-as-B: prepared %d, direct %d", len(r1.Pairs), len(d1.Pairs))
	}
	r2, err := ExMinMaxPrepared(pz, px, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := ExMinMax(z, x, opts)
	if len(r2.Pairs) != len(d2.Pairs) {
		t.Errorf("x-as-A: prepared %d, direct %d", len(r2.Pairs), len(d2.Pairs))
	}
}

func TestPreparedCompatibilityChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	c5 := randCommunity(rng, "c5", 20, 5, 8)
	c6 := randCommunity(rng, "c6", 20, 6, 8)
	p5, _ := Prepare(c5, Options{Eps: 1})
	p6, _ := Prepare(c6, Options{Eps: 1})
	if _, err := ExMinMaxPrepared(p5, p6, Options{Eps: 1}); err == nil {
		t.Error("expected dimension mismatch error")
	}
	pEps2, _ := Prepare(c5, Options{Eps: 2})
	if _, err := ExMinMaxPrepared(p5, pEps2, Options{Eps: 1}); err == nil {
		t.Error("expected epsilon mismatch error")
	}
	pParts2, _ := Prepare(c5, Options{Eps: 1, Parts: 2})
	if _, err := ExMinMaxPrepared(p5, pParts2, Options{Eps: 1}); err == nil {
		t.Error("expected parts mismatch error")
	}
}

func TestPrepareValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	c := randCommunity(rng, "c", 5, 3, 5)
	if _, err := Prepare(c, Options{Eps: -1}); err == nil {
		t.Error("expected error for negative epsilon")
	}
	empty := randCommunity(rng, "e", 1, 3, 5)
	empty.Users = nil
	if _, err := Prepare(empty, Options{Eps: 1}); err == nil {
		t.Error("expected error for empty community")
	}
}

// TestPreparedFootprint pins what a view is charged: its sorted columns
// (3×8 B a user), position maps (2×4 B), and SoA streams (12 B a
// dimension, 24 B a part) — and nothing for the community's vectors,
// which the store entry owns and evicting the view cannot free.
func TestPreparedFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, c := range []struct {
		n, d int
		max  int64
	}{
		{20, 6, 4_100},
		{1500, 27, 690_000},
	} {
		p, err := Prepare(randCommunity(rng, "f", c.n, c.d, 9), Options{Eps: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(c.n * (3*8 + 2*4 + 12*c.d + 24*p.layout.Parts()))
		if got := p.Footprint(); got != want || got > c.max {
			t.Errorf("%d×%d view: Footprint %d B, want %d (at most %d)", c.n, c.d, got, want, c.max)
		}
	}
}
