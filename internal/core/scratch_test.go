package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestScratchJoinsMatchOneShot reuses one Scratch and Result across
// many different prepared pairs and checks every answer against the
// one-shot prepared API.
func TestScratchJoinsMatchOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	opts := Options{Eps: 1}
	s := NewScratch()
	var res Result
	for trial := 0; trial < 25; trial++ {
		d := 1 + rng.Intn(6)
		na := 10 + rng.Intn(60)
		nb := (na+1)/2 + rng.Intn(na-(na+1)/2+1)
		pb, err := Prepare(randCommunity(rng, "B", nb, d, 8), opts)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Prepare(randCommunity(rng, "A", na, d, 8), opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, into := range map[string]func(b, a *Prepared, o Options, s *Scratch, res *Result) error{
			"Ap": ApMinMaxPreparedInto,
			"Ex": ExMinMaxPreparedInto,
		} {
			oneShot := ApMinMaxPrepared
			if name == "Ex" {
				oneShot = ExMinMaxPrepared
			}
			want, err := oneShot(pb, pa, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := into(pb, pa, opts, s, &res); err != nil {
				t.Fatal(err)
			}
			// reflect.DeepEqual distinguishes nil from empty; both mean
			// "no pairs" here.
			if len(res.Pairs) != len(want.Pairs) ||
				(len(want.Pairs) > 0 && !reflect.DeepEqual(res.Pairs, want.Pairs)) {
				t.Fatalf("trial %d %s: scratch pairs %v, one-shot %v", trial, name, res.Pairs, want.Pairs)
			}
			if res.Events != want.Events {
				t.Fatalf("trial %d %s: scratch events %+v, one-shot %+v", trial, name, res.Events, want.Events)
			}
		}
	}
}

// TestScratchNilIsAllowed: the Into variants must work without a
// scratch (allocating internally, like the one-shot API).
func TestScratchNilIsAllowed(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	opts := Options{Eps: 1}
	pb, err := Prepare(randCommunity(rng, "B", 30, 3, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Prepare(randCommunity(rng, "A", 40, 3, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := ApMinMaxPreparedInto(pb, pa, opts, nil, &res); err != nil {
		t.Fatal(err)
	}
	ap := len(res.Pairs)
	if err := ExMinMaxPreparedInto(pb, pa, opts, nil, &res); err != nil {
		t.Fatal(err)
	}
	if ap == 0 && len(res.Pairs) == 0 {
		t.Error("dense small-domain pair should produce matches")
	}
}

// TestScratchSharedAcrossDimensions: a scratch must survive joins of
// different dimensionality and size back to back (the batch engines
// reuse one scratch per worker across arbitrary cells).
func TestScratchSharedAcrossDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	opts := Options{Eps: 0}
	s := NewScratch()
	var res Result
	for _, shape := range []struct{ n, d int }{{10, 2}, {80, 7}, {25, 1}, {60, 4}} {
		pb, err := Prepare(randCommunity(rng, "B", shape.n, shape.d, 5), opts)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Prepare(randCommunity(rng, "A", shape.n+5, shape.d, 5), opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExMinMaxPrepared(pb, pa, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ExMinMaxPreparedInto(pb, pa, opts, s, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != len(want.Pairs) {
			t.Fatalf("shape %+v: scratch %d pairs, one-shot %d", shape, len(res.Pairs), len(want.Pairs))
		}
	}
}

// TestPreparedScratchAllocs is the allocation-regression guard of the
// batch engine's hot path: a steady-state prepared join through a
// reused scratch and result must not allocate at all, Ap and Ex alike.
func TestPreparedScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rng := rand.New(rand.NewSource(83))
	opts := Options{Eps: 1}
	pb, err := Prepare(randCommunity(rng, "B", 150, 4, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Prepare(randCommunity(rng, "A", 180, 4, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	var res Result

	apScratch := testing.AllocsPerRun(200, func() {
		if err := ApMinMaxPreparedInto(pb, pa, opts, s, &res); err != nil {
			t.Fatal(err)
		}
	})
	if apScratch != 0 {
		t.Errorf("Ap prepared scratch join: %v allocs/op, want 0", apScratch)
	}

	exScratch := testing.AllocsPerRun(200, func() {
		if err := ExMinMaxPreparedInto(pb, pa, opts, s, &res); err != nil {
			t.Fatal(err)
		}
	})
	if res.Events.CSFCalls == 0 {
		t.Fatal("Ex join made no CSF flush; the guard would not measure the matcher")
	}
	if exScratch != 0 {
		t.Errorf("Ex prepared scratch join: %v allocs/op, want 0", exScratch)
	}
}
