package csj_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
)

func TestSimilarityPreparedEqualsUnprepared(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		na := 40 + rng.Intn(40)
		nb := (na+1)/2 + rng.Intn(na-(na+1)/2+1)
		b := randComm(rng, "B", nb, 5, 8)
		a := randComm(rng, "A", na, 5, 8)
		opts := &csj.Options{Epsilon: 1}

		pb, err := csj.Precompute(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := csj.Precompute(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []csj.Method{csj.ApMinMax, csj.ExMinMax} {
			want, err := csj.Similarity(context.Background(), b, a, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := csj.SimilarityPrepared(pb, pa, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Similarity != want.Similarity || len(got.Pairs) != len(want.Pairs) {
				t.Fatalf("%v: prepared %.4f/%d pairs, unprepared %.4f/%d pairs",
					m, got.Similarity, len(got.Pairs), want.Similarity, len(want.Pairs))
			}
			for i := range got.Pairs {
				if got.Pairs[i] != want.Pairs[i] {
					t.Fatalf("%v: pair %d differs: %v vs %v", m, i, got.Pairs[i], want.Pairs[i])
				}
			}
		}
	}
}

func TestSimilarityPreparedRejectsNonMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := randComm(rng, "B", 20, 3, 5)
	pb, err := csj.Precompute(b, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csj.SimilarityPrepared(pb, pb, csj.ExSuperEGO, &csj.Options{Epsilon: 1}); !errors.Is(err, csj.ErrUnknownMethod) {
		t.Errorf("expected ErrUnknownMethod, got %v", err)
	}
}

func TestSimilarityPreparedSizeCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	small := randComm(rng, "small", 4, 3, 5)
	big := randComm(rng, "big", 20, 3, 5)
	opts := &csj.Options{Epsilon: 1}
	ps, _ := csj.Precompute(small, opts)
	pbg, _ := csj.Precompute(big, opts)
	if _, err := csj.SimilarityPrepared(ps, pbg, csj.ExMinMax, opts); !errors.Is(err, csj.ErrSizeConstraint) {
		t.Errorf("expected ErrSizeConstraint, got %v", err)
	}
	force := &csj.Options{Epsilon: 1, AllowSizeImbalance: true}
	if _, err := csj.SimilarityPrepared(ps, pbg, csj.ExMinMax, force); err != nil {
		t.Errorf("AllowSizeImbalance should bypass: %v", err)
	}
}

func TestPrecomputeValidation(t *testing.T) {
	if _, err := csj.Precompute(&csj.Community{Name: "e"}, nil); err == nil {
		t.Error("expected error for empty community")
	}
	if _, err := csj.Precompute(
		&csj.Community{Name: "x", Users: []csj.Vector{{1}}},
		&csj.Options{Epsilon: -1},
	); err == nil {
		t.Error("expected error for negative epsilon")
	}
}

func TestSimilarityMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	comms := []*csj.Community{
		randComm(rng, "c0", 50, 4, 6),
		randComm(rng, "c1", 60, 4, 6),
		randComm(rng, "c2", 55, 4, 6),
		randComm(rng, "tiny", 10, 4, 6), // will be skipped against the others
	}
	entries, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 { // C(4,2)
		t.Fatalf("got %d entries, want 6", len(entries))
	}
	scored, skipped := 0, 0
	for _, e := range entries {
		if e.I >= e.J {
			t.Fatalf("entry order wrong: (%d, %d)", e.I, e.J)
		}
		if e.Skipped {
			skipped++
			if e.I != 3 && e.J != 3 {
				t.Errorf("unexpected skip for pair (%d, %d)", e.I, e.J)
			}
			continue
		}
		scored++
		// Cross-check one entry against the direct API.
		b, a := csj.Orient(comms[e.I], comms[e.J])
		want, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1})
		if err != nil {
			t.Fatal(err)
		}
		if e.Result.Similarity != want.Similarity {
			t.Errorf("pair (%d,%d): matrix %.4f, direct %.4f",
				e.I, e.J, e.Result.Similarity, want.Similarity)
		}
	}
	if scored != 3 || skipped != 3 {
		t.Errorf("scored=%d skipped=%d, want 3 and 3", scored, skipped)
	}
	if _, err := csj.SimilarityMatrix(context.Background(), comms[:1], csj.ExMinMax, nil); err == nil {
		t.Error("expected error for a single community")
	}
}

func TestSimilarityMatrixSelfPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c := randComm(rng, "c", 30, 3, 5)
	clone := &csj.Community{Name: "clone", Users: c.Users}
	entries, err := csj.SimilarityMatrix(context.Background(), []*csj.Community{c, clone}, csj.ExMinMax,
		&csj.Options{Epsilon: 0, Matcher: csj.MatcherHopcroftKarp})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Result == nil {
		t.Fatal("expected one scored entry")
	}
	if entries[0].Result.Similarity != 1.0 {
		t.Errorf("identical communities should be 100%% similar, got %.4f",
			entries[0].Result.Similarity)
	}
}
