package csj_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
)

// overlapped builds a candidate sharing a given fraction of the pivot's
// users (exact profile copies).
func overlapped(rng *rand.Rand, name string, size int, pivot *csj.Community, overlap float64) *csj.Community {
	users := make([]csj.Vector, 0, size)
	for _, idx := range rng.Perm(pivot.Size())[:int(overlap*float64(size))] {
		u := make(csj.Vector, len(pivot.Users[idx]))
		copy(u, pivot.Users[idx])
		users = append(users, u)
	}
	for len(users) < size {
		u := make(csj.Vector, pivot.Dim())
		likes := 100 + rng.Intn(300)
		for i := 0; i < likes; i++ {
			u[rng.Intn(len(u))]++
		}
		users = append(users, u)
	}
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	return &csj.Community{Name: name, Users: users}
}

func entropyComm(rng *rand.Rand, name string, size, d int) *csj.Community {
	users := make([]csj.Vector, size)
	for i := range users {
		u := make(csj.Vector, d)
		likes := 100 + rng.Intn(300)
		for k := 0; k < likes; k++ {
			u[rng.Intn(d)]++
		}
		users[i] = u
	}
	return &csj.Community{Name: name, Users: users}
}

func TestTopKRanksOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pivot := entropyComm(rng, "pivot", 400, 10)
	cands := []*csj.Community{
		overlapped(rng, "low", 420, pivot, 0.05),
		overlapped(rng, "high", 450, pivot, 0.40),
		overlapped(rng, "mid", 430, pivot, 0.20),
		overlapped(rng, "zero", 410, pivot, 0.0),
	}
	top, err := csj.TopK(context.Background(), pivot, cands, 2, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d results, want 2", len(top))
	}
	if top[0].Name != "high" || top[1].Name != "mid" {
		t.Errorf("top-2 = %s, %s; want high, mid", top[0].Name, top[1].Name)
	}
	for _, r := range top {
		if r.Result == nil {
			t.Errorf("%s: top result must carry an exact refinement", r.Name)
		} else if r.Result.Method != csj.ExMinMax {
			t.Errorf("%s: refined with %v, want Ex-MinMax", r.Name, r.Result.Method)
		}
	}
	// ApproxSimilarity is the index upper bound of the exact score.
	for _, r := range top {
		if r.Result.Similarity > r.ApproxSimilarity {
			t.Errorf("%s: exact %.4f above its bound %.4f", r.Name, r.Result.Similarity, r.ApproxSimilarity)
		}
	}
}

func TestTopKSkipsTinyCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pivot := entropyComm(rng, "pivot", 300, 6)
	tiny := entropyComm(rng, "tiny", 20, 6)
	ok := overlapped(rng, "ok", 320, pivot, 0.3)
	top, err := csj.TopK(context.Background(), pivot, []*csj.Community{tiny, ok}, 2, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if top[0].Name != "ok" || top[0].Result == nil {
		t.Errorf("expected ok first with an exact result, got %+v", top[0])
	}
	if !top[1].Skipped {
		t.Errorf("expected tiny to be skipped, got %+v", top[1])
	}
}

func TestTopKValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pivot := entropyComm(rng, "p", 50, 4)
	cand := entropyComm(rng, "c", 50, 4)
	if _, err := csj.TopK(context.Background(), nil, []*csj.Community{cand}, 1, nil); err == nil {
		t.Error("expected error for nil pivot")
	}
	if _, err := csj.TopK(context.Background(), pivot, nil, 1, nil); err == nil {
		t.Error("expected error for no candidates")
	}
	if _, err := csj.TopK(context.Background(), pivot, []*csj.Community{cand}, 0, nil); err == nil {
		t.Error("expected error for k = 0")
	}
	// A bad scorer is rejected even when no candidate is joined.
	tiny := entropyComm(rng, "tiny", 5, 4)
	bad := &csj.Options{Scorer: &csj.ScorerSpec{}}
	if _, err := csj.TopK(context.Background(), pivot, []*csj.Community{tiny}, 1, bad); !errors.Is(err, csj.ErrBadScorer) {
		t.Errorf("all-zero scorer over a size-skipped candidate: err = %v, want ErrBadScorer", err)
	}
}

func TestTopKLargerKThanCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pivot := entropyComm(rng, "p", 100, 5)
	cands := []*csj.Community{
		overlapped(rng, "a", 110, pivot, 0.2),
		overlapped(rng, "b", 105, pivot, 0.1),
	}
	top, err := csj.TopK(context.Background(), pivot, cands, 10, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d results, want all 2", len(top))
	}
}
