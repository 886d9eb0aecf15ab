package csj_test

import (
	"context"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
)

// Duplicate-score regression suite: equal similarities must rank by
// ascending candidate index in every engine, so neither input order,
// visitation order, nor the best-first indexed ordering can change a
// returned ranking.

// cloneCommunity deep-copies a community under a new name (identical
// profiles, hence identical similarity against any pivot).
func cloneCommunity(c *csj.Community, name string) *csj.Community {
	users := make([]csj.Vector, len(c.Users))
	for i, u := range c.Users {
		users[i] = append(csj.Vector(nil), u...)
	}
	return &csj.Community{Name: name, Category: c.Category, Users: users}
}

// duplicateCorpus: pivot plus candidates where indices 1, 3, 5 are
// identical clones (equal scores) interleaved with distinct fillers.
func duplicateCorpus(t *testing.T) (*csj.Community, []*csj.Community) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	base := randBase(rng, 4)
	pivot := clusteredComm(rng, "pivot", 30, base, 400)
	twin := clusteredComm(rng, "twin", 30, base, 400)
	cands := []*csj.Community{
		clusteredComm(rng, "f0", 30, base, 400),
		cloneCommunity(twin, "dup1"),
		clusteredComm(rng, "f2", 30, base, 400),
		cloneCommunity(twin, "dup3"),
		clusteredComm(rng, "f4", 30, base, 400),
		cloneCommunity(twin, "dup5"),
	}
	return pivot, cands
}

// assertDupOrder checks that among the three clones, returned order is
// by ascending candidate index.
func assertDupOrder(t *testing.T, order []int) {
	t.Helper()
	var dups []int
	for _, idx := range order {
		if idx == 1 || idx == 3 || idx == 5 {
			dups = append(dups, idx)
		}
	}
	if len(dups) != 3 || dups[0] != 1 || dups[1] != 3 || dups[2] != 5 {
		t.Fatalf("duplicate-score candidates returned as %v, want [1 3 5]", dups)
	}
}

func TestRankDuplicateScoreTieBreak(t *testing.T) {
	pivot, cands := duplicateCorpus(t)
	opts := &csj.Options{Epsilon: 800}
	ranked, err := csj.Rank(context.Background(), pivot, cands, csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(ranked))
	for i, r := range ranked {
		if r.Result == nil {
			t.Fatalf("candidate %s not scored", r.Name)
		}
		order[i] = r.Index
	}
	assertDupOrder(t, order)
	// Identical communities must actually tie — otherwise the test
	// proves nothing about tie-breaking.
	var sims []float64
	for _, r := range ranked {
		if r.Index == 1 || r.Index == 3 || r.Index == 5 {
			sims = append(sims, r.Result.Similarity)
		}
	}
	if sims[0] != sims[1] || sims[1] != sims[2] {
		t.Fatalf("clones scored differently: %v", sims)
	}
}

func TestTopKDuplicateScoreTieBreak(t *testing.T) {
	pivot, cands := duplicateCorpus(t)
	opts := &csj.Options{Epsilon: 800}
	top, err := csj.TopK(context.Background(), pivot, cands, len(cands), opts)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(top))
	for i, r := range top {
		order[i] = r.Index
	}
	assertDupOrder(t, order)
}

func TestTopKIndexedDuplicateScoreTieBreak(t *testing.T) {
	pivot, cands := duplicateCorpus(t)
	opts := &csj.Options{Epsilon: 800}
	pp, err := csj.Precompute(pivot, opts)
	if err != nil {
		t.Fatal(err)
	}
	pcs := make([]*csj.PreparedCommunity, len(cands))
	for i, c := range cands {
		if pcs[i], err = csj.Precompute(c, opts); err != nil {
			t.Fatal(err)
		}
	}
	src := &sliceSource{pcs: pcs, sums: summarize(t, pcs)}
	top, err := csj.TopKIndexed(pp, src.candidates(), len(pcs), opts)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(top))
	for i, r := range top {
		order[i] = r.Index
	}
	assertDupOrder(t, order)

	// TopK over the raw communities runs the same engine, so it must
	// return the same full order.
	ref, err := csj.TopK(context.Background(), pivot, cands, len(cands), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i].Index != top[i].Index {
			t.Fatalf("entry %d: prepared route cand %d, raw route cand %d", i, top[i].Index, ref[i].Index)
		}
	}
}
