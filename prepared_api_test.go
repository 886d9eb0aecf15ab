package csj_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
)

// sameResult compares everything except Elapsed (wall-clock noise).
func sameResult(t *testing.T, label string, got, want *csj.Result) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: result nil-ness differs: got %v, want %v", label, got, want)
	}
	if got == nil {
		return
	}
	if got.Method != want.Method || got.Similarity != want.Similarity ||
		got.SizeB != want.SizeB || got.SizeA != want.SizeA {
		t.Fatalf("%s: got %v/%.6f sizes %d,%d; want %v/%.6f sizes %d,%d",
			label, got.Method, got.Similarity, got.SizeB, got.SizeA,
			want.Method, want.Similarity, want.SizeB, want.SizeA)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// TestSimilarityPreparedIntoEqualsSimilarity drives the scratch-reusing
// Into variant across many random pairs with ONE shared Scratch and one
// reused Result, asserting each answer matches the one-shot API exactly.
func TestSimilarityPreparedIntoEqualsSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sc := csj.NewScratch()
	var res csj.Result
	for trial := 0; trial < 8; trial++ {
		na := 30 + rng.Intn(50)
		nb := (na+1)/2 + rng.Intn(na-(na+1)/2+1)
		b := randComm(rng, "B", nb, 6, 9)
		a := randComm(rng, "A", na, 6, 9)
		opts := &csj.Options{Epsilon: int32(1 + trial%3)}
		pb, err := csj.Precompute(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := csj.Precompute(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []csj.Method{csj.ApMinMax, csj.ExMinMax} {
			want, err := csj.Similarity(b, a, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := csj.SimilarityPreparedInto(pb, pa, m, opts, sc, &res); err != nil {
				t.Fatal(err)
			}
			sameResult(t, m.String(), &res, want)
		}
	}
}

func TestSimilarityPreparedIntoNilScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := randComm(rng, "B", 20, 4, 6)
	opts := &csj.Options{Epsilon: 1}
	pb, err := csj.Precompute(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	var res csj.Result
	if err := csj.SimilarityPreparedInto(pb, pb, csj.ExMinMax, opts, nil, &res); err != nil {
		t.Fatalf("nil scratch should allocate a temporary: %v", err)
	}
	if res.Similarity <= 0 {
		t.Errorf("self-similarity = %f, want > 0", res.Similarity)
	}
}

// TestSimilarityMatrixPreparedEqualsUnprepared: the prepared-handle
// matrix must agree cell for cell with the community-slice matrix.
func TestSimilarityMatrixPreparedEqualsUnprepared(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 5
	comms := make([]*csj.Community, n)
	for i := range comms {
		comms[i] = randComm(rng, string(rune('A'+i)), 24+rng.Intn(16), 5, 8)
	}
	opts := &csj.Options{Epsilon: 2}
	prepared := make([]*csj.PreparedCommunity, n)
	for i, c := range comms {
		p, err := csj.Precompute(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
	}
	for _, m := range []csj.Method{csj.ApMinMax, csj.ExMinMax} {
		want, err := csj.SimilarityMatrix(comms, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := csj.SimilarityMatrixPrepared(prepared, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d cells, want %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i].I != want[i].I || got[i].J != want[i].J || got[i].Skipped != want[i].Skipped {
				t.Fatalf("%v: cell %d shape differs: %+v vs %+v", m, i, got[i], want[i])
			}
			sameResult(t, m.String(), got[i].Result, want[i].Result)
		}
	}
}

func TestSimilarityMatrixPreparedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p, err := csj.Precompute(randComm(rng, "solo", 10, 3, 5), &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csj.SimilarityMatrixPrepared([]*csj.PreparedCommunity{p}, csj.ExMinMax, nil); err == nil {
		t.Error("matrix over one community should fail")
	}
	if _, err := csj.SimilarityMatrixPrepared([]*csj.PreparedCommunity{p, nil}, csj.ExMinMax, nil); err == nil {
		t.Error("nil prepared entry should fail")
	}
}

// TestSimilarityMatrixCellsCtx: an explicit cell list — any order,
// either orientation, repeats — scores each cell as the all-pairs
// matrix scores the same pair, and an index outside the views fails.
func TestSimilarityMatrixCellsCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	prepared := make([]*csj.PreparedCommunity, 4)
	for i := range prepared {
		p, err := csj.Precompute(randComm(rng, string(rune('A'+i)), 20+rng.Intn(12), 5, 8), &csj.Options{Epsilon: 2})
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
	}
	opts := &csj.Options{Epsilon: 2, Workers: 3}
	all, err := csj.SimilarityMatrixPrepared(prepared, csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	byPair := map[[2]int]csj.MatrixEntry{}
	for _, e := range all {
		byPair[[2]int{e.I, e.J}] = e
	}
	cells := [][2]int{{2, 3}, {1, 0}, {0, 3}, {2, 3}, {3, 1}}
	got, err := csj.SimilarityMatrixCellsCtx(context.Background(), prepared, cells, csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("%d entries for %d cells", len(got), len(cells))
	}
	for k, cell := range cells {
		if got[k].I != cell[0] || got[k].J != cell[1] {
			t.Fatalf("entry %d is (%d, %d), want (%d, %d)", k, got[k].I, got[k].J, cell[0], cell[1])
		}
		lo, hi := min(cell[0], cell[1]), max(cell[0], cell[1])
		want := byPair[[2]int{lo, hi}]
		if got[k].Skipped != want.Skipped {
			t.Fatalf("entry %d skipped %v, want %v", k, got[k].Skipped, want.Skipped)
		}
		sameResult(t, fmt.Sprintf("cell %v", cell), got[k].Result, want.Result)
	}
	if _, err := csj.SimilarityMatrixCellsCtx(context.Background(), prepared, [][2]int{{0, 4}}, csj.ExMinMax, opts); err == nil {
		t.Error("a cell naming index 4 of 4 views should fail")
	}
}

// TestRankPreparedEqualsUnprepared: prepared ranking matches the
// community-slice ranking for both MinMax methods.
func TestRankPreparedEqualsUnprepared(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pivot := randComm(rng, "pivot", 36, 5, 8)
	const n = 6
	cands := make([]*csj.Community, n)
	for i := range cands {
		// Mix in one undersized candidate so the Skipped path is compared too.
		size := 20 + rng.Intn(30)
		if i == 2 {
			size = 5
		}
		cands[i] = randComm(rng, string(rune('a'+i)), size, 5, 8)
	}
	opts := &csj.Options{Epsilon: 1}
	pp, err := csj.Precompute(pivot, opts)
	if err != nil {
		t.Fatal(err)
	}
	pcs := make([]*csj.PreparedCommunity, n)
	for i, c := range cands {
		p, err := csj.Precompute(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		pcs[i] = p
	}
	for _, m := range []csj.Method{csj.ApMinMax, csj.ExMinMax} {
		want, err := csj.Rank(pivot, cands, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := csj.RankPrepared(pp, pcs, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d results, want %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index || got[i].Name != want[i].Name || got[i].Skipped != want[i].Skipped {
				t.Fatalf("%v: rank %d: %+v vs %+v", m, i, got[i], want[i])
			}
			sameResult(t, m.String(), got[i].Result, want[i].Result)
		}
	}
}

func TestRankPreparedRejectsNonMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	opts := &csj.Options{Epsilon: 1}
	pp, err := csj.Precompute(randComm(rng, "p", 20, 3, 5), opts)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := csj.Precompute(randComm(rng, "c", 20, 3, 5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csj.RankPrepared(pp, []*csj.PreparedCommunity{pc}, csj.ExSuperEGO, opts); !errors.Is(err, csj.ErrUnknownMethod) {
		t.Errorf("expected ErrUnknownMethod for a non-MinMax method, got %v", err)
	}
	if _, err := csj.TopKIndexed(pp, nil, 1, opts); err == nil {
		t.Error("TopKIndexed with no candidates should fail")
	}
}

// TestCommunityCrossesUncopied pins that a community is one value on
// both sides of the API: a prepared view returns the community it was
// built from, the same pointer on every call, and neither that nor
// Validate allocates.
func TestCommunityCrossesUncopied(t *testing.T) {
	c := randComm(rand.New(rand.NewSource(23)), "c", 250, 6, 9)
	pc, err := csj.Precompute(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first, second := pc.Community(), pc.Community(); first != c || second != c {
		t.Errorf("Community() = %p, then %p; want the precomputed %p on every call", first, second, c)
	}
	var sink *csj.Community
	if n := testing.AllocsPerRun(100, func() { sink = pc.Community() }); n != 0 {
		t.Errorf("PreparedCommunity.Community allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := sink.Validate(); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Errorf("Community.Validate allocates %v times per call, want 0", n)
	}
}
