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

// precomputeAll prepares every community under opts.
func precomputeAll(t *testing.T, comms []*csj.Community, opts *csj.Options) []*csj.PreparedCommunity {
	t.Helper()
	prepared := make([]*csj.PreparedCommunity, len(comms))
	for i, c := range comms {
		p, err := csj.Precompute(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
	}
	return prepared
}

// TestReusedScratchEqualsSimilarity: at Workers 1 a batch engine runs
// every cell on one reused scratch and result buffer. Across pairs of
// different shapes, each cell must still be the one-shot join's answer.
func TestReusedScratchEqualsSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ctx := context.Background()
	for trial := 0; trial < 3; trial++ {
		opts := &csj.Options{Epsilon: int32(1 + trial), Workers: 1}
		// Sizes in [40, 80) keep every pair inside the size precondition.
		comms := make([]*csj.Community, 6)
		for i := range comms {
			comms[i] = randComm(rng, fmt.Sprint("c", i), 40+rng.Intn(40), 6, 9)
		}
		prepared := precomputeAll(t, comms, opts)
		var cells [][2]int
		for i := range comms {
			for j := i + 1; j < len(comms); j++ {
				cells = append(cells, [2]int{i, j}, [2]int{j, i})
			}
		}
		for _, m := range []csj.Method{csj.ApMinMax, csj.ExMinMax} {
			got, err := csj.SimilarityMatrixCells(ctx, prepared, cells, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k, cell := range cells {
				b, a := csj.Orient(comms[cell[0]], comms[cell[1]])
				want, err := csj.Similarity(ctx, b, a, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("trial %d %v cell %v", trial, m, cell), got[k].Result, want)
			}
		}
	}
}

// TestSimilarityMatrixCells: an explicit cell list — any order, either
// orientation, repeats — scores each cell as the all-pairs matrix
// scores the same pair, for both MinMax methods, and a cell naming an
// index outside the views or a nil view fails.
func TestSimilarityMatrixCells(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	comms := make([]*csj.Community, 4)
	for i := range comms {
		comms[i] = randComm(rng, string(rune('A'+i)), 20+rng.Intn(12), 5, 8)
	}
	opts := &csj.Options{Epsilon: 2, Workers: 3}
	prepared := precomputeAll(t, comms, opts)
	ctx := context.Background()
	cells := [][2]int{{2, 3}, {1, 0}, {0, 3}, {2, 3}, {3, 1}}
	for _, m := range []csj.Method{csj.ApMinMax, csj.ExMinMax} {
		all, err := csj.SimilarityMatrix(ctx, comms, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		byPair := map[[2]int]csj.MatrixEntry{}
		for _, e := range all {
			byPair[[2]int{e.I, e.J}] = e
		}
		got, err := csj.SimilarityMatrixCells(ctx, prepared, cells, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cells) {
			t.Fatalf("%v: %d entries for %d cells", m, len(got), len(cells))
		}
		for k, cell := range cells {
			if got[k].I != cell[0] || got[k].J != cell[1] {
				t.Fatalf("%v: entry %d is (%d, %d), want (%d, %d)", m, k, got[k].I, got[k].J, cell[0], cell[1])
			}
			lo, hi := min(cell[0], cell[1]), max(cell[0], cell[1])
			want := byPair[[2]int{lo, hi}]
			if got[k].Skipped != want.Skipped {
				t.Fatalf("%v: entry %d skipped %v, want %v", m, k, got[k].Skipped, want.Skipped)
			}
			sameResult(t, fmt.Sprintf("%v cell %v", m, cell), got[k].Result, want.Result)
		}
	}
	if _, err := csj.SimilarityMatrixCells(ctx, prepared, [][2]int{{0, 4}}, csj.ExMinMax, opts); err == nil {
		t.Error("a cell naming index 4 of 4 views should fail")
	}
	withNil := []*csj.PreparedCommunity{prepared[0], nil}
	if _, err := csj.SimilarityMatrixCells(ctx, withNil, [][2]int{{0, 1}}, csj.ExMinMax, opts); err == nil {
		t.Error("a cell naming a nil view should fail")
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
		want, err := csj.Rank(context.Background(), pivot, cands, m, opts)
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
	// The threshold engine rejects the method whether or not minSim
	// leaves a candidate to join: no bound exceeds 1, so minSim 2
	// prunes every candidate before any join could fail.
	pcs := []*csj.PreparedCommunity{pc}
	src := &sliceSource{pcs: pcs, sums: summarize(t, pcs)}
	for _, minSim := range []float64{0, 2} {
		if _, err := csj.RankAboveIndexedFrom(context.Background(), pp, src, csj.ExSuperEGO, minSim, opts); !errors.Is(err, csj.ErrUnknownMethod) {
			t.Errorf("RankAboveIndexedFrom minSim %v: expected ErrUnknownMethod for a non-MinMax method, got %v", minSim, err)
		}
	}
	if src.resolved != 0 {
		t.Errorf("RankAboveIndexedFrom resolved %d views for a rejected method, want 0", src.resolved)
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
