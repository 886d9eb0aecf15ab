package incremental

import (
	"math/rand"
	"testing"

	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// oracle computes the maximum matching size from scratch over the live
// users of the join.
func oracle(t *testing.T, j *Join, liveB, liveA map[int32]vector.Vector, eps int32) int {
	t.Helper()
	g := matching.NewGraph()
	for bid, bu := range liveB {
		for aid, au := range liveA {
			if vector.MatchEpsilon(bu, au, eps) {
				g.AddEdge(bid, aid)
			}
		}
	}
	return matching.MaximumMatchingSize(g)
}

func randVec(rng *rand.Rand, d int, maxVal int32) vector.Vector {
	u := make(vector.Vector, d)
	for i := range u {
		u[i] = rng.Int31n(maxVal + 1)
	}
	return u
}

func TestNewJoinValidation(t *testing.T) {
	if _, err := NewJoin(5, -1, 0); err == nil {
		t.Error("expected error for negative epsilon")
	}
	j, err := NewJoin(5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Dim() != 5 {
		t.Errorf("Dim = %d, want 5", j.Dim())
	}
	// parts > d must clamp, not fail.
	if _, err := NewJoin(2, 1, 8); err != nil {
		t.Errorf("parts clamping failed: %v", err)
	}
}

func TestAddValidation(t *testing.T) {
	j, _ := NewJoin(3, 1, 0)
	if _, err := j.Add(SideB, vector.Vector{1, 2}); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := j.Add(SideA, vector.Vector{1, -2, 3}); err == nil {
		t.Error("expected negative-counter error")
	}
}

func TestRemoveValidation(t *testing.T) {
	j, _ := NewJoin(2, 1, 0)
	if err := j.Remove(SideB, 0); err == nil {
		t.Error("expected error removing from empty side")
	}
	id, _ := j.Add(SideB, vector.Vector{1, 2})
	if err := j.Remove(SideB, int(id)); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove(SideB, int(id)); err == nil {
		t.Error("expected error on double removal")
	}
}

// The paper's Section 3 example, built incrementally.
func TestSection3ExampleIncremental(t *testing.T) {
	j, _ := NewJoin(3, 1, 0)
	b1, _ := j.Add(SideB, vector.Vector{3, 4, 2})
	_, _ = j.Add(SideB, vector.Vector{2, 2, 3})
	_, _ = j.Add(SideA, vector.Vector{2, 3, 5})
	_, _ = j.Add(SideA, vector.Vector{2, 3, 1})
	_, _ = j.Add(SideA, vector.Vector{3, 3, 3})

	if got := j.Matched(); got != 2 {
		t.Fatalf("Matched = %d, want 2", got)
	}
	sim, err := j.Similarity()
	if err != nil {
		t.Fatal(err)
	}
	if sim != 1.0 {
		t.Errorf("similarity = %.2f, want 1.00", sim)
	}
	// Removing b1 drops one pair.
	if err := j.Remove(SideB, int(b1)); err != nil {
		t.Fatal(err)
	}
	if got := j.Matched(); got != 1 {
		t.Fatalf("Matched after removal = %d, want 1", got)
	}
}

// Removing a matched A user must let its B partner re-augment to an
// alternative match when one exists.
func TestRemovalReaugments(t *testing.T) {
	j, _ := NewJoin(1, 0, 0)
	b0, _ := j.Add(SideB, vector.Vector{5})
	a0, _ := j.Add(SideA, vector.Vector{5})
	_, _ = j.Add(SideA, vector.Vector{5})
	if j.Matched() != 1 {
		t.Fatalf("Matched = %d, want 1", j.Matched())
	}
	if err := j.Remove(SideA, int(a0)); err != nil {
		t.Fatal(err)
	}
	// b0 must have re-matched to the second A user.
	if j.Matched() != 1 {
		t.Fatalf("Matched after removal = %d, want 1 (re-augmented)", j.Matched())
	}
	pairs := j.Pairs()
	if len(pairs) != 1 || pairs[0].B != b0 {
		t.Fatalf("pairs = %v, want b0 matched", pairs)
	}
}

// Insertion must be able to steal a match through an augmenting path:
// b0-a0 and b0-a1 exist, b0 matched to a0; a new b1 matching only a0
// must flip b0 to a1.
func TestInsertionAugmentsThroughPath(t *testing.T) {
	j, _ := NewJoin(1, 1, 0)
	_, _ = j.Add(SideB, vector.Vector{5}) // matches a in [4,6]
	_, _ = j.Add(SideA, vector.Vector{4})
	if j.Matched() != 1 {
		t.Fatal("setup: b0 should match a0")
	}
	_, _ = j.Add(SideA, vector.Vector{6}) // b0 also matches a1
	// New b1 = {3}: matches only a0 = {4}.
	_, _ = j.Add(SideB, vector.Vector{3})
	if j.Matched() != 2 {
		t.Fatalf("Matched = %d, want 2 (augmenting path through b0)", j.Matched())
	}
}

// Randomized fuzz: any sequence of adds and removes keeps the
// incremental matching equal to the from-scratch Hopcroft-Karp oracle.
func TestIncrementalMatchesOracleUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 8; trial++ {
		d := 1 + rng.Intn(5)
		eps := rng.Int31n(3)
		maxVal := int32(2 + rng.Intn(8))
		j, err := NewJoin(d, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		liveB := map[int32]vector.Vector{}
		liveA := map[int32]vector.Vector{}

		for op := 0; op < 120; op++ {
			side := Side(rng.Intn(2))
			live := liveB
			if side == SideA {
				live = liveA
			}
			if len(live) > 0 && rng.Float64() < 0.3 {
				// Remove a random live user.
				var pick int32 = -1
				n := rng.Intn(len(live))
				for id := range live {
					if n == 0 {
						pick = id
						break
					}
					n--
				}
				if err := j.Remove(side, int(pick)); err != nil {
					t.Fatal(err)
				}
				delete(live, pick)
			} else {
				u := randVec(rng, d, maxVal)
				id, err := j.Add(side, u)
				if err != nil {
					t.Fatal(err)
				}
				live[id] = u
			}
			if op%20 == 19 {
				want := oracle(t, j, liveB, liveA, eps)
				if got := j.Matched(); got != want {
					t.Fatalf("trial %d op %d: Matched = %d, oracle = %d (|B|=%d |A|=%d eps=%d)",
						trial, op, got, want, len(liveB), len(liveA), eps)
				}
			}
		}
		// Final full verification including pair validity.
		want := oracle(t, j, liveB, liveA, eps)
		if got := j.Matched(); got != want {
			t.Fatalf("trial %d final: Matched = %d, oracle = %d", trial, got, want)
		}
		seenB := map[int32]bool{}
		seenA := map[int32]bool{}
		for _, p := range j.Pairs() {
			if seenB[p.B] || seenA[p.A] {
				t.Fatal("pairs not one-to-one")
			}
			seenB[p.B], seenA[p.A] = true, true
			if !vector.MatchEpsilon(liveB[p.B], liveA[p.A], eps) {
				t.Fatalf("pair %v violates epsilon", p)
			}
		}
	}
}

func TestSimilarityPrecondition(t *testing.T) {
	j, _ := NewJoin(1, 1, 0)
	if _, err := j.Similarity(); err == nil {
		t.Error("expected error on empty join")
	}
	_, _ = j.Add(SideB, vector.Vector{1})
	_, _ = j.Add(SideA, vector.Vector{1})
	_, _ = j.Add(SideA, vector.Vector{2})
	_, _ = j.Add(SideA, vector.Vector{3})
	// |B|=1 < ceil(3/2)=2.
	if _, err := j.Similarity(); err == nil {
		t.Error("expected size-constraint error")
	}
	_, _ = j.Add(SideB, vector.Vector{2})
	sim, err := j.Similarity()
	if err != nil {
		t.Fatal(err)
	}
	if sim != 1.0 {
		t.Errorf("similarity = %.2f, want 1.0", sim)
	}
	// |B| must not exceed |A|.
	_, _ = j.Add(SideB, vector.Vector{3})
	_, _ = j.Add(SideB, vector.Vector{4})
	if _, err := j.Similarity(); err == nil {
		t.Error("expected size-constraint error for |B| > |A|")
	}
}

func TestEdgesBookkeeping(t *testing.T) {
	j, _ := NewJoin(1, 1, 0)
	b0, _ := j.Add(SideB, vector.Vector{5})
	_, _ = j.Add(SideA, vector.Vector{4})
	_, _ = j.Add(SideA, vector.Vector{5})
	_, _ = j.Add(SideA, vector.Vector{9})
	if j.Edges() != 2 {
		t.Fatalf("Edges = %d, want 2", j.Edges())
	}
	if err := j.Remove(SideB, int(b0)); err != nil {
		t.Fatal(err)
	}
	if j.Edges() != 0 {
		t.Fatalf("Edges after removal = %d, want 0", j.Edges())
	}
	if j.Size(SideB) != 0 || j.Size(SideA) != 3 {
		t.Errorf("sizes = %d|%d, want 0|3", j.Size(SideB), j.Size(SideA))
	}
}

func TestSideString(t *testing.T) {
	if SideB.String() != "B" || SideA.String() != "A" {
		t.Error("Side.String mismatch")
	}
}
