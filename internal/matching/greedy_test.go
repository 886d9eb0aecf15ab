package matching

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGreedyBasics(t *testing.T) {
	if got := Greedy(NewGraph()); got != nil {
		t.Errorf("Greedy(empty) = %v, want nil", got)
	}
	g := buildGraph([][2]int32{{1, 1}})
	if got := Greedy(g); len(got) != 1 || got[0] != (Pair{B: 1, A: 1}) {
		t.Errorf("Greedy = %v", got)
	}
}

// The adversarial case CSF wins: b1 matches {a1, a2}, b2 matches {a1}.
// Greedy in ID order gives b1->a1 and strands b2; CSF covers the
// smallest-degree user (b2) first and finds both pairs.
func TestGreedyLosesWhereCSFWins(t *testing.T) {
	g := buildGraph([][2]int32{{1, 1}, {1, 2}, {2, 1}})
	greedy := slices.Clone(Greedy(g))
	csf := CSF(g)
	validMatching(t, g, greedy)
	validMatching(t, g, csf)
	if len(greedy) != 1 {
		t.Errorf("Greedy found %d pairs, expected the adversarial 1", len(greedy))
	}
	if len(csf) != 2 {
		t.Errorf("CSF found %d pairs, want 2", len(csf))
	}
}

// Properties: Greedy is a valid maximal matching within the optimum and
// at least half of it.
func TestGreedyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb, na := 1+rng.Intn(10), 1+rng.Intn(10)
		g := randomGraph(rng, nb, na, 1+rng.Intn(nb*na))
		greedy := slices.Clone(Greedy(g))
		opt := MaximumMatchingSize(g)
		if len(greedy) > opt || 2*len(greedy) < opt {
			return false
		}
		// Maximality: no uncovered edge remains.
		usedB := map[int32]bool{}
		usedA := map[int32]bool{}
		for _, p := range greedy {
			if usedB[p.B] || usedA[p.A] {
				return false
			}
			usedB[p.B], usedA[p.A] = true, true
		}
		for _, b := range bUsers(g) {
			if usedB[b] {
				continue
			}
			for _, a := range matches(g, b) {
				if !usedA[a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
