package matching

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func buildGraph(edges [][2]int32) *Graph {
	g := NewGraph()
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// bUsers returns g's distinct B users in ascending order.
func bUsers(g *Graph) []int32 {
	var out []int32
	for _, e := range g.edges {
		out = append(out, e.B)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// matches returns the A users matched with b, in insertion order.
func matches(g *Graph, b int32) []int32 {
	var out []int32
	for _, e := range g.edges {
		if e.B == b {
			out = append(out, e.A)
		}
	}
	return out
}

// validMatching checks that pairs form a one-to-one matching using only
// edges present in g.
func validMatching(t *testing.T, g *Graph, pairs []Pair) {
	t.Helper()
	seenB := map[int32]bool{}
	seenA := map[int32]bool{}
	for _, p := range pairs {
		if seenB[p.B] {
			t.Fatalf("B user %d matched twice", p.B)
		}
		if seenA[p.A] {
			t.Fatalf("A user %d matched twice", p.A)
		}
		seenB[p.B], seenA[p.A] = true, true
		if !slices.Contains(g.edges, p) {
			t.Fatalf("pair <%d, %d> is not an edge of the graph", p.B, p.A)
		}
	}
}

// bruteForceMax computes the maximum matching size by exhaustive search.
// Only usable on tiny graphs.
func bruteForceMax(g *Graph) int {
	bs := bUsers(g)
	usedA := map[int32]bool{}
	var rec func(i int) int
	rec = func(i int) int {
		if i == len(bs) {
			return 0
		}
		best := rec(i + 1) // skip bs[i]
		for _, a := range matches(g, bs[i]) {
			if usedA[a] {
				continue
			}
			usedA[a] = true
			if v := 1 + rec(i+1); v > best {
				best = v
			}
			usedA[a] = false
		}
		return best
	}
	return rec(0)
}

func TestEmptyGraph(t *testing.T) {
	g := NewGraph()
	if got := CSF(g); got != nil {
		t.Errorf("CSF(empty) = %v, want nil", got)
	}
	if got := HopcroftKarp(g); got != nil {
		t.Errorf("HopcroftKarp(empty) = %v, want nil", got)
	}
}

func TestSingleEdge(t *testing.T) {
	g := buildGraph([][2]int32{{7, 9}})
	want := []Pair{{B: 7, A: 9}}
	if got := CSF(g); !reflect.DeepEqual(got, want) {
		t.Errorf("CSF = %v, want %v", got, want)
	}
	if got := HopcroftKarp(g); !reflect.DeepEqual(got, want) {
		t.Errorf("HopcroftKarp = %v, want %v", got, want)
	}
}

// The paper's Section 3 example: b1 matches {a2, a3}, b2 matches {a3}.
// An exact method must find both pairs (similarity 100%), pairing b1
// with a2 so that b2 can take a3.
func TestCSFPaperSection3Example(t *testing.T) {
	g := buildGraph([][2]int32{{1, 2}, {1, 3}, {2, 3}})
	pairs := CSF(g)
	validMatching(t, g, pairs)
	if len(pairs) != 2 {
		t.Fatalf("CSF found %d pairs, want 2", len(pairs))
	}
}

// Figure 3's first CSF call: input {<b1,a1>, <b1,a3>} — only one pair
// can be covered.
func TestCSFFigure3FirstSegment(t *testing.T) {
	g := buildGraph([][2]int32{{1, 1}, {1, 3}})
	pairs := CSF(g)
	validMatching(t, g, pairs)
	if len(pairs) != 1 || pairs[0].B != 1 {
		t.Fatalf("CSF = %v, want one pair for b1", pairs)
	}
}

// Figure 3's second CSF call: input {<b2,a2>, <b2,a4>, <b3,a4>} — two
// pairs are coverable: <b2,a2> and <b3,a4>.
func TestCSFFigure3SecondSegment(t *testing.T) {
	g := buildGraph([][2]int32{{2, 2}, {2, 4}, {3, 4}})
	pairs := CSF(g)
	validMatching(t, g, pairs)
	if len(pairs) != 2 {
		t.Fatalf("CSF found %d pairs, want 2 (e.g. <b2,a2>, <b3,a4>)", len(pairs))
	}
}

func TestCSFStarGraph(t *testing.T) {
	// One b matching many a's: exactly one pair.
	g := buildGraph([][2]int32{{1, 1}, {1, 2}, {1, 3}, {1, 4}})
	pairs := CSF(g)
	validMatching(t, g, pairs)
	if len(pairs) != 1 {
		t.Fatalf("CSF found %d pairs, want 1", len(pairs))
	}
	// Many b's matching one a: exactly one pair.
	g = buildGraph([][2]int32{{1, 1}, {2, 1}, {3, 1}, {4, 1}})
	pairs = CSF(g)
	validMatching(t, g, pairs)
	if len(pairs) != 1 {
		t.Fatalf("CSF found %d pairs, want 1", len(pairs))
	}
}

func TestCSFCompleteBipartite(t *testing.T) {
	g := NewGraph()
	for b := int32(0); b < 5; b++ {
		for a := int32(0); a < 5; a++ {
			g.AddEdge(b, a)
		}
	}
	pairs := CSF(g)
	validMatching(t, g, pairs)
	if len(pairs) != 5 {
		t.Fatalf("CSF found %d pairs on K5,5, want 5", len(pairs))
	}
}

// A chain b1-a1, b1-a2, b2-a2, b2-a3, ... where greedy-first-match would
// lose pairs but smallest-first does not.
func TestCSFChain(t *testing.T) {
	g := buildGraph([][2]int32{
		{1, 1}, {1, 2},
		{2, 2}, {2, 3},
		{3, 3}, {3, 4},
	})
	pairs := CSF(g)
	validMatching(t, g, pairs)
	if len(pairs) != 3 {
		t.Fatalf("CSF found %d pairs on chain, want 3", len(pairs))
	}
}

func TestCSFDeterministic(t *testing.T) {
	g := buildGraph([][2]int32{{1, 2}, {1, 3}, {2, 3}, {4, 2}, {4, 5}, {5, 5}})
	first := slices.Clone(CSF(g))
	for i := 0; i < 5; i++ {
		if got := CSF(g); !reflect.DeepEqual(got, first) {
			t.Fatalf("CSF not deterministic: %v vs %v", got, first)
		}
	}
}

func TestHopcroftKarpKnownCases(t *testing.T) {
	tests := []struct {
		name  string
		edges [][2]int32
		want  int
	}{
		{"perfect 3", [][2]int32{{1, 1}, {2, 2}, {3, 3}}, 3},
		{"augmenting path needed", [][2]int32{{1, 1}, {2, 1}, {2, 2}, {3, 2}, {3, 3}}, 3},
		{"odd cycle-ish", [][2]int32{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 2}}, 2},
		{"star", [][2]int32{{1, 1}, {1, 2}, {1, 3}}, 1},
		{"two components", [][2]int32{{1, 1}, {2, 1}, {10, 10}, {10, 11}, {11, 11}}, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGraph(tc.edges)
			pairs := HopcroftKarp(g)
			validMatching(t, g, pairs)
			if len(pairs) != tc.want {
				t.Errorf("HopcroftKarp found %d pairs, want %d", len(pairs), tc.want)
			}
		})
	}
}

func randomGraph(rng *rand.Rand, nb, na, edges int) *Graph {
	g := NewGraph()
	seen := map[[2]int32]bool{}
	for len(seen) < edges {
		e := [2]int32{int32(rng.Intn(nb)), int32(rng.Intn(na))}
		if !seen[e] {
			seen[e] = true
			g.AddEdge(e[0], e[1])
		}
	}
	return g
}

// Property: HopcroftKarp matches the brute-force optimum on small random
// graphs, and CSF produces a valid matching no larger than the optimum.
func TestMatchersAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb, na := 1+rng.Intn(7), 1+rng.Intn(7)
		maxE := nb * na
		g := randomGraph(rng, nb, na, 1+rng.Intn(maxE))
		want := bruteForceMax(g)
		hk := HopcroftKarp(g)
		if len(hk) != want {
			return false
		}
		csf := CSF(g)
		return len(csf) <= want && len(csf) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: both matchers return valid matchings on larger random graphs
// and CSF stays within the optimum.
func TestMatchersValidOnLargerGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nb, na := 50+rng.Intn(100), 50+rng.Intn(100)
		g := randomGraph(rng, nb, na, 200+rng.Intn(400))
		csf := slices.Clone(CSF(g))
		hk := HopcroftKarp(g)
		validMatching(t, g, csf)
		validMatching(t, g, hk)
		if len(csf) > len(hk) {
			t.Fatalf("CSF (%d) exceeded the Hopcroft–Karp optimum (%d)", len(csf), len(hk))
		}
		// CSF is a strong heuristic: on random graphs it should land very
		// close to optimal. Allow a small slack rather than exact equality.
		if len(hk)-len(csf) > len(hk)/10+1 {
			t.Errorf("CSF (%d) unexpectedly far from optimum (%d)", len(csf), len(hk))
		}
	}
}

// CSF is maximal: after it finishes, no remaining edge connects two
// uncovered users.
func TestCSFIsMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb, na := 1+rng.Intn(10), 1+rng.Intn(10)
		g := randomGraph(rng, nb, na, 1+rng.Intn(nb*na))
		pairs := CSF(g)
		usedB := map[int32]bool{}
		usedA := map[int32]bool{}
		for _, p := range pairs {
			usedB[p.B], usedA[p.A] = true, true
		}
		for _, b := range bUsers(g) {
			if usedB[b] {
				continue
			}
			for _, a := range matches(g, b) {
				if !usedA[a] {
					return false // uncovered edge left behind
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGraphReset(t *testing.T) {
	g := buildGraph([][2]int32{{1, 1}, {2, 2}})
	if g.Edges() != 2 || len(bUsers(g)) != 2 {
		t.Fatal("graph should hold 2 edges before reset")
	}
	g.Reset()
	if g.Edges() != 0 || len(bUsers(g)) != 0 {
		t.Fatal("graph should be empty after reset")
	}
	g.AddEdge(5, 6)
	if got := CSF(g); len(got) != 1 || got[0] != (Pair{B: 5, A: 6}) {
		t.Fatalf("graph unusable after reset: %v", got)
	}
}
