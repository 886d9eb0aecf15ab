package matching

import (
	"math/rand"
	"slices"
	"testing"
)

// diffGraph draws one random bipartite graph from seed and inserts it
// into both the flat graph g (after a Reset, so g's workspace is reused
// from the previous trial) and a fresh map-backed reference. The draw
// varies the shape (sparse to complete), the ID space (dense positions
// as the MinMax scans emit, or sparse IDs up to 2^30) and the insertion
// order ((B, A) order as the scans emit, or shuffled as SuperEGO's
// recursion emits).
func diffGraph(seed int64, g *Graph) *mapGraph {
	rng := rand.New(rand.NewSource(seed))
	nb, na := 1+rng.Intn(24), 1+rng.Intn(24)
	ids := func(n int) []int32 {
		out := make([]int32, n)
		if rng.Intn(2) == 0 {
			for i := range out {
				out[i] = int32(i)
			}
			return out
		}
		seen := map[int32]bool{}
		for i := range out {
			id := rng.Int31n(1 << 30)
			for seen[id] {
				id = rng.Int31n(1 << 30)
			}
			seen[id] = true
			out[i] = id
		}
		return out
	}
	bIDs, aIDs := ids(nb), ids(na)
	density := rng.Float64()
	var edges []Pair
	for _, b := range bIDs {
		for _, a := range aIDs {
			if rng.Float64() < density {
				edges = append(edges, Pair{B: b, A: a})
			}
		}
	}
	if rng.Intn(2) == 0 {
		slices.SortFunc(edges, comparePairs)
	} else {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	}
	g.Reset()
	ref := newMapGraph()
	for _, e := range edges {
		g.AddEdge(e.B, e.A)
		ref.AddEdge(e.B, e.A)
	}
	return ref
}

// TestCSFMatchesMapReference is the differential oracle of the flat
// match graph: on 12k seeded random graphs the flat CSF must return
// exactly the pairs, in exactly the order, of the map-backed CSF it
// replaced, and never more pairs than Hopcroft–Karp's maximum. One
// graph is reused across all trials, so every trial after the first
// also checks reuse after Reset.
func TestCSFMatchesMapReference(t *testing.T) {
	const trials = 12000
	g := NewGraph()
	for i := 0; i < trials; i++ {
		seed := int64(9000 + i)
		ref := diffGraph(seed, g)
		want := mapCSF(ref)
		got := slices.Clone(CSF(g))
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: flat CSF %v, map CSF %v", seed, got, want)
		}
		if hk := HopcroftKarp(g); len(got) > len(hk) {
			t.Fatalf("seed %d: CSF found %d pairs, above the Hopcroft–Karp maximum %d", seed, len(got), len(hk))
		}
	}
}
