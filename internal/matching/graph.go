// Package matching provides the one-to-one matching substrate of CSJ:
// the match graph built by the exact scan algorithms (the paper's
// matched_B / matched_A / sortedM_B / sortedM_A structures), the CSF
// (Cover Smallest First) heuristic from the paper, and a Hopcroft–Karp
// maximum bipartite matching used as an optimal oracle and as an
// alternative matcher.
package matching

import "sort"

// Pair is one matched user pair <b, a>. B and A are the users' real IDs
// (indexes into the respective community's Users slice).
type Pair struct {
	B, A int32
}

// Graph is a bipartite multimap of candidate matches between users of B
// and users of A. It corresponds to the paper's matched_B and matched_A
// maps. Edges are expected to be inserted at most once per pair (the
// scan algorithms compare each pair at most once).
type Graph struct {
	bAdj  map[int32][]int32
	aAdj  map[int32][]int32
	edges int
}

// NewGraph returns an empty match graph.
func NewGraph() *Graph {
	return &Graph{
		bAdj: make(map[int32][]int32),
		aAdj: make(map[int32][]int32),
	}
}

// AddEdge records that user b of B matches user a of A.
func (g *Graph) AddEdge(b, a int32) {
	g.bAdj[b] = append(g.bAdj[b], a)
	g.aAdj[a] = append(g.aAdj[a], b)
	g.edges++
}

// Edges returns the number of candidate pairs recorded.
func (g *Graph) Edges() int { return g.edges }

// BCount returns the number of distinct B users with at least one match.
func (g *Graph) BCount() int { return len(g.bAdj) }

// ACount returns the number of distinct A users with at least one match.
func (g *Graph) ACount() int { return len(g.aAdj) }

// Reset empties the graph for reuse (Ex-MinMax empties its structures
// after every CSF flush).
func (g *Graph) Reset() {
	clear(g.bAdj)
	clear(g.aAdj)
	g.edges = 0
}

// BUsers returns the B-side users in ascending order. Intended for tests
// and deterministic iteration.
func (g *Graph) BUsers() []int32 {
	out := make([]int32, 0, len(g.bAdj))
	for b := range g.bAdj {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Matches returns the A users matched with b. The returned slice is the
// graph's own storage and must not be modified.
func (g *Graph) Matches(b int32) []int32 { return g.bAdj[b] }

// Matcher selects one-to-one pairs from a match graph. The two
// implementations are CSF (the paper's heuristic) and HopcroftKarp
// (a true maximum matching).
type Matcher func(*Graph) []Pair
