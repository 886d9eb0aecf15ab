// Package matching provides the one-to-one matching substrate of CSJ:
// the match graph built by the exact scan algorithms (the paper's
// matched_B / matched_A / sortedM_B / sortedM_A structures), the CSF
// (Cover Smallest First) heuristic from the paper, a Hopcroft–Karp
// maximum bipartite matching used as an optimal oracle and as an
// alternative matcher, and the naive Greedy baseline.
//
// A Graph is a flat edge list that owns a reusable workspace. At match
// time the edges are laid out as CSR adjacency on both sides, over
// dense indexes that ascend with the users' real IDs, and every matcher
// runs on that layout. A graph that is Reset and refilled reuses all of
// its storage, so a warm graph matches with no allocation.
package matching

import (
	"cmp"
	"slices"
)

// Pair is one matched user pair <b, a>. B and A are the users' real IDs
// (indexes into the respective community's Users slice).
type Pair struct {
	B, A int32
}

// comparePairs orders pairs by B, then A.
func comparePairs(x, y Pair) int {
	if c := cmp.Compare(x.B, y.B); c != 0 {
		return c
	}
	return cmp.Compare(x.A, y.A)
}

// Graph is a bipartite graph of candidate matches between users of B
// and users of A: the paper's matched_B and matched_A maps, held as
// one edge list. Edges are expected to be inserted at most once per
// pair (the scan algorithms compare each pair at most once). The MinMax
// scans and Ex-Baseline insert in (B, A) order, the order the CSR build
// needs; any other order (SuperEGO's) costs one sort when the graph is
// matched. A graph holds fewer than 2^31 edges.
//
// The zero value is an empty graph ready to use.
type Graph struct {
	edges []Pair
	// unsorted records that some edge arrived below its predecessor in
	// (B, A) order.
	unsorted bool
	ws       workspace
}

// NewGraph returns an empty match graph.
func NewGraph() *Graph { return &Graph{} }

// AddEdge records that user b of B matches user a of A.
func (g *Graph) AddEdge(b, a int32) {
	p := Pair{B: b, A: a}
	if n := len(g.edges); n > 0 && comparePairs(p, g.edges[n-1]) < 0 {
		g.unsorted = true
	}
	g.edges = append(g.edges, p)
}

// Edges returns the number of candidate pairs recorded.
func (g *Graph) Edges() int { return len(g.edges) }

// Reset empties the graph for reuse, keeping its storage (Ex-MinMax
// empties its structures after every CSF flush).
func (g *Graph) Reset() {
	g.edges = g.edges[:0]
	g.unsorted = false
}

// Matcher selects one-to-one pairs from a match graph. The
// implementations are CSF (the paper's heuristic), HopcroftKarp (a true
// maximum matching) and Greedy (the naive baseline).
//
// The returned pairs alias the graph's workspace: they stay valid until
// the next Reset of the graph or the next matcher call on it. A caller
// that keeps them longer copies them.
type Matcher func(*Graph) []Pair

const (
	sideB = 0
	sideA = 1
)

// workspace is the graph's reusable match-time state: the CSR layout of
// the edges, the working arrays of the matchers, and the result
// buffer. Every slice is resized in place, so once it has grown to the
// largest graph seen a match allocates nothing.
type workspace struct {
	// ids[side] maps a dense index to its real ID, ascending.
	ids [2][]int32
	// The neighbours of dense u on side s are the dense indexes
	// nbr[s][start[s][u]:start[s][u+1]] of the other side, ascending.
	start [2][]int32
	nbr   [2][]int32
	// cursor is the fill position of each A row while it is built.
	cursor []int32

	// CSF: alive users, their remaining degree, and per side one FIFO
	// queue per degree over a flat pool of entries (node[e], next[e]).
	alive      [2][]bool
	deg        [2][]int32
	head, tail [2][]int32
	node, next [2][]int32
	minDeg     [2]int32

	// HopcroftKarp: the matched partner per side (-1 when free), the
	// BFS layer of each B user, and the BFS queue.
	mate  [2][]int32
	dist  []int32
	queue []int32

	pairs []Pair
}

// resize returns s with length n, reusing its storage when it can. The
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// layout builds the CSR adjacency of both sides from the edge list.
// Edges are sorted into (B, A) order first if they did not arrive in
// it. The B rows then come straight from the edge order; the A rows
// come from a counting pass over the same B-ordered edges, so each A
// row lists its B users ascending as well. Dense indexes ascend with
// real IDs on both sides, so the matchers' tie rules (smaller dense
// index first) mean smaller real ID first.
func (g *Graph) layout() *workspace {
	if g.unsorted {
		slices.SortFunc(g.edges, comparePairs)
		g.unsorted = false
	}
	w := &g.ws
	edges := g.edges
	m := len(edges)

	// A side: dense index = rank among the distinct A IDs.
	aIDs := w.ids[sideA][:0]
	for _, e := range edges {
		aIDs = append(aIDs, e.A)
	}
	slices.Sort(aIDs)
	aIDs = slices.Compact(aIDs)
	w.ids[sideA] = aIDs
	nA := len(aIDs)

	// B side: distinct B IDs in edge order; each B row is the dense A
	// index of its edges, ascending because the edges are.
	bIDs := w.ids[sideB][:0]
	bStart := w.start[sideB][:0]
	bNbr := resize(w.nbr[sideB], m)
	aStart := resize(w.start[sideA], nA+1)
	clear(aStart)
	for i, e := range edges {
		if i == 0 || e.B != edges[i-1].B {
			bIDs = append(bIDs, e.B)
			bStart = append(bStart, int32(i))
		}
		a, _ := slices.BinarySearch(aIDs, e.A)
		bNbr[i] = int32(a)
		aStart[a+1]++
	}
	bStart = append(bStart, int32(m))
	w.ids[sideB], w.start[sideB], w.nbr[sideB] = bIDs, bStart, bNbr

	// A rows: prefix-sum the counts, then place each edge's dense B
	// index at its A row's cursor, in edge (ascending B) order.
	for a := 0; a < nA; a++ {
		aStart[a+1] += aStart[a]
	}
	aNbr := resize(w.nbr[sideA], m)
	cursor := resize(w.cursor, nA)
	copy(cursor, aStart[:nA])
	for b := range len(bIDs) {
		for _, a := range bNbr[bStart[b]:bStart[b+1]] {
			aNbr[cursor[a]] = int32(b)
			cursor[a]++
		}
	}
	w.cursor = cursor
	w.start[sideA], w.nbr[sideA] = aStart, aNbr
	w.pairs = w.pairs[:0]
	return w
}

// n returns the number of users on side.
func (w *workspace) n(side int) int { return len(w.ids[side]) }

// row returns the dense neighbours of u on side.
func (w *workspace) row(side int, u int32) []int32 {
	return w.nbr[side][w.start[side][u]:w.start[side][u+1]]
}
