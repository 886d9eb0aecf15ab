package matching

// This file keeps the map-backed match graph and CSF that the flat
// graph replaced, unchanged apart from their names, as the reference
// the differential tests (differential_test.go) hold the flat CSF to:
// same pairs, in the same order, for every graph.

import "sort"

// mapGraph is a bipartite multimap of candidate matches between users of B
// and users of A. It corresponds to the paper's matched_B and matched_A
// maps. Edges are expected to be inserted at most once per pair (the
// scan algorithms compare each pair at most once).
type mapGraph struct {
	bAdj  map[int32][]int32
	aAdj  map[int32][]int32
	edges int
}

// newMapGraph returns an empty match graph.
func newMapGraph() *mapGraph {
	return &mapGraph{
		bAdj: make(map[int32][]int32),
		aAdj: make(map[int32][]int32),
	}
}

// AddEdge records that user b of B matches user a of A.
func (g *mapGraph) AddEdge(b, a int32) {
	g.bAdj[b] = append(g.bAdj[b], a)
	g.aAdj[a] = append(g.aAdj[a], b)
	g.edges++
}

// Edges returns the number of candidate pairs recorded.
func (g *mapGraph) Edges() int { return g.edges }

// BCount returns the number of distinct B users with at least one match.
func (g *mapGraph) BCount() int { return len(g.bAdj) }

// ACount returns the number of distinct A users with at least one match.
func (g *mapGraph) ACount() int { return len(g.aAdj) }

// Reset empties the graph for reuse (Ex-MinMax empties its structures
// after every mapCSF flush).
func (g *mapGraph) Reset() {
	clear(g.bAdj)
	clear(g.aAdj)
	g.edges = 0
}

// BUsers returns the B-side users in ascending order. Intended for tests
// and deterministic iteration.
func (g *mapGraph) BUsers() []int32 {
	out := make([]int32, 0, len(g.bAdj))
	for b := range g.bAdj {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Matches returns the A users matched with b. The returned slice is the
// graph's own storage and must not be modified.
func (g *mapGraph) Matches(b int32) []int32 { return g.bAdj[b] }

// mapCSF is the paper's Cover Smallest First function (Section 4.2). It
// selects one-to-one pairs from the match graph by repeatedly covering
// the user with the fewest remaining matches first, pairing it with its
// neighbour of fewest remaining matches. Covering small-degree users
// first leaves the largest pool of options open, so the heuristic
// usually finds a maximum matching; Hopcroft–Karp is available when an
// optimal guarantee is required.
//
// The returned pairs are deterministic for a given graph: ties are broken
// toward the B side and then toward smaller user IDs.
func mapCSF(g *mapGraph) []Pair {
	if g.Edges() == 0 {
		return nil
	}
	s := newMapCSFState(g)
	pairs := make([]Pair, 0, min(len(s.bIDs), len(s.aIDs)))
	for {
		sB, okB := s.peekMin(sideB)
		sA, okA := s.peekMin(sideA)
		// The loop terminates when either sorted map is exhausted: with
		// no coverable user left on one side, no edge remains.
		if !okB || !okA {
			break
		}
		var b, a int
		switch {
		case s.deg[sideB][sB] < s.deg[sideA][sA]:
			b, a = sB, s.minNeighbor(sideB, sB)
		case s.deg[sideB][sB] > s.deg[sideA][sA]:
			a, b = sA, s.minNeighbor(sideA, sA)
		default:
			// Tie: the paper covers the B side first, falling back to the
			// A side unless B's choice already pins a single-match user.
			// We realize that as "take the pair with minimum connections
			// in B and A", preferring the B side on a further tie.
			bCandA := s.minNeighbor(sideB, sB)
			aCandB := s.minNeighbor(sideA, sA)
			if s.deg[sideB][sB]+s.deg[sideA][bCandA] <= s.deg[sideB][aCandB]+s.deg[sideA][sA] {
				b, a = sB, bCandA
			} else {
				b, a = aCandB, sA
			}
		}
		pairs = append(pairs, Pair{B: s.bIDs[b], A: s.aIDs[a]})
		s.cover(b, a)
	}
	return pairs
}

// mapCSFState is the dense-index working state of mapCSF: the paper's
// matched_B / matched_A adjacency plus the sortedM_B / sortedM_A
// degree-ordered maps, realized as bucket queues with lazy deletion.
type mapCSFState struct {
	bIDs, aIDs []int32      // dense index -> real ID, ascending
	adj        [2][][]int32 // adj[sideB][b] lists dense A indexes, and vice versa
	alive      [2][]bool
	deg        [2][]int
	buckets    [2][][]int32 // buckets[side][d] holds dense indexes with (stale) degree d
	minDeg     [2]int
}

func newMapCSFState(g *mapGraph) *mapCSFState {
	s := &mapCSFState{}
	s.bIDs = g.BUsers()
	s.aIDs = make([]int32, 0, len(g.aAdj))
	for a := range g.aAdj {
		s.aIDs = append(s.aIDs, a)
	}
	sort.Slice(s.aIDs, func(i, j int) bool { return s.aIDs[i] < s.aIDs[j] })

	bIdx := make(map[int32]int, len(s.bIDs))
	for i, id := range s.bIDs {
		bIdx[id] = i
	}
	aIdx := make(map[int32]int, len(s.aIDs))
	for i, id := range s.aIDs {
		aIdx[id] = i
	}

	s.adj[sideB] = make([][]int32, len(s.bIDs))
	s.adj[sideA] = make([][]int32, len(s.aIDs))
	for i, id := range s.bIDs {
		src := g.bAdj[id]
		dst := make([]int32, len(src))
		for j, a := range src {
			dst[j] = int32(aIdx[a])
		}
		sort.Slice(dst, func(x, y int) bool { return dst[x] < dst[y] })
		s.adj[sideB][i] = dst
	}
	for i, id := range s.aIDs {
		src := g.aAdj[id]
		dst := make([]int32, len(src))
		for j, b := range src {
			dst[j] = int32(bIdx[b])
		}
		sort.Slice(dst, func(x, y int) bool { return dst[x] < dst[y] })
		s.adj[sideA][i] = dst
	}

	for side := 0; side < 2; side++ {
		n := len(s.adj[side])
		s.alive[side] = make([]bool, n)
		s.deg[side] = make([]int, n)
		maxDeg := 0
		for i, nbrs := range s.adj[side] {
			s.alive[side][i] = true
			s.deg[side][i] = len(nbrs)
			if len(nbrs) > maxDeg {
				maxDeg = len(nbrs)
			}
		}
		s.buckets[side] = make([][]int32, maxDeg+1)
		for i, d := range s.deg[side] {
			s.buckets[side][d] = append(s.buckets[side][d], int32(i))
		}
		s.minDeg[side] = 1
	}
	return s
}

// peekMin returns the alive user with the smallest positive degree on
// the given side, without removing it. Stale bucket entries (dead users
// or entries pushed for an outdated degree) are discarded lazily.
func (s *mapCSFState) peekMin(side int) (int, bool) {
	for d := s.minDeg[side]; d < len(s.buckets[side]); d++ {
		bucket := s.buckets[side][d]
		for len(bucket) > 0 {
			u := bucket[0]
			if s.alive[side][u] && s.deg[side][u] == d {
				s.buckets[side][d] = bucket
				s.minDeg[side] = d
				return int(u), true
			}
			bucket = bucket[1:]
		}
		s.buckets[side][d] = nil
	}
	s.minDeg[side] = len(s.buckets[side])
	return 0, false
}

// minNeighbor returns the alive neighbour of u (on side) with the
// smallest degree, breaking ties toward smaller dense index (and hence
// smaller real ID). u is guaranteed to have an alive neighbour because
// degrees are kept exact.
func (s *mapCSFState) minNeighbor(side, u int) int {
	other := 1 - side
	best, bestDeg := -1, int(^uint(0)>>1)
	for _, v := range s.adj[side][u] {
		if !s.alive[other][v] {
			continue
		}
		if d := s.deg[other][v]; d < bestDeg {
			best, bestDeg = int(v), d
			if d == 1 {
				break // cannot do better, and smaller IDs come first
			}
		}
	}
	return best
}

// cover commits the pair (dense indexes b, a): both users die and every
// alive neighbour's degree drops, with a fresh bucket entry pushed so
// the sorted maps stay current.
func (s *mapCSFState) cover(b, a int) {
	s.alive[sideB][b] = false
	s.alive[sideA][a] = false
	for _, v := range s.adj[sideB][b] {
		if int(v) != a && s.alive[sideA][v] {
			s.decay(sideA, int(v))
		}
	}
	for _, v := range s.adj[sideA][a] {
		if int(v) != b && s.alive[sideB][v] {
			s.decay(sideB, int(v))
		}
	}
}

func (s *mapCSFState) decay(side, u int) {
	s.deg[side][u]--
	d := s.deg[side][u]
	if d == 0 {
		// No remaining matches: the user can never be covered.
		s.alive[side][u] = false
		return
	}
	s.buckets[side][d] = append(s.buckets[side][d], int32(u))
	if d < s.minDeg[side] {
		s.minDeg[side] = d
	}
}
