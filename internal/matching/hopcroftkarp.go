package matching

// HopcroftKarp computes a maximum one-to-one matching of the match
// graph in O(E * sqrt(V)). The CSJ paper's exact methods use the CSF
// heuristic; HopcroftKarp serves as the optimality oracle in tests and
// as an optional drop-in matcher for callers who need a guaranteed
// maximum similarity. The returned pairs alias the graph's workspace
// (see Matcher).
func HopcroftKarp(g *Graph) []Pair {
	if g.Edges() == 0 {
		return nil
	}
	s := g.layout()
	for side := range 2 {
		s.mate[side] = resize(s.mate[side], s.n(side))
		for i := range s.mate[side] {
			s.mate[side][i] = unmatched
		}
	}
	s.dist = resize(s.dist, s.n(sideB))
	for s.bfs() {
		for b := range s.n(sideB) {
			if s.mate[sideB][b] == unmatched {
				s.dfs(int32(b))
			}
		}
	}
	for b, a := range s.mate[sideB] {
		if a != unmatched {
			s.pairs = append(s.pairs, Pair{B: s.ids[sideB][b], A: s.ids[sideA][a]})
		}
	}
	return s.pairs
}

const (
	unmatched = int32(-1)
	infLayer  = int32(^uint32(0) >> 1)
)

// bfs layers the free B users and reports whether an augmenting path
// exists.
func (s *workspace) bfs() bool {
	matchB, matchA, dist := s.mate[sideB], s.mate[sideA], s.dist
	queue := s.queue[:0]
	for b := range matchB {
		if matchB[b] == unmatched {
			dist[b] = 0
			queue = append(queue, int32(b))
		} else {
			dist[b] = infLayer
		}
	}
	found := false
	for head := 0; head < len(queue); head++ {
		b := queue[head]
		for _, a := range s.row(sideB, b) {
			nb := matchA[a]
			if nb == unmatched {
				found = true
			} else if dist[nb] == infLayer {
				dist[nb] = dist[b] + 1
				queue = append(queue, nb)
			}
		}
	}
	s.queue = queue
	return found
}

// dfs follows layered edges from b to augment along a shortest path.
func (s *workspace) dfs(b int32) bool {
	matchB, matchA, dist := s.mate[sideB], s.mate[sideA], s.dist
	for _, a := range s.row(sideB, b) {
		nb := matchA[a]
		if nb == unmatched || (dist[nb] == dist[b]+1 && s.dfs(nb)) {
			matchB[b] = a
			matchA[a] = b
			return true
		}
	}
	dist[b] = infLayer
	return false
}

// MaximumMatchingSize returns the size of a maximum one-to-one matching
// of g.
func MaximumMatchingSize(g *Graph) int { return len(HopcroftKarp(g)) }
