package matching

// Greedy pairs each B user, in ascending ID order, with its
// smallest-ID free neighbour. It is the naive maximal-matching
// baseline the CSF heuristic improves on: Greedy can lose up to half
// the optimum on adversarial graphs, while CSF's cover-smallest-first
// order almost always reaches it. Exposed so the matcher ablation can
// quantify that gap. The returned pairs alias the graph's workspace
// (see Matcher).
func Greedy(g *Graph) []Pair {
	if g.Edges() == 0 {
		return nil
	}
	s := g.layout()
	free := resize(s.alive[sideA], s.n(sideA))
	for a := range free {
		free[a] = true
	}
	s.alive[sideA] = free
	for b := range s.n(sideB) {
		// Rows ascend, so the first free neighbour has the smallest ID.
		for _, a := range s.row(sideB, int32(b)) {
			if free[a] {
				free[a] = false
				s.pairs = append(s.pairs, Pair{B: s.ids[sideB][b], A: s.ids[sideA][a]})
				break
			}
		}
	}
	return s.pairs
}
