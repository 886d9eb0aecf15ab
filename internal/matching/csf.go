package matching

// CSF is the paper's Cover Smallest First function (Section 4.2). It
// selects one-to-one pairs from the match graph by repeatedly covering
// the user with the fewest remaining matches first, pairing it with its
// neighbour of fewest remaining matches. Covering small-degree users
// first leaves the largest pool of options open, so the heuristic
// usually finds a maximum matching; Hopcroft–Karp is available when an
// optimal guarantee is required.
//
// The returned pairs are deterministic for a given graph: ties are broken
// toward the B side and then toward smaller user IDs. They alias the
// graph's workspace (see Matcher).
func CSF(g *Graph) []Pair {
	if g.Edges() == 0 {
		return nil
	}
	s := g.layout()
	s.initCSF()
	for {
		sB, okB := s.peekMin(sideB)
		sA, okA := s.peekMin(sideA)
		// The loop terminates when either sorted map is exhausted: with
		// no coverable user left on one side, no edge remains.
		if !okB || !okA {
			break
		}
		var b, a int32
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
		s.pairs = append(s.pairs, Pair{B: s.ids[sideB][b], A: s.ids[sideA][a]})
		s.cover(b, a)
	}
	return s.pairs
}

// initCSF sets up the working state of CSF over the laid-out graph: the
// paper's sortedM_B / sortedM_A degree-ordered maps, realized per side
// as one FIFO queue per degree with lazy deletion. Every user starts
// alive at its full degree, queued in ascending dense order.
func (s *workspace) initCSF() {
	for side := range 2 {
		n := s.n(side)
		alive := resize(s.alive[side], n)
		deg := resize(s.deg[side], n)
		maxDeg := int32(0)
		for u := range n {
			alive[u] = true
			deg[u] = s.start[side][u+1] - s.start[side][u]
			maxDeg = max(maxDeg, deg[u])
		}
		s.alive[side], s.deg[side] = alive, deg
		s.head[side] = resize(s.head[side], int(maxDeg)+1)
		s.tail[side] = resize(s.tail[side], int(maxDeg)+1)
		for d := range s.head[side] {
			s.head[side][d], s.tail[side][d] = -1, -1
		}
		s.node[side] = s.node[side][:0]
		s.next[side] = s.next[side][:0]
		for u := range n {
			s.push(side, deg[u], int32(u))
		}
		s.minDeg[side] = 1
	}
}

// push appends user u to the back of side's degree-d queue.
func (s *workspace) push(side int, d, u int32) {
	e := int32(len(s.node[side]))
	s.node[side] = append(s.node[side], u)
	s.next[side] = append(s.next[side], -1)
	if t := s.tail[side][d]; t >= 0 {
		s.next[side][t] = e
	} else {
		s.head[side][d] = e
	}
	s.tail[side][d] = e
}

// peekMin returns the alive user with the smallest positive degree on
// the given side, without removing it. Stale queue entries (dead users
// or entries pushed for an outdated degree) are discarded lazily.
func (s *workspace) peekMin(side int) (int32, bool) {
	head, tail := s.head[side], s.tail[side]
	alive, deg := s.alive[side], s.deg[side]
	node, next := s.node[side], s.next[side]
	for d := s.minDeg[side]; int(d) < len(head); d++ {
		for e := head[d]; e >= 0; e = next[e] {
			if u := node[e]; alive[u] && deg[u] == d {
				head[d] = e
				s.minDeg[side] = d
				return u, true
			}
		}
		head[d], tail[d] = -1, -1
	}
	s.minDeg[side] = int32(len(head))
	return 0, false
}

// minNeighbor returns the alive neighbour of u (on side) with the
// smallest degree, breaking ties toward smaller dense index (and hence
// smaller real ID). u is guaranteed to have an alive neighbour because
// degrees are kept exact.
func (s *workspace) minNeighbor(side int, u int32) int32 {
	other := 1 - side
	alive, deg := s.alive[other], s.deg[other]
	best, bestDeg := int32(-1), int32(^uint32(0)>>1)
	for _, v := range s.row(side, u) {
		if !alive[v] {
			continue
		}
		if d := deg[v]; d < bestDeg {
			best, bestDeg = v, d
			if d == 1 {
				break // cannot do better, and smaller IDs come first
			}
		}
	}
	return best
}

// cover commits the pair (dense indexes b, a): both users die and every
// alive neighbour's degree drops, with a fresh queue entry pushed so
// the sorted maps stay current.
func (s *workspace) cover(b, a int32) {
	s.alive[sideB][b] = false
	s.alive[sideA][a] = false
	for _, v := range s.row(sideB, b) {
		if v != a && s.alive[sideA][v] {
			s.decay(sideA, v)
		}
	}
	for _, v := range s.row(sideA, a) {
		if v != b && s.alive[sideB][v] {
			s.decay(sideB, v)
		}
	}
}

func (s *workspace) decay(side int, u int32) {
	s.deg[side][u]--
	d := s.deg[side][u]
	if d == 0 {
		// No remaining matches: the user can never be covered.
		s.alive[side][u] = false
		return
	}
	s.push(side, d, u)
	if d < s.minDeg[side] {
		s.minDeg[side] = d
	}
}
