// Package incremental maintains an exact CSJ join under subscriber
// insertions and removals, without recomputing from scratch.
//
// Online systems gain and lose subscribers continuously; recomputing a
// community pair's similarity after every change wastes the work the
// previous run did. This package keeps three pieces of state in sync:
//
//  1. both communities' MinMax encodings, in sorted order, so a new
//     user's candidate matches are found with the paper's window scan
//     rather than a full pass over the raw vectors;
//  2. the candidate match graph (every pair satisfying the
//     per-dimension epsilon condition);
//  3. a maximum one-to-one matching, repaired after every update with
//     at most one augmenting-path search — the classic dynamic-matching
//     result: inserting a vertex and augmenting once from it, or
//     deleting a vertex and augmenting once from its freed partner,
//     preserves maximality.
//
// The result is always exactly what Ex-MinMax with the Hopcroft–Karp
// matcher would compute on the current communities (property-tested in
// incremental_test.go).
package incremental

import (
	"fmt"
	"sort"

	"github.com/opencsj/csj/internal/encoding"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// Side selects one of the two communities of the join.
type Side int

const (
	// SideB is the less-followed community (the similarity denominator).
	SideB Side = iota
	// SideA is the more-followed community.
	SideA
)

// String names the side.
func (s Side) String() string {
	if s == SideB {
		return "B"
	}
	return "A"
}

// user is one live subscriber of either side.
type user struct {
	vec vector.Vector
	// id window: for B users, lo == hi == encoded ID; for A users,
	// [lo, hi] == [encoded_Min, encoded_Max].
	lo, hi int64
	// parts holds per-part sums (B side) or range bounds interleaved
	// lo0,hi0,lo1,hi1,... (A side).
	parts []int64
	alive bool
}

// Join is an incrementally-maintained CSJ join. Not safe for
// concurrent use.
type Join struct {
	d      int
	eps    int32
	layout *encoding.Layout

	users [2][]user  // indexed by Side, user IDs are slice positions
	size  [2]int     // live users per side
	order [2][]int32 // live user IDs sorted by lo (window start)

	adj   [2][]map[int32]struct{} // adjacency per side, indexed by user ID
	match [2][]int32              // current matching, -1 = free
	edges int
}

// NewJoin creates an empty join for d-dimensional profiles with the
// given epsilon; d must lie in [1, vector.MaxDim], the limit of every
// stored community. The part count follows encoding.ResolveParts: 0
// selects the paper's default of 4, a count above d clamps to d, and a
// negative count is an error.
func NewJoin(d int, eps int32, parts int) (*Join, error) {
	if d < 1 || d > vector.MaxDim {
		return nil, fmt.Errorf("%w: %d dimensions, outside [1, %d]", vector.ErrLimit, d, vector.MaxDim)
	}
	if eps < 0 {
		return nil, fmt.Errorf("incremental: epsilon %d must be non-negative", eps)
	}
	parts, err := encoding.ResolveParts(parts, d)
	if err != nil {
		return nil, err
	}
	layout, err := encoding.NewLayout(d, parts)
	if err != nil {
		return nil, err
	}
	return &Join{d: d, eps: eps, layout: layout}, nil
}

// Dim returns the profile dimensionality.
func (j *Join) Dim() int { return j.d }

// Size returns the number of live users on the side.
func (j *Join) Size(s Side) int { return j.size[s] }

// Matched returns the size of the current maximum one-to-one matching.
func (j *Join) Matched() int {
	n := 0
	for id, m := range j.match[SideB] {
		if m >= 0 && j.users[SideB][id].alive {
			n++
		}
	}
	return n
}

// Edges returns the number of live candidate pairs.
func (j *Join) Edges() int { return j.edges }

// Similarity returns the CSJ similarity |matched| / |B| of the current
// state. It returns an error when either side is empty or the paper's
// size precondition ceil(|A|/2) <= |B| <= |A| does not hold.
func (j *Join) Similarity() (float64, error) {
	nb, na := j.size[SideB], j.size[SideA]
	if nb == 0 || na == 0 {
		return 0, vector.ErrEmptyCommunity
	}
	if nb > na {
		return 0, fmt.Errorf("%w: |B|=%d exceeds |A|=%d", vector.ErrSizeConstraint, nb, na)
	}
	if half := (na + 1) / 2; nb < half {
		return 0, fmt.Errorf("%w: |B|=%d below ceil(|A|/2)=%d", vector.ErrSizeConstraint, nb, half)
	}
	return float64(j.Matched()) / float64(nb), nil
}

// Pairs returns the current matched pairs as (B user ID, A user ID).
func (j *Join) Pairs() []matching.Pair {
	var out []matching.Pair
	for id, m := range j.match[SideB] {
		if m >= 0 && j.users[SideB][id].alive {
			out = append(out, matching.Pair{B: int32(id), A: m})
		}
	}
	sort.Slice(out, func(x, y int) bool { return out[x].B < out[y].B })
	return out
}

// Add inserts a subscriber on the given side and returns its user ID.
// Cost: one window scan over the opposite side's sorted encodings plus
// at most one augmenting-path search.
func (j *Join) Add(s Side, u vector.Vector) (int32, error) {
	if len(u) != j.d {
		return 0, fmt.Errorf("%w: got %d dimensions, want %d", vector.ErrDimensionMismatch, len(u), j.d)
	}
	if err := vector.Validate(u); err != nil {
		return 0, err
	}
	id := int32(len(j.users[s]))
	j.users[s] = append(j.users[s], j.encode(s, u))
	j.adj[s] = append(j.adj[s], nil)
	j.match[s] = append(j.match[s], -1)
	j.size[s]++
	j.insertOrdered(s, id)

	// Discover the new user's candidate matches via the window scan.
	for _, other := range j.candidates(s, id) {
		if j.matches(s, id, other) {
			j.addEdge(s, id, other)
		}
	}
	// Repair maximality: one augmenting attempt from the new vertex.
	j.augment(s, id)
	return id, nil
}

// Remove deletes a live subscriber. If it was matched, its partner is
// freed and one augmenting-path search restores maximality. An id
// outside the side's ids, int32's range included, names no live user.
func (j *Join) Remove(s Side, uid int) error {
	if uid < 0 || uid >= len(j.users[s]) || !j.users[s][uid].alive {
		return fmt.Errorf("incremental: no live user %d on side %s", uid, s)
	}
	id := int32(uid)
	o := 1 - s
	partner := j.match[s][id]

	j.users[s][id].alive = false
	j.size[s]--
	j.removeOrdered(s, id)
	for other := range j.adj[s][id] {
		delete(j.adj[o][other], id)
		j.edges--
	}
	j.adj[s][id] = nil
	j.match[s][id] = -1

	if partner >= 0 {
		j.match[o][partner] = -1
		j.augment(o, partner)
	}
	return nil
}

// encode computes the user's window and parts for its side.
func (j *Join) encode(s Side, u vector.Vector) user {
	p := j.layout.Parts()
	out := user{vec: u, alive: true}
	if s == SideB {
		out.parts = make([]int64, p)
		var id int64
		for pi := 0; pi < p; pi++ {
			lo, hi := j.layout.Bounds(pi)
			var sum int64
			for k := lo; k < hi; k++ {
				sum += int64(u[k])
			}
			out.parts[pi] = sum
			id += sum
		}
		out.lo, out.hi = id, id
		return out
	}
	out.parts = make([]int64, 2*p)
	var mn, mx int64
	for pi := 0; pi < p; pi++ {
		lo, hi := j.layout.Bounds(pi)
		var slo, shi int64
		for k := lo; k < hi; k++ {
			v := int64(u[k])
			dlo := v - int64(j.eps)
			if dlo < 0 {
				dlo = 0
			}
			slo += dlo
			shi += v + int64(j.eps)
		}
		out.parts[2*pi], out.parts[2*pi+1] = slo, shi
		mn += slo
		mx += shi
	}
	out.lo, out.hi = mn, mx
	return out
}

// insertOrdered places id into the side's lo-sorted order.
func (j *Join) insertOrdered(s Side, id int32) {
	lo := j.users[s][id].lo
	ord := j.order[s]
	pos := sort.Search(len(ord), func(i int) bool { return j.users[s][ord[i]].lo >= lo })
	ord = append(ord, 0)
	copy(ord[pos+1:], ord[pos:])
	ord[pos] = id
	j.order[s] = ord
}

func (j *Join) removeOrdered(s Side, id int32) {
	ord := j.order[s]
	lo := j.users[s][id].lo
	pos := sort.Search(len(ord), func(i int) bool { return j.users[s][ord[i]].lo >= lo })
	for pos < len(ord) && ord[pos] != id {
		pos++
	}
	if pos < len(ord) {
		j.order[s] = append(ord[:pos], ord[pos+1:]...)
	}
}

// candidates returns the opposite-side user IDs whose windows admit the
// given user, using the paper's MIN PRUNE on the sorted order.
func (j *Join) candidates(s Side, id int32) []int32 {
	o := 1 - s
	me := &j.users[s][id]
	ord := j.order[o]
	var out []int32
	if s == SideB {
		// A users sorted by encoded_Min; MIN PRUNE at Min > my ID.
		for _, other := range ord {
			w := &j.users[o][other]
			if w.lo > me.lo {
				break
			}
			if w.hi >= me.lo {
				out = append(out, other)
			}
		}
		return out
	}
	// B users sorted by encoded ID: a range query on [my Min, my Max].
	start := sort.Search(len(ord), func(i int) bool { return j.users[o][ord[i]].lo >= me.lo })
	for i := start; i < len(ord); i++ {
		w := &j.users[o][ord[i]]
		if w.lo > me.hi {
			break
		}
		out = append(out, ord[i])
	}
	return out
}

// matches applies the part/range overlap check and the per-dimension
// epsilon condition to the pair (side s user id, opposite user other).
func (j *Join) matches(s Side, id, other int32) bool {
	var bu, au *user
	if s == SideB {
		bu, au = &j.users[SideB][id], &j.users[SideA][other]
	} else {
		bu, au = &j.users[SideB][other], &j.users[SideA][id]
	}
	p := j.layout.Parts()
	for pi := 0; pi < p; pi++ {
		sum := bu.parts[pi]
		if sum < au.parts[2*pi] || sum > au.parts[2*pi+1] {
			return false
		}
	}
	return vector.MatchEpsilon(bu.vec, au.vec, j.eps)
}

func (j *Join) addEdge(s Side, id, other int32) {
	o := 1 - s
	if j.adj[s][id] == nil {
		j.adj[s][id] = make(map[int32]struct{})
	}
	if j.adj[o][other] == nil {
		j.adj[o][other] = make(map[int32]struct{})
	}
	j.adj[s][id][other] = struct{}{}
	j.adj[o][other][id] = struct{}{}
	j.edges++
}

// augment searches one augmenting path from the free vertex (side s,
// user id) and applies it. If none exists the matching was already
// maximum and stays unchanged.
func (j *Join) augment(s Side, id int32) {
	if j.match[s][id] >= 0 || !j.users[s][id].alive {
		return
	}
	visited := [2]map[int32]bool{make(map[int32]bool), make(map[int32]bool)}
	j.tryAugment(s, id, visited)
}

// tryAugment is the alternating DFS: from a free or just-freed vertex,
// walk unmatched edge -> matched edge -> ... until a free vertex on the
// opposite side closes the path.
func (j *Join) tryAugment(s Side, id int32, visited [2]map[int32]bool) bool {
	visited[s][id] = true
	o := 1 - s
	for other := range j.adj[s][id] {
		if visited[o][other] {
			continue
		}
		partner := j.match[o][other]
		if partner < 0 {
			j.match[s][id] = other
			j.match[o][other] = id
			return true
		}
		visited[o][other] = true
		if j.tryAugment(s, partner, visited) {
			j.match[s][id] = other
			j.match[o][other] = id
			return true
		}
	}
	return false
}
