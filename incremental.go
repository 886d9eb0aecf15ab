package csj

import (
	"github.com/opencsj/csj/internal/incremental"
)

// IncrementalJoin maintains an exact CSJ join between two communities
// under subscriber insertions and removals, without recomputing from
// scratch. After every update the matching is repaired with at most one
// augmenting-path search, so Matched and Similarity always equal what
// Similarity(b, a, ExMinMax, ...) with MatcherHopcroftKarp would
// return on the current state.
//
// Typical use: an online system streams follow/unfollow events for a
// tracked community pair and reads the similarity whenever it needs it.
// Not safe for concurrent use.
type IncrementalJoin struct {
	j *incremental.Join
}

// NewIncrementalJoin creates an empty incremental join for
// d-dimensional profiles. d must lie in [1, 65,536], the dimensionality
// limit of every stored community. Only Epsilon and Parts of opts are
// used; opts may be nil (epsilon 0).
func NewIncrementalJoin(d int, opts *Options) (*IncrementalJoin, error) {
	o := opts.orDefault()
	j, err := incremental.NewJoin(d, o.Epsilon, o.Parts)
	if err != nil {
		return nil, err
	}
	return &IncrementalJoin{j: j}, nil
}

// AddB inserts a subscriber into the less-followed community B and
// returns its user ID.
func (ij *IncrementalJoin) AddB(u Vector) (int, error) {
	id, err := ij.j.Add(incremental.SideB, u)
	return int(id), err
}

// AddA inserts a subscriber into the more-followed community A and
// returns its user ID.
func (ij *IncrementalJoin) AddA(u Vector) (int, error) {
	id, err := ij.j.Add(incremental.SideA, u)
	return int(id), err
}

// RemoveB deletes a live B subscriber by the ID AddB returned.
func (ij *IncrementalJoin) RemoveB(id int) error {
	return ij.j.Remove(incremental.SideB, id)
}

// RemoveA deletes a live A subscriber by the ID AddA returned.
func (ij *IncrementalJoin) RemoveA(id int) error {
	return ij.j.Remove(incremental.SideA, id)
}

// SizeB returns the number of live B subscribers.
func (ij *IncrementalJoin) SizeB() int { return ij.j.Size(incremental.SideB) }

// SizeA returns the number of live A subscribers.
func (ij *IncrementalJoin) SizeA() int { return ij.j.Size(incremental.SideA) }

// Matched returns the current maximum number of one-to-one matches.
func (ij *IncrementalJoin) Matched() int { return ij.j.Matched() }

// Similarity returns |matched| / |B| for the current state, or an
// error when either side is empty or the size precondition
// ceil(|A|/2) <= |B| <= |A| does not hold.
func (ij *IncrementalJoin) Similarity() (float64, error) { return ij.j.Similarity() }

// Pairs returns the current matched pairs as (B user ID, A user ID).
func (ij *IncrementalJoin) Pairs() []Pair { return ij.j.Pairs() }
