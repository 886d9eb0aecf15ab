package vector

import (
	"errors"
	"fmt"
)

// Community is a named set of subscribers (user profiles) of the same
// dimensionality. In the paper's terms a community is a brand page and
// its Users are the page's subscribers. The root package exports it as
// csj.Community.
type Community struct {
	// Name identifies the community (e.g. the brand-page name).
	Name string
	// Category is the index of the community's home category, or -1 when
	// unknown. It is informational only; no algorithm depends on it.
	Category int
	// Users holds one profile vector per subscriber.
	Users []Vector
}

// ErrEmptyCommunity is returned when an operation needs at least one user.
var ErrEmptyCommunity = errors.New("vector: empty community")

// ErrSizeConstraint is returned by CheckSizes when the CSJ precondition
// ceil(|A|/2) <= |B| <= |A| does not hold.
var ErrSizeConstraint = errors.New("vector: CSJ size constraint violated")

// NewCommunity builds a community and validates that all user vectors
// share dimensionality d (d <= 0 accepts the first user's) and hold
// non-negative counters.
func NewCommunity(name string, d int, users []Vector) (*Community, error) {
	c := &Community{Name: name, Category: -1, Users: users}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if d > 0 && c.Dim() != d {
		return nil, fmt.Errorf("community %q: %w: got %d dimensions, want %d",
			name, ErrDimensionMismatch, c.Dim(), d)
	}
	return c, nil
}

// Size returns the number of subscribers.
func (c *Community) Size() int { return len(c.Users) }

// Dim returns the dimensionality of the community's profiles, or 0 when
// the community is empty.
func (c *Community) Dim() int {
	if len(c.Users) == 0 {
		return 0
	}
	return len(c.Users[0])
}

// Validate checks that the community is non-empty, that every user has
// the first user's dimensionality, and that all counters are
// non-negative.
func (c *Community) Validate() error {
	if len(c.Users) == 0 {
		return fmt.Errorf("community %q: %w", c.Name, ErrEmptyCommunity)
	}
	d := len(c.Users[0])
	for i, u := range c.Users {
		if len(u) != d {
			return fmt.Errorf("community %q user %d: %w: got %d dimensions, want %d",
				c.Name, i, ErrDimensionMismatch, len(u), d)
		}
		if err := Validate(u); err != nil {
			return fmt.Errorf("community %q user %d: %w", c.Name, i, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the community: the user vectors are
// copied into one fresh backing array, so mutating the original (or the
// clone) afterwards cannot affect the other. Stores that accept
// communities from callers clone on ingest to cut every external alias.
func (c *Community) Clone() *Community {
	total := 0
	for _, u := range c.Users {
		total += len(u)
	}
	backing := make([]int32, 0, total)
	users := make([]Vector, len(c.Users))
	for i, u := range c.Users {
		start := len(backing)
		backing = append(backing, u...)
		users[i] = backing[start:len(backing):len(backing)]
	}
	return &Community{Name: c.Name, Category: c.Category, Users: users}
}

// CheckSizes validates the CSJ precondition on a community pair:
// ceil(|A|/2) <= |B| <= |A|, where B is the less-followed community.
// The paper only defines similarity when B is at least half of A;
// otherwise B risks being a trivial subset of A.
func CheckSizes(b, a *Community) error {
	nb, na := b.Size(), a.Size()
	if nb == 0 || na == 0 {
		return ErrEmptyCommunity
	}
	if nb > na {
		return fmt.Errorf("%w: |B|=%d exceeds |A|=%d (B must be the smaller community)",
			ErrSizeConstraint, nb, na)
	}
	if half := (na + 1) / 2; nb < half {
		return fmt.Errorf("%w: |B|=%d is below ceil(|A|/2)=%d", ErrSizeConstraint, nb, half)
	}
	return nil
}
