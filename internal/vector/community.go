package vector

import (
	"errors"
	"fmt"
	"math"
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

// The limits of a community. They are the ones the binary format's
// header can express (WriteBinary), and a category must also fit in
// int32, so every community that validates reads back from the WAL and
// the checkpoints, which store it in that format. Validate checks them.
// ReadBinarySized checks an untrusted header against them before it
// allocates, so a crafted 21-byte header cannot claim gigabytes.
const (
	MaxDim       = 1 << 16 // dimensions of a user; the least is 1
	MaxUsers     = 1 << 30
	MaxNameBytes = 1 << 20
	// MaxBinaryPayloadBytes caps a community's counters, n·d·4 bytes.
	MaxBinaryPayloadBytes = int64(1) << 31
)

// ErrLimit reports a community outside the limits above.
var ErrLimit = errors.New("vector: community outside the format's limits")

// checkLimits checks the shape of a community against the limits: a
// name of nameBytes bytes, a category, and n users of d dimensions.
func checkLimits(nameBytes, category, n, d int) error {
	switch {
	case n == 0:
		return ErrEmptyCommunity
	case nameBytes > MaxNameBytes:
		return fmt.Errorf("%w: a name of %d bytes, over %d", ErrLimit, nameBytes, MaxNameBytes)
	case category < math.MinInt32 || category > math.MaxInt32:
		return fmt.Errorf("%w: category %d does not fit in int32", ErrLimit, category)
	case n > MaxUsers:
		return fmt.Errorf("%w: %d users, over %d", ErrLimit, n, MaxUsers)
	case d < 1 || d > MaxDim:
		return fmt.Errorf("%w: users of %d dimensions, outside [1, %d]", ErrLimit, d, MaxDim)
	case int64(n)*int64(d)*4 > MaxBinaryPayloadBytes:
		return fmt.Errorf("%w: %d users of %d dimensions hold %d bytes of counters, over the %d-byte cap",
			ErrLimit, n, d, int64(n)*int64(d)*4, MaxBinaryPayloadBytes)
	}
	return nil
}

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

// Validate checks that the community is non-empty and within the
// limits, that every user has the first user's dimensionality, and
// that all counters are non-negative. Its errors quote at most the
// first 64 bytes of the name, since ingest returns them to the client.
func (c *Community) Validate() error {
	name := c.Name
	if len(name) > 64 {
		name = name[:64] + "..."
	}
	if err := checkLimits(len(c.Name), c.Category, len(c.Users), c.Dim()); err != nil {
		return fmt.Errorf("community %q: %w", name, err)
	}
	d := len(c.Users[0])
	for i, u := range c.Users {
		if len(u) != d {
			return fmt.Errorf("community %q user %d: %w: got %d dimensions, want %d",
				name, i, ErrDimensionMismatch, len(u), d)
		}
		if err := Validate(u); err != nil {
			return fmt.Errorf("community %q user %d: %w", name, i, err)
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
