// Package encoding implements the MinMax encoding scheme of the CSJ
// paper (Section 4, Figure 1).
//
// A d-dimensional user vector is segmented into a small number of parts
// (4 by default — the paper's time/space sweet spot). For a user b of the
// less-followed community B, the scheme stores the per-part counter sums
// ("parts") and their total (the "encoded_ID"). For a user a of the
// more-followed community A, each dimension i is widened to the interval
// [max(0, a_i-eps), a_i+eps]; summing interval endpoints per part yields
// the per-part "ranges", and summing those yields the user's
// "encoded_Min" and "encoded_Max".
//
// The scheme never causes false misses: if b matches a per dimension,
// then every part sum of b lies inside the corresponding range of a, and
// b's encoded_ID lies inside [a.encoded_Min, a.encoded_Max]. The MinMax
// algorithms exploit the sorted encoded values for MIN PRUNE / MAX PRUNE
// and the per-part ranges for the NO OVERLAP check.
package encoding

import (
	"fmt"
	"sort"

	"github.com/opencsj/csj/internal/vector"
)

// DefaultParts is the part count the paper selects as the best
// time/space trade-off.
const DefaultParts = 4

// Layout describes how d dimensions are segmented into parts. With
// d=27 and 4 parts the sizes are 6,7,7,7 (matching the paper's Figure 1:
// the first parts take the smaller share).
type Layout struct {
	d      int
	starts []int // len parts+1; part p covers dims [starts[p], starts[p+1])
}

// ResolveParts applies the part-count rule of every MinMax encoding: 0
// selects DefaultParts, a count above the dimensionality d clamps to d,
// and a negative count is an error.
func ResolveParts(parts, d int) (int, error) {
	if parts < 0 {
		return 0, fmt.Errorf("encoding: parts %d must be >= 0 (0 selects the default %d)", parts, DefaultParts)
	}
	if parts == 0 {
		parts = DefaultParts
	}
	return min(parts, d), nil
}

// NewLayout builds a layout of d dimensions into the given number of
// parts. It returns an error unless 1 <= parts <= d.
func NewLayout(d, parts int) (*Layout, error) {
	if d <= 0 {
		return nil, fmt.Errorf("encoding: dimensionality %d must be positive", d)
	}
	if parts < 1 || parts > d {
		return nil, fmt.Errorf("encoding: parts %d must be in [1, %d]", parts, d)
	}
	base, rem := d/parts, d%parts
	starts := make([]int, parts+1)
	for p := 0; p < parts; p++ {
		size := base
		// The last rem parts take one extra dimension, so that with
		// d=27, parts=4 the sizes come out 6,7,7,7 as in Figure 1.
		if p >= parts-rem {
			size++
		}
		starts[p+1] = starts[p] + size
	}
	return &Layout{d: d, starts: starts}, nil
}

// Dim returns the dimensionality the layout was built for.
func (l *Layout) Dim() int { return l.d }

// Parts returns the number of parts.
func (l *Layout) Parts() int { return len(l.starts) - 1 }

// Bounds returns the dimension interval [lo, hi) covered by part p.
func (l *Layout) Bounds(p int) (lo, hi int) { return l.starts[p], l.starts[p+1] }

// BEntry is the triple the paper stores in Encd_B for one user of B:
// the encoded ID, the per-part sums, and the user's real ID.
type BEntry struct {
	ID    int64   // encoded_ID: sum of all counters
	Parts []int64 // per-part counter sums
	Ref   int32   // index into the community's Users slice
}

// AEntry is the quadruple the paper stores in Encd_A for one user of A:
// encoded Min and Max, the per-part ranges, and the user's real ID.
type AEntry struct {
	Min, Max int64   // encoded_Min / encoded_Max
	RangeLo  []int64 // per-part range lower bounds
	RangeHi  []int64 // per-part range upper bounds
	Ref      int32   // index into the community's Users slice
}

// BBuffer is Encd_B: B's entries ascending-sorted on encoded_ID.
type BBuffer struct {
	Layout  *Layout
	Entries []BEntry
}

// ABuffer is Encd_A: A's entries ascending-sorted on encoded_Min.
type ABuffer struct {
	Layout  *Layout
	Entries []AEntry
}

// EncodeB builds the sorted Encd_B buffer for community b.
func EncodeB(b *vector.Community, l *Layout) *BBuffer {
	n := b.Size()
	entries := make([]BEntry, n)
	backing := make([]int64, n*l.Parts())
	for i, u := range b.Users {
		parts := backing[i*l.Parts() : (i+1)*l.Parts() : (i+1)*l.Parts()]
		var id int64
		for p := 0; p < l.Parts(); p++ {
			lo, hi := l.Bounds(p)
			var s int64
			for j := lo; j < hi; j++ {
				s += int64(u[j])
			}
			parts[p] = s
			id += s
		}
		entries[i] = BEntry{ID: id, Parts: parts, Ref: int32(i)}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].ID != entries[j].ID {
			return entries[i].ID < entries[j].ID
		}
		return entries[i].Ref < entries[j].Ref
	})
	return &BBuffer{Layout: l, Entries: entries}
}

// EncodeA builds the sorted Encd_A buffer for community a under the
// given epsilon. Scalar callers pass vector.UniformEps; a per-dimension
// tolerance widens dimension j by its own eps_j, which keeps the
// no-false-miss property (each dimension's true value still lies inside
// its widened interval, so the part sums still bracket any matching b).
func EncodeA(a *vector.Community, l *Layout, eps vector.Eps) *ABuffer {
	n := a.Size()
	entries := make([]AEntry, n)
	backing := make([]int64, 2*n*l.Parts())
	for i, u := range a.Users {
		base := 2 * i * l.Parts()
		rlo := backing[base : base+l.Parts() : base+l.Parts()]
		rhi := backing[base+l.Parts() : base+2*l.Parts() : base+2*l.Parts()]
		var mn, mx int64
		for p := 0; p < l.Parts(); p++ {
			lo, hi := l.Bounds(p)
			var slo, shi int64
			for j := lo; j < hi; j++ {
				v := int64(u[j])
				e := int64(eps.At(j))
				dlo := v - e
				if dlo < 0 {
					dlo = 0 // counters are non-negative, so the range is clamped at 0
				}
				slo += dlo
				shi += v + e
			}
			rlo[p], rhi[p] = slo, shi
			mn += slo
			mx += shi
		}
		entries[i] = AEntry{Min: mn, Max: mx, RangeLo: rlo, RangeHi: rhi, Ref: int32(i)}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Min != entries[j].Min {
			return entries[i].Min < entries[j].Min
		}
		return entries[i].Ref < entries[j].Ref
	})
	return &ABuffer{Layout: l, Entries: entries}
}

// PartsOverlap reports whether every part sum of eB lies inside the
// corresponding range of eA — the paper's "complete overlap" condition.
// A false result is the NO OVERLAP event: the pair surely does not match
// and the d-dimensional comparison can be skipped.
func PartsOverlap(eB *BEntry, eA *AEntry) bool {
	for p, s := range eB.Parts {
		if s < eA.RangeLo[p] || s > eA.RangeHi[p] {
			return false
		}
	}
	return true
}
