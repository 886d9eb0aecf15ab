// Package ego implements the SuperEGO competitor of the paper
// (Section 5.2): an adaptation of Kalashnikov's Super-EGO epsilon-join
// (VLDBJ 2013) to the CSJ per-dimension condition.
//
// SuperEGO operates on data normalized into [0,1]^d, so the integer
// counters are divided by the global maximum counter and epsilon is
// scaled accordingly. Points are sorted in Epsilon Grid Order (EGO) —
// lexicographically by their grid cell of side epsilon — and a
// divide-and-conquer recursion prunes segment pairs whose grid bounding
// boxes are more than one cell apart in some dimension (the
// EGO-Strategy). Segment pairs smaller than the threshold t are joined
// with the nested loop of the Baseline method, as the paper prescribes
// for CSJ.
//
// The normalization is float32 by default, matching the paper's setup;
// on skewed data with a tiny epsilon this loses borderline matches
// (exactly the accuracy loss Tables 3-6 report for SuperEGO), while on
// the uniform Synthetic data the loss vanishes (Tables 8 and 10).
// Options.Float64 switches to double precision, and
// Options.VerifyInteger re-checks candidates against the original
// integer vectors for callers who want SuperEGO speed without the
// conversion risk.
package ego

import (
	"math"
	"sort"

	"github.com/opencsj/csj/internal/vector"
)

// point is one normalized user profile: its values, its epsilon-grid
// cell coordinates, and the user's real ID.
type point struct {
	vals  []float64 // normalized counters (rounded through float32 unless Float64)
	cells []int64   // floor(val / grid) per dimension
	ref   int32
}

// normalizer converts integer profiles into [0,1]^d points.
type normalizer struct {
	maxVal  float64
	eps     float64 // normalized epsilon, in the selected precision
	grid    float64 // grid cell side: max(eps, 0.5/maxVal) to keep cells finite for eps=0
	float64 bool
}

// maxCounter returns the largest counter over all users and dimensions
// of c. SuperEGO normalizes by this value over the union of both
// communities.
func maxCounter(c *vector.Community) int32 {
	var m int32
	for _, u := range c.Users {
		for _, v := range u {
			m = max(m, v)
		}
	}
	return m
}

func newNormalizer(b, a *vector.Community, eps int32, useFloat64 bool) *normalizer {
	mv := max(maxCounter(b), maxCounter(a))
	if mv == 0 {
		// All counters are zero: every value normalizes to 0 and any
		// non-negative epsilon matches everything. Avoid dividing by 0.
		mv = 1
	}
	n := &normalizer{maxVal: float64(mv), float64: useFloat64}
	if useFloat64 {
		n.eps = float64(eps) / n.maxVal
	} else {
		n.eps = float64(float32(eps) / float32(mv))
	}
	// For eps=0 the per-dimension condition degenerates to equality.
	// Distinct counters differ by at least 1/maxVal after normalization,
	// so a grid of half that size never merges distinct values while
	// keeping equal values in equal cells.
	n.grid = n.eps
	if halfUnit := 0.5 / n.maxVal; n.grid < halfUnit {
		n.grid = halfUnit
	}
	return n
}

// normalize converts a community into points (cells not yet assigned to
// reordered dimensions — call reorder + assignCells afterwards).
func (n *normalizer) normalize(c *vector.Community) []point {
	pts := make([]point, c.Size())
	d := c.Dim()
	backing := make([]float64, len(pts)*d)
	for i, u := range c.Users {
		vals := backing[i*d : (i+1)*d : (i+1)*d]
		for j, v := range u {
			if n.float64 {
				vals[j] = float64(v) / n.maxVal
			} else {
				vals[j] = float64(float32(v) / float32(n.maxVal))
			}
		}
		pts[i] = point{vals: vals, ref: int32(i)}
	}
	return pts
}

// matches applies the per-dimension epsilon condition on normalized
// values, in the precision the points were built with. In float32 mode
// the subtraction is rounded to float32, mirroring a single-precision
// implementation.
func (n *normalizer) matches(b, a []float64) bool {
	if n.float64 {
		for i := range b {
			if math.Abs(b[i]-a[i]) > n.eps {
				return false
			}
		}
		return true
	}
	eps32 := float32(n.eps)
	for i := range b {
		d := float32(b[i]) - float32(a[i])
		if d < 0 {
			d = -d
		}
		if d > eps32 {
			return false
		}
	}
	return true
}

// dimOrder computes the dimension permutation SuperEGO applies before
// sorting: dimensions that spread the data over more grid cells come
// first, so that the EGO order and the EGO-Strategy prune as early as
// possible. Ties keep the original order.
func dimOrder(pts ...[]point) []int {
	if len(pts) == 0 || len(pts[0]) == 0 {
		return nil
	}
	d := len(pts[0][0].vals)
	span := make([]float64, d)
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, set := range pts {
		for _, p := range set {
			for j, v := range p.vals {
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
	}
	for j := 0; j < d; j++ {
		span[j] = hi[j] - lo[j]
	}
	order := make([]int, d)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(x, y int) bool {
		return span[order[x]] > span[order[y]]
	})
	return order
}

// applyOrder permutes every point's values in place according to order.
func applyOrder(pts []point, order []int) {
	if order == nil {
		return
	}
	tmp := make([]float64, len(order))
	for i := range pts {
		for j, src := range order {
			tmp[j] = pts[i].vals[src]
		}
		copy(pts[i].vals, tmp)
	}
}

// assignCells computes the epsilon-grid cell coordinates of every point.
func (n *normalizer) assignCells(pts []point) {
	d := 0
	if len(pts) > 0 {
		d = len(pts[0].vals)
	}
	backing := make([]int64, len(pts)*d)
	for i := range pts {
		cells := backing[i*d : (i+1)*d : (i+1)*d]
		for j, v := range pts[i].vals {
			cells[j] = int64(math.Floor(v / n.grid))
		}
		pts[i].cells = cells
	}
}

// egoSort sorts points in Epsilon Grid Order: lexicographically by cell
// coordinates, tie-broken by values and then by ref for determinism.
func egoSort(pts []point) {
	sort.Slice(pts, func(x, y int) bool {
		px, py := &pts[x], &pts[y]
		for j := range px.cells {
			if px.cells[j] != py.cells[j] {
				return px.cells[j] < py.cells[j]
			}
		}
		for j := range px.vals {
			if px.vals[j] != py.vals[j] {
				return px.vals[j] < py.vals[j]
			}
		}
		return px.ref < py.ref
	})
}
