// Package vector defines user-profile vectors and communities, the raw
// data model of the CSJ problem.
//
// A user profile is a d-dimensional vector of non-negative integer
// counters; dimension i holds the aggregate number of user preferences
// (likes, views, purchases, ...) for category i. A community is a named
// bag of user profiles, all with the same dimensionality.
package vector

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a d-dimensional user profile. Each element is an aggregate
// preference counter for one category and must be non-negative. It is
// a plain []int32, so profiles cross package boundaries without a copy;
// slices.Clone copies one.
type Vector = []int32

// ErrDimensionMismatch is returned when two vectors or communities with
// different dimensionalities are combined.
var ErrDimensionMismatch = errors.New("vector: dimension mismatch")

// ErrNegativeCounter is returned by Validate when a counter is negative.
var ErrNegativeCounter = errors.New("vector: negative counter")

// Validate checks that every counter of v is non-negative.
func Validate(v Vector) error {
	for i, c := range v {
		if c < 0 {
			return fmt.Errorf("%w: dimension %d holds %d", ErrNegativeCounter, i, c)
		}
	}
	return nil
}

// Sum returns the total number of preferences across all dimensions of
// v. The result is an int64 because d*MaxInt32 overflows int32.
func Sum(v Vector) int64 {
	var s int64
	for _, c := range v {
		s += int64(c)
	}
	return s
}

// MatchEpsilon reports whether a and b match under the CSJ per-dimension
// condition: |a_i - b_i| <= eps for every dimension i. It panics if the
// vectors have different lengths; callers are expected to have validated
// community dimensionality up front.
//
// The difference is taken in int64: the naive int32 subtraction
// overflows for extreme operands (MaxInt32 - MinInt32 wraps to -1 and
// reads as a match), so no int32 arithmetic touches the operands. The
// SoA scan path reaches the same answer through saturated lo/hi windows
// that never subtract at compare time.
func MatchEpsilon(a, b Vector, eps int32) bool {
	if len(a) != len(b) {
		panic("vector: MatchEpsilon on vectors of different dimensionality")
	}
	e := int64(eps)
	for i := range a {
		d := int64(a[i]) - int64(b[i])
		if d > e || d < -e {
			return false
		}
	}
	return true
}

// ChebyshevDistance returns max_i |a_i - b_i|, the smallest eps for which
// a and b match, saturated to MaxInt32 (an epsilon is an int32, and any
// distance at or above MaxInt32 is equally unmatchable). Computed in
// int64 for the same overflow reason as MatchEpsilon. It panics on
// dimension mismatch.
func ChebyshevDistance(a, b Vector) int32 {
	if len(a) != len(b) {
		panic("vector: ChebyshevDistance on vectors of different dimensionality")
	}
	var m int64
	for i := range a {
		d := int64(a[i]) - int64(b[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	if m > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(m)
}

// L1Distance returns sum_i |a_i - b_i|. SuperEGO's epsilon adaptation in
// the paper reasons about this aggregate distance.
func L1Distance(a, b Vector) int64 {
	if len(a) != len(b) {
		panic("vector: L1Distance on vectors of different dimensionality")
	}
	var s int64
	for i := range a {
		d := int64(a[i]) - int64(b[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}
