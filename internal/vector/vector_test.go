package vector

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatchEpsilonBasic(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		eps  int32
		want bool
	}{
		{"identical", Vector{1, 2, 3}, Vector{1, 2, 3}, 0, true},
		{"within one", Vector{1, 2, 3}, Vector{2, 1, 4}, 1, true},
		{"one dim too far", Vector{1, 2, 3}, Vector{2, 1, 5}, 1, false},
		{"exactly eps", Vector{10, 10}, Vector{13, 7}, 3, true},
		{"eps zero mismatch", Vector{5}, Vector{6}, 0, false},
		{"empty vectors", Vector{}, Vector{}, 1, true},
		{"large counters", Vector{500000, 0}, Vector{485000, 15000}, 15000, true},
		{"large counters fail", Vector{500000, 0}, Vector{484999, 15000}, 15000, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := MatchEpsilon(tc.a, tc.b, tc.eps); got != tc.want {
				t.Errorf("MatchEpsilon(%v, %v, %d) = %v, want %v", tc.a, tc.b, tc.eps, got, tc.want)
			}
			// Symmetry.
			if got := MatchEpsilon(tc.b, tc.a, tc.eps); got != tc.want {
				t.Errorf("MatchEpsilon(%v, %v, %d) = %v, want %v (symmetry)", tc.b, tc.a, tc.eps, got, tc.want)
			}
		})
	}
}

func TestMatchEpsilonPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	MatchEpsilon(Vector{1, 2}, Vector{1}, 1)
}

// The paper's example from Section 3: eps=1, d=3 (Music, Sport, Education).
func TestMatchEpsilonPaperSection3Example(t *testing.T) {
	b1 := Vector{3, 4, 2}
	b2 := Vector{2, 2, 3}
	a1 := Vector{2, 3, 5}
	a2 := Vector{2, 3, 1}
	a3 := Vector{3, 3, 3}
	const eps = 1
	// b1 can be matched with a2 and a3 (but not a1).
	if MatchEpsilon(b1, a1, eps) {
		t.Error("b1 should not match a1 (Education differs by 3)")
	}
	if !MatchEpsilon(b1, a2, eps) {
		t.Error("b1 should match a2")
	}
	if !MatchEpsilon(b1, a3, eps) {
		t.Error("b1 should match a3")
	}
	// b2 can be matched only with a3.
	if MatchEpsilon(b2, a1, eps) || MatchEpsilon(b2, a2, eps) {
		t.Error("b2 should match neither a1 nor a2")
	}
	if !MatchEpsilon(b2, a3, eps) {
		t.Error("b2 should match a3")
	}
}

// TestMatchEpsilonNoInt32Overflow is the regression for the epsilon
// predicate's int32 subtraction: MaxInt32 - MinInt32 wraps to -1 in
// int32, so the old compare declared opposite extremes (2^32-1 apart)
// within any eps >= 1. The fixed compare works in int64 over the full
// int32 domain.
func TestMatchEpsilonNoInt32Overflow(t *testing.T) {
	const maxI32, minI32 = int32(1<<31 - 1), int32(-1 << 31)
	tests := []struct {
		name string
		a, b Vector
		eps  int32
		want bool
	}{
		{"opposite extremes small eps", Vector{maxI32}, Vector{minI32}, 5, false},
		{"opposite extremes max eps", Vector{maxI32}, Vector{minI32}, maxI32, false},
		{"extreme vs zero", Vector{maxI32}, Vector{0}, maxI32, true},
		{"extreme vs zero short", Vector{maxI32}, Vector{0}, maxI32 - 1, false},
		{"min vs zero", Vector{minI32}, Vector{0}, maxI32, false}, // distance is 2^31 > MaxInt32
		{"min vs min", Vector{minI32}, Vector{minI32}, 0, true},
		{"adjacent extremes", Vector{maxI32}, Vector{maxI32 - 1}, 1, true},
		{"mixed dims", Vector{maxI32, 0, minI32}, Vector{minI32, 0, maxI32}, 100, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := MatchEpsilon(tc.a, tc.b, tc.eps); got != tc.want {
				t.Errorf("MatchEpsilon(%v, %v, %d) = %v, want %v", tc.a, tc.b, tc.eps, got, tc.want)
			}
			if got := MatchEpsilon(tc.b, tc.a, tc.eps); got != tc.want {
				t.Errorf("MatchEpsilon(%v, %v, %d) = %v, want %v (symmetry)", tc.b, tc.a, tc.eps, got, tc.want)
			}
		})
	}
}

// TestChebyshevDistanceSaturates pins the companion fix: the distance
// accumulates in int64 and saturates the int32 return at MaxInt32
// instead of wrapping negative on extreme spans.
func TestChebyshevDistanceSaturates(t *testing.T) {
	const maxI32, minI32 = int32(1<<31 - 1), int32(-1 << 31)
	if got := ChebyshevDistance(Vector{maxI32}, Vector{minI32}); got != maxI32 {
		t.Errorf("ChebyshevDistance(extremes) = %d, want saturated %d", got, maxI32)
	}
	if got := ChebyshevDistance(Vector{minI32}, Vector{0}); got != maxI32 {
		t.Errorf("ChebyshevDistance(MinInt32, 0) = %d, want saturated %d", got, maxI32)
	}
	// Agreement with MatchEpsilon on extreme inputs: saturated distance
	// still classifies correctly against every representable eps.
	if MatchEpsilon(Vector{maxI32}, Vector{minI32}, maxI32) {
		t.Error("opposite extremes matched under eps=MaxInt32")
	}
}

func TestChebyshevDistance(t *testing.T) {
	a := Vector{1, 5, 9}
	b := Vector{4, 5, 2}
	if got := ChebyshevDistance(a, b); got != 7 {
		t.Fatalf("ChebyshevDistance = %d, want 7", got)
	}
	if got := ChebyshevDistance(a, a); got != 0 {
		t.Fatalf("ChebyshevDistance(a,a) = %d, want 0", got)
	}
}

// Property: MatchEpsilon(a, b, eps) iff ChebyshevDistance(a, b) <= eps.
func TestMatchEpsilonEquivalentToChebyshev(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(32)
		a, b := make(Vector, d), make(Vector, d)
		for i := 0; i < d; i++ {
			a[i] = int32(rng.Intn(100))
			b[i] = int32(rng.Intn(100))
		}
		eps := int32(rng.Intn(100))
		return MatchEpsilon(a, b, eps) == (ChebyshevDistance(a, b) <= eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestL1Distance(t *testing.T) {
	a := Vector{1, 5, 9}
	b := Vector{4, 5, 2}
	if got := L1Distance(a, b); got != 10 {
		t.Fatalf("L1Distance = %d, want 10", got)
	}
}

// Property: per-dimension match implies L1 <= d*eps (the SuperEGO epsilon
// adaptation used by the paper: eps_superego = d*eps).
func TestPerDimMatchImpliesL1Bound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(27)
		eps := int32(1 + rng.Intn(5))
		a, b := make(Vector, d), make(Vector, d)
		for i := 0; i < d; i++ {
			a[i] = int32(rng.Intn(20))
			// Force a match by perturbing within eps.
			delta := int32(rng.Intn(int(2*eps+1))) - eps
			v := a[i] + delta
			if v < 0 {
				v = 0
			}
			b[i] = v
		}
		if !MatchEpsilon(a, b, eps) {
			return false
		}
		return L1Distance(a, b) <= int64(d)*int64(eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVectorSum(t *testing.T) {
	if got := Sum(Vector{3, 1, 4, 1, 5}); got != 14 {
		t.Errorf("Sum = %d, want 14", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("empty vector Sum = %d, want 0", got)
	}
}

func TestVectorSumNoOverflow(t *testing.T) {
	const big = int32(1<<31 - 1)
	v := Vector{big, big, big}
	want := 3 * int64(big)
	if got := Sum(v); got != want {
		t.Errorf("Sum = %d, want %d", got, want)
	}
}

// TestValidate: a profile holds no negative counter, and a community
// is non-empty, within the limits and of one dimensionality. Each limit
// is tried at its bound, where the community must also write and read
// back through the binary format unchanged, and one past it. An error
// stays short whatever the name: ingest returns it to the client.
func TestValidate(t *testing.T) {
	if err := Validate(Vector{0, 1, 2}); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	if err := Validate(Vector{0, -1, 2}); err == nil {
		t.Error("expected error on negative counter")
	}

	one := []Vector{{1, 2}}
	wide := make(Vector, MaxDim)
	// Users share one profile of MaxDim dimensions, so the counter cap
	// is passed without allocating 2 GiB.
	shared := make([]Vector, MaxBinaryPayloadBytes/4/MaxDim+1)
	for i := range shared {
		shared[i] = wide
	}
	for _, c := range []struct {
		name string
		comm Community
		want error // nil: valid
	}{
		{"two users of two dimensions", Community{Name: "ok", Category: -1, Users: []Vector{{1, 2}, {3, 4}}}, nil},
		{"no users", Community{Name: "none"}, ErrEmptyCommunity},
		{"users of zero dimensions", Community{Users: []Vector{{}, {}}}, ErrLimit},
		{"users of MaxDim dimensions", Community{Users: []Vector{wide, wide}}, nil},
		{"a user of MaxDim+1 dimensions", Community{Users: []Vector{make(Vector, MaxDim+1)}}, ErrLimit},
		{"a name of MaxNameBytes", Community{Name: strings.Repeat("n", MaxNameBytes), Users: one}, nil},
		{"a name of MaxNameBytes+1", Community{Name: strings.Repeat("n", MaxNameBytes+1), Users: one}, ErrLimit},
		{"category MaxInt32", Community{Category: math.MaxInt32, Users: one}, nil},
		{"category MinInt32", Community{Category: math.MinInt32, Users: one}, nil},
		{"category MaxInt32+1", Community{Category: math.MaxInt32 + 1, Users: one}, ErrLimit},
		{"category MinInt32-1", Community{Category: math.MinInt32 - 1, Users: one}, ErrLimit},
		{"counters past the cap", Community{Users: shared}, ErrLimit},
		{"ragged users", Community{Users: []Vector{{1, 2}, {3}}}, ErrDimensionMismatch},
		{"ragged users under a name of MaxNameBytes",
			Community{Name: strings.Repeat("n", MaxNameBytes), Users: []Vector{{1, 2}, {3}}}, ErrDimensionMismatch},
		{"a negative counter", Community{Users: []Vector{{1, 2}, {3, -4}}}, ErrNegativeCounter},
	} {
		err := c.comm.Validate()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
			continue
		}
		if err != nil {
			if len(err.Error()) > 200 {
				t.Errorf("%s: a %d-byte error message", c.name, len(err.Error()))
			}
			continue
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, &c.comm); err != nil {
			t.Fatalf("%s: WriteBinary: %v", c.name, err)
		}
		back, err := ReadBinary(&buf)
		if err != nil || !communitiesEqual(back, &c.comm) {
			t.Errorf("%s: the binary form reads back as %v", c.name, err)
		}
	}
}
