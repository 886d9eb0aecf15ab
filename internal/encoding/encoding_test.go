package encoding

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/opencsj/csj/internal/vector"
)

func TestNewLayoutSizes(t *testing.T) {
	tests := []struct {
		d, parts int
		want     []int // part sizes
	}{
		{27, 4, []int{6, 7, 7, 7}}, // the paper's Figure 1 segmentation
		{27, 1, []int{27}},
		{27, 27, repeat(1, 27)},
		{8, 4, []int{2, 2, 2, 2}},
		{10, 3, []int{3, 3, 4}},
		{5, 2, []int{2, 3}},
		{1, 1, []int{1}},
	}
	for _, tc := range tests {
		l, err := NewLayout(tc.d, tc.parts)
		if err != nil {
			t.Fatalf("NewLayout(%d, %d): %v", tc.d, tc.parts, err)
		}
		if l.Dim() != tc.d || l.Parts() != tc.parts {
			t.Errorf("Dim=%d Parts=%d, want %d, %d", l.Dim(), l.Parts(), tc.d, tc.parts)
		}
		for p := 0; p < tc.parts; p++ {
			lo, hi := l.Bounds(p)
			if hi-lo != tc.want[p] {
				t.Errorf("d=%d parts=%d: part %d size %d, want %d", tc.d, tc.parts, p, hi-lo, tc.want[p])
			}
		}
		// Parts must tile [0, d) exactly.
		if lo, _ := l.Bounds(0); lo != 0 {
			t.Errorf("first part must start at 0")
		}
		if _, hi := l.Bounds(tc.parts - 1); hi != tc.d {
			t.Errorf("last part must end at d=%d, got %d", tc.d, hi)
		}
	}
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestNewLayoutRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct{ d, parts int }{{0, 1}, {-3, 1}, {5, 0}, {5, 6}, {5, -1}} {
		if _, err := NewLayout(tc.d, tc.parts); err == nil {
			t.Errorf("NewLayout(%d, %d): expected error", tc.d, tc.parts)
		}
	}
}

// TestResolveParts pins the one part-count rule the engines and the
// match-spec digest share: 0 is the paper's default, a count above d
// clamps to d, and a negative count is an error.
func TestResolveParts(t *testing.T) {
	for _, tc := range []struct{ parts, d, want int }{
		{0, 27, DefaultParts}, {0, 3, 3}, {2, 6, 2}, {9, 6, 6}, {6, 6, 6},
	} {
		if got, err := ResolveParts(tc.parts, tc.d); err != nil || got != tc.want {
			t.Errorf("ResolveParts(%d, %d) = %d, %v; want %d", tc.parts, tc.d, got, err, tc.want)
		}
	}
	for _, parts := range []int{-1, -4} {
		if got, err := ResolveParts(parts, 6); err == nil {
			t.Errorf("ResolveParts(%d, 6) = %d; want an error", parts, got)
		}
	}
}

// figure1Vector is the exact 27-dimensional user vector from the paper's
// Figure 1.
var figure1Vector = vector.Vector{
	1, 0, 0, 0, 2, 2,
	0, 0, 2, 1, 1, 5, 4,
	0, 3, 0, 0, 1, 4, 1,
	0, 3, 5, 4, 1, 2, 4,
}

// TestFigure1Encoding reproduces the paper's Figure 1 numbers exactly:
// parts 5, 13, 9, 19; encoded_ID 46; ranges [2,11], [8,20], [5,16],
// [13,26]; encoded_Min 28; encoded_Max 73 (eps = 1, d = 27, 4 parts).
func TestFigure1Encoding(t *testing.T) {
	l, err := NewLayout(27, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := &vector.Community{Name: "fig1", Users: []vector.Vector{figure1Vector}}

	bb := EncodeB(c, l)
	eB := bb.Entries[0]
	if eB.ID != 46 {
		t.Errorf("encoded_ID = %d, want 46", eB.ID)
	}
	wantParts := []int64{5, 13, 9, 19}
	for p, s := range eB.Parts {
		if s != wantParts[p] {
			t.Errorf("part %d = %d, want %d", p+1, s, wantParts[p])
		}
	}

	ab := EncodeA(c, l, vector.UniformEps(1))
	eA := ab.Entries[0]
	if eA.Min != 28 || eA.Max != 73 {
		t.Errorf("encoded_Min/Max = %d/%d, want 28/73", eA.Min, eA.Max)
	}
	wantLo := []int64{2, 8, 5, 13}
	wantHi := []int64{11, 20, 16, 26}
	for p := range wantLo {
		if eA.RangeLo[p] != wantLo[p] || eA.RangeHi[p] != wantHi[p] {
			t.Errorf("range %d = [%d,%d], want [%d,%d]",
				p+1, eA.RangeLo[p], eA.RangeHi[p], wantLo[p], wantHi[p])
		}
	}

	// A user trivially matches itself, so the figure's consistency claims
	// must hold: the encoded_ID falls within [Min, Max] and each part
	// falls within its range.
	if eB.ID < eA.Min || eB.ID > eA.Max {
		t.Error("encoded_ID of a user must lie within its own [Min, Max]")
	}
	if !PartsOverlap(&eB, &eA) {
		t.Error("a user's parts must overlap its own ranges")
	}
}

// TestEncodeBuffersAreSorted: Encd_B ascends on encoded_ID and Encd_A
// on encoded_Min, and equal keys keep ascending Ref, so a community
// encodes to one order however its ties fall. The second input draws
// counters from [0, 3) over 4 dimensions, so most keys are tied.
func TestEncodeBuffersAreSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, in := range []struct{ d, max, parts int }{{27, 50, 4}, {4, 3, 2}} {
		users := make([]vector.Vector, 200)
		for i := range users {
			u := make(vector.Vector, in.d)
			for j := range u {
				u[j] = int32(rng.Intn(in.max))
			}
			users[i] = u
		}
		c := &vector.Community{Name: "c", Users: users}
		l, _ := NewLayout(in.d, in.parts)

		bb := EncodeB(c, l)
		ties := 0
		for i := 1; i < len(bb.Entries); i++ {
			prev, cur := &bb.Entries[i-1], &bb.Entries[i]
			if prev.ID > cur.ID {
				t.Fatalf("d=%d: Encd_B not ascending-sorted on encoded_ID", in.d)
			}
			if prev.ID == cur.ID {
				ties++
				if prev.Ref > cur.Ref {
					t.Fatalf("d=%d: Encd_B entries %d and %d tie on encoded_ID %d but hold Refs %d, %d",
						in.d, i-1, i, cur.ID, prev.Ref, cur.Ref)
				}
			}
		}
		ab := EncodeA(c, l, vector.UniformEps(1))
		for i := 1; i < len(ab.Entries); i++ {
			prev, cur := &ab.Entries[i-1], &ab.Entries[i]
			if prev.Min > cur.Min {
				t.Fatalf("d=%d: Encd_A not ascending-sorted on encoded_Min", in.d)
			}
			if prev.Min == cur.Min && prev.Ref > cur.Ref {
				t.Fatalf("d=%d: Encd_A entries %d and %d tie on encoded_Min %d but hold Refs %d, %d",
					in.d, i-1, i, cur.Min, prev.Ref, cur.Ref)
			}
		}
		if in.max == 3 && ties == 0 {
			t.Fatal("the tie-prone input encoded no tied IDs")
		}
	}
}

func TestEncodeClampsRangesAtZero(t *testing.T) {
	l, _ := NewLayout(3, 1)
	c := &vector.Community{Name: "c", Users: []vector.Vector{{0, 1, 5}}}
	ab := EncodeA(c, l, vector.UniformEps(2))
	e := ab.Entries[0]
	// Per-dimension ranges: [0,2], [0,3], [3,7] -> part range [3, 12].
	if e.RangeLo[0] != 3 || e.RangeHi[0] != 12 {
		t.Errorf("range = [%d,%d], want [3,12]", e.RangeLo[0], e.RangeHi[0])
	}
	if e.Min != 3 || e.Max != 12 {
		t.Errorf("Min/Max = %d/%d, want 3/12", e.Min, e.Max)
	}
}

// Property (no false misses): whenever b matches a per dimension, the
// encoding admits the pair — encoded_ID within [Min, Max] and every part
// within its range. This is the invariant all MinMax pruning relies on.
func TestEncodingNeverFalseMisses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(32)
		parts := 1 + rng.Intn(d)
		eps := int32(rng.Intn(4))
		l, err := NewLayout(d, parts)
		if err != nil {
			return false
		}
		a := make(vector.Vector, d)
		for j := range a {
			a[j] = int32(rng.Intn(10))
		}
		// Construct b as a within-eps perturbation of a, so the pair
		// matches by construction.
		b := make(vector.Vector, d)
		for j := range b {
			delta := int32(rng.Intn(int(2*eps+1))) - eps
			v := a[j] + delta
			if v < 0 {
				v = 0
			}
			b[j] = v
		}
		if !vector.MatchEpsilon(b, a, eps) {
			return false
		}
		cb := &vector.Community{Name: "b", Users: []vector.Vector{b}}
		ca := &vector.Community{Name: "a", Users: []vector.Vector{a}}
		eB := EncodeB(cb, l).Entries[0]
		eA := EncodeA(ca, l, vector.UniformEps(eps)).Entries[0]
		if eB.ID < eA.Min || eB.ID > eA.Max {
			return false
		}
		return PartsOverlap(&eB, &eA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the encoded interval is tight — ID == sum(parts), Min ==
// sum(RangeLo), Max == sum(RangeHi), and for eps=0 the A entry collapses
// to the B entry of the same user.
func TestEncodingInternalConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(32)
		parts := 1 + rng.Intn(d)
		l, err := NewLayout(d, parts)
		if err != nil {
			return false
		}
		u := make(vector.Vector, d)
		for j := range u {
			u[j] = int32(rng.Intn(1000))
		}
		c := &vector.Community{Name: "c", Users: []vector.Vector{u}}
		eB := EncodeB(c, l).Entries[0]
		var sum int64
		for _, p := range eB.Parts {
			sum += p
		}
		if eB.ID != sum || eB.ID != vector.Sum(u) {
			return false
		}
		eA := EncodeA(c, l, vector.UniformEps(0)).Entries[0]
		var lo, hi int64
		for p := range eA.RangeLo {
			lo += eA.RangeLo[p]
			hi += eA.RangeHi[p]
		}
		if eA.Min != lo || eA.Max != hi {
			return false
		}
		// eps=0: ranges collapse to the exact part sums.
		if eA.Min != eB.ID || eA.Max != eB.ID {
			return false
		}
		for p := range eA.RangeLo {
			if eA.RangeLo[p] != eB.Parts[p] || eA.RangeHi[p] != eB.Parts[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartsOverlapRejects(t *testing.T) {
	l, _ := NewLayout(4, 2)
	cb := &vector.Community{Name: "b", Users: []vector.Vector{{10, 10, 0, 0}}}
	ca := &vector.Community{Name: "a", Users: []vector.Vector{{0, 0, 10, 10}}}
	eB := EncodeB(cb, l).Entries[0]
	eA := EncodeA(ca, l, vector.UniformEps(1)).Entries[0]
	// Same encoded_ID (20) and overlapping [Min, Max], but the parts are
	// disjoint from the ranges: the NO OVERLAP check must fire.
	if eB.ID < eA.Min || eB.ID > eA.Max {
		t.Fatal("test setup: encoded_ID should fall inside [Min, Max]")
	}
	if PartsOverlap(&eB, &eA) {
		t.Error("PartsOverlap should reject disjoint part profiles")
	}
}

func TestEncodeRefsAreStable(t *testing.T) {
	// Refs must index the original Users slice even after sorting.
	users := []vector.Vector{{9}, {1}, {5}}
	c := &vector.Community{Name: "c", Users: users}
	l, _ := NewLayout(1, 1)
	bb := EncodeB(c, l)
	for _, e := range bb.Entries {
		if int64(users[e.Ref][0]) != e.ID {
			t.Errorf("entry ID %d does not match Users[%d]", e.ID, e.Ref)
		}
	}
	if bb.Entries[0].ID != 1 || bb.Entries[2].ID != 9 {
		t.Error("Encd_B should be sorted ascending")
	}
}
