package ego

import (
	"math"
	"testing"

	"github.com/opencsj/csj/internal/vector"
)

func comm(users ...vector.Vector) *vector.Community {
	return &vector.Community{Name: "c", Users: users}
}

func TestNormalizerScalesByGlobalMax(t *testing.T) {
	b := comm(vector.Vector{10, 0})
	a := comm(vector.Vector{0, 40})
	n := newNormalizer(b, a, 4, true)
	if n.maxVal != 40 {
		t.Fatalf("maxVal = %v, want 40 (the union maximum)", n.maxVal)
	}
	if n.eps != 0.1 {
		t.Fatalf("normalized eps = %v, want 0.1", n.eps)
	}
	pts := n.normalize(b)
	if pts[0].vals[0] != 0.25 || pts[0].vals[1] != 0 {
		t.Errorf("normalized values = %v, want [0.25 0]", pts[0].vals)
	}
}

func TestMaxCounter(t *testing.T) {
	if got := maxCounter(comm(vector.Vector{1, 20}, vector.Vector{30, 4})); got != 30 {
		t.Errorf("maxCounter = %d, want 30", got)
	}
}

func TestNormalizerAllZeroGuard(t *testing.T) {
	z := comm(vector.Vector{0, 0})
	n := newNormalizer(z, z, 0, false)
	if n.maxVal != 1 {
		t.Fatalf("maxVal = %v, want the 1 guard", n.maxVal)
	}
	if n.grid <= 0 || math.IsInf(n.grid, 0) || math.IsNaN(n.grid) {
		t.Fatalf("grid = %v, want a finite positive cell size", n.grid)
	}
}

func TestNormalizerEpsZeroGridSeparatesDistinctValues(t *testing.T) {
	b := comm(vector.Vector{3}, vector.Vector{4})
	n := newNormalizer(b, b, 0, true)
	pts := n.normalize(b)
	n.assignCells(pts)
	// Distinct counters must land in different cells (so equality-only
	// joins can still prune), and the grid must be at most one unit.
	if pts[0].cells[0] == pts[1].cells[0] {
		t.Error("distinct counters share a cell at eps=0")
	}
	same := n.normalize(comm(vector.Vector{3}, vector.Vector{3}))
	n.assignCells(same)
	if same[0].cells[0] != same[1].cells[0] {
		t.Error("equal counters must share a cell")
	}
}

func TestMatchesPrecisionModes(t *testing.T) {
	b := comm(vector.Vector{100})
	a := comm(vector.Vector{101})
	for _, f64 := range []bool{false, true} {
		n := newNormalizer(b, a, 1, f64)
		bp := n.normalize(b)
		ap := n.normalize(a)
		if !n.matches(bp[0].vals, ap[0].vals) {
			// A boundary pair can round either way; only a systematic
			// failure on both precisions would be suspicious, so just
			// log it.
			t.Logf("float64=%v: boundary pair rejected by rounding (allowed)", f64)
		}
		far := n.normalize(comm(vector.Vector{5}))
		if n.matches(bp[0].vals, far[0].vals) {
			t.Errorf("float64=%v: clearly distant pair matched", f64)
		}
	}
}

func TestApplyOrderPermutesValues(t *testing.T) {
	pts := []point{{vals: []float64{0.1, 0.2, 0.3}}}
	applyOrder(pts, []int{2, 0, 1})
	want := []float64{0.3, 0.1, 0.2}
	for i, v := range pts[0].vals {
		if v != want[i] {
			t.Fatalf("vals = %v, want %v", pts[0].vals, want)
		}
	}
	// nil order is a no-op.
	applyOrder(pts, nil)
	for i, v := range pts[0].vals {
		if v != want[i] {
			t.Fatalf("nil order changed values: %v", pts[0].vals)
		}
	}
}

func TestSegmentBoundingBox(t *testing.T) {
	pts := []point{
		{cells: []int64{1, 9}},
		{cells: []int64{4, 2}},
		{cells: []int64{3, 5}},
	}
	s := newSegment(pts, 2)
	if s.cLo[0] != 1 || s.cHi[0] != 4 || s.cLo[1] != 2 || s.cHi[1] != 9 {
		t.Errorf("bbox = [%v %v]..[%v %v]", s.cLo[0], s.cLo[1], s.cHi[0], s.cHi[1])
	}
	left, right := s.split(2)
	if len(left.pts)+len(right.pts) != 3 {
		t.Error("split lost points")
	}
}

func TestEgoStrategySlack(t *testing.T) {
	j := &joiner{d: 1, opts: Options{}}
	mk := func(lo, hi int64) segment {
		return segment{cLo: []int64{lo}, cHi: []int64{hi}}
	}
	// Adjacent cells (gap 1): never prunable.
	b, a := mk(0, 0), mk(1, 1)
	if j.egoStrategy(&b, &a) {
		t.Error("adjacent cells must not prune")
	}
	// Gap 2: prunable in normal mode...
	a2 := mk(2, 2)
	if !j.egoStrategy(&b, &a2) {
		t.Error("gap-2 cells should prune")
	}
	// ...but not with the VerifyInteger slack.
	j.opts.VerifyInteger = true
	if j.egoStrategy(&b, &a2) {
		t.Error("gap-2 cells must not prune with integer-verified slack")
	}
	a3 := mk(3, 3)
	if !j.egoStrategy(&b, &a3) {
		t.Error("gap-3 cells should prune even with slack")
	}
	// DisablePruning overrides everything.
	j.opts.DisablePruning = true
	if j.egoStrategy(&b, &a3) {
		t.Error("DisablePruning must suppress all prunes")
	}
}
