package core

import (
	"fmt"
	"testing"

	"github.com/opencsj/csj/internal/matching"
)

// scriptedComparer replays predetermined outcomes for candidate pairs.
// The paper's Figures 2 and 3 specify entries only by their encoded
// numbers, so the golden trace tests script the NO OVERLAP / NO MATCH /
// MATCH outcomes instead of crafting full vectors.
type scriptedComparer struct {
	t        *testing.T
	outcomes map[[2]int]Outcome
}

func (c *scriptedComparer) Compare(bPos, aPos int) Outcome {
	out, ok := c.outcomes[[2]int{bPos, aPos}]
	if !ok {
		c.t.Fatalf("unexpected Compare(b%d, a%d)", bPos+1, aPos+1)
	}
	return out
}

// ev is shorthand for building expected traces. Positions are 1-based to
// mirror the paper's b1..b5 / a1..a5 labels.
func ev(kind EventKind, b, a int) TraceEvent {
	return TraceEvent{Kind: kind, BPos: b - 1, APos: a - 1}
}

func checkTrace(t *testing.T, got, want []TraceEvent) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("trace event %d = %s(b%d, a%d), want %s(b%d, a%d)",
				i, got[i].Kind, got[i].BPos+1, got[i].APos+1,
				want[i].Kind, want[i].BPos+1, want[i].APos+1)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("trace has %d events, want %d\ngot: %v", len(got), len(want), traceString(got))
	}
}

func traceString(evs []TraceEvent) string {
	s := ""
	for _, e := range evs {
		s += fmt.Sprintf("%s(b%d,a%d) ", e.Kind, e.BPos+1, e.APos+1)
	}
	return s
}

// TestFigure2ApMinMaxTrace replays the paper's Figure 2 — the running
// example of Approximate MinMax — and checks the exact event sequence,
// the matched pairs {<b2,a3>, <b5,a5>}, and the 40% similarity.
func TestFigure2ApMinMaxTrace(t *testing.T) {
	in := &Input{
		BID:  []int64{40, 48, 67, 71, 74},
		AMin: []int64{30, 33, 42, 45, 50},
		AMax: []int64{55, 60, 72, 73, 80},
	}
	in.Cmp = &scriptedComparer{t: t, outcomes: map[[2]int]Outcome{
		{0, 0}: OutcomeNoOverlap, // b1 IN a1 => NO OVERLAP
		{0, 1}: OutcomeNoOverlap, // b1 IN a2 => NO OVERLAP
		{1, 0}: OutcomeNoMatch,   // b2 IN a1 => NO MATCH
		{1, 1}: OutcomeNoMatch,   // b2 IN a2 => NO MATCH
		{1, 2}: OutcomeMatch,     // b2 IN a3 => MATCH
		{2, 3}: OutcomeNoMatch,   // b3 IN a4 => NO MATCH
		{2, 4}: OutcomeNoOverlap, // b3 IN a5 => NO OVERLAP
		{3, 3}: OutcomeNoOverlap, // b4 IN a4 => NO OVERLAP
		{3, 4}: OutcomeNoMatch,   // b4 IN a5 => NO MATCH
		{4, 4}: OutcomeMatch,     // b5 IN a5 => MATCH
	}}

	var events Events
	trace := &Trace{}
	pairs, _ := apScan(in, &events, trace)

	want := []TraceEvent{
		// Instance <<1>>: b1 no-overlaps a1 and a2, then a3 min-prunes it.
		ev(EvNoOverlap, 1, 1), ev(EvNoOverlap, 1, 2), ev(EvMinPrune, 1, 3),
		// Instance <<2>>: b2 fails on a1 and a2, matches a3.
		ev(EvNoMatch, 2, 1), ev(EvNoMatch, 2, 2), ev(EvMatch, 2, 3),
		// Instances <<3>>, <<4>>: b3 max-prunes a1 and a2 (offset moves).
		ev(EvMaxPrune, 3, 1), ev(EvMaxPrune, 3, 2),
		// Instance <<5>>: a3 is consumed (offset skips it silently), then
		// b3 fails on a4 and no-overlaps a5.
		ev(EvNoMatch, 3, 4), ev(EvNoOverlap, 3, 5),
		// Instance <<6>>: b4 starts from the offset moved by b3.
		ev(EvNoOverlap, 4, 4), ev(EvNoMatch, 4, 5),
		// Instance <<7>>: b5 max-prunes a4.
		ev(EvMaxPrune, 5, 4),
		// Instance <<8>>: b5 matches a5.
		ev(EvMatch, 5, 5),
	}
	checkTrace(t, trace.Events, want)

	wantPairs := [][2]int{{1, 2}, {4, 4}} // <b2,a3>, <b5,a5> (0-based positions)
	if len(pairs) != len(wantPairs) {
		t.Fatalf("pairs = %v, want %v", pairs, wantPairs)
	}
	for i := range pairs {
		if pairs[i] != wantPairs[i] {
			t.Fatalf("pair %d = %v, want %v", i, pairs[i], wantPairs[i])
		}
	}
	if sim := float64(len(pairs)) / 5; sim != 0.40 {
		t.Errorf("similarity = %.2f, want 0.40", sim)
	}
	wantEvents := Events{MinPrunes: 1, MaxPrunes: 3, NoOverlaps: 4, NoMatches: 4, Matches: 2, OffsetAdvances: 4}
	if events != wantEvents {
		t.Errorf("events = %+v, want %+v", events, wantEvents)
	}
}

// TestFigure3ExMinMaxTrace replays the paper's Figure 3 — the running
// example of Exact MinMax — checking the event sequence including both
// CSF segment flushes, and the final 3 matches (60% similarity).
//
// Note: the figure's display drops entries that were flushed by CSF or
// max-pruned; the underlying algorithm still emits MAX PRUNE events when
// the scan walks over them (e.g. b2 over a1 and a3), and those appear in
// the trace below.
func TestFigure3ExMinMaxTrace(t *testing.T) {
	in := &Input{
		BID:  []int64{40, 58, 67, 74, 81},
		AMin: []int64{30, 33, 38, 45, 50},
		AMax: []int64{55, 60, 57, 73, 80},
	}
	in.Cmp = &scriptedComparer{t: t, outcomes: map[[2]int]Outcome{
		{0, 0}: OutcomeMatch,     // b1 IN a1 => MATCH (maxV = 55)
		{0, 1}: OutcomeNoOverlap, // b1 IN a2 => NO OVERLAP
		{0, 2}: OutcomeMatch,     // b1 IN a3 => MATCH (maxV = 57)
		{1, 1}: OutcomeMatch,     // b2 IN a2 => MATCH (maxV = 60)
		{1, 3}: OutcomeMatch,     // b2 IN a4 => MATCH (maxV = 73)
		{1, 4}: OutcomeNoMatch,   // b2 IN a5 => NO MATCH
		{2, 3}: OutcomeMatch,     // b3 IN a4 => MATCH (maxV = 73)
		{2, 4}: OutcomeNoMatch,   // b3 IN a5 => NO MATCH
		{3, 4}: OutcomeNoOverlap, // b4 IN a5 => NO OVERLAP
	}}

	var events Events
	trace := &Trace{}
	pairs, _ := exScan(in, matching.CSF, &events, trace)

	flush := TraceEvent{Kind: EvCSFFlush, BPos: -1, APos: -1}
	want := []TraceEvent{
		// Instance <<1>>: b1 matches a1 and a3, is min-pruned by a4; b2's
		// ID (58) exceeds maxV (57), so the segment flushes through CSF.
		ev(EvMatch, 1, 1), ev(EvNoOverlap, 1, 2), ev(EvMatch, 1, 3), ev(EvMinPrune, 1, 4),
		flush,
		// Instance <<2>>: b2 walks over the flushed a1 (MAX PRUNE, offset
		// moves), matches a2 and a4, max-prunes the flushed a3 in between,
		// fails on a5. b3's ID (67) is below maxV (73): no flush.
		ev(EvMaxPrune, 2, 1), ev(EvMatch, 2, 2), ev(EvMaxPrune, 2, 3),
		ev(EvMatch, 2, 4), ev(EvNoMatch, 2, 5),
		// Instances <<3>>, <<4>>: b3 max-prunes a2 and a3 (offset moves),
		// matches a4, fails on a5. b4's ID (74) exceeds maxV (73): flush.
		ev(EvMaxPrune, 3, 2), ev(EvMaxPrune, 3, 3),
		ev(EvMatch, 3, 4), ev(EvNoMatch, 3, 5),
		flush,
		// Instance <<5>>: b4 max-prunes a4, no-overlaps a5.
		ev(EvMaxPrune, 4, 4), ev(EvNoOverlap, 4, 5),
		// Instance <<6>>: b5 max-prunes a5.
		ev(EvMaxPrune, 5, 5),
	}
	checkTrace(t, trace.Events, want)

	// The first CSF call covers one of {<b1,a1>, <b1,a3>}; the second
	// covers two of {<b2,a2>, <b2,a4>, <b3,a4>}: three matches in total,
	// similarity 3/5 = 60%.
	if len(pairs) != 3 {
		t.Fatalf("found %d pairs, want 3 (got %v)", len(pairs), pairs)
	}
	bsSeen := map[int]bool{}
	asSeen := map[int]bool{}
	for _, p := range pairs {
		if bsSeen[p[0]] || asSeen[p[1]] {
			t.Fatalf("pairs %v are not one-to-one", pairs)
		}
		bsSeen[p[0]], asSeen[p[1]] = true, true
	}
	if !bsSeen[0] {
		t.Error("b1 must be covered by the first CSF call")
	}
	if !bsSeen[1] || !bsSeen[2] {
		t.Error("b2 and b3 must both be covered by the second CSF call")
	}
	wantEvents := Events{
		MinPrunes: 1, MaxPrunes: 6, NoOverlaps: 2, NoMatches: 2, Matches: 5,
		CSFCalls: 2, OffsetAdvances: 5,
	}
	if events != wantEvents {
		t.Errorf("events = %+v, want %+v", events, wantEvents)
	}
}
