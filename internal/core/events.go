// Package core implements the paper's primary contribution: the
// Ap-MinMax and Ex-MinMax algorithms (Sections 4.1 and 4.2), built on
// the MinMax encoding scheme. The scan loops emit the paper's five
// pairing events — MIN PRUNE, MAX PRUNE, NO OVERLAP, NO MATCH, MATCH —
// which are counted in Events and, by ScanAp and ScanEx, optionally
// recorded in a Trace (the golden tests replay the paper's Figures 2
// and 3 exactly).
package core

import "fmt"

// EventKind identifies one of the pairing events of the MinMax
// algorithms, plus the CSF flush of Ex-MinMax.
type EventKind uint8

const (
	// EvMinPrune: the current B user cannot match this or any later A
	// user (encoded_ID < encoded_Min); the scan advances to the next B.
	EvMinPrune EventKind = iota
	// EvMaxPrune: the current A user cannot match this or any later B
	// user (encoded_ID > encoded_Max); the offset may advance past it.
	EvMaxPrune
	// EvNoOverlap: the encoded window admitted the pair but some part of
	// B fell outside the corresponding range of A; the d-dimensional
	// comparison is skipped.
	EvNoOverlap
	// EvNoMatch: the d-dimensional comparison ran and found a dimension
	// whose absolute difference exceeds epsilon.
	EvNoMatch
	// EvMatch: the d-dimensional comparison matched the pair.
	EvMatch
	// EvCSFFlush: Ex-MinMax closed a segment and handed its match graph
	// to the CSF (or other) matcher.
	EvCSFFlush
)

// String returns the paper's name for the event.
func (k EventKind) String() string {
	switch k {
	case EvMinPrune:
		return "MIN PRUNE"
	case EvMaxPrune:
		return "MAX PRUNE"
	case EvNoOverlap:
		return "NO OVERLAP"
	case EvNoMatch:
		return "NO MATCH"
	case EvMatch:
		return "MATCH"
	case EvCSFFlush:
		return "CSF"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Events counts the pairing events of one MinMax run. It also serves as
// the statistics block of the Baseline and SuperEGO competitors, which
// emit the subset of events that exists for them.
type Events struct {
	// MinPrunes and MaxPrunes count the MinMax window prunes.
	MinPrunes int64
	MaxPrunes int64
	// NoOverlaps counts candidate pairs rejected by the part/range
	// overlap check without a d-dimensional comparison.
	NoOverlaps int64
	// NoMatches and Matches count d-dimensional comparisons by outcome.
	NoMatches int64
	Matches   int64
	// CSFCalls counts segment flushes of the exact algorithms.
	CSFCalls int64
	// EGOPrunes counts segment pairs pruned by SuperEGO's EGO-Strategy
	// (always 0 for MinMax and Baseline).
	EGOPrunes int64
	// OffsetAdvances counts how often the skip/offset mechanism moved the
	// scan start past a max-pruned or consumed A entry.
	OffsetAdvances int64
}

// Comparisons returns the number of d-dimensional vector comparisons
// performed (the expensive operation the encoding scheme tries to
// avoid).
func (e *Events) Comparisons() int64 { return e.NoMatches + e.Matches }

// MetricName is the stable identifier of an event counter in external
// aggregators (Prometheus exposition). The names are the snake_case
// forms of the paper's event names plus the two bookkeeping counters.
func (k EventKind) MetricName() string {
	switch k {
	case EvMinPrune:
		return "min_prune"
	case EvMaxPrune:
		return "max_prune"
	case EvNoOverlap:
		return "no_overlap"
	case EvNoMatch:
		return "no_match"
	case EvMatch:
		return "match"
	case EvCSFFlush:
		return "csf_flush"
	default:
		return fmt.Sprintf("event_kind_%d", uint8(k))
	}
}

// MetricNames lists every name AddTo emits, in emission order. External
// aggregators pre-register one counter per name so that feeding a
// finished join's tallies stays allocation-free.
var MetricNames = []string{
	EvMinPrune.MetricName(), EvMaxPrune.MetricName(), EvNoOverlap.MetricName(),
	EvNoMatch.MetricName(), EvMatch.MetricName(), EvCSFFlush.MetricName(),
	"ego_prune", "offset_advance",
}

// AddTo feeds the event counts of a finished join to an external
// aggregator under their MetricNames. This is the bridge between the
// scan loops and the metrics layer: the hot loops keep tallying into
// Events (one integer add per event), and the aggregation happens once
// per join, after the scan — so the prepared scan path stays
// allocation-free. add must not retain the name strings beyond the
// call (they are constants; this is trivially satisfied).
func (e *Events) AddTo(add func(name string, n int64)) {
	add(MetricNames[0], e.MinPrunes)
	add(MetricNames[1], e.MaxPrunes)
	add(MetricNames[2], e.NoOverlaps)
	add(MetricNames[3], e.NoMatches)
	add(MetricNames[4], e.Matches)
	add(MetricNames[5], e.CSFCalls)
	add(MetricNames[6], e.EGOPrunes)
	add(MetricNames[7], e.OffsetAdvances)
}

// TraceEvent is one entry of an execution trace. BPos and APos are
// positions in the sorted Encd_B / Encd_A buffers (not real user IDs);
// -1 marks "not applicable" (e.g. the A side of a CSF flush).
type TraceEvent struct {
	Kind EventKind
	BPos int
	APos int
}

// Trace records the full event sequence of a reference scan, passed to
// ScanAp or ScanEx. It exists for debugging, teaching, and the Figure
// 2/3 golden tests. The joins record none: the one-shot joins run the
// same scans untraced, and the prepared joins' sweeps classify in bulk.
type Trace struct {
	Events []TraceEvent
}

func (t *Trace) add(kind EventKind, bPos, aPos int) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, TraceEvent{Kind: kind, BPos: bPos, APos: aPos})
}
