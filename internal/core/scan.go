package core

import (
	"errors"

	"github.com/opencsj/csj/internal/matching"
)

// ErrCanceled reports that a scan stopped at a cancellation checkpoint
// before completing. The public API maps it back to the context error
// that triggered it.
var ErrCanceled = errors.New("core: scan canceled")

// cancelCheckEvery is how many scan steps — outer B rows plus inner
// window iterations — pass between cancellation checkpoints. The budget
// is carried across rows within a join (a single decrement-and-test per
// step), so the poll cadence is bounded by work actually done rather
// than by row count: a join of few B rows against huge A windows polls
// just as often as one of many tiny rows. At this stride the
// non-blocking channel poll is amortized to noise while bounding
// post-cancel work to one stride of candidate checks.
//
// (An earlier version counted only outer rows, which reset the stride's
// meaning per row shape: wide-window workloads could run 256·|A| steps
// between polls.)
const cancelCheckEvery = 256

// canceled polls a Done channel without blocking or allocating. A nil
// channel (no cancellation requested) is never canceled.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Outcome classifies a candidate pair whose encoded window admitted it.
type Outcome uint8

const (
	// OutcomeNoOverlap: some part of B fell outside the corresponding
	// range of A; no d-dimensional comparison was needed.
	OutcomeNoOverlap Outcome = iota
	// OutcomeNoMatch: the d-dimensional comparison failed.
	OutcomeNoMatch
	// OutcomeMatch: the d-dimensional comparison matched.
	OutcomeMatch
)

// Comparer classifies candidate pairs for the reference scan loops.
// bPos and aPos are positions in the sorted buffers. The one-shot joins
// use encComparer, which checks part/range overlap and then the
// per-dimension epsilon condition; tests inject scripted comparers to
// replay the paper's figures.
type Comparer interface {
	Compare(bPos, aPos int) Outcome
}

// Input is the sorted, encoded view of a community pair that the scan
// loops operate on: B's encoded IDs ascending, A's encoded [Min, Max]
// windows ascending by Min, and a Comparer for the candidate pairs.
// The fused sweeps of the prepared joins classify from the views' SoA
// streams instead and leave Cmp nil.
type Input struct {
	BID        []int64
	AMin, AMax []int64
	Cmp        Comparer
	// DisableSkipOffset turns off the skip/offset fast-forwarding (an
	// ablation; results are unchanged, only work increases).
	DisableSkipOffset bool
	// Done, when non-nil, requests cooperative cancellation: the scan
	// loops poll it every cancelCheckEvery scan steps (outer rows plus
	// window iterations, budget carried across rows) and return
	// ErrCanceled once it is closed. A nil Done adds no work beyond one
	// predictable decrement-and-branch per step.
	Done <-chan struct{}
}

// ScanAp runs the approximate MinMax pairing process on a prepared
// Input. It is the algorithm behind ApMinMax, exposed for callers that
// bring their own encoded view (figure replays, instrumentation,
// incremental maintenance). It returns matched (bPos, aPos) position
// pairs into the sorted buffers, or ErrCanceled if in.Done closed
// before the scan completed.
func ScanAp(in *Input, ev *Events, tr *Trace) ([][2]int, error) {
	return apScan(in, ev, tr)
}

// ScanEx runs the exact MinMax pairing process on a prepared Input,
// resolving segments with the given matcher (nil selects CSF). See
// ScanAp for intended uses and cancellation semantics.
func ScanEx(in *Input, matcher matching.Matcher, ev *Events, tr *Trace) ([][2]int, error) {
	if matcher == nil {
		matcher = matching.CSF
	}
	return exScan(in, matcher, ev, tr)
}

// apScan runs the approximate MinMax pairing process (Algorithm
// Ap-MinMax, lines 5-13). It returns the matched (bPos, aPos) position
// pairs. A matched A entry is consumed: the scan proceeds with the next
// B user and the entry is skipped from then on, which is what makes the
// method approximate (greedy first-match, possible false misses).
func apScan(in *Input, ev *Events, tr *Trace) ([][2]int, error) {
	var pairs [][2]int
	used := make([]bool, len(in.AMin))
	offset := 0
	budget := cancelCheckEvery
	for bi := range in.BID {
		if budget--; budget <= 0 {
			if canceled(in.Done) {
				return nil, ErrCanceled
			}
			budget = cancelCheckEvery
		}
		skip := true
		id := in.BID[bi]
	scanA:
		for ai := offset; ai < len(in.AMin); ai++ {
			if budget--; budget <= 0 {
				if canceled(in.Done) {
					return nil, ErrCanceled
				}
				budget = cancelCheckEvery
			}
			if used[ai] {
				if skip && !in.DisableSkipOffset {
					offset = ai + 1
					ev.OffsetAdvances++
				}
				continue
			}
			switch {
			case id < in.AMin[ai]:
				// MIN PRUNE: every later A entry has an even larger Min.
				ev.MinPrunes++
				tr.add(EvMinPrune, bi, ai)
				break scanA
			case id <= in.AMax[ai]:
				outcome := in.Cmp.Compare(bi, ai)
				skip = false // a comparison took place, even a part-range one
				switch outcome {
				case OutcomeNoOverlap:
					ev.NoOverlaps++
					tr.add(EvNoOverlap, bi, ai)
				case OutcomeNoMatch:
					ev.NoMatches++
					tr.add(EvNoMatch, bi, ai)
				case OutcomeMatch:
					ev.Matches++
					tr.add(EvMatch, bi, ai)
					used[ai] = true
					pairs = append(pairs, [2]int{bi, ai})
					break scanA // greedy: first match wins, go to next B
				}
			default: // id > in.AMax[ai]
				// MAX PRUNE: every later B user has an even larger ID, so
				// this A entry is dead weight; consume it into the offset
				// while the skip flag is still armed.
				ev.MaxPrunes++
				tr.add(EvMaxPrune, bi, ai)
				if skip && !in.DisableSkipOffset {
					offset = ai + 1
					ev.OffsetAdvances++
				}
			}
		}
	}
	return pairs, nil
}

// exScan runs the exact MinMax pairing process (Algorithm Ex-MinMax).
// Unlike apScan it records every match of the current B user, tracks
// maxV (the largest encoded_Max over matched A users of the open
// segment), and flushes the segment through the matcher as soon as the
// next B user's encoded ID exceeds maxV — at that point no future B user
// can reach any matched A user, so the segment is safely closed (no
// false misses). It returns matched (bPos, aPos) position pairs.
func exScan(in *Input, matcher matching.Matcher, ev *Events, tr *Trace) ([][2]int, error) {
	var out [][2]int
	g := matching.NewGraph()
	flush := func() {
		if g.Edges() == 0 {
			return
		}
		ev.CSFCalls++
		tr.add(EvCSFFlush, -1, -1)
		for _, p := range matcher(g) {
			out = append(out, [2]int{int(p.B), int(p.A)})
		}
		g.Reset()
	}
	offset := 0
	budget := cancelCheckEvery
	var maxV int64
	for bi := range in.BID {
		if budget--; budget <= 0 {
			if canceled(in.Done) {
				return nil, ErrCanceled
			}
			budget = cancelCheckEvery
		}
		skip := true
		id := in.BID[bi]
	scanA:
		for ai := offset; ai < len(in.AMin); ai++ {
			if budget--; budget <= 0 {
				if canceled(in.Done) {
					return nil, ErrCanceled
				}
				budget = cancelCheckEvery
			}
			switch {
			case id < in.AMin[ai]:
				ev.MinPrunes++
				tr.add(EvMinPrune, bi, ai)
				break scanA
			case id <= in.AMax[ai]:
				outcome := in.Cmp.Compare(bi, ai)
				skip = false
				switch outcome {
				case OutcomeNoOverlap:
					ev.NoOverlaps++
					tr.add(EvNoOverlap, bi, ai)
				case OutcomeNoMatch:
					ev.NoMatches++
					tr.add(EvNoMatch, bi, ai)
				case OutcomeMatch:
					ev.Matches++
					tr.add(EvMatch, bi, ai)
					g.AddEdge(int32(bi), int32(ai))
					if in.AMax[ai] > maxV {
						maxV = in.AMax[ai]
					}
				}
			default: // id > in.AMax[ai]
				ev.MaxPrunes++
				tr.add(EvMaxPrune, bi, ai)
				if skip && !in.DisableSkipOffset {
					offset = ai + 1
					ev.OffsetAdvances++
				}
			}
		}
		// Segment-flush check: once the next B user's ID exceeds the
		// largest encoded_Max among matched A users, neither the matched
		// B users (min-pruned or fully scanned) nor the matched A users
		// (unreachable windows) can gain further matches.
		if bi+1 < len(in.BID) && in.BID[bi+1] > maxV {
			flush()
			maxV = 0
		}
	}
	flush()
	return out, nil
}
