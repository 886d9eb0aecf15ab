package core

import (
	"math"

	"github.com/opencsj/csj/internal/encoding"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// This file is the flat structure-of-arrays scan path (DESIGN.md §14).
//
// The hot B×A sweep classifies candidate pairs with two per-pair checks:
// the part/range overlap test and the per-dimension epsilon test. The
// array-of-vectors layout pays a pointer chase per check — Entries[pos]
// to the entry struct, Ref into the Users slice, then the vector's own
// backing array, none of it laid out in scan order. The SoA layout
// materializes four kinds of contiguous streams in sorted-buffer order
// instead, so an A-window scan reads sequential memory:
//
//	bvals   []int32  nB×d       B counters, row-major by B scan position
//	bparts  []int64  nB×parts   B per-part sums
//	awin    []int32  nA×2d      A eps windows, row = lo[0..d) ++ hi[0..d)
//	aranges []int64  nA×2parts  A part ranges, row = lo0,hi0,lo1,hi1,…
//
// Both A-side families pack a row's bounds into ONE contiguous run so a
// candidate costs one offset computation and touches one cache line:
// the part-range row interleaves lo/hi per part (the overlap check reads
// lo then hi of the same part, and usually rejects on the first), and
// the eps row keeps lo[0..d) and hi[0..d) back to back so the blocked
// kernel still gets two dense spans.
//
// The epsilon predicate |b_i - a_i| <= eps is precomputed into the
// never-subtracting window form lo_i <= b_i <= hi_i with lo/hi saturated
// to the int32 range (a_i ± eps can leave it; saturation preserves the
// predicate because every counter fits in int32). This removes the
// subtraction that made the old scalar compare overflow on extreme
// values, and it turns the inner loop into a branch-reduced
// compare-accumulate kernel the compiler lowers to flag-setting
// instructions instead of unpredictable branches.

// soaBlock is the dimension-tile width of the compare-accumulate
// kernel: within a block the comparisons accumulate branch-free, and
// the early exit runs once per block instead of once per dimension.
const soaBlock = 16

// b2i32 is the branchless bool-to-int shape the compiler lowers to
// SETcc/CSET; the kernels accumulate it instead of branching per
// dimension.
func b2i32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// soaHead is how many leading dimensions epsWithin checks one at a
// time before entering the branch-reduced blocks. Profile-guided: on
// Zipf-weighted corpora the highest-variance counters come first, and
// the first dimension alone rejects ~4 of 5 candidates that reach the
// eps check — a scalar test there is one load pair and one
// well-predicted branch, where a mask block would evaluate four
// dimensions wide for an answer the first already gave.
const soaHead = 2

// epsWithin reports whether lo[i] <= v[i] <= hi[i] for every dimension
// — the precomputed-window form of the per-dimension epsilon predicate.
// The first soaHead dimensions are checked scalar (they decide almost
// every rejection); the rest stream through compare-accumulate blocks
// of soaBlock that the compiler lowers to flag-setting instructions,
// with one early-exit check per block.
func epsWithin(v, lo, hi []int32) bool {
	n := len(v)
	i := 0
	for ; i < n && i < soaHead; i++ {
		if v[i] < lo[i] || v[i] > hi[i] {
			return false
		}
	}
	for ; n-i >= soaBlock; i += soaBlock {
		vv := (*[soaBlock]int32)(v[i:])
		ll := (*[soaBlock]int32)(lo[i:])
		hh := (*[soaBlock]int32)(hi[i:])
		var cmp int32
		for j := 0; j < soaBlock; j++ {
			cmp += b2i32(ll[j] <= vv[j]) & b2i32(vv[j] <= hh[j])
		}
		if cmp != soaBlock {
			return false
		}
	}
	rem := int32(n - i)
	var cmp int32
	for ; i < n; i++ {
		cmp += b2i32(lo[i] <= v[i]) & b2i32(v[i] <= hi[i])
	}
	return cmp == rem
}

// partsWithin reports whether every part sum lies inside its range —
// the flat-stream form of encoding.PartsOverlap, reading the
// interleaved lo0,hi0,lo1,hi1,… range row. It exits on the first part
// outside its range: NO OVERLAP is the dominant outcome of the window
// scan (~3 of 4 candidates on the VK corpus), and those reject on an
// early part far more often than not, so the early exit beats a
// branchless full pass here (measured; the opposite held for nothing).
func partsWithin(ps, r []int64) bool {
	r = r[:2*len(ps)]
	for j, s := range ps {
		if s < r[2*j] || s > r[2*j+1] {
			return false
		}
	}
	return true
}

// satInt32 clamps x to the int32 range. Saturating a_i ± eps is
// lossless for the window compare: a bound past MaxInt32 admits every
// counter anyway, and one past MinInt32 excludes none.
func satInt32(x int64) int32 {
	if x > math.MaxInt32 {
		return math.MaxInt32
	}
	if x < math.MinInt32 {
		return math.MinInt32
	}
	return int32(x)
}

// soaStreams holds the flat scan streams of one Prepared: its B-side
// rows and its A-side rows, so the view can play either role.
type soaStreams struct {
	d, parts int
	bvals    []int32
	bparts   []int64
	awin     []int32
	aranges  []int64
}

// buildB materializes the B-side streams in bb's sorted order.
func (s *soaStreams) buildB(users []vector.Vector, bb *encoding.BBuffer) {
	d, p := s.d, s.parts
	s.bvals = make([]int32, len(bb.Entries)*d)
	s.bparts = make([]int64, len(bb.Entries)*p)
	for i := range bb.Entries {
		e := &bb.Entries[i]
		copy(s.bvals[i*d:(i+1)*d], users[e.Ref])
		copy(s.bparts[i*p:(i+1)*p], e.Parts)
	}
}

// buildA materializes the A-side streams in ab's sorted order, with the
// per-dimension epsilon windows saturated to int32. The awin rows store
// one [lo, hi] window per dimension, so a per-dimension tolerance is
// purely a build-time concern: dimension j's window widens by eps_j and
// the fused scan loops compare against the same streams either way —
// heterogeneous epsilon adds zero inner-loop cost.
func (s *soaStreams) buildA(users []vector.Vector, ab *encoding.ABuffer, eps vector.Eps) {
	d, p := s.d, s.parts
	s.awin = make([]int32, len(ab.Entries)*2*d)
	s.aranges = make([]int64, len(ab.Entries)*2*p)
	for i := range ab.Entries {
		e := &ab.Entries[i]
		w := s.awin[i*2*d : (i+1)*2*d]
		lo, hi := w[:d], w[d:]
		for j, v := range users[e.Ref] {
			ej := int64(eps.At(j))
			lo[j] = satInt32(int64(v) - ej)
			hi[j] = satInt32(int64(v) + ej)
		}
		r := s.aranges[i*2*p : (i+1)*2*p]
		for j := 0; j < p; j++ {
			r[2*j] = e.RangeLo[j]
			r[2*j+1] = e.RangeHi[j]
		}
	}
}

// footprint approximates the resident bytes of the streams, for the
// store's byte-capped cache accounting.
func (s *soaStreams) footprint() int64 {
	return int64(len(s.bvals)+len(s.awin))*4 +
		int64(len(s.bparts)+len(s.aranges))*8
}

// The fused scans below are apScan/exScan with the SoA classification
// inlined into the sweep; they are the only scans a prepared join runs.
// Going through the Comparer interface would cost each candidate a call
// it cannot see through: prologue, stream-header reloads, and an opaque
// boundary the compiler must spill around. At ~10k candidates per small
// join that call tax is a third of the scan.
// The fused loops keep the stream bases in registers, hoist the B row
// views once per outer row, and for the default part count evaluate
// the overlap check branch-free — which part rejects is data-dependent
// noise, so the early-exit loop's per-part branches are mispredicted
// almost every time, while compare-accumulate over all four parts
// costs a few predictable cycles and leaves one branch: the outcome.
//
// Control flow, events, traces, and cancellation checkpoints mirror the
// reference loops line for line; the property suite and `make
// kernelguard` pin the prepared sweep to the one-shot scalar reference:
// identical pairs and event streams.

// bump folds the fused loops' local event counters into e.
func (e *Events) bump(minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances int64) {
	e.MinPrunes += minPrunes
	e.MaxPrunes += maxPrunes
	e.NoOverlaps += noOverlaps
	e.NoMatches += noMatches
	e.Matches += matches
	e.OffsetAdvances += offsetAdvances
}

// apScanSoA is the fused form of apScan: b's B-side streams against
// a's A-side streams. The scratch donates its used bitmap and pair
// buffer; the returned slice aliases the scratch and is only valid
// until the next scan that uses it.
func apScanSoA(in *Input, b, a *soaStreams, ev *Events, tr *Trace, s *Scratch) ([][2]int, error) {
	pairs := s.pairs[:0]
	used := s.usedBitmap(len(in.AMin))
	d, p := b.d, b.parts
	bparts, bvals := b.bparts, b.bvals
	aranges, awin := a.aranges, a.awin
	offset := 0
	budget := cancelCheckEvery
	// Event counters accumulate in locals (registers) and fold into ev
	// at every return; a read-modify-write through the pointer per event
	// was a measurable slice of the sweep.
	var minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances int64
	for bi := range in.BID {
		if budget--; budget <= 0 {
			if canceled(in.Done) {
				s.pairs = pairs
				ev.bump(minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances)
				return nil, ErrCanceled
			}
			budget = cancelCheckEvery
		}
		bp := bparts[bi*p : bi*p+p]
		bv := bvals[bi*d : bi*d+d]
		var bp4 *[4]int64
		if p == 4 {
			bp4 = (*[4]int64)(bp)
		}
		skip := true
		id := in.BID[bi]
	scanA:
		for ai := offset; ai < len(in.AMin); ai++ {
			if budget--; budget <= 0 {
				if canceled(in.Done) {
					s.pairs = pairs
					ev.bump(minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances)
					return nil, ErrCanceled
				}
				budget = cancelCheckEvery
			}
			if used[ai] {
				if skip && !in.DisableSkipOffset {
					offset = ai + 1
					offsetAdvances++
				}
				continue
			}
			switch {
			case id < in.AMin[ai]:
				minPrunes++
				tr.add(EvMinPrune, bi, ai)
				break scanA
			case id <= in.AMax[ai]:
				skip = false
				var overlap bool
				if bp4 != nil {
					// Overlap check against the interleaved lo0,hi0,…,lo3,hi3
					// range row, written out here so it compiles into the loop
					// (as a function it is past the inliner's budget and would
					// cost a call per candidate). Part 0 rejects two thirds of
					// all candidates on its own (parts are dimension-ordered,
					// and the leading dimensions carry the variance), so it
					// gets a scalar test; the surviving three parts evaluate
					// branch-free.
					r := (*[8]int64)(aranges[ai*8:])
					if s0 := bp4[0]; s0 < r[0] || s0 > r[1] {
						overlap = false
					} else {
						ok := b2i32(r[2] <= bp4[1]) & b2i32(bp4[1] <= r[3]) &
							b2i32(r[4] <= bp4[2]) & b2i32(bp4[2] <= r[5]) &
							b2i32(r[6] <= bp4[3]) & b2i32(bp4[3] <= r[7])
						overlap = ok != 0
					}
				} else {
					overlap = partsWithin(bp, aranges[ai*2*p:])
				}
				if !overlap {
					noOverlaps++
					tr.add(EvNoOverlap, bi, ai)
					continue
				}
				w := awin[ai*2*d:]
				if bp4 != nil {
					// Scalar head of the eps check, mirroring soaHead in
					// epsWithin: the leading dimensions decide almost every
					// rejection, so they run inline and skip the kernel
					// call four times in five. (p == 4 implies d >= 4.)
					if v0 := bv[0]; v0 < w[0] || v0 > w[d] {
						noMatches++
						tr.add(EvNoMatch, bi, ai)
						continue
					}
					if v1 := bv[1]; v1 < w[1] || v1 > w[d+1] {
						noMatches++
						tr.add(EvNoMatch, bi, ai)
						continue
					}
				}
				if epsWithin(bv, w[:d], w[d:2*d]) {
					matches++
					tr.add(EvMatch, bi, ai)
					used[ai] = true
					pairs = append(pairs, [2]int{bi, ai})
					break scanA // greedy: first match wins, go to next B
				}
				noMatches++
				tr.add(EvNoMatch, bi, ai)
			default: // id > in.AMax[ai]: MAX PRUNE
				maxPrunes++
				tr.add(EvMaxPrune, bi, ai)
				if skip && !in.DisableSkipOffset {
					offset = ai + 1
					offsetAdvances++
				}
			}
		}
	}
	s.pairs = pairs // keep the grown capacity for the next scan
	ev.bump(minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances)
	return pairs, nil
}

// exScanSoA is the fused form of exScan: b's B-side streams against
// a's A-side streams. The scratch donates its match graph and pair
// buffer; the returned slice aliases the scratch and is only valid
// until the next scan that uses it.
func exScanSoA(in *Input, b, a *soaStreams, matcher matching.Matcher, ev *Events, tr *Trace, s *Scratch) ([][2]int, error) {
	out := s.pairs[:0]
	g := s.matchGraph()
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
	d, p := b.d, b.parts
	bparts, bvals := b.bparts, b.bvals
	aranges, awin := a.aranges, a.awin
	offset := 0
	budget := cancelCheckEvery
	// Event counters accumulate in locals (registers) and fold into ev
	// at every return; a read-modify-write through the pointer per event
	// was a measurable slice of the sweep.
	var minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances int64
	var maxV int64
	for bi := range in.BID {
		if budget--; budget <= 0 {
			if canceled(in.Done) {
				s.pairs = out
				ev.bump(minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances)
				return nil, ErrCanceled
			}
			budget = cancelCheckEvery
		}
		bp := bparts[bi*p : bi*p+p]
		bv := bvals[bi*d : bi*d+d]
		var bp4 *[4]int64
		if p == 4 {
			bp4 = (*[4]int64)(bp)
		}
		skip := true
		id := in.BID[bi]
	scanA:
		for ai := offset; ai < len(in.AMin); ai++ {
			if budget--; budget <= 0 {
				if canceled(in.Done) {
					s.pairs = out
					ev.bump(minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances)
					return nil, ErrCanceled
				}
				budget = cancelCheckEvery
			}
			switch {
			case id < in.AMin[ai]:
				minPrunes++
				tr.add(EvMinPrune, bi, ai)
				break scanA
			case id <= in.AMax[ai]:
				skip = false
				var overlap bool
				if bp4 != nil {
					// Overlap check against the interleaved lo0,hi0,…,lo3,hi3
					// range row, written out here so it compiles into the loop
					// (as a function it is past the inliner's budget and would
					// cost a call per candidate). Part 0 rejects two thirds of
					// all candidates on its own (parts are dimension-ordered,
					// and the leading dimensions carry the variance), so it
					// gets a scalar test; the surviving three parts evaluate
					// branch-free.
					r := (*[8]int64)(aranges[ai*8:])
					if s0 := bp4[0]; s0 < r[0] || s0 > r[1] {
						overlap = false
					} else {
						ok := b2i32(r[2] <= bp4[1]) & b2i32(bp4[1] <= r[3]) &
							b2i32(r[4] <= bp4[2]) & b2i32(bp4[2] <= r[5]) &
							b2i32(r[6] <= bp4[3]) & b2i32(bp4[3] <= r[7])
						overlap = ok != 0
					}
				} else {
					overlap = partsWithin(bp, aranges[ai*2*p:])
				}
				if !overlap {
					noOverlaps++
					tr.add(EvNoOverlap, bi, ai)
					continue
				}
				w := awin[ai*2*d:]
				if bp4 != nil {
					// Scalar head of the eps check, mirroring soaHead in
					// epsWithin: the leading dimensions decide almost every
					// rejection, so they run inline and skip the kernel
					// call four times in five. (p == 4 implies d >= 4.)
					if v0 := bv[0]; v0 < w[0] || v0 > w[d] {
						noMatches++
						tr.add(EvNoMatch, bi, ai)
						continue
					}
					if v1 := bv[1]; v1 < w[1] || v1 > w[d+1] {
						noMatches++
						tr.add(EvNoMatch, bi, ai)
						continue
					}
				}
				if epsWithin(bv, w[:d], w[d:2*d]) {
					matches++
					tr.add(EvMatch, bi, ai)
					g.AddEdge(int32(bi), int32(ai))
					if in.AMax[ai] > maxV {
						maxV = in.AMax[ai]
					}
				} else {
					noMatches++
					tr.add(EvNoMatch, bi, ai)
				}
			default: // id > in.AMax[ai]: MAX PRUNE
				maxPrunes++
				tr.add(EvMaxPrune, bi, ai)
				if skip && !in.DisableSkipOffset {
					offset = ai + 1
					offsetAdvances++
				}
			}
		}
		// Segment-flush check mirrors exScan: see there for the invariant.
		if bi+1 < len(in.BID) && in.BID[bi+1] > maxV {
			flush()
			maxV = 0
		}
	}
	flush()
	s.pairs = out // keep the grown capacity for the next scan
	ev.bump(minPrunes, maxPrunes, noOverlaps, noMatches, matches, offsetAdvances)
	return out, nil
}
