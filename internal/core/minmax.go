package core

import (
	"fmt"

	"github.com/opencsj/csj/internal/encoding"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// Options configure a MinMax run.
type Options struct {
	// Eps is the per-dimension absolute-difference threshold (>= 0).
	Eps int32
	// EpsVec, when non-empty, replaces Eps with an explicit per-dimension
	// tolerance: dimension j matches within EpsVec[j]. Its length must
	// equal the profile dimensionality and every entry must be >= 0. An
	// all-equal vector canonicalizes to the scalar path (vector.NewEps),
	// so it is cell-for-cell identical to setting Eps.
	EpsVec []int32
	// Parts is the number of encoding parts; 0 selects the paper's
	// default of 4, a count above the dimensionality clamps to it, and a
	// negative count is an error (encoding.ResolveParts).
	Parts int
	// Matcher resolves segments of the exact algorithm into one-to-one
	// pairs; nil selects CSF. Ignored by ApMinMax.
	Matcher matching.Matcher
	// DisableSkipOffset turns off the skip/offset fast-forwarding
	// (ablation only; results are identical).
	DisableSkipOffset bool
	// Done, when non-nil, requests cooperative cancellation: the scan
	// loops poll it periodically and return ErrCanceled once it closes
	// (typically ctx.Done() threaded down from the public API).
	Done <-chan struct{}
}

// layout segments d dimensions under the options' part count
// (encoding.ResolveParts).
func (o *Options) layout(d int) (*encoding.Layout, error) {
	parts, err := encoding.ResolveParts(o.Parts, d)
	if err != nil {
		return nil, err
	}
	return encoding.NewLayout(d, parts)
}

func (o *Options) matcher() matching.Matcher {
	if o.Matcher == nil {
		return matching.CSF
	}
	return o.Matcher
}

// eps resolves the canonical tolerance from the scalar/vector pair.
func (o *Options) eps() vector.Eps {
	return vector.NewEps(o.Eps, o.EpsVec)
}

// Result is the outcome of one CSJ method run.
type Result struct {
	// Pairs holds the matched user pairs with real user IDs (indexes
	// into the communities' Users slices).
	Pairs []matching.Pair
	// Events counts the pairing events of the run.
	Events Events
}

// Similarity returns |pairs| / |B| for the given B size, the paper's
// Eq. (1) with p = 1.
func (r *Result) Similarity(sizeB int) float64 {
	if sizeB == 0 {
		return 0
	}
	return float64(len(r.Pairs)) / float64(sizeB)
}

// ValidateInputs performs the input checks shared by every CSJ method:
// non-empty communities, equal dimensionality, non-negative epsilon.
// (The CSJ size precondition ceil(|A|/2) <= |B| <= |A| is a semantic
// constraint enforced by the public API, not by the algorithms.)
func ValidateInputs(b, a *vector.Community, eps int32) error {
	if b.Size() == 0 || a.Size() == 0 {
		return vector.ErrEmptyCommunity
	}
	if b.Dim() != a.Dim() {
		return fmt.Errorf("%w: B has %d dimensions, A has %d",
			vector.ErrDimensionMismatch, b.Dim(), a.Dim())
	}
	if eps < 0 {
		return fmt.Errorf("core: epsilon %d must be non-negative", eps)
	}
	return nil
}

func validate(b, a *vector.Community, opts *Options) error {
	if err := ValidateInputs(b, a, opts.Eps); err != nil {
		return err
	}
	// The scalar check above covers Eps; a per-dimension vector is
	// additionally pinned to the profile dimensionality here.
	return opts.eps().Validate(b.Dim())
}

// encComparer is the scalar reference Comparer: the paper's lines 11-12
// — check complete part/range overlap, then compare the d-dimensional
// vectors under the per-dimension epsilon condition — read through the
// array-of-vectors layout. The one-shot joins scan with it; it is the
// executable specification that the prepared joins' fused SoA sweep is
// pinned to (TestSoAKernelMatchesReference and its siblings). A one-shot
// join scans once, so building SoA streams for it would cost more than
// the sweep saves.
type encComparer struct {
	bb  *encoding.BBuffer
	ab  *encoding.ABuffer
	ub  []vector.Vector
	ua  []vector.Vector
	eps vector.Eps
}

func (c *encComparer) Compare(bPos, aPos int) Outcome {
	eB, eA := &c.bb.Entries[bPos], &c.ab.Entries[aPos]
	if !encoding.PartsOverlap(eB, eA) {
		return OutcomeNoOverlap
	}
	if vector.MatchEps(c.ub[eB.Ref], c.ua[eA.Ref], c.eps) {
		return OutcomeMatch
	}
	return OutcomeNoMatch
}

// encode builds the sorted buffers and the reference-scan Input view
// for a one-shot join of a community pair.
func encode(b, a *vector.Community, opts *Options) (*Input, *encoding.BBuffer, *encoding.ABuffer, error) {
	layout, err := opts.layout(b.Dim())
	if err != nil {
		return nil, nil, nil, err
	}
	eps := opts.eps()
	bb := encoding.EncodeB(b, layout)
	ab := encoding.EncodeA(a, layout, eps)
	in := &Input{
		BID:               make([]int64, len(bb.Entries)),
		AMin:              make([]int64, len(ab.Entries)),
		AMax:              make([]int64, len(ab.Entries)),
		Cmp:               &encComparer{bb: bb, ab: ab, ub: b.Users, ua: a.Users, eps: eps},
		DisableSkipOffset: opts.DisableSkipOffset,
		Done:              opts.Done,
	}
	for i := range bb.Entries {
		in.BID[i] = bb.Entries[i].ID
	}
	for i := range ab.Entries {
		in.AMin[i] = ab.Entries[i].Min
		in.AMax[i] = ab.Entries[i].Max
	}
	return in, bb, ab, nil
}

// translate returns the user-index form of a one-shot join's position
// pairs.
func translate(pairs [][2]int, bb *encoding.BBuffer, ab *encoding.ABuffer) []matching.Pair {
	out := make([]matching.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = matching.Pair{B: bb.Entries[p[0]].Ref, A: ab.Entries[p[1]].Ref}
	}
	return out
}

// translateInto appends the user-index form of a prepared join's
// position pairs to dst, through the views' position maps.
func translateInto(dst []matching.Pair, pairs [][2]int, bref, aref []int32) []matching.Pair {
	for _, p := range pairs {
		dst = append(dst, matching.Pair{B: bref[p[0]], A: aref[p[1]]})
	}
	return dst
}

// ApMinMax runs the approximate MinMax method (Algorithm Ap-MinMax) on
// communities b and a.
func ApMinMax(b, a *vector.Community, opts Options) (*Result, error) {
	if err := validate(b, a, &opts); err != nil {
		return nil, err
	}
	in, bb, ab, err := encode(b, a, &opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	pairs, err := apScan(in, &res.Events, nil)
	if err != nil {
		return nil, err
	}
	res.Pairs = translate(pairs, bb, ab)
	return res, nil
}

// ExMinMax runs the exact MinMax method (Algorithm Ex-MinMax) on
// communities b and a.
func ExMinMax(b, a *vector.Community, opts Options) (*Result, error) {
	if err := validate(b, a, &opts); err != nil {
		return nil, err
	}
	in, bb, ab, err := encode(b, a, &opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	pairs, err := exScan(in, opts.matcher(), &res.Events, nil)
	if err != nil {
		return nil, err
	}
	res.Pairs = translate(pairs, bb, ab)
	return res, nil
}
