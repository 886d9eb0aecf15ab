package csj

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"github.com/opencsj/csj/internal/encoding"
	"github.com/opencsj/csj/internal/vector"
)

// ErrEpsilonVecUnsupported reports a per-dimension epsilon vector
// passed to a method family that only understands the scalar. The
// MinMax methods (and everything built on their prepared views: the
// batch engines, the store, the index) accept vectors; Baseline and
// SuperEGO take scalars only. An all-equal vector canonicalizes to its
// scalar before this check, so it works with every method.
var ErrEpsilonVecUnsupported = errors.New("csj: per-dimension epsilon requires a MinMax method")

// ErrBadScorer reports an invalid composite-scorer specification: a
// NaN, infinite or negative weight, all weights zero, or weights whose
// sum overflows.
var ErrBadScorer = errors.New("csj: bad scorer")

// ScorerSpec is the optional composite scorer of a match spec. When
// attached (Options.Scorer), the reported Similarity becomes the
// weighted blend
//
//	w_csj·s_csj + w_cat·overlap + w_cos·cosine
//
// where s_csj is the paper's score p·|pairs|/|B|, overlap is 1 when
// both communities declare the same home category (Community.Category,
// both >= 0) and 0 otherwise, and cosine is the cosine similarity of
// the two communities' normalized centroid profiles (internal/ego's
// max-counter normalization; 0 when either centroid is the zero
// vector). Weights must be finite, non-negative, not all zero, and sum
// to a finite value; they are normalized to sum 1, so
// ScorerSpec{CSJWeight: 2, CosineWeight: 2} means an equal 50/50 blend.
// All three components live in [0, 1], so the blend does too, and the
// batch engines' ordering, top-k merging, and cluster scatter-gather
// operate on it unchanged. Result.Blend reports the unweighted
// components alongside the blended score.
//
// A scorer whose normalized weights are (1, 0, 0) is the plain CSJ
// score and is canonicalized away (equivalent to a nil Scorer).
type ScorerSpec struct {
	// CSJWeight scales the CSJ profile-join score p·|pairs|/|B|.
	CSJWeight float64
	// CategoryWeight scales the home-category overlap signal.
	CategoryWeight float64
	// CosineWeight scales the cosine of the normalized centroids.
	CosineWeight float64
}

// Validate rejects NaN, infinite, negative or all-zero weights, and
// weights whose sum overflows. A nil scorer is valid (the plain CSJ
// score).
func (sc *ScorerSpec) Validate() error { return sc.validate() }

// validate rejects NaN, infinite, negative or all-zero weights, and
// weights whose sum overflows: normalized divides by the sum, so an
// infinite sum would turn every weight into 0 or NaN.
func (sc *ScorerSpec) validate() error {
	if sc == nil {
		return nil
	}
	// A NaN or infinite weight makes the sum NaN or infinite too.
	sum := sc.CSJWeight + sc.CategoryWeight + sc.CosineWeight
	switch {
	case math.IsNaN(sum) || math.IsInf(sum, 0):
		return fmt.Errorf("%w: weights must be finite with a finite sum, got (%g, %g, %g)",
			ErrBadScorer, sc.CSJWeight, sc.CategoryWeight, sc.CosineWeight)
	case sc.CSJWeight < 0 || sc.CategoryWeight < 0 || sc.CosineWeight < 0:
		return fmt.Errorf("%w: weights must be non-negative, got (%g, %g, %g)",
			ErrBadScorer, sc.CSJWeight, sc.CategoryWeight, sc.CosineWeight)
	case sum == 0:
		return fmt.Errorf("%w: all weights are zero", ErrBadScorer)
	}
	return nil
}

// normalized returns the weights scaled to sum 1. Callers validate
// first; on an all-zero spec it degrades to the pure CSJ score.
func (sc *ScorerSpec) normalized() (wc, wcat, wcos float64) {
	sum := sc.CSJWeight + sc.CategoryWeight + sc.CosineWeight
	if sum <= 0 {
		return 1, 0, 0
	}
	return sc.CSJWeight / sum, sc.CategoryWeight / sum, sc.CosineWeight / sum
}

// isNoop reports whether the scorer is absent or normalizes to the
// pure CSJ score.
func (sc *ScorerSpec) isNoop() bool {
	if sc == nil {
		return true
	}
	wc, wcat, wcos := sc.normalized()
	return wc == 1 && wcat == 0 && wcos == 0
}

// ScoreBlend reports the unweighted components behind a composite
// similarity (Result.Blend).
type ScoreBlend struct {
	// CSJ is the paper's score p·|pairs|/|B| before blending.
	CSJ float64
	// Category is the home-category overlap: 1 or 0.
	Category float64
	// Cosine is the cosine similarity of the normalized centroids.
	Cosine float64
}

// MatchSpec is the canonical description of what makes two profiles
// (and two communities) similar: the matching tolerance — a scalar
// epsilon or a per-dimension vector — the MinMax part count, and the
// optional composite scorer. It is the unit the prepared-view cache
// keys on (via Digest) and the parameter set the server and
// coordinator forward losslessly.
type MatchSpec struct {
	// Epsilon is the scalar per-dimension tolerance; ignored when
	// EpsilonVec is set.
	Epsilon int32
	// EpsilonVec is the optional per-dimension tolerance vector.
	EpsilonVec []int32
	// Parts is the MinMax encoding part count; 0 means the default.
	Parts int
	// Scorer is the optional composite scorer.
	Scorer *ScorerSpec
}

// Spec snapshots the match-relevant fields of the options.
func (o *Options) Spec() MatchSpec {
	if o == nil {
		return MatchSpec{}
	}
	return MatchSpec{
		Epsilon:    o.Epsilon,
		EpsilonVec: o.EpsilonVec,
		Parts:      o.Parts,
		Scorer:     o.Scorer,
	}
}

// DefaultParts is the MinMax part count selected by Parts == 0 — the
// paper's default encoding granularity (clamped to the profile
// dimensionality when larger).
const DefaultParts = encoding.DefaultParts

// Canonical returns the spec in canonical form for dimensionality d:
// an all-equal epsilon vector collapses to its scalar, the part count
// resolves defaults and clamping as the engines do, and a no-op scorer
// drops to nil. Distinct spellings of the same predicate canonicalize —
// and therefore digest — identically. A negative part count, which
// every engine rejects, is kept as given, so it never digests like a
// valid count.
func (s MatchSpec) Canonical(d int) MatchSpec {
	out := s
	if len(out.EpsilonVec) > 0 {
		eps := vector.NewEps(out.Epsilon, out.EpsilonVec)
		if sc, ok := eps.Uniform(); ok {
			out.Epsilon, out.EpsilonVec = sc, nil
		} else {
			out.Epsilon = 0
		}
	}
	if parts, err := encoding.ResolveParts(out.Parts, d); err == nil {
		out.Parts = parts
	}
	if out.Scorer.isNoop() {
		out.Scorer = nil
	}
	return out
}

// ViewSpec strips the scorer: prepared views depend only on the
// tolerance and part count, so specs differing only in scorer share
// cached views (and view digests).
func (s MatchSpec) ViewSpec() MatchSpec {
	s.Scorer = nil
	return s
}

// SpecDigest is a collision-resistant fingerprint of a canonical
// MatchSpec: SHA-256 over an injective (length-prefixed, fixed-width)
// encoding. Equal digests mean equal canonical specs for the same
// dimensionality, up to hash collisions; naive string encodings (where
// eps [1, 23] and [12, 3] could both print "123") cannot alias here.
// It is a comparable value type, usable directly as a map key.
type SpecDigest [32]byte

// String returns the digest in hex.
func (d SpecDigest) String() string { return hex.EncodeToString(d[:]) }

// specDigestStack is the stack-buffer size of Digest's encoder: specs
// whose encoding fits (epsilon vectors up to ~100 dimensions) digest
// without allocating, which is what keeps the store's warm spec-keyed
// cache-hit path at 0 allocs/op.
const specDigestStack = 512

// Digest fingerprints the canonical form of the spec for
// dimensionality d. The encoding is injective: a fixed header, the
// dimensionality and part count, a tagged scalar-or-vector tolerance
// with an explicit length, and the normalized scorer weights behind a
// presence byte — every field either fixed-width or length-prefixed,
// so distinct canonical specs never share an encoding.
func (s MatchSpec) Digest(d int) SpecDigest {
	c := s.Canonical(d)
	var arr [specDigestStack]byte
	buf := append(arr[:0], "csjspec\x01"...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Parts))
	if c.EpsilonVec == nil {
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Epsilon))
	} else {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.EpsilonVec)))
		for _, e := range c.EpsilonVec {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
		}
	}
	if c.Scorer == nil {
		buf = append(buf, 0)
	} else {
		wc, wcat, wcos := c.Scorer.normalized()
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(wc))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(wcat))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(wcos))
	}
	return sha256.Sum256(buf)
}
