package csj

import (
	"math"

	"github.com/opencsj/csj/internal/ego"
)

// This file applies the composite scorer (Options.Scorer / ScorerSpec)
// to finished join results. The CSJ score is computed by the engines;
// the two auxiliary signals are functions of the communities alone:
//
//   - category overlap: 1 when both communities declare the same home
//     category (both >= 0), else 0 — two "unknown" categories do not
//     count as agreement;
//   - centroid cosine: the cosine similarity of the two normalized
//     centroid profiles (ego.NormalizedCentroid), 0 when either
//     centroid is the zero vector.
//
// Both live in [0, 1], so the normalized blend does too — which is why
// every bound in the indexed engines lifts soundly (scoreBound) and the
// cluster merge needs no changes.

// categoryOverlap is the [0, 1] category signal.
func categoryOverlap(catB, catA int) float64 {
	if catB >= 0 && catB == catA {
		return 1
	}
	return 0
}

// cosine returns the cosine similarity of two non-negative profiles,
// 0 when either is the zero vector. Non-negative inputs keep the
// result in [0, 1]; it is clamped against float drift so bounds built
// on "cosine <= 1" hold exactly.
func cosine(x, y []float64) float64 {
	var dot, nx, ny float64
	for i := range x {
		dot += x[i] * y[i]
		nx += x[i] * x[i]
		ny += y[i] * y[i]
	}
	if nx == 0 || ny == 0 {
		return 0
	}
	c := dot / (math.Sqrt(nx) * math.Sqrt(ny))
	if c > 1 {
		c = 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// blendScore folds the components into the final similarity. The
// explicit conversions round every product on its own, as in
// scoreBound: a fused multiply-add in one and not the other could put
// a blend an ulp above its own bound.
func blendScore(sc *ScorerSpec, blend *ScoreBlend) float64 {
	wc, wcat, wcos := sc.normalized()
	return float64(wc*blend.CSJ) + float64(wcat*blend.Category) + float64(wcos*blend.Cosine)
}

// scoreBound lifts a CSJ-score upper bound into the composite domain:
// the blend of any pair whose CSJ score is <= csjBound is <= the
// returned value, because category and cosine never exceed 1. Without
// a scorer it is the identity, so the indexed engines' pruning logic
// reads the same either way. The p discount must already be folded
// into csjBound (it applies to the CSJ component only). The result is
// monotone in csjBound and takes blendScore's operations in the same
// order, so rounding keeps every blend <= its bound exactly.
func scoreBound(sc *ScorerSpec, csjBound float64) float64 {
	if sc == nil {
		return csjBound
	}
	wc, wcat, wcos := sc.normalized()
	return float64(wc*csjBound) + wcat + wcos
}

// applyScorerRaw rewrites out.Similarity into the composite blend for
// a one-shot join of raw communities. No-op without a scorer.
func applyScorerRaw(o *Options, b, a *Community, out *Result) {
	if o.Scorer == nil {
		return
	}
	out.Blend = &ScoreBlend{
		CSJ:      out.Similarity,
		Category: categoryOverlap(b.Category, a.Category),
		Cosine:   cosine(ego.NormalizedCentroid(b), ego.NormalizedCentroid(a)),
	}
	out.Similarity = blendScore(o.Scorer, out.Blend)
}

// applyScorerPrepared is applyScorerRaw for prepared communities: the
// normalized centroids come from the views' lazy caches, so steady-
// state scored joins do not recompute them.
func applyScorerPrepared(o *Options, b, a *PreparedCommunity, out *Result) {
	if o.Scorer == nil {
		return
	}
	cb, ca := b.p.Community(), a.p.Community()
	out.Blend = &ScoreBlend{
		CSJ:      out.Similarity,
		Category: categoryOverlap(cb.Category, ca.Category),
		Cosine:   cosine(b.centroid(), a.centroid()),
	}
	out.Similarity = blendScore(o.Scorer, out.Blend)
}
