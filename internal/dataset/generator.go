package dataset

import (
	"math"
	"math/rand"
	"slices"

	"github.com/opencsj/csj/internal/vector"
)

// Generator produces user-profile vectors of a fixed dimensionality and
// epsilon-bounded perturbations of them (used for planting guaranteed
// matches).
type Generator interface {
	// Name identifies the generator family ("vk" or "synthetic").
	Name() string
	// Dim returns the dimensionality of generated vectors.
	Dim() int
	// User draws a fresh user profile.
	User() vector.Vector
	// Perturb returns a copy of u moved by at most eps per dimension
	// (clamped at zero), i.e. a guaranteed CSJ match of u.
	Perturb(u vector.Vector, eps int32) vector.Vector
}

// VKGenerator draws heavy-tailed, category-skewed profiles that mimic
// the paper's real VK data: per-user activity is log-normal (most users
// have a handful of likes, a few have thousands) and each like lands in
// a category drawn from the global popularity distribution of Table 1,
// boosted toward the user's home community category.
type VKGenerator struct {
	rng  *rand.Rand
	home int // boosted category, -1 for none
	cum  []float64
	// activity distribution: exp(N(mu, sigma)) likes per user
	mu, sigma float64
	maxLikes  int
}

// VK-like generator defaults. The log-normal activity gives a median of
// ~245 likes per user with a heavy tail into the tens of thousands.
// Profiles then carry enough entropy that two independent users almost
// never match at eps=1 (matching the paper's VK similarities, which are
// driven by shared subscribers), while the planted overlap supplies the
// matches.
const (
	vkActivityMu    = 5.5
	vkActivitySigma = 0.9
	vkHomeBoost     = 8.0 // weight multiplier for the home category
	vkMaxLikes      = 200000

	// Planted B users are mostly exact copies of their A source (the
	// same person subscribed to both pages); a small fraction differ in
	// one or two dimensions. This mirrors the boundary-pair density that
	// the paper's SuperEGO accuracy loss implies (~3% relative loss on
	// VK) — see Perturb.
	vkPerturbProb = 0.07
)

// NewVKGenerator builds a VK-like generator. home is the community's
// home category dimension (boosted in the draw), or -1 for a neutral
// user population.
func NewVKGenerator(rng *rand.Rand, home int) *VKGenerator {
	g := &VKGenerator{
		rng:      rng,
		home:     home,
		mu:       vkActivityMu,
		sigma:    vkActivitySigma,
		maxLikes: vkMaxLikes,
	}
	weights := make([]float64, Dim)
	var total float64
	for i, w := range VKTotalLikes {
		weights[i] = float64(w)
		if i == home {
			weights[i] *= vkHomeBoost
		}
		total += weights[i]
	}
	g.cum = make([]float64, Dim)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		g.cum[i] = acc
	}
	g.cum[Dim-1] = 1.0 // guard against rounding
	return g
}

// Name implements Generator.
func (g *VKGenerator) Name() string { return "vk" }

// Dim implements Generator.
func (g *VKGenerator) Dim() int { return Dim }

// User implements Generator: draw a log-normal activity volume and
// scatter it over the categories.
func (g *VKGenerator) User() vector.Vector {
	u := make(vector.Vector, Dim)
	likes := int(math.Round(math.Exp(g.rng.NormFloat64()*g.sigma + g.mu)))
	if likes > g.maxLikes {
		likes = g.maxLikes
	}
	for i := 0; i < likes; i++ {
		u[g.drawCategory()]++
	}
	return u
}

func (g *VKGenerator) drawCategory() int {
	x := g.rng.Float64()
	lo, hi := 0, Dim-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perturb implements Generator. Unlike the Synthetic generator's dense
// perturbation, the VK-like perturbation reflects how shared
// subscribers differ across two brand pages: most copies are exact
// (the same person, identical aggregate counters) and the rest differ
// by at most eps in only one or two dimensions. Keeping the density of
// exactly-at-epsilon dimensions low reproduces the paper's mild
// SuperEGO accuracy loss on VK instead of an exaggerated one.
func (g *VKGenerator) Perturb(u vector.Vector, eps int32) vector.Vector {
	out := slices.Clone(u)
	if eps == 0 || g.rng.Float64() >= vkPerturbProb {
		return out
	}
	dims := 1 + g.rng.Intn(2)
	for i := 0; i < dims; i++ {
		j := g.rng.Intn(len(out))
		delta := 1 + g.rng.Int31n(eps) // in [1, eps]
		if g.rng.Intn(2) == 0 {
			delta = -delta
		}
		// Apply relative to the original counter so that drawing the
		// same dimension twice cannot stack deltas beyond epsilon.
		v := u[j] + delta
		if v < 0 {
			v = 0
		}
		out[j] = v
	}
	return out
}

// SyntheticGenerator draws the paper's Synthetic profiles: every
// counter uniform in [0, MaxCounter].
type SyntheticGenerator struct {
	rng        *rand.Rand
	dim        int
	maxCounter int32
}

// NewSyntheticGenerator builds the uniform generator with the paper's
// domain [0, SyntheticMaxCounter] and d=27.
func NewSyntheticGenerator(rng *rand.Rand) *SyntheticGenerator {
	return &SyntheticGenerator{rng: rng, dim: Dim, maxCounter: SyntheticMaxCounter}
}

// Name implements Generator.
func (g *SyntheticGenerator) Name() string { return "synthetic" }

// Dim implements Generator.
func (g *SyntheticGenerator) Dim() int { return g.dim }

// User implements Generator.
func (g *SyntheticGenerator) User() vector.Vector {
	u := make(vector.Vector, g.dim)
	for i := range u {
		u[i] = g.rng.Int31n(g.maxCounter + 1)
	}
	return u
}

// Perturb implements Generator.
func (g *SyntheticGenerator) Perturb(u vector.Vector, eps int32) vector.Vector {
	return perturb(g.rng, u, eps)
}

// perturb moves every counter by a uniform delta in [-eps, +eps],
// clamping at zero. The result matches u under the CSJ condition by
// construction.
func perturb(rng *rand.Rand, u vector.Vector, eps int32) vector.Vector {
	out := make(vector.Vector, len(u))
	for i, v := range u {
		delta := rng.Int31n(2*eps+1) - eps
		nv := v + delta
		if nv < 0 {
			nv = 0
		}
		out[i] = nv
	}
	return out
}

// NewGenerator builds the profile generator for the dataset kind with
// the given home category (the VK-like generator boosts it; the
// Synthetic generator ignores it).
func NewGenerator(kind Kind, rng *rand.Rand, home int) Generator {
	if kind == VK {
		return NewVKGenerator(rng, home)
	}
	return NewSyntheticGenerator(rng)
}

// GenerateCommunity draws a community of n users from g.
func GenerateCommunity(g Generator, name string, category, n int) *vector.Community {
	users := make([]vector.Vector, n)
	for i := range users {
		users[i] = g.User()
	}
	return &vector.Community{Name: name, Category: category, Users: users}
}
