package ego

import "github.com/opencsj/csj/internal/vector"

// NormalizedCentroid returns the community's mean profile under this
// package's normalization: every counter divided by the community's
// largest counter (the [0,1]^d mapping SuperEGO points use), then
// averaged per dimension. An all-zero community yields the zero
// centroid.
//
// The composite scorer takes the cosine between two communities'
// normalized centroids. Normalizing each community by its own maximum —
// rather than the join-wide maximum newNormalizer uses — is equivalent
// there: cosine is invariant under positive per-vector scaling, so the
// per-community scale factors cancel. Doing it per community is what
// lets a prepared view cache its centroid independently of any join
// partner.
func NormalizedCentroid(c *vector.Community) []float64 {
	d := c.Dim()
	out := make([]float64, d)
	if c.Size() == 0 {
		return out
	}
	mv := maxCounter(c)
	if mv == 0 {
		return out
	}
	for _, u := range c.Users {
		for j, v := range u {
			out[j] += float64(v)
		}
	}
	scale := 1 / (float64(mv) * float64(c.Size()))
	for j := range out {
		out[j] *= scale
	}
	return out
}
