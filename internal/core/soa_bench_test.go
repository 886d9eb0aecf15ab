package core

import (
	"math/rand"
	"testing"

	"github.com/opencsj/csj/internal/dataset"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// vkCommunity draws a VK-like community (27 dims, Zipf-weighted
// category counters), the corpus shape the served joins see.
func vkCommunity(rng *rand.Rand, name string, n int) *vector.Community {
	gen := dataset.NewGenerator(dataset.VK, rng, 0)
	users := make([]vector.Vector, n)
	for i := range users {
		users[i] = gen.User()
	}
	return &vector.Community{Name: name, Category: -1, Users: users}
}

// benchPair draws the B and A communities every kernel benchmark joins.
func benchPair() (b, a *vector.Community, opts Options) {
	rng := rand.New(rand.NewSource(11))
	return vkCommunity(rng, "B", 400), vkCommunity(rng, "A", 440), Options{Eps: dataset.EpsilonVK}
}

// benchPrepared times a prepared join: the fused SoA sweep with a
// reused scratch, the served hot path.
func benchPrepared(b *testing.B, run func(bb, aa *Prepared, o Options, s *Scratch, r *Result) error) {
	cb, ca, opts := benchPair()
	pb, err := Prepare(cb, opts)
	if err != nil {
		b.Fatal(err)
	}
	pa, err := Prepare(ca, opts)
	if err != nil {
		b.Fatal(err)
	}
	s := NewScratch()
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(pb, pa, opts, s, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReference times the scalar reference scan over the same pair,
// on a one-shot Input encoded outside the timer, so the two legs
// compare the kernels and not the encoding.
func benchReference(b *testing.B, exact bool) {
	cb, ca, opts := benchPair()
	in, _, _, err := encode(cb, ca, &opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ev Events
		if exact {
			_, err = exScan(in, matching.CSF, &ev, nil)
		} else {
			_, err = apScan(in, &ev, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApPreparedSoA(b *testing.B) { benchPrepared(b, ApMinMaxPreparedInto) }
func BenchmarkApReference(b *testing.B)   { benchReference(b, false) }
func BenchmarkExPreparedSoA(b *testing.B) { benchPrepared(b, ExMinMaxPreparedInto) }
func BenchmarkExReference(b *testing.B)   { benchReference(b, true) }
