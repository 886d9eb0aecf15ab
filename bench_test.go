// Benchmarks regenerating the paper's evaluation. One benchmark per
// paper table (Tables 1-11) measures the full scaled-down table run;
// the BenchmarkMethod_* family measures a single join per method on a
// fixed couple (the per-cell content of Tables 3-10); the
// BenchmarkAblation* family measures the design-choice ablations
// DESIGN.md calls out.
//
// Run with: go test -bench=. -benchmem
package csj_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/dataset"
	"github.com/opencsj/csj/internal/harness"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// benchCfg keeps one benchmark iteration in the tens-of-milliseconds
// range: 0.2% of the paper's community sizes.
var benchCfg = harness.Config{Scale: 0.002, MinSize: 60, Seed: 1}

func benchTable(b *testing.B, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable(n, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable01_CategoryRanking(b *testing.B)         { benchTable(b, 1) }
func BenchmarkTable02_CoupleRegistry(b *testing.B)          { benchTable(b, 2) }
func BenchmarkTable03_ApMethods_VK_Different(b *testing.B)  { benchTable(b, 3) }
func BenchmarkTable04_ExMethods_VK_Different(b *testing.B)  { benchTable(b, 4) }
func BenchmarkTable05_ApMethods_VK_Same(b *testing.B)       { benchTable(b, 5) }
func BenchmarkTable06_ExMethods_VK_Same(b *testing.B)       { benchTable(b, 6) }
func BenchmarkTable07_ApMethods_Syn_Different(b *testing.B) { benchTable(b, 7) }
func BenchmarkTable08_ExMethods_Syn_Different(b *testing.B) { benchTable(b, 8) }
func BenchmarkTable09_ApMethods_Syn_Same(b *testing.B)      { benchTable(b, 9) }
func BenchmarkTable10_ExMethods_Syn_Same(b *testing.B)      { benchTable(b, 10) }

func BenchmarkTable11_ExMinMaxScalability(b *testing.B) {
	cfg := harness.Config{Scale: 0.001, MinSize: 40, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.RunTable11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPair lazily builds one fixed mid-size couple per dataset kind
// (couple 1 at 1% scale) shared by the per-method benchmarks, so the
// timed loop contains only the join itself.
var benchPair = struct {
	once sync.Once
	vkB  *csj.Community
	vkA  *csj.Community
	synB *csj.Community
	synA *csj.Community
}{}

func pairFor(b *testing.B, kind dataset.Kind) (*csj.Community, *csj.Community) {
	b.Helper()
	benchPair.once.Do(func() {
		cfg := harness.Config{Scale: 0.01, MinSize: 100, Seed: 1}
		var err error
		benchPair.vkB, benchPair.vkA, err = harness.BuildCouple(dataset.CoupleByID(1), dataset.VK, cfg)
		if err != nil {
			panic(err)
		}
		benchPair.synB, benchPair.synA, err = harness.BuildCouple(dataset.CoupleByID(1), dataset.Synthetic, cfg)
		if err != nil {
			panic(err)
		}
	})
	if kind == dataset.VK {
		return benchPair.vkB, benchPair.vkA
	}
	return benchPair.synB, benchPair.synA
}

func benchMethod(b *testing.B, kind dataset.Kind, m csj.Method) {
	b.Helper()
	cb, ca := pairFor(b, kind)
	opts := &csj.Options{Epsilon: kind.Epsilon()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csj.Similarity(context.Background(), cb, ca, m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethod_ApBaseline_VK(b *testing.B) { benchMethod(b, dataset.VK, csj.ApBaseline) }
func BenchmarkMethod_ApMinMax_VK(b *testing.B)   { benchMethod(b, dataset.VK, csj.ApMinMax) }
func BenchmarkMethod_ApSuperEGO_VK(b *testing.B) { benchMethod(b, dataset.VK, csj.ApSuperEGO) }
func BenchmarkMethod_ExBaseline_VK(b *testing.B) { benchMethod(b, dataset.VK, csj.ExBaseline) }
func BenchmarkMethod_ExMinMax_VK(b *testing.B)   { benchMethod(b, dataset.VK, csj.ExMinMax) }
func BenchmarkMethod_ExSuperEGO_VK(b *testing.B) { benchMethod(b, dataset.VK, csj.ExSuperEGO) }

func BenchmarkMethod_ApBaseline_Syn(b *testing.B) { benchMethod(b, dataset.Synthetic, csj.ApBaseline) }
func BenchmarkMethod_ApMinMax_Syn(b *testing.B)   { benchMethod(b, dataset.Synthetic, csj.ApMinMax) }
func BenchmarkMethod_ApSuperEGO_Syn(b *testing.B) { benchMethod(b, dataset.Synthetic, csj.ApSuperEGO) }
func BenchmarkMethod_ExBaseline_Syn(b *testing.B) { benchMethod(b, dataset.Synthetic, csj.ExBaseline) }
func BenchmarkMethod_ExMinMax_Syn(b *testing.B)   { benchMethod(b, dataset.Synthetic, csj.ExMinMax) }
func BenchmarkMethod_ExSuperEGO_Syn(b *testing.B) { benchMethod(b, dataset.Synthetic, csj.ExSuperEGO) }

// Ablation benches: the design choices DESIGN.md calls out.

func BenchmarkAblationParts(b *testing.B) {
	cb, ca := pairFor(b, dataset.VK)
	for _, parts := range []int{1, 2, 4, 8} {
		b.Run(partsName(parts), func(b *testing.B) {
			opts := &csj.Options{Epsilon: dataset.EpsilonVK, Parts: parts}
			for i := 0; i < b.N; i++ {
				if _, err := csj.Similarity(context.Background(), cb, ca, csj.ExMinMax, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func partsName(p int) string {
	return "parts=" + string(rune('0'+p))
}

func BenchmarkAblationMatcher(b *testing.B) {
	cb, ca := pairFor(b, dataset.VK)
	for _, mk := range []csj.MatcherKind{csj.MatcherCSF, csj.MatcherHopcroftKarp} {
		b.Run(mk.String(), func(b *testing.B) {
			opts := &csj.Options{Epsilon: dataset.EpsilonVK, Matcher: mk}
			for i := 0; i < b.N; i++ {
				if _, err := csj.Similarity(context.Background(), cb, ca, csj.ExBaseline, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationSkipOffset(b *testing.B) {
	cb, ca := pairFor(b, dataset.VK)
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			opts := &csj.Options{Epsilon: dataset.EpsilonVK, DisableSkipOffset: disabled}
			for i := 0; i < b.N; i++ {
				if _, err := csj.Similarity(context.Background(), cb, ca, csj.ApMinMax, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationEGOThreshold(b *testing.B) {
	cb, ca := pairFor(b, dataset.VK)
	for _, tv := range []int{8, 64, 512} {
		b.Run("t="+itoa(tv), func(b *testing.B) {
			opts := &csj.Options{Epsilon: dataset.EpsilonVK, EGOThreshold: tv}
			for i := 0; i < b.N; i++ {
				if _, err := csj.Similarity(context.Background(), cb, ca, csj.ExSuperEGO, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationNormalization(b *testing.B) {
	cb, ca := pairFor(b, dataset.VK)
	variants := map[string]csj.Options{
		"float32": {Epsilon: dataset.EpsilonVK},
		"float64": {Epsilon: dataset.EpsilonVK, Float64Normalization: true},
		"integer": {Epsilon: dataset.EpsilonVK, VerifyInteger: true},
	}
	for _, name := range []string{"float32", "float64", "integer"} {
		opts := variants[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := csj.Similarity(context.Background(), cb, ca, csj.ExSuperEGO, &opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingSweep is the microbenchmark form of Table 11: one
// Ex-MinMax join per community size, on VK-like data with 20% planted
// similarity. Sub-benchmarks are named by size so `benchstat` plots the
// growth curve directly.
func BenchmarkScalingSweep(b *testing.B) {
	for _, size := range []int{250, 500, 1000, 2000, 4000} {
		b.Run("size="+itoa(size), func(b *testing.B) {
			// Build the couple once, outside the timed loop.
			spec := dataset.PairSpec{
				NameB: "B", NameA: "A", CatB: 0, CatA: 0,
				SizeB: size, SizeA: size, Target: 0.2,
			}
			rngSeed := int64(size)
			rng := newRand(rngSeed)
			gen := dataset.NewGenerator(dataset.VK, rng, 0)
			cb, ca, err := dataset.BuildPair(spec, gen, gen, dataset.EpsilonVK, rng)
			if err != nil {
				b.Fatal(err)
			}
			opts := &csj.Options{Epsilon: dataset.EpsilonVK}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := csj.Similarity(context.Background(), cb, ca, csj.ExMinMax, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalAdd measures the per-event cost of the
// incremental join against a warm state of 2000+2000 users.
func BenchmarkIncrementalAdd(b *testing.B) {
	rng := newRand(5)
	gen := dataset.NewGenerator(dataset.VK, rng, 0)
	join, err := csj.NewIncrementalJoin(dataset.Dim, &csj.Options{Epsilon: dataset.EpsilonVK})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := join.AddA([]int32(gen.User())); err != nil {
			b.Fatal(err)
		}
		if _, err := join.AddB([]int32(gen.User())); err != nil {
			b.Fatal(err)
		}
	}
	users := make([]csj.Vector, b.N)
	for i := range users {
		users[i] = []int32(gen.User())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.AddA(users[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrecomputedMatrix measures the encoding-reuse win: joining
// one community against many with and without Precompute.
func BenchmarkPrecomputedMatrix(b *testing.B) {
	rng := newRand(9)
	gen := dataset.NewGenerator(dataset.VK, rng, 0)
	comms := make([]*csj.Community, 6)
	for i := range comms {
		comms[i] = dataset.GenerateCommunity(gen, "c", 0, 600+50*i)
	}
	opts := &csj.Options{Epsilon: dataset.EpsilonVK}
	b.Run("precomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for x := 0; x < len(comms); x++ {
				for y := x + 1; y < len(comms); y++ {
					cb, ca := csj.Orient(comms[x], comms[y])
					if _, err := csj.Similarity(context.Background(), cb, ca, csj.ExMinMax, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
