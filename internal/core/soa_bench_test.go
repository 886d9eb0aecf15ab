package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/opencsj/csj/internal/dataset"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// The kernel benchmarks time joins in served order: each op joins the
// next pair of a rotation that a served read runs, never one pair over
// and over. A repeated pair lets the branch predictor learn its
// outcomes: the joins of a top-k read ran about 1.6× faster repeated
// than in read order (DESIGN.md §14).

// rankShapeCorpus draws n communities of the node-rank shape: size
// VK-like users of 27 dimensions, 30% of each drawn from one shared
// pool of 1,000 users and the rest from a generator homed on the
// community's own category (perfbench's node-rank recipe).
func rankShapeCorpus(rng *rand.Rand, n, size int) []*vector.Community {
	poolGen := dataset.NewVKGenerator(rng, -1)
	pool := make([]vector.Vector, 1000)
	for i := range pool {
		pool[i] = poolGen.User()
	}
	out := make([]*vector.Community, n)
	for i := range out {
		g := dataset.NewVKGenerator(rng, i%dataset.Dim)
		users := make([]vector.Vector, 0, size)
		for _, p := range rng.Perm(len(pool))[:size*3/10] {
			users = append(users, slices.Clone(pool[p]))
		}
		for len(users) < size {
			users = append(users, g.User())
		}
		rng.Shuffle(len(users), func(x, y int) { users[x], users[y] = users[y], users[x] })
		out[i] = &vector.Community{Name: fmt.Sprintf("vk%02d", i+1), Category: -1, Users: users}
	}
	return out
}

// topkShapeGroup draws one archetype group of the top-k workloads: n
// communities of 16–24 users × 6 dimensions, spread 4,000 above one
// shared base (perfbench's top-k recipe; joined under eps 1500).
func topkShapeGroup(rng *rand.Rand, n int) []*vector.Community {
	base := make([]int32, 6)
	for j := range base {
		base[j] = 10000 + rng.Int31n(dataset.SyntheticMaxCounter-10000-4000)
	}
	out := make([]*vector.Community, n)
	for i := range out {
		users := make([]vector.Vector, 16+rng.Intn(9))
		for k := range users {
			u := make(vector.Vector, len(base))
			for j := range u {
				u[j] = base[j] + rng.Int31n(4000)
			}
			users[k] = u
		}
		out[i] = &vector.Community{Name: fmt.Sprintf("c%03d", i+1), Category: -1, Users: users}
	}
	return out
}

// servedJoin is one join of a served read, oriented as the engines
// orient it: the smaller community (the pivot on a tie) is B.
type servedJoin struct {
	b, a   *vector.Community
	pb, pa *Prepared
}

// servedShape is a rotation of joins with its options.
type servedShape struct {
	opts  Options
	joins []servedJoin
}

// pivotJoins lists the joins of reads that rank each pivot in pivots
// against every other community of comms, in read order.
func pivotJoins(comms []*vector.Community, pivots int, opts Options) (servedShape, error) {
	views := make([]*Prepared, len(comms))
	for i, c := range comms {
		p, err := Prepare(c, opts)
		if err != nil {
			return servedShape{}, err
		}
		views[i] = p
	}
	sh := servedShape{opts: opts}
	for p := 0; p < pivots; p++ {
		for c := range comms {
			if c == p {
				continue
			}
			b, a := p, c
			if comms[c].Size() < comms[p].Size() {
				b, a = c, p
			}
			sh.joins = append(sh.joins, servedJoin{b: comms[b], a: comms[a], pb: views[b], pa: views[a]})
		}
	}
	return sh, nil
}

// rankShape is node-rank's rotation: seven 1,500 × 27 communities,
// each the pivot of one read against the other six, under eps 1.
var rankShape = sync.OnceValues(func() (servedShape, error) {
	comms := rankShapeCorpus(rand.New(rand.NewSource(11)), 7, 1500)
	return pivotJoins(comms, len(comms), Options{Eps: dataset.EpsilonVK})
})

// topkShape is one top-k read: a pivot against the 149 siblings of its
// archetype group, under eps 1500.
var topkShape = sync.OnceValues(func() (servedShape, error) {
	return pivotJoins(topkShapeGroup(rand.New(rand.NewSource(11)), 150), 1, Options{Eps: 1500})
})

// benchShapes runs bench once per served shape.
func benchShapes(b *testing.B, bench func(b *testing.B, sh servedShape)) {
	for _, c := range []struct {
		name  string
		shape func() (servedShape, error)
	}{{"RankShape", rankShape}, {"TopKShape", topkShape}} {
		b.Run(c.name, func(b *testing.B) {
			sh, err := c.shape()
			if err != nil {
				b.Fatal(err)
			}
			bench(b, sh)
		})
	}
}

// benchPrepared times prepared joins, the served hot path: the fused
// SoA sweep with one reused scratch.
func benchPrepared(b *testing.B, run func(bb, aa *Prepared, o Options, s *Scratch, r *Result) error) {
	benchShapes(b, func(b *testing.B, sh servedShape) {
		s := NewScratch()
		var res Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := &sh.joins[i%len(sh.joins)]
			if err := run(j.pb, j.pa, sh.opts, s, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchReference times the scalar reference scan over the same
// rotation, on one-shot Inputs encoded outside the timer, so the two
// legs compare the kernels and not the encoding.
func benchReference(b *testing.B, exact bool) {
	benchShapes(b, func(b *testing.B, sh servedShape) {
		ins := make([]*Input, len(sh.joins))
		for i, j := range sh.joins {
			in, _, _, err := encode(j.b, j.a, &sh.opts)
			if err != nil {
				b.Fatal(err)
			}
			ins[i] = in
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := ins[i%len(ins)]
			var ev Events
			var err error
			if exact {
				_, err = exScan(in, matching.CSF, &ev, nil)
			} else {
				_, err = apScan(in, &ev, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkApPrepared(b *testing.B)  { benchPrepared(b, ApMinMaxPreparedInto) }
func BenchmarkExPrepared(b *testing.B)  { benchPrepared(b, ExMinMaxPreparedInto) }
func BenchmarkApReference(b *testing.B) { benchReference(b, false) }
func BenchmarkExReference(b *testing.B) { benchReference(b, true) }
