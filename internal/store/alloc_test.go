//go:build !race

// The store-overhead guard (mirroring internal/metrics' guard): the
// cache-hit path must stay 0 allocs/op end to end — snapshot load and
// two view lookups, so a warm request reaches its join without
// allocating. The hit path is a binary search, a map lookup, an LRU
// move, an atomic add, and a receive on a closed channel; none of it
// may allocate. The join that follows is the root package's prepared
// join, guarded there (TestPreparedJoinZeroAllocs). The scale guards
// pin that a write and an indexed top-k over the whole store allocate
// the same at every corpus size. Skipped under -race because the
// detector's instrumentation inflates allocation counts (same
// convention as internal/metrics' alloc guard).

package store

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	csj "github.com/opencsj/csj"
)

func TestStoreCacheHitPreparedZeroAllocs(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(42))
	b := mustCreate(t, st, testCommunity("b", rng, 96, 8))
	a := mustCreate(t, st, testCommunity("a", rng, 128, 8))

	for _, eps := range []int32{2, 8} {
		spec := csj.MatchSpec{Epsilon: eps}
		lookup := func() {
			snap := st.Snapshot()
			if _, err := snap.PreparedSpec(b.ID, spec); err != nil {
				panic(err)
			}
			if _, err := snap.PreparedSpec(a.ID, spec); err != nil {
				panic(err)
			}
		}
		lookup() // warm: build both views
		builds := st.CacheStats().Builds

		if allocs := testing.AllocsPerRun(200, lookup); allocs != 0 {
			t.Errorf("eps %d: cache-hit snapshot and lookups allocate %.1f allocs/op, want 0", eps, allocs)
		}
		if got := st.CacheStats().Builds; got != builds {
			t.Errorf("eps %d: %d view builds across the guard loop, want 0 (warmup only)", eps, got-builds)
		}
	}
}

// TestStoreCacheHitSpecZeroAllocs extends the guard to spec-keyed
// lookups: a warm PreparedSpec hit with a heterogeneous epsilon vector
// must also be 0 allocs/op. This empirically pins the digest's stack
// encoding buffer (matchspec.go, specDigestStack) — if the encoder or
// canonicalizer started escaping to the heap, every warm spec-keyed
// request would pay for it. The Ap join under the same tolerance is
// guarded in the root package (TestPreparedJoinZeroAllocs).
func TestStoreCacheHitSpecZeroAllocs(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(43))
	b := mustCreate(t, st, testCommunity("b", rng, 96, 8))
	a := mustCreate(t, st, testCommunity("a", rng, 128, 8))

	spec := csj.MatchSpec{EpsilonVec: []int32{0, 2, 1, 3, 0, 2, 4, 1}}
	warm := func(fail func(error)) {
		snap := st.Snapshot()
		if _, err := snap.PreparedSpec(b.ID, spec); err != nil {
			fail(err)
		}
		if _, err := snap.PreparedSpec(a.ID, spec); err != nil {
			fail(err)
		}
	}
	warm(func(err error) { t.Fatal(err) })

	allocs := testing.AllocsPerRun(200, func() {
		warm(func(err error) { panic(err) })
	})
	if allocs != 0 {
		t.Errorf("warm spec-keyed hit allocates %.1f allocs/op, want 0", allocs)
	}
	if cs := st.CacheStats(); cs.Builds != 2 {
		t.Errorf("builds = %d across the guard loop, want 2 (warmup only)", cs.Builds)
	}
}

// BenchmarkStoreCacheHit keeps an allocation-reporting benchmark of the
// guarded snapshot and lookups alongside the hard guard, so regressions
// show magnitude.
func BenchmarkStoreCacheHit(b *testing.B) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(42))
	cb := mustCreate(b, st, testCommunity("b", rng, 96, 8))
	ca := mustCreate(b, st, testCommunity("a", rng, 128, 8))
	spec := csj.MatchSpec{Epsilon: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := st.Snapshot()
		if _, err := snap.PreparedSpec(cb.ID, spec); err != nil {
			b.Fatal(err)
		}
		if _, err := snap.PreparedSpec(ca.ID, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// seededStore boots a store from a Seed of n communities of size
// users × dims, with ids 1..n and values in [base, base+20).
func seededStore(n, users, dims int, base int32, cfg Config) *Store {
	rng := rand.New(rand.NewSource(int64(n)))
	seed := &Seed{NextID: int64(n), Version: uint64(n)}
	for i := 1; i <= n; i++ {
		c := testCommunity(fmt.Sprintf("f%d", i), rng, users, dims)
		for _, u := range c.Users {
			for j := range u {
				u[j] += base
			}
		}
		seed.Entries = append(seed.Entries, SeedEntry{ID: int64(i), Version: uint64(i), Comm: c})
	}
	cfg.Seed = seed
	return New(cfg)
}

// TestStoreCreateDeleteAllocsScaleFree: a write copies one pointer
// slice, so a Create+Delete pair allocates the same at 1k and at 50k
// stored communities. A snapshot that copied a map or its entries per
// write would allocate with the corpus.
func TestStoreCreateDeleteAllocsScaleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c := testCommunity("w", rng, 20, 6)
	allocs := map[int]float64{}
	for _, n := range []int{1000, 50000} {
		st := seededStore(n, 4, 2, 0, Config{})
		allocs[n] = testing.AllocsPerRun(200, func() {
			e, err := st.Create(c)
			if err != nil {
				panic(err)
			}
			if ok, err := st.Delete(e.ID); !ok || err != nil {
				panic(fmt.Sprint("delete: ", ok, err))
			}
		})
		if st.Len() != n {
			t.Fatalf("store holds %d communities after the guard loop, want %d", st.Len(), n)
		}
	}
	t.Logf("Create+Delete allocs: %v at 1k, %v at 50k", allocs[1000], allocs[50000])
	if allocs[1000] != allocs[50000] {
		t.Errorf("Create+Delete allocates %v at 1k but %v at 50k communities, want equal", allocs[1000], allocs[50000])
	}
}

// TestIndexedTopKAllocsScaleFree: an all-candidates indexed top-k runs
// on the snapshot's candidate source, which builds nothing per
// candidate, so with the same pivot neighbourhood it allocates the same
// at 1k and at 10k communities. The filler communities lie far from
// the pivot, bound to zero, and stay unvisited on the floor tail.
func TestIndexedTopKAllocsScaleFree(t *testing.T) {
	const eps, k = 2, 5
	spec := csj.MatchSpec{Epsilon: eps}
	opts := &csj.Options{Epsilon: eps}
	allocs := map[int]float64{}
	var stats csj.IndexStats
	for _, n := range []int{1000, 10000} {
		st := seededStore(n, 4, 2, 100000, Config{})
		rng := rand.New(rand.NewSource(45))
		var pivot int64
		for i := 0; i < 3*k; i++ {
			pivot = mustCreate(t, st, testCommunity("near", rng, 4, 2)).ID
		}
		snap := st.Snapshot()
		pv, err := snap.PreparedSpec(pivot, spec)
		if err != nil {
			t.Fatal(err)
		}
		query := func() {
			src := snap.Candidates(pivot).Source(spec)
			if _, err := csj.TopKIndexedFrom(context.Background(), pv, src, k, opts); err != nil {
				panic(err)
			}
		}
		query() // build the visited views
		allocs[n] = testing.AllocsPerRun(50, query)

		iopts := *opts
		iopts.OnIndexStats = func(s csj.IndexStats) { stats = s }
		if _, err := csj.TopKIndexedFrom(context.Background(), pv, snap.Candidates(pivot).Source(spec), k, &iopts); err != nil {
			t.Fatal(err)
		}
		if stats.Candidates != int64(n+3*k-1) || stats.Visited < k || stats.Visited >= 3*k {
			t.Fatalf("n=%d: stats %+v: the query must visit only the pivot's neighbourhood", n, stats)
		}
	}
	t.Logf("indexed top-k allocs: %v at 1k, %v at 10k; last stats %+v", allocs[1000], allocs[10000], stats)
	if allocs[1000] != allocs[10000] {
		t.Errorf("indexed top-k allocates %v at 1k but %v at 10k communities, want equal", allocs[1000], allocs[10000])
	}
}

// BenchmarkStoreCreateDelete times one Create and one Delete against
// stores of growing size, in node-topk's community shape (20 users ×
// 6 dims); create-ns and delete-ns split the pair.
func BenchmarkStoreCreateDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	c := testCommunity("w", rng, 20, 6)
	for _, n := range []int{1000, 5000, 20000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st := seededStore(n, 20, 6, 0, Config{})
			var create, del time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				e, err := st.Create(c)
				t1 := time.Now()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.Delete(e.ID); err != nil {
					b.Fatal(err)
				}
				create, del = create+t1.Sub(t0), del+time.Since(t1)
			}
			b.ReportMetric(float64(create.Nanoseconds())/float64(b.N), "create-ns/op")
			b.ReportMetric(float64(del.Nanoseconds())/float64(b.N), "delete-ns/op")
		})
	}
}
