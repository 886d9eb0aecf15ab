package store

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/encoding"
)

func TestCacheHitMissAndKeying(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(10))
	e := mustCreate(t, st, testCommunity("c", rng, 16, 8))
	snap := st.Snapshot()

	v1, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("second request for the same view returned a different object")
	}
	// parts 0 and the explicit default are the same canonical key.
	v3, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 2, Parts: encoding.DefaultParts})
	if err != nil {
		t.Fatal(err)
	}
	if v3 != v1 {
		t.Error("parts=0 and parts=default produced distinct views")
	}
	// A different epsilon is a different view.
	v4, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v4 == v1 {
		t.Error("different epsilon returned the same view")
	}
	cs := st.CacheStats()
	if cs.Misses != 2 || cs.Builds != 2 {
		t.Errorf("misses=%d builds=%d, want 2 and 2", cs.Misses, cs.Builds)
	}
	if cs.Hits != 2 {
		t.Errorf("hits=%d, want 2", cs.Hits)
	}
	if cs.Entries != 2 || cs.Bytes <= 0 {
		t.Errorf("entries=%d bytes=%d, want 2 resident views with positive bytes", cs.Entries, cs.Bytes)
	}
	if _, err := snap.PreparedSpec(e.ID+100, csj.MatchSpec{Epsilon: 2}); !errors.Is(err, ErrUnknownCommunity) {
		t.Errorf("unknown id error = %v, want ErrUnknownCommunity", err)
	}
}

// TestCacheSingleflight: N concurrent requests for one uncached view
// run exactly one build; the rest count as hits and share the result.
func TestCacheSingleflight(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(11))
	e := mustCreate(t, st, testCommunity("c", rng, 32, 8))
	snap := st.Snapshot()

	const waiters = 9
	release := make(chan struct{})
	st.cache.buildHook = func(viewKey) {
		// Hold the one build until every waiter has hit the in-flight
		// entry, proving they share it rather than building their own.
		for st.CacheStats().Hits < waiters {
			select {
			case <-release:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}

	var wg sync.WaitGroup
	results := make([]*csj.PreparedCommunity, waiters+1)
	for i := 0; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 1})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(release) // unwedge the hook before failing
		t.Fatal("singleflight waiters did not finish")
	}

	cs := st.CacheStats()
	if cs.Builds != 1 || cs.Misses != 1 {
		t.Errorf("builds=%d misses=%d, want exactly one build and one miss", cs.Builds, cs.Misses)
	}
	if cs.Hits != waiters {
		t.Errorf("hits=%d, want %d", cs.Hits, waiters)
	}
	for i, v := range results {
		if v != results[0] {
			t.Fatalf("waiter %d got a different view object", i)
		}
	}
}

// TestCacheEviction: under a byte cap, least-recently-used views are
// dropped — but never the most recent one.
func TestCacheEviction(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(12))
	e := mustCreate(t, st, testCommunity("c", rng, 32, 8))
	snap := st.Snapshot()

	// Size the cap from a real footprint: room for one view plus a bit,
	// so a second view always overflows.
	probe, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	st.cache.maxBytes = probe.Footprint() + probe.Footprint()/2

	for epsInt := 1; epsInt <= 3; epsInt++ {
		if _, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: int32(epsInt)}); err != nil {
			t.Fatal(err)
		}
	}
	cs := st.CacheStats()
	if cs.Evictions == 0 || cs.EvictedBytes == 0 {
		t.Fatalf("no evictions under a byte cap: %+v", cs)
	}
	if cs.Entries == 0 {
		t.Error("eviction emptied the cache; the newest view must stay")
	}
	if cs.Bytes > st.cache.maxBytes {
		t.Errorf("resident bytes %d exceed cap %d with evictable entries", cs.Bytes, st.cache.maxBytes)
	}
	if got := len(st.cache.resident[e.ID]); got != cs.Entries {
		t.Errorf("%d views listed as resident for the community, %d in the cache", got, cs.Entries)
	}
	// The newest view (eps=3) must still be a hit, not a rebuild.
	builds := cs.Builds
	if _, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 3}); err != nil {
		t.Fatal(err)
	}
	if got := st.CacheStats().Builds; got != builds {
		t.Errorf("most recent view was evicted and rebuilt (builds %d -> %d)", builds, got)
	}
}

// TestCacheInvalidationOnDelete: deleting a community drops its
// resident views immediately, and only its own: every other
// community's views stay resident (hits, no rebuilds), and the byte
// accounting stays exact.
func TestCacheInvalidationOnDelete(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(13))
	var ids []int64
	for i := 0; i < 4; i++ {
		ids = append(ids, mustCreate(t, st, testCommunity("c", rng, 16, 8)).ID)
	}
	snap := st.Snapshot()
	bytes := map[int64]int64{} // resident bytes per community
	for _, id := range ids {
		for eps := int32(1); eps <= 3; eps++ {
			pc, err := snap.PreparedSpec(id, csj.MatchSpec{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			bytes[id] += pc.Footprint()
		}
	}
	victim := ids[1]
	if !mustDelete(t, st, victim) {
		t.Fatal("Delete failed")
	}
	cs := st.CacheStats()
	if want := 3 * (len(ids) - 1); cs.Entries != want {
		t.Errorf("entries=%d after delete, want %d (only the surviving communities' views)", cs.Entries, want)
	}
	if cs.Evictions != 3 || cs.EvictedBytes != bytes[victim] {
		t.Errorf("evictions=%d (%d B) after delete, want 3 (%d B)", cs.Evictions, cs.EvictedBytes, bytes[victim])
	}
	var survivors int64
	for _, id := range ids {
		if id != victim {
			survivors += bytes[id]
		}
	}
	if cs.Bytes != survivors {
		t.Errorf("resident bytes %d after delete, want %d (the survivors' footprints)", cs.Bytes, survivors)
	}
	if _, ok := st.cache.resident[victim]; ok {
		t.Error("the deleted community still has a resident-view list")
	}
	for _, id := range ids {
		if id == victim {
			continue
		}
		for eps := int32(1); eps <= 3; eps++ {
			if _, err := snap.PreparedSpec(id, csj.MatchSpec{Epsilon: eps}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := st.CacheStats(); got.Builds != cs.Builds || got.Bytes != survivors {
		t.Errorf("surviving views rebuilt or resized: builds %d -> %d, bytes %d", cs.Builds, got.Builds, got.Bytes)
	}
}

// TestCacheStaleBuildDiscarded: a build that completes after its
// community was deleted is returned to its waiters but never cached.
func TestCacheStaleBuildDiscarded(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(14))
	e := mustCreate(t, st, testCommunity("c", rng, 16, 8))
	snap := st.Snapshot() // taken before the delete: still sees e

	deleted := make(chan struct{})
	st.cache.buildHook = func(viewKey) { <-deleted }
	got := make(chan *csj.PreparedCommunity, 1)
	go func() {
		v, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 1})
		if err != nil {
			t.Errorf("stale build returned error: %v", err)
		}
		got <- v
	}()
	// Wait for the builder to reach the hook, then delete underneath it.
	for st.CacheStats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	if !mustDelete(t, st, e.ID) {
		t.Fatal("Delete failed")
	}
	close(deleted)

	select {
	case v := <-got:
		if v == nil {
			t.Fatal("stale build returned nil view")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stale build never completed")
	}
	cs := st.CacheStats()
	if cs.Entries != 0 {
		t.Errorf("stale build was cached: entries=%d, want 0", cs.Entries)
	}
}

// countingObserver verifies the Observer contract arithmetic.
type countingObserver struct {
	mu                        sync.Mutex
	hits, misses, builds      int64
	storedBytes, evictedBytes int64
	storedCount, evictedCount int64
}

func (o *countingObserver) CacheHit()  { o.mu.Lock(); o.hits++; o.mu.Unlock() }
func (o *countingObserver) CacheMiss() { o.mu.Lock(); o.misses++; o.mu.Unlock() }
func (o *countingObserver) CacheBuild(time.Duration) {
	o.mu.Lock()
	o.builds++
	o.mu.Unlock()
}
func (o *countingObserver) CacheStored(b int64) {
	o.mu.Lock()
	o.storedCount++
	o.storedBytes += b
	o.mu.Unlock()
}
func (o *countingObserver) CacheEvicted(b int64) {
	o.mu.Lock()
	o.evictedCount++
	o.evictedBytes += b
	o.mu.Unlock()
}

func TestObserverMatchesStats(t *testing.T) {
	obs := &countingObserver{}
	st := New(Config{Observer: obs})
	rng := rand.New(rand.NewSource(15))
	e := mustCreate(t, st, testCommunity("c", rng, 16, 8))
	snap := st.Snapshot()
	for i := 0; i < 3; i++ {
		if _, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mustDelete(t, st, e.ID)

	obs.mu.Lock()
	defer obs.mu.Unlock()
	cs := st.CacheStats()
	if obs.hits != cs.Hits || obs.misses != cs.Misses || obs.builds != cs.Builds {
		t.Errorf("observer hits/misses/builds = %d/%d/%d, stats = %d/%d/%d",
			obs.hits, obs.misses, obs.builds, cs.Hits, cs.Misses, cs.Builds)
	}
	if obs.storedBytes != obs.evictedBytes {
		t.Errorf("stored %d bytes but evicted %d after full invalidation", obs.storedBytes, obs.evictedBytes)
	}
	if obs.storedCount != 1 || obs.evictedCount != 1 {
		t.Errorf("stored/evicted counts = %d/%d, want 1/1", obs.storedCount, obs.evictedCount)
	}
}
