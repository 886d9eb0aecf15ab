package store

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	csj "github.com/opencsj/csj"
)

// Observer receives prepared-view cache lifecycle events. The server's
// metrics registry implements it; a nil observer disables observation.
type Observer interface {
	// CacheHit fires when a request finds its view already present
	// (ready or still building — it still shares the one build).
	CacheHit()
	// CacheMiss fires when a request finds no view and starts a build.
	CacheMiss()
	// CacheBuild fires once per executed core.Prepare with its duration.
	CacheBuild(d time.Duration)
	// CacheStored fires when a built view is inserted, with its
	// footprint. Stale builds (community deleted mid-build) never store.
	CacheStored(bytes int64)
	// CacheEvicted fires when a view leaves the cache (LRU pressure or
	// invalidation on delete), with its footprint.
	CacheEvicted(bytes int64)
}

// CacheStats is a point-in-time read of the cache counters.
type CacheStats struct {
	Hits         int64
	Misses       int64
	Builds       int64
	Evictions    int64
	EvictedBytes int64
	Bytes        int64
	Entries      int
}

// viewKey identifies one prepared view: a community at a specific
// version under a canonical match spec, identified by its digest
// (csj.MatchSpec.Digest of the scorer-stripped ViewSpec). Canonical
// digesting means requests that spell the same predicate differently —
// parts 0 vs the explicit default, an all-equal epsilon vector vs its
// scalar, specs differing only in scorer — share one view, while the
// injective encoding under the hash keeps distinct specs (for example
// epsilon vectors [1, 23] and [12, 3], which a naive string key could
// both print as "123") on distinct entries.
type viewKey struct {
	id      int64
	version uint64
	digest  csj.SpecDigest
}

// view is one cache slot. ready closes when the build finishes; until
// then pc and err must not be read. elem is non-nil iff the view is
// resident in the LRU list.
type view struct {
	key   viewKey
	ready chan struct{}
	pc    *csj.PreparedCommunity
	err   error
	bytes int64
	elem  *list.Element
}

// cache is the spec-digest-keyed prepared-view cache with singleflight
// build deduplication and LRU byte-capped eviction.
type cache struct {
	maxBytes int64
	obs      Observer

	hits, misses, builds    atomic.Int64
	evictions, evictedBytes atomic.Int64

	mu    sync.Mutex
	views map[viewKey]*view
	lru   *list.List // front = most recently used; resident views only
	bytes int64
	// resident maps community id to its resident views, so a delete
	// drops its own views without scanning everyone else's.
	resident map[int64][]*view
	// live maps community id to its current version; a build that
	// finishes after its community was deleted (or the id vanished) is
	// handed to its waiters but never inserted.
	live map[int64]uint64

	// buildHook, when set, runs after miss bookkeeping and before the
	// build, outside the lock. Test seam for deterministic singleflight
	// and stale-build scenarios.
	buildHook func(k viewKey)
}

func newCache(maxBytes int64, obs Observer) *cache {
	return &cache{
		maxBytes: maxBytes,
		obs:      obs,
		views:    map[viewKey]*view{},
		lru:      list.New(),
		resident: map[int64][]*view{},
		live:     map[int64]uint64{},
	}
}

// setLive records id's current version. Called under the store's
// mutation lock on create.
func (c *cache) setLive(id int64, version uint64) {
	c.mu.Lock()
	c.live[id] = version
	c.mu.Unlock()
}

// get returns the prepared view for entry e under the given match
// spec, building it if absent. The key digests the scorer-stripped
// canonical spec (views depend only on tolerance and parts), and the
// digest computation itself is allocation-free for epsilon vectors up
// to ~100 dimensions, keeping the warm hit path at 0 allocs/op.
// Exactly one build runs per uncached key no matter how many requests
// race; the others block on ready and share the result. Build errors
// are returned to every waiter of that build but not cached — the next
// request retries.
func (c *cache) get(e *Entry, spec csj.MatchSpec) (*csj.PreparedCommunity, error) {
	vs := spec.ViewSpec()
	k := viewKey{id: e.ID, version: e.Version, digest: vs.Digest(e.Comm.Dim())}
	c.mu.Lock()
	if v, ok := c.views[k]; ok {
		if v.elem != nil {
			c.lru.MoveToFront(v.elem)
		}
		c.hits.Add(1)
		c.mu.Unlock()
		if c.obs != nil {
			c.obs.CacheHit()
		}
		<-v.ready
		return v.pc, v.err
	}
	v := &view{key: k, ready: make(chan struct{})}
	c.views[k] = v
	c.misses.Add(1)
	hook := c.buildHook
	c.mu.Unlock()
	if c.obs != nil {
		c.obs.CacheMiss()
	}
	if hook != nil {
		hook(k)
	}

	start := time.Now()
	pc, err := csj.Precompute(e.Comm, &csj.Options{Epsilon: vs.Epsilon, EpsilonVec: vs.EpsilonVec, Parts: vs.Parts})
	elapsed := time.Since(start)
	c.builds.Add(1)

	c.mu.Lock()
	v.pc, v.err = pc, err
	close(v.ready)
	if err != nil {
		delete(c.views, k)
		c.mu.Unlock()
		if c.obs != nil {
			c.obs.CacheBuild(elapsed)
		}
		return nil, err
	}
	stored := false
	var evicted []*view
	if c.live[k.id] == k.version {
		v.bytes = pc.Footprint()
		v.elem = c.lru.PushFront(v)
		c.resident[k.id] = append(c.resident[k.id], v)
		c.bytes += v.bytes
		stored = true
		evicted = c.evictLocked()
	} else {
		// The community was deleted while we were building: hand the
		// view to the waiters but leave nothing behind in the cache.
		delete(c.views, k)
	}
	c.mu.Unlock()
	if c.obs != nil {
		c.obs.CacheBuild(elapsed)
		if stored {
			c.obs.CacheStored(v.bytes)
		}
		for _, ev := range evicted {
			c.obs.CacheEvicted(ev.bytes)
		}
	}
	return pc, nil
}

// evictLocked drops views from the LRU back until the cache fits the
// byte cap again. The most recently used view always stays resident, so
// one oversized view is served rather than rebuilt forever.
func (c *cache) evictLocked() []*view {
	if c.maxBytes <= 0 {
		return nil
	}
	var out []*view
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		v := c.lru.Back().Value.(*view)
		c.removeLocked(v)
		out = append(out, v)
	}
	return out
}

// removeLocked evicts a resident view.
func (c *cache) removeLocked(v *view) {
	vs := c.resident[v.key.id]
	i := slices.Index(vs, v)
	vs[i] = vs[len(vs)-1]
	vs[len(vs)-1] = nil
	if vs = vs[:len(vs)-1]; len(vs) == 0 {
		delete(c.resident, v.key.id)
	} else {
		c.resident[v.key.id] = vs
	}
	c.unlinkLocked(v)
}

// unlinkLocked drops a resident view from the key map and the LRU and
// updates the byte accounting; the caller maintains c.resident.
func (c *cache) unlinkLocked(v *view) {
	delete(c.views, v.key)
	c.lru.Remove(v.elem)
	v.elem = nil
	c.bytes -= v.bytes
	c.evictions.Add(1)
	c.evictedBytes.Add(v.bytes)
}

// invalidate drops every resident view of community id and forgets its
// live version, so in-flight builds for it are discarded on completion.
// It touches only id's own views. Called under the store's mutation
// lock on delete.
func (c *cache) invalidate(id int64) {
	c.mu.Lock()
	delete(c.live, id)
	// In-flight builds are not resident yet; the live check at their
	// completion discards them.
	dropped := c.resident[id]
	delete(c.resident, id)
	for _, v := range dropped {
		c.unlinkLocked(v)
	}
	c.mu.Unlock()
	if c.obs != nil {
		for _, v := range dropped {
			c.obs.CacheEvicted(v.bytes)
		}
	}
}

// stats snapshots the counters and occupancy.
func (c *cache) stats() CacheStats {
	c.mu.Lock()
	bytes, entries := c.bytes, c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Builds:       c.builds.Load(),
		Evictions:    c.evictions.Load(),
		EvictedBytes: c.evictedBytes.Load(),
		Bytes:        bytes,
		Entries:      entries,
	}
}
