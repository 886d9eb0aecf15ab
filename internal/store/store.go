// Package store owns the communities behind the HTTP service: an
// in-memory Store of immutable, deep-copied communities with
// monotonically increasing versions, copy-on-write snapshots (a join
// always runs against a consistent view even while concurrent creates
// and deletes land), and a lazily built, epsilon+parts-keyed cache of
// prepared MinMax views shared by every request (see cache.go). It
// turns encoding into a once-per-(community, version, epsilon, parts)
// cost amortized across all requests — "index once, probe many" — so
// a warmed-up /matrix performs zero core.Prepare calls (DESIGN.md §10).
//
// A Store is memory-only by default; wiring a Persistence (the
// write-ahead log of internal/durable, DESIGN.md §11) makes every
// mutation durable before it is acknowledged, with the read path —
// snapshots, cached views, the 0-alloc prepared fast path — completely
// untouched.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	csj "github.com/opencsj/csj"
)

// ErrUnknownCommunity reports a community id absent from a snapshot.
var ErrUnknownCommunity = errors.New("store: unknown community")

// ErrDuplicateID reports a CreateWithID collision with a live entry.
var ErrDuplicateID = errors.New("store: duplicate community id")

// Persistence is the optional durability hook under the store,
// implemented by internal/durable.Log. The store appends every
// mutation *before* applying it — an append error means the mutation
// never happened — and drives checkpoints through BeginCheckpoint so
// the rotation point is exactly consistent with the seed it hands
// over. All methods must be safe for concurrent use.
type Persistence interface {
	// AppendPut logs a community ingest under the id and version the
	// mutation will carry.
	AppendPut(id int64, version uint64, c *csj.Community) error
	// AppendDelete logs a community removal.
	AppendDelete(id int64, version uint64) error
	// CheckpointDue reports that enough writes accumulated for an
	// automatic checkpoint; cheap, polled after every mutation.
	CheckpointDue() bool
	// BeginCheckpoint is called under the store's mutation lock with
	// seed equal to the exact current state; it must return quickly
	// (rotate, don't write) and hand back a commit closure the store
	// runs outside the lock to durably install the checkpoint.
	BeginCheckpoint(seed *Seed) (commit func() error, err error)
	// Close flushes and releases the persistence layer. The store's
	// Close forwards here; mutation traffic must be drained first.
	Close() error
}

// Seed is a full store image: what a Persistence hands back after
// recovery, and what the store hands to BeginCheckpoint. NextID and
// Version persist independently of Entries so ids are never reused and
// versions never regress, even across deletes of the newest community.
type Seed struct {
	NextID  int64
	Version uint64
	Entries []SeedEntry // ascending ID when the store makes it
}

// SeedEntry is one community of a Seed. The store takes ownership of
// Comm when seeding (recovery output is never aliased by callers).
type SeedEntry struct {
	ID      int64
	Version uint64
	Comm    *csj.Community
}

// Config parameterizes a Store.
type Config struct {
	// MaxCacheBytes caps the bytes the cached prepared views own
	// (csj.PreparedCommunity.Footprint accounting); <= 0 removes
	// the cap. The most recently used view is never evicted, so a single
	// view larger than the cap is served rather than thrashed.
	MaxCacheBytes int64
	// Observer receives cache lifecycle callbacks; nil disables
	// observation. Callbacks fire concurrently from request goroutines
	// and must be safe for concurrent use.
	Observer Observer
	// Persistence, when non-nil, makes every mutation durable before it
	// is applied or acknowledged (DESIGN.md §11). Nil keeps the store
	// memory-only with zero overhead.
	Persistence Persistence
	// Seed, when non-nil, is the image the store boots from
	// (Persistence recovery output, or a caller's own corpus). Entries
	// may come in any order; of entries repeating an ID, the last wins.
	Seed *Seed
	// Logf, when non-nil, receives background-failure log lines
	// (checkpoint errors from the automatic checkpoint goroutine).
	Logf func(format string, args ...any)
}

// Entry is one stored community. Entries are immutable: the community
// was deep-copied on ingest and must not be mutated by callers.
type Entry struct {
	// ID identifies the community; ids are never reused.
	ID int64
	// Version is the store-wide mutation counter value at ingest; it
	// keys the prepared-view cache so a view can never outlive the
	// community state it encodes.
	Version uint64
	// Comm is the deep-copied community.
	Comm *csj.Community
	// Summary is the community's pruning summary for the envelope index
	// at csj.DefaultIndexBuckets (DESIGN.md §12); nil only when the
	// community cannot be summarized, which the indexed engines report
	// as an error. Entries are immutable and replaced wholesale on
	// mutation, so the summary is versioned exactly like the entry:
	// built on Create, dropped with the entry on Delete, rebuilt — being
	// a pure function of the community, identically — on the Seed boot
	// path after WAL recovery. Summaries are never persisted.
	Summary *csj.CommunitySummary
}

// Store holds communities behind copy-on-write snapshots. All methods
// are safe for concurrent use; reads (Snapshot) are wait-free.
type Store struct {
	cache *cache
	p     Persistence
	logf  func(format string, args ...any)

	// checkpointing gates the automatic background checkpoint goroutine
	// to one at a time; ckptMu serializes it with explicit Checkpoint
	// calls.
	checkpointing atomic.Bool
	ckptMu        sync.Mutex

	mu      sync.Mutex // serializes mutations; never held by readers
	nextID  int64
	version uint64
	snap    atomic.Pointer[Snapshot]
}

// New returns a store, empty unless cfg.Seed carries an image.
func New(cfg Config) *Store {
	s := &Store{
		cache: newCache(cfg.MaxCacheBytes, cfg.Observer),
		p:     cfg.Persistence,
		logf:  cfg.Logf,
	}
	var list []*Entry
	if cfg.Seed != nil {
		s.nextID = cfg.Seed.NextID
		s.version = cfg.Seed.Version
		list = make([]*Entry, len(cfg.Seed.Entries))
		for i, se := range cfg.Seed.Entries {
			// Recovery rebuild: summaries are pure functions of the
			// community, so the rebuilt index prunes identically to the
			// pre-crash one (pinned by TestRecoveredSummariesPruneIdentically).
			list[i] = &Entry{ID: se.ID, Version: se.Version, Comm: se.Comm,
				Summary: summarize(se.Comm)}
		}
		list = sortByID(list)
		for _, e := range list {
			s.cache.setLive(e.ID, e.Version)
		}
		if n := len(list); n > 0 && list[n-1].ID > s.nextID {
			s.nextID = list[n-1].ID // a locally assigned id must never collide
		}
	}
	s.snap.Store(&Snapshot{store: s, list: list})
	return s
}

// sortByID orders entries by ascending id in place and keeps only the
// last of any entries that repeat an id, as a seed replayed into a map
// would. Snapshot lookups binary-search the list, so a seed must never
// reach it unsorted or repeated.
func sortByID(list []*Entry) []*Entry {
	slices.SortStableFunc(list, func(x, y *Entry) int { return cmp.Compare(x.ID, y.ID) })
	n := 0
	for i, e := range list {
		if i+1 < len(list) && list[i+1].ID == e.ID {
			continue // a later seed entry repeats this id and wins
		}
		list[n] = e
		n++
	}
	clear(list[n:])
	return list[:n]
}

// Create deep-copies the community into the store under the next free
// id and returns its entry. The caller keeps full ownership of c; later
// mutations of it cannot reach the stored copy. With persistence
// attached, the mutation is appended (and, per the fsync policy, made
// durable) before it is applied: an error means the community was not
// stored.
func (s *Store) Create(c *csj.Community) (*Entry, error) {
	return s.create(0, c)
}

// CreateWithID ingests a community under a caller-chosen id — the
// cluster coordinator's write path (DESIGN.md §13), where ids are
// assigned centrally so they stay unique across shards. Same
// durability contract as Create. The id must be positive and not
// currently stored; nextID ratchets to at least id so a later locally
// assigned id can never collide with a coordinator-assigned one.
// Concurrent coordinator writes can arrive out of id order; each lands
// at its place in the id-ordered listing.
func (s *Store) CreateWithID(id int64, c *csj.Community) (*Entry, error) {
	if id <= 0 {
		return nil, fmt.Errorf("store: community id must be positive, got %d", id)
	}
	return s.create(id, c)
}

// create is the body of Create and CreateWithID: clone and summarize
// outside the lock, then, under it, append to the persistence layer,
// publish the new snapshot, and mark the version live. An id of 0 takes
// the next free id, which sorts after every live one.
func (s *Store) create(id int64, c *csj.Community) (*Entry, error) {
	clone := c.Clone()
	sum := summarize(clone) // built outside the lock; O(users*d)
	s.mu.Lock()
	if id == 0 {
		id = s.nextID + 1
	}
	old := s.snap.Load()
	pos, found := old.search(id)
	if found {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: community %d", ErrDuplicateID, id)
	}
	version := s.version + 1
	if s.p != nil {
		if err := s.p.AppendPut(id, version, clone); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("store: persisting community: %w", err)
		}
	}
	s.nextID, s.version = max(s.nextID, id), version
	e := &Entry{ID: id, Version: version, Comm: clone, Summary: sum}
	s.cache.setLive(e.ID, e.Version)
	s.snap.Store(old.insert(pos, e))
	s.mu.Unlock()
	s.maybeCheckpoint()
	return e, nil
}

// Delete removes the community and invalidates its cached views.
// Snapshots taken before the delete still see the entry (and may keep
// joining it); only new snapshots observe the removal. With
// persistence attached the removal is appended first: an error means
// the community is still there.
func (s *Store) Delete(id int64) (bool, error) {
	s.mu.Lock()
	old := s.snap.Load()
	pos, found := old.search(id)
	if !found {
		s.mu.Unlock()
		return false, nil
	}
	version := s.version + 1
	if s.p != nil {
		if err := s.p.AppendDelete(id, version); err != nil {
			s.mu.Unlock()
			return false, fmt.Errorf("store: persisting delete of community %d: %w", id, err)
		}
	}
	s.version = version
	s.cache.invalidate(id)
	s.snap.Store(old.remove(pos))
	s.mu.Unlock()
	s.maybeCheckpoint()
	return true, nil
}

// summarize builds an entry's pruning summary, or nil when the
// community cannot be summarized (e.g. empty).
func summarize(c *csj.Community) *csj.CommunitySummary {
	sum, err := csj.SummarizeCommunity(c, csj.DefaultIndexBuckets)
	if err != nil {
		return nil
	}
	return sum
}

// seedLocked captures the exact current state as a Seed. Entry
// communities are shared, not copied — they are immutable. Callers
// must hold s.mu.
func (s *Store) seedLocked() *Seed {
	list := s.snap.Load().list
	seed := &Seed{NextID: s.nextID, Version: s.version}
	seed.Entries = make([]SeedEntry, len(list))
	for i, e := range list {
		seed.Entries[i] = SeedEntry{ID: e.ID, Version: e.Version, Comm: e.Comm}
	}
	return seed
}

// maybeCheckpoint starts one background checkpoint when the
// persistence layer says it is due.
func (s *Store) maybeCheckpoint() {
	if s.p == nil || !s.p.CheckpointDue() {
		return
	}
	if !s.checkpointing.CompareAndSwap(false, true) {
		return // one automatic checkpoint at a time
	}
	go func() {
		defer s.checkpointing.Store(false)
		if err := s.Checkpoint(); err != nil {
			if s.logf != nil {
				s.logf("store: background checkpoint failed: %v", err)
			}
		}
	}()
}

// Checkpoint durably snapshots the current state into the persistence
// layer and lets it collect the superseded WAL. A no-op without
// persistence. Mutations are only blocked for the segment rotation,
// not for the checkpoint write itself.
func (s *Store) Checkpoint() error {
	if s.p == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	seed := s.seedLocked()
	commit, err := s.p.BeginCheckpoint(seed)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return commit()
}

// Close flushes and closes the persistence layer (a no-op for a
// memory-only store). Callers must drain mutation traffic first: the
// HTTP server shuts down before its store closes, so a SIGTERM during
// ingest can never drop an acknowledged Put.
func (s *Store) Close() error {
	if s.p == nil {
		return nil
	}
	return s.p.Close()
}

// Snapshot returns the current consistent view. The snapshot never
// changes after it is returned: concurrent creates and deletes publish
// new snapshots instead of mutating this one, so a batch join can
// resolve and join many communities from one snapshot without ever
// seeing a half-applied mutation.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Len returns the number of stored communities.
func (s *Store) Len() int { return s.snap.Load().Len() }

// CacheStats returns the prepared-view cache's counters and occupancy.
func (s *Store) CacheStats() CacheStats { return s.cache.stats() }

// Snapshot is an immutable point-in-time view of the store: its
// entries in ascending id order. Snapshots are published copy-on-write.
// A write binary-searches its position and copies the entry pointers
// once into a fresh slice, so it costs O(log n) comparisons plus one
// O(n) pointer copy — no map copy, no sort — and never disturbs a
// snapshot a reader still holds.
type Snapshot struct {
	store *Store
	list  []*Entry // ascending ID; never mutated after publication
}

// search returns the list position of id, or where it would be
// inserted, and whether it is present.
func (sn *Snapshot) search(id int64) (int, bool) {
	return slices.BinarySearchFunc(sn.list, id, func(e *Entry, id int64) int { return cmp.Compare(e.ID, id) })
}

// insert returns a new snapshot with e at list position pos.
func (sn *Snapshot) insert(pos int, e *Entry) *Snapshot {
	list := make([]*Entry, len(sn.list)+1)
	copy(list, sn.list[:pos])
	list[pos] = e
	copy(list[pos+1:], sn.list[pos:])
	return &Snapshot{store: sn.store, list: list}
}

// remove returns a new snapshot without the entry at list position pos.
func (sn *Snapshot) remove(pos int) *Snapshot {
	list := make([]*Entry, len(sn.list)-1)
	copy(list, sn.list[:pos])
	copy(list[pos:], sn.list[pos+1:])
	return &Snapshot{store: sn.store, list: list}
}

// Get returns the entry for id, if present, by binary search over the
// id-ordered listing.
func (sn *Snapshot) Get(id int64) (*Entry, bool) {
	if i, ok := sn.search(id); ok {
		return sn.list[i], true
	}
	return nil, false
}

// Len returns the number of communities in the snapshot.
func (sn *Snapshot) Len() int { return len(sn.list) }

// List returns the entries in ascending id order. The slice is the
// snapshot itself, shared by every caller, and must not be mutated.
func (sn *Snapshot) List() []*Entry { return sn.list }

// PreparedSpec returns the cached MinMax view of community id under
// the given match spec, building and caching it on first use. The view
// is keyed by the digest of the scorer-stripped canonical spec, so
// specs that spell the same tolerance and part count differently — or
// differ only in scorer — share one view. Concurrent requests for the
// same uncached view share a single build. The view belongs to the
// entry's version: a racing delete cannot leave a stale view behind.
//
// The cache-hit path performs zero allocations, including the spec
// digest (see TestStoreCacheHitPreparedZeroAllocs and
// TestStoreCacheHitSpecZeroAllocs).
func (sn *Snapshot) PreparedSpec(id int64, spec csj.MatchSpec) (*csj.PreparedCommunity, error) {
	e, ok := sn.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w %d", ErrUnknownCommunity, id)
	}
	return sn.store.cache.get(e, spec)
}
