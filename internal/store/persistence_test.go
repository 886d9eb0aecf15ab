package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	csj "github.com/opencsj/csj"
)

// stubPersistence rejects appends on demand, so tests can pin the
// append-before-acknowledge contract: a failed append must leave the
// store exactly as it was.
type stubPersistence struct {
	fail    bool
	puts    int
	deletes int
}

var errDiskFull = errors.New("disk full")

func (p *stubPersistence) AppendPut(id int64, version uint64, c *csj.Community) error {
	if p.fail {
		return errDiskFull
	}
	p.puts++
	return nil
}

func (p *stubPersistence) AppendDelete(id int64, version uint64) error {
	if p.fail {
		return errDiskFull
	}
	p.deletes++
	return nil
}

func (p *stubPersistence) CheckpointDue() bool { return false }

func (p *stubPersistence) BeginCheckpoint(seed *Seed) (func() error, error) {
	return func() error { return nil }, nil
}

func (p *stubPersistence) Close() error { return nil }

func TestCreateFailsWhenPersistenceFails(t *testing.T) {
	p := &stubPersistence{}
	st := New(Config{Persistence: p})
	rng := rand.New(rand.NewSource(1))

	e := mustCreate(t, st, testCommunity("ok", rng, 6, 3))
	if p.puts != 1 {
		t.Fatalf("puts = %d, want 1", p.puts)
	}

	p.fail = true
	if _, err := st.Create(testCommunity("doomed", rng, 6, 3)); !errors.Is(err, errDiskFull) {
		t.Fatalf("Create with failing persistence = %v, want errDiskFull", err)
	}
	if st.Len() != 1 {
		t.Errorf("failed Create changed the store: Len = %d, want 1", st.Len())
	}

	// A failed Delete leaves the community in place.
	if _, err := st.Delete(e.ID); !errors.Is(err, errDiskFull) {
		t.Fatalf("Delete with failing persistence = %v, want errDiskFull", err)
	}
	if _, ok := st.Snapshot().Get(e.ID); !ok {
		t.Error("failed Delete removed the community")
	}

	// Once persistence heals, the next mutation reuses the id and
	// version the failed attempt never consumed.
	p.fail = false
	e2 := mustCreate(t, st, testCommunity("healed", rng, 6, 3))
	if e2.ID != e.ID+1 {
		t.Errorf("id after failed create = %d, want %d (failed attempts must not burn ids)", e2.ID, e.ID+1)
	}
	if !mustDelete(t, st, e.ID) {
		t.Error("Delete after heal failed")
	}
	if p.deletes != 1 {
		t.Errorf("deletes = %d, want 1", p.deletes)
	}
}

// TestDeleteOfMissingSkipsPersistence: deleting an absent id is not a
// mutation and must not touch the log.
func TestDeleteOfMissingSkipsPersistence(t *testing.T) {
	p := &stubPersistence{fail: true}
	st := New(Config{Persistence: p})
	ok, err := st.Delete(42)
	if ok || err != nil {
		t.Errorf("Delete(42) on empty store = %v, %v; want false, nil", ok, err)
	}
	if p.deletes != 0 {
		t.Errorf("missing-id delete reached persistence (%d appends)", p.deletes)
	}
}

// TestSeedBootsStore: a store built from a Seed serves the seeded
// communities and continues the id/version sequences.
func TestSeedBootsStore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := testCommunity("seeded", rng, 6, 3)
	st := New(Config{Seed: &Seed{
		NextID:  7,
		Version: 9,
		Entries: []SeedEntry{{ID: 3, Version: 5, Comm: c}},
	}})
	got, ok := st.Snapshot().Get(3)
	if !ok || got.Comm.Name != "seeded" {
		t.Fatalf("seeded community missing: %v, %v", got, ok)
	}
	if _, err := st.Snapshot().PreparedSpec(3, csj.MatchSpec{Epsilon: 1}); err != nil {
		t.Errorf("prepared view of a seeded community: %v", err)
	}
	e := mustCreate(t, st, testCommunity("next", rng, 6, 3))
	if e.ID != 8 || e.Version != 10 {
		t.Errorf("post-seed create = (id %d, version %d), want (8, 10)", e.ID, e.Version)
	}
}

// TestSeedOutOfOrderBoot: a seed may list its entries in any order and
// repeat an id; the store boots from it sorted by id, keeps the last
// of repeated entries, and serves every id by binary search.
func TestSeedOutOfOrderBoot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := []int64{9, 2, 14, 5, 1, 11, 5, 7}
	seed := &Seed{NextID: 14, Version: 20}
	for i, id := range ids {
		c := testCommunity(fmt.Sprintf("c%d-%d", id, i), rng, 4, 2)
		seed.Entries = append(seed.Entries, SeedEntry{ID: id, Version: uint64(i + 1), Comm: c})
	}
	st := New(Config{Seed: seed})
	snap := st.Snapshot()
	if snap.Len() != 7 {
		t.Fatalf("Len = %d, want 7 distinct ids", snap.Len())
	}
	list := snap.List()
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("List not strictly ascending at %d: %d then %d", i, list[i-1].ID, list[i].ID)
		}
	}
	for i, se := range seed.Entries {
		e, ok := snap.Get(se.ID)
		if !ok {
			t.Fatalf("Get(%d) missed", se.ID)
		}
		if slices.ContainsFunc(seed.Entries[i+1:], func(x SeedEntry) bool { return x.ID == se.ID }) {
			continue // repeated later in the seed; the later entry wins
		}
		if e.Comm != se.Comm || e.Version != se.Version {
			t.Errorf("Get(%d) = %s v%d, want %s v%d", se.ID, e.Comm.Name, e.Version, se.Comm.Name, se.Version)
		}
	}
	for _, id := range []int64{0, 3, 8, 15} {
		if _, ok := snap.Get(id); ok {
			t.Errorf("Get(%d) hit an id the seed does not hold", id)
		}
	}
	if e := mustCreate(t, st, testCommunity("next", rng, 4, 2)); e.ID != 15 {
		t.Errorf("post-seed create id %d, want 15", e.ID)
	}
}
