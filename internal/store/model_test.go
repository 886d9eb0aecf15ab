package store

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	csj "github.com/opencsj/csj"
)

// modelEntry is what the reference model remembers of one community.
type modelEntry struct {
	version uint64
	comm    *csj.Community
}

// storeModel is the reference the differential tests check Store
// against: a plain map from id to entry, plus the id and version
// counters, updated by the obvious rules.
type storeModel struct {
	m       map[int64]modelEntry
	nextID  int64
	version uint64
}

// listing returns the model's entries in ascending id order.
func (md *storeModel) listing() []SeedEntry {
	out := make([]SeedEntry, 0, len(md.m))
	for id, e := range md.m {
		out = append(out, SeedEntry{ID: id, Version: e.version, Comm: e.comm})
	}
	slices.SortFunc(out, func(x, y SeedEntry) int { return cmp.Compare(x.ID, y.ID) })
	return out
}

// sameListing reports whether a snapshot lists exactly want.
func sameListing(sn *Snapshot, want []SeedEntry) error {
	list := sn.List()
	if len(list) != len(want) || sn.Len() != len(want) {
		return fmt.Errorf("snapshot holds %d entries (Len %d), model %d", len(list), sn.Len(), len(want))
	}
	for i, e := range list {
		w := want[i]
		if e.ID != w.ID || e.Version != w.Version || e.Comm != w.Comm {
			return fmt.Errorf("entry %d = (id %d, v%d), model (id %d, v%d)", i, e.ID, e.Version, w.ID, w.Version)
		}
	}
	return nil
}

// TestStoreMatchesMapModel is a seeded differential test of the
// sorted-slice snapshots against a map model. Each step applies a
// random Create, CreateWithID (out-of-order ids, gap fills, duplicates),
// Delete (present and absent ids) or Seed reboot, then checks that the
// listing is ascending and equals the model, that Get hits and misses
// as the model says, that Len matches, and that every snapshot taken
// at an earlier step still lists what it listed then. A failure names
// its seed.
func TestStoreMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		runStoreModel(t, seed, 300)
	}
}

func runStoreModel(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := New(Config{})
	md := &storeModel{m: map[int64]modelEntry{}}
	type taken struct {
		snap *Snapshot
		want []SeedEntry
	}
	var history []taken
	for step := 0; step < steps; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		c := testCommunity(fmt.Sprintf("s%d", step), rng, 2+rng.Intn(3), 2)
		switch op := rng.Intn(20); {
		case op < 6:
			e, err := st.Create(c)
			if err != nil {
				fail("Create: %v", err)
			}
			md.nextID++
			md.version++
			if e.ID != md.nextID || e.Version != md.version {
				fail("Create = (id %d, v%d), model (id %d, v%d)", e.ID, e.Version, md.nextID, md.version)
			}
			md.m[e.ID] = modelEntry{e.Version, e.Comm}
		case op < 12:
			// Ids up to a little past nextID: out-of-order arrivals,
			// gap fills below nextID, and live ids that must collide.
			id := 1 + rng.Int63n(md.nextID+8)
			e, err := st.CreateWithID(id, c)
			if _, live := md.m[id]; live {
				if !errors.Is(err, ErrDuplicateID) {
					fail("CreateWithID(%d) of a live id: err %v, want ErrDuplicateID", id, err)
				}
				break
			}
			if err != nil {
				fail("CreateWithID(%d): %v", id, err)
			}
			md.nextID = max(md.nextID, id)
			md.version++
			if e.ID != id || e.Version != md.version {
				fail("CreateWithID(%d) = (id %d, v%d), model v%d", id, e.ID, e.Version, md.version)
			}
			md.m[id] = modelEntry{e.Version, e.Comm}
		case op < 19:
			id := 1 + rng.Int63n(md.nextID+2)
			_, live := md.m[id]
			ok, err := st.Delete(id)
			if err != nil || ok != live {
				fail("Delete(%d) = %v, %v; model holds it: %v", id, ok, err, live)
			}
			if live {
				md.version++
				delete(md.m, id)
			}
		default:
			// Reboot from a shuffled seed that also repeats an id: an
			// earlier stale copy that the later real entry overrides.
			entries := md.listing()
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			if len(entries) > 0 {
				stale := entries[rng.Intn(len(entries))]
				stale.Comm, stale.Version = c, stale.Version-1
				entries = append([]SeedEntry{stale}, entries...)
			}
			st = New(Config{Seed: &Seed{NextID: md.nextID, Version: md.version, Entries: entries}})
		}

		snap := st.Snapshot()
		want := md.listing()
		if err := sameListing(snap, want); err != nil {
			fail("%v", err)
		}
		if st.Len() != len(want) {
			fail("store Len %d, model %d", st.Len(), len(want))
		}
		for id := int64(0); id <= md.nextID+1; id++ {
			e, ok := snap.Get(id)
			w, live := md.m[id]
			if ok != live || ok && (e.ID != id || e.Version != w.version || e.Comm != w.comm) {
				fail("Get(%d) = %v (hit %v), model holds it: %v", id, e, ok, live)
			}
		}
		history = append(history, taken{snap, want})
		for i, h := range history {
			if err := sameListing(h.snap, h.want); err != nil {
				fail("snapshot of step %d changed: %v", i, err)
			}
		}
	}
}

// TestSnapshotsUnderConcurrentWrites races snapshot readers against a
// writer applying creates, out-of-order CreateWithIDs and deletes. Every
// snapshot a reader loads must be strictly ascending, serve each of its
// ids by Get, expose a consistent candidate set, and list the same
// entries when read again after more writes. Run it under -race with
// -count=10.
func TestSnapshotsUnderConcurrentWrites(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(5))
	comms := make([]*csj.Community, 64)
	for i := range comms {
		comms[i] = testCommunity("c", rng, 2, 2)
	}
	const writes = 2000
	done := make(chan struct{})
	var wg, started sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			var held []*Snapshot
			var heldIDs [][]int64
			for {
				select {
				case <-done:
					for i, sn := range held {
						if !slices.Equal(snapshotIDs(sn), heldIDs[i]) {
							t.Errorf("a held snapshot changed after later writes")
						}
					}
					return
				default:
				}
				sn := st.Snapshot()
				ids := snapshotIDs(sn)
				if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
					t.Errorf("snapshot listing not strictly ascending: %v", ids)
					return
				}
				for _, id := range ids {
					if e, ok := sn.Get(id); !ok || e.ID != id {
						t.Errorf("Get(%d) missed an id the snapshot lists", id)
						return
					}
				}
				if len(ids) > 0 {
					cands := sn.Candidates(ids[len(ids)/2])
					if cands.Len() != len(ids)-1 {
						t.Errorf("candidate set minus one id has %d entries of %d", cands.Len(), len(ids))
						return
					}
				}
				if len(held) < 32 {
					held, heldIDs = append(held, sn), append(heldIDs, ids)
				}
			}
		}()
	}
	started.Wait()
	for i := 0; i < writes; i++ {
		c := comms[i%len(comms)]
		var err error
		switch i % 4 {
		case 0, 1:
			_, err = st.Create(c)
		case 2:
			// Below nextID: lands inside the listing, or collides.
			if _, err = st.CreateWithID(1+rng.Int63n(int64(i+1)), c); errors.Is(err, ErrDuplicateID) {
				err = nil
			}
		case 3:
			_, err = st.Delete(1 + rng.Int63n(int64(i+1)))
		}
		if err != nil {
			t.Errorf("write %d: %v", i, err)
			break
		}
	}
	close(done)
	wg.Wait()
}

func snapshotIDs(sn *Snapshot) []int64 {
	list := sn.List()
	ids := make([]int64, len(list))
	for i, e := range list {
		ids[i] = e.ID
	}
	return ids
}
