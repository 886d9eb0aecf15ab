package store

import (
	"errors"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
)

// mustCreate ingests a community into a store that has no reason to
// fail (memory-only, or a healthy persistence layer).
func mustCreate(t testing.TB, st *Store, c *csj.Community) *Entry {
	t.Helper()
	e, err := st.Create(c)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return e
}

// mustDelete removes a community, failing the test only on a
// persistence error (the bool result is the caller's to assert).
func mustDelete(t testing.TB, st *Store, id int64) bool {
	t.Helper()
	ok, err := st.Delete(id)
	if err != nil {
		t.Fatalf("Delete(%d): %v", id, err)
	}
	return ok
}

func testCommunity(name string, rng *rand.Rand, n, d int) *csj.Community {
	users := make([]csj.Vector, n)
	for i := range users {
		u := make([]int32, d)
		for j := range u {
			u[j] = rng.Int31n(20)
		}
		users[i] = u
	}
	return &csj.Community{Name: name, Category: -1, Users: users}
}

func TestCreateGetDelete(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(1))
	e1 := mustCreate(t, st, testCommunity("one", rng, 10, 4))
	e2 := mustCreate(t, st, testCommunity("two", rng, 12, 4))
	if e1.ID == e2.ID {
		t.Fatalf("ids not unique: %d", e1.ID)
	}
	if e2.Version <= e1.Version {
		t.Errorf("versions not monotonic: %d then %d", e1.Version, e2.Version)
	}
	snap := st.Snapshot()
	if got, ok := snap.Get(e1.ID); !ok || got.Comm.Name != "one" {
		t.Fatalf("Get(%d) = %v, %v", e1.ID, got, ok)
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2", st.Len())
	}
	if !mustDelete(t, st, e1.ID) {
		t.Fatal("Delete returned false for a stored community")
	}
	if mustDelete(t, st, e1.ID) {
		t.Error("second Delete returned true")
	}
	if _, ok := st.Snapshot().Get(e1.ID); ok {
		t.Error("deleted community still visible in a fresh snapshot")
	}
	// Ids are never reused, even after a delete.
	e3 := mustCreate(t, st, testCommunity("three", rng, 8, 4))
	if e3.ID == e1.ID {
		t.Errorf("id %d was reused", e1.ID)
	}
}

func TestListSortedByID(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5; i++ {
		mustCreate(t, st, testCommunity("c", rng, 4, 3))
	}
	list := st.Snapshot().List()
	if len(list) != 5 {
		t.Fatalf("List returned %d entries, want 5", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("List not ascending at %d: %d >= %d", i, list[i-1].ID, list[i].ID)
		}
	}
}

// TestIngestDeepCopy is the aliasing regression: the caller mutates its
// community (both a vector element and the Users slice itself) after
// Create, and the stored copy must be unaffected.
func TestIngestDeepCopy(t *testing.T) {
	st := New(Config{})
	orig := &csj.Community{Name: "alias", Category: -1, Users: []csj.Vector{{1, 2, 3}, {4, 5, 6}}}
	e := mustCreate(t, st, orig)

	orig.Users[0][0] = 99
	orig.Users[1] = []int32{7, 8, 9}
	orig.Users = orig.Users[:1]
	orig.Name = "mutated"

	got, ok := st.Snapshot().Get(e.ID)
	if !ok {
		t.Fatal("community vanished")
	}
	if got.Comm.Name != "alias" {
		t.Errorf("stored name = %q, want alias", got.Comm.Name)
	}
	if len(got.Comm.Users) != 2 {
		t.Fatalf("stored community has %d users, want 2", len(got.Comm.Users))
	}
	if got.Comm.Users[0][0] != 1 || got.Comm.Users[1][0] != 4 {
		t.Errorf("stored vectors mutated through the caller's alias: %v", got.Comm.Users)
	}
}

// TestSnapshotIsolation: a snapshot taken before a delete keeps serving
// the deleted community (and its prepared views); only newer snapshots
// observe the removal.
func TestSnapshotIsolation(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(3))
	e := mustCreate(t, st, testCommunity("doomed", rng, 10, 4))
	old := st.Snapshot()
	if !mustDelete(t, st, e.ID) {
		t.Fatal("Delete failed")
	}
	if _, ok := old.Get(e.ID); !ok {
		t.Error("pre-delete snapshot lost the entry")
	}
	if _, err := old.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 1}); err != nil {
		t.Errorf("pre-delete snapshot cannot prepare the entry: %v", err)
	}
	if _, ok := st.Snapshot().Get(e.ID); ok {
		t.Error("post-delete snapshot still has the entry")
	}
}

func TestCreateWithID(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(7))

	e, err := st.CreateWithID(42, testCommunity("explicit", rng, 10, 4))
	if err != nil {
		t.Fatalf("CreateWithID: %v", err)
	}
	if e.ID != 42 {
		t.Fatalf("ID = %d, want 42", e.ID)
	}
	if got, ok := st.Snapshot().Get(42); !ok || got.Comm.Name != "explicit" {
		t.Fatalf("Get(42) = %v, %v", got, ok)
	}

	// Duplicate ids are rejected with ErrDuplicateID.
	if _, err := st.CreateWithID(42, testCommunity("dup", rng, 8, 4)); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id error = %v, want ErrDuplicateID", err)
	}
	// Non-positive ids are rejected.
	for _, id := range []int64{0, -1} {
		if _, err := st.CreateWithID(id, testCommunity("bad", rng, 8, 4)); err == nil {
			t.Errorf("CreateWithID(%d) accepted a non-positive id", id)
		}
	}

	// nextID ratchets past explicit ids, so a later locally assigned id
	// can never collide with a coordinator-assigned one.
	e2 := mustCreate(t, st, testCommunity("auto", rng, 9, 4))
	if e2.ID <= 42 {
		t.Errorf("auto id %d did not ratchet past explicit id 42", e2.ID)
	}
	// An explicit id below nextID fills the gap without regressing it.
	if _, err := st.CreateWithID(7, testCommunity("gap", rng, 9, 4)); err != nil {
		t.Fatalf("gap CreateWithID: %v", err)
	}
	e3 := mustCreate(t, st, testCommunity("auto2", rng, 9, 4))
	if e3.ID <= e2.ID {
		t.Errorf("auto id %d regressed after gap-fill (prev %d)", e3.ID, e2.ID)
	}
	// A deleted explicit id stays usable for gap-free re-ingest paths
	// (replica rebuilds): versions still advance monotonically.
	if !mustDelete(t, st, 7) {
		t.Fatal("Delete(7) = false")
	}
	e4, err := st.CreateWithID(7, testCommunity("gap2", rng, 9, 4))
	if err != nil {
		t.Fatalf("re-create after delete: %v", err)
	}
	if e4.Version <= e3.Version {
		t.Errorf("version %d did not advance past %d", e4.Version, e3.Version)
	}
}
