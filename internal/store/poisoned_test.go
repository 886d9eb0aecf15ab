package store_test

import (
	"errors"
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/faultfs"
	"github.com/opencsj/csj/internal/store"
)

// External test package: the durable log implements store.Persistence,
// and this test pins the one cross-package contract the degraded mode
// hangs on — a poisoned log's sentinel must survive the store's error
// wrapping, so the server's errors.Is(err, durable.ErrPoisoned) check
// can map refused writes to 503 instead of 500.

func poisonedComm(seed int64, n, d int) *csj.Community {
	rng := rand.New(rand.NewSource(seed))
	users := make([]csj.Vector, n)
	for i := range users {
		u := make([]int32, d)
		for j := range u {
			u[j] = rng.Int31n(16)
		}
		users[i] = u
	}
	return &csj.Community{Name: "c", Category: -1, Users: users}
}

func TestFaultStorePoisonedPersistenceKeepsServingReads(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInject(faultfs.OS)
	l, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(store.Config{Persistence: l, Seed: l.Seed()})

	e, err := st.Create(poisonedComm(1, 8, 3))
	if err != nil {
		t.Fatal(err)
	}

	// Poison: fail the fsync of the next create's append.
	inj.Arm(&faultfs.Fault{At: inj.Ops() + 2, Class: faultfs.EIO})
	if _, err := st.Create(poisonedComm(2, 8, 3)); !errors.Is(err, durable.ErrPoisoned) {
		t.Fatalf("Create through poisoned log = %v, want a wrap of durable.ErrPoisoned", err)
	}
	if _, err := st.Delete(e.ID); !errors.Is(err, durable.ErrPoisoned) {
		t.Fatalf("Delete through poisoned log = %v, want a wrap of durable.ErrPoisoned", err)
	}

	// The failed mutations changed nothing: the snapshot still serves
	// the acknowledged community, and prepared views still build.
	snap := st.Snapshot()
	if got, ok := snap.Get(e.ID); !ok || got.Comm.Name != "c" {
		t.Errorf("snapshot lost community %d after refused mutations", e.ID)
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
	if _, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 1}); err != nil {
		t.Errorf("prepared view on degraded store: %v", err)
	}

	// Explicit checkpoints are refused too (never silently dropped).
	if err := st.Checkpoint(); !errors.Is(err, durable.ErrPoisoned) {
		t.Errorf("Checkpoint on poisoned log = %v, want a wrap of durable.ErrPoisoned", err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close of store over poisoned log = %v, want nil", err)
	}
}
