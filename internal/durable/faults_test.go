package durable

import (
	"errors"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/store"
)

// This file is the crash-recovery fault suite (the TestFault* tests,
// run under -race by `make check`):
// torn tails from a kill mid-append, bit rot inside fsynced records,
// repair semantics, the never-reuse-ids invariant across a
// delete-then-crash, a crash between checkpoint rotation and commit,
// and a -race churn storm against a live log.

// appendN puts n deterministic communities (ids 1..n, versions 1..n)
// and returns them.
func appendN(t *testing.T, l *Log, n int) []*csj.Community {
	t.Helper()
	comms := make([]*csj.Community, n)
	for i := range comms {
		comms[i] = testComm("f", int64(i), 6, 3)
		if err := l.AppendPut(int64(i+1), uint64(i+1), comms[i]); err != nil {
			t.Fatal(err)
		}
	}
	return comms
}

// TestFaultTornTailTruncated simulates a kill -9 mid-append: the final
// record is chopped partway through. Recovery must drop exactly that
// record, count it, and leave a log that appends and restarts cleanly.
func TestFaultTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncOff})
	appendN(t, l, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(t, dir)
	offs := recordOffsets(t, path)
	if len(offs) != 4 {
		t.Fatalf("parsed %d records, want 4", len(offs))
	}
	// Chop into the last record's payload: a classic torn append.
	if err := os.Truncate(path, offs[3]+frameHeaderSize+3); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	rs := l2.Recovery()
	if rs.Records != 3 {
		t.Errorf("replayed %d records, want 3", rs.Records)
	}
	if rs.TruncatedRecords != 1 || rs.TruncatedBytes == 0 {
		t.Errorf("truncation stats = %+v, want exactly 1 record", rs)
	}
	if rs.Repaired {
		t.Error("a torn tail must not be reported as a repair")
	}
	if got := len(l2.Seed().Entries); got != 3 {
		t.Errorf("recovered %d communities, want 3", got)
	}
	// The log must be fully writable after truncation: the next append
	// starts at the chopped boundary, and the next recovery is clean.
	if err := l2.AppendPut(4, 4, testComm("again", 99, 5, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openLog(t, dir, Options{})
	defer l3.Close()
	if rs := l3.Recovery(); rs.Records != 4 || rs.TruncatedRecords != 0 {
		t.Errorf("post-truncation recovery = %+v, want 4 clean records", rs)
	}
}

// TestFaultTornSegmentHeader covers a crash during segment creation:
// the file exists but is shorter than its own header.
func TestFaultTornSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncOff})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath(t, dir), 3); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, Options{})
	defer l2.Close()
	if err := l2.AppendDelete(1, 1); err != nil {
		t.Errorf("append into rebuilt segment: %v", err)
	}
}

// TestFaultBitFlipRefused flips one payload byte of a mid-log record.
// That is not a torn append — the bytes were fsynced and changed — so
// startup must refuse with ErrCorrupt and point at -repair.
func TestFaultBitFlipRefused(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncOff})
	appendN(t, l, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(t, dir)
	offs := recordOffsets(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offs[1]+frameHeaderSize+2] ^= 0x40 // record 2 of 4: mid-log
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over bit rot = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "-repair") {
		t.Errorf("refusal does not tell the operator about -repair: %v", err)
	}

	// With Repair, the log truncates at the damage: the record before
	// survives, the flipped record and everything after are gone.
	l2 := openLog(t, dir, Options{Repair: true})
	rs := l2.Recovery()
	if !rs.Repaired {
		t.Error("repair not reported")
	}
	if rs.Records != 1 {
		t.Errorf("replayed %d records, want 1 (only the record before the damage)", rs.Records)
	}
	if rs.TruncatedRecords != 3 {
		t.Errorf("truncated %d records, want 3 (the flipped one and the 2 after)", rs.TruncatedRecords)
	}
	if got := len(l2.Seed().Entries); got != 1 {
		t.Errorf("recovered %d communities, want 1", got)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// The repaired log restarts cleanly without -repair.
	l3 := openLog(t, dir, Options{})
	defer l3.Close()
	if rs := l3.Recovery(); rs.TruncatedRecords != 0 || rs.Repaired {
		t.Errorf("recovery after repair = %+v, want clean", rs)
	}
}

// TestFaultCorruptCheckpointRefused damages an installed checkpoint.
// Falling back to older state silently would serve stale data, so the
// log must refuse without Repair — and with it, start from what
// remains and leave a directory that restarts cleanly.
func TestFaultCorruptCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncOff})
	comms := appendN(t, l, 3)
	seed := &store.Seed{NextID: 3, Version: 3}
	for i, c := range comms {
		seed.Entries = append(seed.Entries, store.SeedEntry{ID: int64(i + 1), Version: uint64(i + 1), Comm: c})
	}
	commit, err := l.BeginCheckpoint(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	// One post-checkpoint append, so the repair outcome is observable.
	if err := l.AppendPut(4, 4, testComm("post", 50, 5, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err := scanDir(dir)
	if err != nil || len(ds.checkpoints) != 1 {
		t.Fatalf("checkpoints = %v (%v), want exactly one", ds.checkpoints, err)
	}
	path := dir + "/" + ckptName(ds.checkpoints[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt checkpoint = %v, want ErrCorrupt", err)
	}

	l2 := openLog(t, dir, Options{Repair: true})
	rs := l2.Recovery()
	if !rs.Repaired {
		t.Error("repair not reported")
	}
	// The checkpointed state is lost (that is the accepted loss); the
	// post-checkpoint WAL record survives.
	if got := len(l2.Seed().Entries); got != 1 {
		t.Errorf("recovered %d communities, want 1 (the post-checkpoint put)", got)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openLog(t, dir, Options{})
	defer l3.Close()
	if rs := l3.Recovery(); rs.Repaired {
		t.Error("repair did not clean the directory: second start still repairs")
	}
}

// TestFaultDeleteCrashReplay drives the store through a
// delete-then-crash-then-replay and checks the global invariants: ids
// are never reused and versions never regress, even when the deleted
// community held the highest id.
func TestFaultDeleteCrashReplay(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncAlways})
	st := store.New(store.Config{Persistence: l, Seed: l.Seed()})
	var lastID int64
	var lastVersion uint64
	for i := 0; i < 3; i++ {
		e, err := st.Create(testComm("d", int64(i), 6, 3))
		if err != nil {
			t.Fatal(err)
		}
		lastID, lastVersion = e.ID, e.Version
	}
	// Delete the highest id, then "crash" without a checkpoint.
	if ok, err := st.Delete(lastID); err != nil || !ok {
		t.Fatalf("Delete(%d) = %v, %v", lastID, ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	st2 := store.New(store.Config{Persistence: l2, Seed: l2.Seed()})
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("recovered %d communities, want 2", st2.Len())
	}
	e, err := st2.Create(testComm("new", 9, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if e.ID <= lastID {
		t.Errorf("id %d reused after delete+crash (last issued was %d)", e.ID, lastID)
	}
	if e.Version <= lastVersion+1 {
		// lastVersion+1 was consumed by the delete; the new create must
		// land strictly after it.
		t.Errorf("version %d regressed after delete+crash (delete used %d)", e.Version, lastVersion+1)
	}
}

// TestFaultCheckpointCrashBeforeCommit rotates the WAL for a checkpoint
// but "crashes" before commit installs it. Nothing may be lost: both
// the pre-rotation and post-rotation records replay on the next start.
func TestFaultCheckpointCrashBeforeCommit(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncOff})
	comms := appendN(t, l, 3)
	seed := &store.Seed{NextID: 3, Version: 3}
	for i, c := range comms {
		seed.Entries = append(seed.Entries, store.SeedEntry{ID: int64(i + 1), Version: uint64(i + 1), Comm: c})
	}
	commit, err := l.BeginCheckpoint(seed)
	if err != nil {
		t.Fatal(err)
	}
	_ = commit // the crash: commit never runs
	if err := l.AppendPut(4, 4, testComm("after", 60, 5, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	defer l2.Close()
	rs := l2.Recovery()
	if rs.CheckpointSeq != 0 {
		t.Errorf("recovery found checkpoint %d, want none", rs.CheckpointSeq)
	}
	if rs.Records != 4 {
		t.Errorf("replayed %d records, want all 4", rs.Records)
	}
	if got := len(l2.Seed().Entries); got != 4 {
		t.Errorf("recovered %d communities, want 4", got)
	}
}

// TestFaultChurnStorm hammers a live WAL-backed store from many
// goroutines (run under -race by `make check`), checkpoints
// concurrently, then closes and replays: the recovered image must be
// exactly the surviving state, ids unique, counters ratcheted.
func TestFaultChurnStorm(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncOff, CheckpointEvery: 25})
	st := store.New(store.Config{Persistence: l, Seed: l.Seed()})

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []int64
			for i := 0; i < perWorker; i++ {
				if len(mine) > 0 && rng.Intn(3) == 0 {
					id := mine[rng.Intn(len(mine))]
					if _, err := st.Delete(id); err != nil {
						t.Errorf("Delete(%d): %v", id, err)
						return
					}
				} else {
					e, err := st.Create(testComm("storm", int64(w*1000+i), 4, 3))
					if err != nil {
						t.Errorf("Create: %v", err)
						return
					}
					mine = append(mine, e.ID)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := serializeListing(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	st2 := store.New(store.Config{Persistence: l2, Seed: l2.Seed()})
	defer st2.Close()
	got := serializeListing(t, st2)
	if string(want) != string(got) {
		t.Error("recovered store differs from the pre-close store")
	}
	seen := map[int64]bool{}
	for _, e := range st2.Snapshot().List() {
		if seen[e.ID] {
			t.Errorf("duplicate id %d after recovery", e.ID)
		}
		seen[e.ID] = true
	}
}
