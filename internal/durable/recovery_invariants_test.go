package durable

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/store"
)

// This file pins the recovery invariants of DESIGN.md §11: a restart
// yields a byte-identical store listing, and joins over the recovered
// store produce exactly the cells they produced before the restart.

// serializeListing renders a store's full listing (ids, versions, and
// community bytes in ascending id order) for exact comparison.
func serializeListing(t testing.TB, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range st.Snapshot().List() {
		binary.Write(&buf, binary.LittleEndian, e.ID)
		binary.Write(&buf, binary.LittleEndian, e.Version)
		if err := csj.WriteCommunityBinary(&buf, e.Comm); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// matrixCell is the deterministic projection of one matrix entry
// (Result.Elapsed is wall-clock time and must not enter comparisons).
type matrixCell struct {
	I, J       int
	Skipped    bool
	Similarity float64
	Pairs      []csj.Pair
}

// matrixCells joins every community in the store against every other
// and returns the cells.
func matrixCells(t *testing.T, st *store.Store, eps int32) []matrixCell {
	t.Helper()
	snap := st.Snapshot()
	list := snap.List()
	views := make([]*csj.PreparedCommunity, len(list))
	var pairs [][2]int
	for i, e := range list {
		v, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
		for j := i + 1; j < len(list); j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	entries, err := csj.SimilarityMatrixCells(context.Background(), views, pairs, csj.ExMinMax, &csj.Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]matrixCell, len(entries))
	for i, e := range entries {
		cells[i] = matrixCell{I: e.I, J: e.J, Skipped: e.Skipped}
		if e.Result != nil {
			cells[i].Similarity = e.Result.Similarity
			cells[i].Pairs = e.Result.Pairs
		}
	}
	return cells
}

func TestRecoveryListingByteIdentical(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncAlways})
	st := store.New(store.Config{Persistence: l, Seed: l.Seed()})
	for i := 0; i < 6; i++ {
		if _, err := st.Create(testComm("inv", int64(i), 12, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := st.Delete(2); err != nil || !ok {
		t.Fatalf("Delete(2) = %v, %v", ok, err)
	}
	before := serializeListing(t, st)
	cellsBefore := matrixCells(t, st, 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	st2 := store.New(store.Config{Persistence: l2, Seed: l2.Seed()})
	defer st2.Close()
	after := serializeListing(t, st2)
	if !bytes.Equal(before, after) {
		t.Error("restart changed the store listing")
	}
	cellsAfter := matrixCells(t, st2, 2)
	if !reflect.DeepEqual(cellsBefore, cellsAfter) {
		t.Errorf("restart changed the similarity matrix:\nbefore %+v\nafter  %+v", cellsBefore, cellsAfter)
	}
}

// TestRecoveryListingIdenticalAcrossTornTail repeats the invariant when
// the restart had to truncate a torn append: the surviving prefix must
// be exactly the state with the torn mutation absent.
func TestRecoveryListingIdenticalAcrossTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncOff})
	st := store.New(store.Config{Persistence: l, Seed: l.Seed()})
	for i := 0; i < 4; i++ {
		if _, err := st.Create(testComm("torn", int64(i), 8, 4)); err != nil {
			t.Fatal(err)
		}
	}
	acked := serializeListing(t, st)
	ackedCells := matrixCells(t, st, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear a 5th record by hand: a put the store never acknowledged.
	path := segPath(t, dir)
	payload, err := putPayload(5, 5, testComm("never-acked", 77, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(payload)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-4]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	st2 := store.New(store.Config{Persistence: l2, Seed: l2.Seed()})
	defer st2.Close()
	if rs := l2.Recovery(); rs.TruncatedRecords != 1 {
		t.Errorf("recovery truncated %d records, want 1", rs.TruncatedRecords)
	}
	if !bytes.Equal(acked, serializeListing(t, st2)) {
		t.Error("recovered listing differs from the acknowledged state")
	}
	if !reflect.DeepEqual(ackedCells, matrixCells(t, st2, 1)) {
		t.Error("recovered matrix differs from the acknowledged state")
	}
}
