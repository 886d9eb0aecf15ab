package durable

import (
	"math/rand"
	"reflect"
	"testing"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/store"
)

// This file pins the index recovery invariant of DESIGN.md §12: the
// envelope index is never persisted — summaries are rebuilt from the
// recovered communities — and because a summary is a pure function of
// its community, the rebuilt index must make byte-identical pruning
// decisions. The restart below drops the pre-crash Log without Close,
// the kill-9 shape: everything acknowledged under FsyncAlways is on
// disk, nothing else is.

// clusteredTestComm builds a community around a base value so that
// same-base communities join richly and far bases prune to nothing.
func clusteredTestComm(name string, seed int64, n, d int, base int32) *csj.Community {
	rng := rand.New(rand.NewSource(seed))
	users := make([]csj.Vector, n)
	for i := range users {
		u := make([]int32, d)
		for j := range u {
			u[j] = base + rng.Int31n(200)
		}
		users[i] = u
	}
	return &csj.Community{Name: name, Category: -1, Users: users}
}

// topKCell is the deterministic projection of one indexed top-k entry.
type topKCell struct {
	ID         int64
	Skipped    bool
	Bound      float64
	Similarity float64
	Pairs      int
}

// indexedTopK runs an indexed top-k over the whole store with entry ID
// pivotID as the pivot, using the entries' own summaries and lazy
// prepared views, and returns the cells plus the pruning tallies.
func indexedTopK(t *testing.T, st *store.Store, pivotID int64, k int, eps int32) ([]topKCell, csj.IndexStats) {
	t.Helper()
	snap := st.Snapshot()
	pivotView, err := snap.PreparedSpec(pivotID, csj.MatchSpec{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	var cands []csj.IndexedCandidate
	var ids []int64
	for _, e := range snap.List() {
		if e.ID == pivotID {
			continue
		}
		if e.Summary == nil {
			t.Fatalf("entry %d has no summary", e.ID)
		}
		e := e
		cands = append(cands, csj.IndexedCandidate{
			Name:    e.Comm.Name,
			Summary: e.Summary,
			View: func() (*csj.PreparedCommunity, error) {
				return snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: eps})
			},
		})
		ids = append(ids, e.ID)
	}
	var stats csj.IndexStats
	opts := &csj.Options{Epsilon: eps, OnIndexStats: func(s csj.IndexStats) { stats = s }}
	top, err := csj.TopKIndexed(pivotView, cands, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]topKCell, len(top))
	for i, r := range top {
		cells[i] = topKCell{ID: ids[r.Index], Skipped: r.Skipped, Bound: r.ApproxSimilarity}
		if r.Result != nil {
			cells[i].Similarity = r.Result.Similarity
			cells[i].Pairs = len(r.Result.Pairs)
		}
	}
	return cells, stats
}

func TestRecoveredSummariesPruneIdentically(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Fsync: FsyncAlways})
	st := store.New(store.Config{Persistence: l, Seed: l.Seed()})

	// Three near clusters and one far one; a selective epsilon makes
	// the far cluster provably unreachable from the pivot.
	bases := []int32{1000, 1400, 1800, 400000}
	var pivotID int64
	for i := 0; i < 12; i++ {
		e, err := st.Create(clusteredTestComm("c", int64(i), 10+i%4, 4, bases[i%len(bases)]))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			pivotID = e.ID
		}
	}
	if ok, err := st.Delete(pivotID + 5); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}

	summariesBefore := map[int64]*csj.CommunitySummary{}
	for _, e := range st.Snapshot().List() {
		summariesBefore[e.ID] = e.Summary
	}
	cellsBefore, statsBefore := indexedTopK(t, st, pivotID, 4, 600)
	if statsBefore.Pruned == 0 {
		t.Fatalf("pre-crash query pruned nothing (stats %+v); the invariant would be vacuous", statsBefore)
	}

	// Kill-9: the old Log is simply abandoned, never Closed.
	l2 := openLog(t, dir, Options{})
	st2 := store.New(store.Config{Persistence: l2, Seed: l2.Seed()})
	defer st2.Close()

	list := st2.Snapshot().List()
	if len(list) != len(summariesBefore) {
		t.Fatalf("recovered store has %d entries, want %d", len(list), len(summariesBefore))
	}
	for _, e := range list {
		before, ok := summariesBefore[e.ID]
		if !ok {
			t.Fatalf("recovered entry %d did not exist before the crash", e.ID)
		}
		if e.Summary == nil || !e.Summary.Equal(before) {
			t.Fatalf("entry %d: rebuilt summary differs from the pre-crash one", e.ID)
		}
	}
	cellsAfter, statsAfter := indexedTopK(t, st2, pivotID, 4, 600)
	if !reflect.DeepEqual(cellsBefore, cellsAfter) {
		t.Errorf("restart changed the indexed top-k:\nbefore %+v\nafter  %+v", cellsBefore, cellsAfter)
	}
	if statsBefore != statsAfter {
		t.Errorf("restart changed the pruning decisions: before %+v, after %+v", statsBefore, statsAfter)
	}
}
