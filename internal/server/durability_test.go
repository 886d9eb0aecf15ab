package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/opencsj/csj/internal/durable"
)

// This file exercises the durability wiring end to end over HTTP: a
// server writes through the WAL, stops, and a second server over the
// same directory serves identical listings and identical /matrix
// cells, reports its durability state under /healthz, and exposes the
// csj_wal_* metrics.

// matrixOver fetches the /matrix cells for ids with per-cell timings
// zeroed (ElapsedMS is wall-clock and must not enter comparisons).
func matrixOver(t *testing.T, ts *httptest.Server, ids []int64) []MatrixCell {
	t.Helper()
	var cells []MatrixCell
	doJSON(t, "POST", ts.URL+"/matrix",
		MatrixRequest{Communities: ids, Method: "exminmax"}, http.StatusOK, &cells)
	for i := range cells {
		cells[i].ElapsedMS = 0
	}
	return cells
}

// newDurableServer builds a server over dir with durability attached.
func newDurableServer(t *testing.T, dir string) (*httptest.Server, *Server) {
	t.Helper()
	dl, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatalf("durable.Open(%s): %v", dir, err)
	}
	s := NewWithConfig(nil, Config{Durable: dl})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

func TestDurableServerRestartServesIdenticalState(t *testing.T) {
	dir := t.TempDir()
	ts1, s1 := newDurableServer(t, dir)
	rng := rand.New(rand.NewSource(11))

	var ids []int64
	for i := 0; i < 4; i++ {
		ids = append(ids, uploadCommunity(t, ts1, "durable", randUsers(rng, 10+i, 4, 8)))
	}
	// Delete one so the replay covers both ops.
	doJSON(t, "DELETE", fmt.Sprintf("%s/communities/%d", ts1.URL, ids[1]), nil, http.StatusNoContent, nil)
	live := []int64{ids[0], ids[2], ids[3]}

	var list1 []CommunityInfo
	doJSON(t, "GET", ts1.URL+"/communities", nil, http.StatusOK, &list1)
	matrix1 := matrixOver(t, ts1, live)

	var health HealthResponse
	doJSON(t, "GET", ts1.URL+"/healthz", nil, http.StatusOK, &health)
	if !health.Durability.Enabled || health.Durability.Dir != dir {
		t.Errorf("healthz durability = %+v, want enabled in %s", health.Durability, dir)
	}
	if health.Durability.WALAppends != 5 {
		t.Errorf("wal appends = %d, want 5 (4 puts + 1 delete)", health.Durability.WALAppends)
	}

	resp, err := http.Get(ts1.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"csj_wal_appends_total 5",
		"csj_wal_fsync_seconds",
		"csj_checkpoint_seconds",
		"csj_recovery_truncated_records_total 0",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	// Stop server 1 and flush its log, as csjserve does after the drain.
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := newDurableServer(t, dir)
	var list2 []CommunityInfo
	doJSON(t, "GET", ts2.URL+"/communities", nil, http.StatusOK, &list2)
	if !reflect.DeepEqual(list1, list2) {
		t.Errorf("restart changed the listing:\nbefore %+v\nafter  %+v", list1, list2)
	}
	matrix2 := matrixOver(t, ts2, live)
	if !reflect.DeepEqual(matrix1, matrix2) {
		t.Errorf("restart changed the matrix:\nbefore %+v\nafter  %+v", matrix1, matrix2)
	}

	var health2 HealthResponse
	doJSON(t, "GET", ts2.URL+"/healthz", nil, http.StatusOK, &health2)
	if health2.Durability.RecoveredCommunities != 3 {
		t.Errorf("recovered = %d, want 3", health2.Durability.RecoveredCommunities)
	}
}

// TestDurableIngestLimits: a durable node answers 422 to a community
// outside the limits of the WAL's binary format, so it never
// acknowledges a record that recovery would refuse as corrupt (d = 0,
// d over 65,536, a name over 1 MiB) or read back changed (a category
// past int32). The directory then reopens cleanly and holds the one
// valid community posted after them, its int32 category intact.
func TestDurableIngestLimits(t *testing.T) {
	dir := t.TempDir()
	ts, s := newDurableServer(t, dir)
	for _, c := range []struct {
		name string
		body string
	}{
		{"users of zero dimensions", `{"users":[[],[]]}`},
		{"a user of 65,537 dimensions", `{"users":[[` + strings.Repeat("0,", 1<<16) + `0]]}`},
		{"a name of 1,048,577 bytes", `{"name":"` + strings.Repeat("n", 1<<20+1) + `","users":[[1]]}`},
		{"a category past int32", `{"category":4294967297,"users":[[1]]}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			doJSON(t, "POST", ts.URL+"/communities", json.RawMessage(c.body), http.StatusUnprocessableEntity, nil)
		})
	}
	valid := CommunityPayload{Name: "valid", Category: math.MaxInt32, Users: [][]int32{{1, 2}, {3, 4}}}
	var created CommunityInfo
	doJSON(t, "POST", ts.URL+"/communities", valid, http.StatusCreated, &created)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := newDurableServer(t, dir)
	var list []CommunityInfo
	doJSON(t, "GET", ts2.URL+"/communities", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0] != created {
		t.Fatalf("reopened listing = %+v, want [%+v]", list, created)
	}
}

// TestFaultDurableCreateAfterLogClosed: the log dying under a live
// server turns ingests into 500s (the write was never acknowledged)
// while reads keep working.
func TestFaultDurableCreateAfterLogClosed(t *testing.T) {
	dir := t.TempDir()
	ts, s := newDurableServer(t, dir)
	rng := rand.New(rand.NewSource(12))
	id := uploadCommunity(t, ts, "pre", randUsers(rng, 8, 4, 8))

	// Simulate the log dying (disk gone, fd closed).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts.URL+"/communities",
		CommunityPayload{Name: "lost", Category: -1, Users: randUsers(rng, 8, 4, 8)},
		http.StatusInternalServerError, nil)
	doJSON(t, "DELETE", fmt.Sprintf("%s/communities/%d", ts.URL, id), nil, http.StatusInternalServerError, nil)
	// Reads are unaffected: the store itself is healthy.
	var list []CommunityInfo
	doJSON(t, "GET", ts.URL+"/communities", nil, http.StatusOK, &list)
	if len(list) != 1 {
		t.Errorf("listing after failed mutations = %d entries, want 1", len(list))
	}
}
