package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	csj "github.com/opencsj/csj"
)

// Endpoint coverage of the envelope index (DESIGN.md §12): /topk and
// min_similarity /rank must return the exhaustive answers, use_index
// must change nothing, the all_candidates expansion must match an
// explicit full-id list, and the csj_index_* metric families must move
// on indexed requests.

// clusteredUsers builds profiles around a base value, so same-base
// communities join richly while a far base is provably disjoint under
// a selective epsilon.
func clusteredUsers(rng *rand.Rand, n, d int, base int32) [][]int32 {
	users := make([][]int32, n)
	for i := range users {
		u := make([]int32, d)
		for j := range u {
			u[j] = base + rng.Int31n(200)
		}
		users[i] = u
	}
	return users
}

// indexCorpus returns the users of a pivot plus 12 candidates spread
// over three near clusters and one far cluster (prunable at epsilon
// 600).
func indexCorpus() (pivot [][]int32, cands [][][]int32) {
	rng := rand.New(rand.NewSource(7))
	bases := []int32{1000, 1400, 1800, 400000}
	pivot = clusteredUsers(rng, 12, 4, bases[0])
	for i := 0; i < 12; i++ {
		cands = append(cands, clusteredUsers(rng, 10+i%4, 4, bases[i%len(bases)]))
	}
	return pivot, cands
}

// uploadIndexCorpus uploads indexCorpus: the pivot, then the candidates
// in order, all candidates named "cand".
func uploadIndexCorpus(t *testing.T, ts *httptest.Server) (pivot int64, cands []int64) {
	t.Helper()
	pivotUsers, candUsers := indexCorpus()
	pivot = uploadCommunity(t, ts, "pivot", pivotUsers)
	for _, users := range candUsers {
		cands = append(cands, uploadCommunity(t, ts, "cand", users))
	}
	return pivot, cands
}

// TestTopKEndpointMatchesLibrary: use_index selects no engine, so
// /topk returns the same bytes with it and without it, and they are the
// library's exact indexed top-k over views built here — approx
// similarities (the index upper bounds) included.
func TestTopKEndpointMatchesLibrary(t *testing.T) {
	ts := newTestServer(t)
	pivot, cands := uploadIndexCorpus(t, ts)

	// At epsilon 60 the bounds and the exact similarities differ, so
	// the body pins both.
	req := TopKRequest{Pivot: pivot, Candidates: cands, K: 6,
		Options: OptionsPayload{Epsilon: 60}}
	var plain, indexed json.RawMessage
	doJSON(t, "POST", ts.URL+"/topk", req, http.StatusOK, &plain)
	req.UseIndex = true
	doJSON(t, "POST", ts.URL+"/topk", req, http.StatusOK, &indexed)
	if !bytes.Equal(plain, indexed) {
		t.Fatalf("use_index changed the /topk body:\nwithout %s\nwith    %s", plain, indexed)
	}

	opts := &csj.Options{Epsilon: 60}
	pivotUsers, candUsers := indexCorpus()
	pv, err := csj.Precompute(&csj.Community{Name: "pivot", Category: -1, Users: pivotUsers}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ics := make([]csj.IndexedCandidate, len(candUsers))
	for i, users := range candUsers {
		c := &csj.Community{Name: "cand", Category: -1, Users: users}
		pc, err := csj.Precompute(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := csj.SummarizeCommunity(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		ics[i] = csj.IndexedCandidate{Name: c.Name, Summary: sum,
			View: func() (*csj.PreparedCommunity, error) { return pc, nil }}
	}
	top, err := csj.TopKIndexed(pv, ics, req.K, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]TopKEntry, len(top))
	for i, e := range top {
		want[i] = TopKEntry{Community: cands[e.Index], Name: e.Name,
			Approx: e.ApproxSimilarity, Skipped: e.Skipped}
		if e.Result != nil {
			want[i].Exact, want[i].Refined = e.Result.Similarity, true
		}
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, wantBody) {
		t.Errorf("/topk diverged from csj.TopKIndexed:\nserver  %s\nlibrary %s", plain, wantBody)
	}
}

func TestTopKEndpointAllCandidates(t *testing.T) {
	ts := newTestServer(t)
	pivot, cands := uploadIndexCorpus(t, ts)

	var explicit, all []TopKEntry
	doJSON(t, "POST", ts.URL+"/topk", TopKRequest{Pivot: pivot, Candidates: cands,
		K: 4, Options: OptionsPayload{Epsilon: 600}, UseIndex: true},
		http.StatusOK, &explicit)
	doJSON(t, "POST", ts.URL+"/topk", TopKRequest{Pivot: pivot, AllCandidates: true,
		K: 4, Options: OptionsPayload{Epsilon: 600}, UseIndex: true},
		http.StatusOK, &all)
	if !reflect.DeepEqual(explicit, all) {
		t.Errorf("all_candidates diverged from the explicit full list:\nexplicit %+v\nall      %+v",
			explicit, all)
	}
}

func TestRankEndpointIndexedMatchesUnindexed(t *testing.T) {
	ts := newTestServer(t)
	pivot, cands := uploadIndexCorpus(t, ts)

	// use_index selects no engine: the full ranking must not change.
	req := RankRequest{Pivot: pivot, Candidates: cands, Method: "exminmax",
		Options: OptionsPayload{Epsilon: 600}}
	var plain, indexed []RankEntry
	doJSON(t, "POST", ts.URL+"/rank", req, http.StatusOK, &plain)
	req.UseIndex = true
	doJSON(t, "POST", ts.URL+"/rank", req, http.StatusOK, &indexed)
	if !reflect.DeepEqual(plain, indexed) {
		t.Errorf("indexed full ranking diverged:\nplain   %+v\nindexed %+v", plain, indexed)
	}
	if len(plain) != len(cands) {
		t.Fatalf("full ranking returned %d entries, want %d", len(plain), len(cands))
	}
}

func TestRankEndpointMinSimilarity(t *testing.T) {
	ts := newTestServer(t)
	pivot, cands := uploadIndexCorpus(t, ts)

	// The indexed threshold ranking must be the full ranking cut at the
	// threshold (failed entries stay), with and without use_index.
	req := RankRequest{Pivot: pivot, Candidates: cands, Method: "exminmax",
		Options: OptionsPayload{Epsilon: 600}}
	var full []RankEntry
	doJSON(t, "POST", ts.URL+"/rank", req, http.StatusOK, &full)
	var want []RankEntry
	for _, e := range full {
		if e.Error != "" || !e.Skipped && e.Similarity >= 0.2 {
			want = append(want, e)
		}
	}
	if len(want) == 0 {
		t.Fatal("no candidate clears 0.2; the corpus should")
	}
	if len(want) >= len(cands) {
		t.Errorf("threshold 0.2 filtered nothing (%d entries of %d candidates)", len(want), len(cands))
	}
	req.MinSimilarity = 0.2
	for _, useIndex := range []bool{false, true} {
		req.UseIndex = useIndex
		var got []RankEntry
		doJSON(t, "POST", ts.URL+"/rank", req, http.StatusOK, &got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("use_index=%v: threshold ranking diverged from the cut full ranking:\ngot  %+v\nwant %+v",
				useIndex, got, want)
		}
	}
}

func TestIndexEndpointBadRequests(t *testing.T) {
	ts := newTestServer(t)
	pivot, cands := uploadIndexCorpus(t, ts)

	// use_index and min_similarity are MinMax-only.
	doJSON(t, "POST", ts.URL+"/rank", RankRequest{Pivot: pivot, Candidates: cands,
		Method: "exbaseline", UseIndex: true, Options: OptionsPayload{Epsilon: 600}},
		http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/rank", RankRequest{Pivot: pivot, Candidates: cands,
		Method: "exbaseline", MinSimilarity: 0.5, Options: OptionsPayload{Epsilon: 600}},
		http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/rank", RankRequest{Pivot: pivot, Candidates: cands,
		Method: "exminmax", MinSimilarity: -0.1, Options: OptionsPayload{Epsilon: 600}},
		http.StatusBadRequest, nil)
	// all_candidates excludes an explicit list.
	doJSON(t, "POST", ts.URL+"/rank", RankRequest{Pivot: pivot, Candidates: cands,
		Method: "exminmax", AllCandidates: true, Options: OptionsPayload{Epsilon: 600}},
		http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/topk", TopKRequest{Pivot: pivot, Candidates: cands,
		K: 3, AllCandidates: true, Options: OptionsPayload{Epsilon: 600}},
		http.StatusBadRequest, nil)
}

func TestMetricsIndexCounters(t *testing.T) {
	ts := newTestServer(t)
	pivot, cands := uploadIndexCorpus(t, ts)

	before := scrapeMetrics(t, ts)
	if before["csj_index_bound_checks_total"] != 0 || before["csj_index_candidates_pruned_total"] != 0 {
		t.Fatalf("index counters nonzero before any indexed request: %+v",
			map[string]float64{
				"bound_checks": before["csj_index_bound_checks_total"],
				"pruned":       before["csj_index_candidates_pruned_total"],
			})
	}

	var top []TopKEntry
	doJSON(t, "POST", ts.URL+"/topk", TopKRequest{Pivot: pivot, Candidates: cands,
		K: 3, Options: OptionsPayload{Epsilon: 600}, UseIndex: true},
		http.StatusOK, &top)

	after := scrapeMetrics(t, ts)
	if after["csj_index_bound_checks_total"] == 0 {
		t.Error("csj_index_bound_checks_total did not move on an indexed /topk")
	}
	// The far cluster is provably disjoint at epsilon 600, so the index
	// must have pruned at least those candidates.
	if after["csj_index_candidates_pruned_total"] == 0 {
		t.Error("csj_index_candidates_pruned_total did not move on a prunable corpus")
	}
}
