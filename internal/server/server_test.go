package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(nil))
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	if err := tryJSON(method, url, body, wantStatus, out); err != nil {
		t.Fatal(err)
	}
}

// tryJSON is doJSON for goroutines other than the test's own: it
// returns the failure instead of ending the test.
func tryJSON(method, url string, body any, wantStatus int, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var msg map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&msg)
		return fmt.Errorf("%s %s: status %d, want %d (%v)", method, url, resp.StatusCode, wantStatus, msg)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return nil
}

func uploadCommunity(t *testing.T, ts *httptest.Server, name string, users [][]int32) int64 {
	t.Helper()
	var info CommunityInfo
	doJSON(t, "POST", ts.URL+"/communities",
		CommunityPayload{Name: name, Category: -1, Users: users},
		http.StatusCreated, &info)
	if info.Size != len(users) {
		t.Fatalf("uploaded size %d, want %d", info.Size, len(users))
	}
	return info.ID
}

func randUsers(rng *rand.Rand, n, d int, maxVal int32) [][]int32 {
	users := make([][]int32, n)
	for i := range users {
		u := make([]int32, d)
		for j := range u {
			u[j] = rng.Int31n(maxVal + 1)
		}
		users[i] = u
	}
	return users
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	var out HealthResponse
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &out)
	if out.Status != "ok" {
		t.Errorf("health = %+v", out)
	}
	if out.Durability.Enabled {
		t.Errorf("memory-only server reports durability enabled: %+v", out.Durability)
	}
}

func TestCommunityCRUD(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(1))
	id1 := uploadCommunity(t, ts, "first", randUsers(rng, 10, 3, 5))
	id2 := uploadCommunity(t, ts, "second", randUsers(rng, 20, 3, 5))

	var list []CommunityInfo
	doJSON(t, "GET", ts.URL+"/communities", nil, http.StatusOK, &list)
	if len(list) != 2 || list[0].ID != id1 || list[1].ID != id2 {
		t.Fatalf("list = %+v", list)
	}

	var one CommunityInfo
	doJSON(t, "GET", fmt.Sprintf("%s/communities/%d", ts.URL, id2), nil, http.StatusOK, &one)
	if one.Name != "second" || one.Dim != 3 {
		t.Errorf("got %+v", one)
	}

	doJSON(t, "DELETE", fmt.Sprintf("%s/communities/%d", ts.URL, id1), nil, http.StatusNoContent, nil)
	doJSON(t, "GET", fmt.Sprintf("%s/communities/%d", ts.URL, id1), nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", fmt.Sprintf("%s/communities/%d", ts.URL, id1), nil, http.StatusNotFound, nil)
	// A malformed id is a syntactically bad request, not a miss.
	doJSON(t, "GET", ts.URL+"/communities/notanumber", nil, http.StatusBadRequest, nil)
}

func TestCreateCommunityRejectsInvalid(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/communities",
		CommunityPayload{Name: "bad", Users: [][]int32{{1, -2}}},
		http.StatusUnprocessableEntity, nil)
	doJSON(t, "POST", ts.URL+"/communities",
		CommunityPayload{Name: "empty"},
		http.StatusUnprocessableEntity, nil)
	doJSON(t, "POST", ts.URL+"/communities",
		CommunityPayload{Name: "ragged", Users: [][]int32{{1, 2}, {1}}},
		http.StatusUnprocessableEntity, nil)
}

func TestSimilarityEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// The paper's Section 3 example.
	bID := uploadCommunity(t, ts, "B", [][]int32{{3, 4, 2}, {2, 2, 3}})
	aID := uploadCommunity(t, ts, "A", [][]int32{{2, 3, 5}, {2, 3, 1}, {3, 3, 3}})

	var resp SimilarityResponse
	doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{
		B: bID, A: aID, Method: "ex-minmax",
		Options: OptionsPayload{Epsilon: 1}, IncludePairs: true,
	}, http.StatusOK, &resp)
	if resp.Similarity != 1.0 || resp.Matched != 2 {
		t.Errorf("similarity = %+v, want 100%% with 2 pairs", resp)
	}
	if len(resp.Pairs) != 2 {
		t.Errorf("pairs = %v, want 2", resp.Pairs)
	}
	if resp.Method != "Ex-MinMax" || resp.SizeB != 2 || resp.SizeA != 3 {
		t.Errorf("metadata = %+v", resp)
	}

	// Swapped pair without orient violates the size precondition.
	doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{
		B: aID, A: bID, Method: "ex-minmax", Options: OptionsPayload{Epsilon: 1},
	}, http.StatusConflict, nil)
	// With orient the server fixes the order.
	doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{
		B: aID, A: bID, Method: "ex-minmax", Options: OptionsPayload{Epsilon: 1}, Orient: true,
	}, http.StatusOK, &resp)
	if resp.Similarity != 1.0 {
		t.Errorf("oriented similarity = %v, want 1.0", resp.Similarity)
	}

	// Unknown method and unknown community.
	doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{
		B: bID, A: aID, Method: "nonsense", Options: OptionsPayload{Epsilon: 1},
	}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{
		B: 9999, A: aID, Method: "ex-minmax",
	}, http.StatusNotFound, nil)
	// Bad matcher name.
	doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{
		B: bID, A: aID, Method: "ex-minmax",
		Options: OptionsPayload{Epsilon: 1, Matcher: "magic"},
	}, http.StatusBadRequest, nil)
}

// TestReferenceScanIdentical pins wire compatibility for older clients
// that send a reference_scan option: the join's shape picks its scan,
// and the request decoder ignores unknown fields, so a body carrying
// "reference_scan": true gets exactly the answer of one without it.
func TestReferenceScanIdentical(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(77))
	bID := uploadCommunity(t, ts, "B", randUsers(rng, 30, 4, 6))
	aID := uploadCommunity(t, ts, "A", randUsers(rng, 40, 4, 6))
	run := func(extra string) SimilarityResponse {
		body := fmt.Sprintf(`{"b":%d,"a":%d,"method":"ex-minmax","include_pairs":true,`+
			`"options":{"epsilon":1%s}}`, bID, aID, extra)
		var resp SimilarityResponse
		doJSON(t, "POST", ts.URL+"/similarity", json.RawMessage(body), http.StatusOK, &resp)
		resp.ElapsedMS = 0
		return resp
	}
	want := run("")
	if want.Matched == 0 {
		t.Fatal("corpus produced no matches; the comparison would be vacuous")
	}
	if got := run(`,"reference_scan":true`); !reflect.DeepEqual(got, want) {
		t.Errorf("reference_scan body diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSimilarityWorkersChangesNothing: a one-shot join runs serially,
// so the workers field of a /similarity body can neither change its
// answer (matched pairs and reported events) nor start goroutines
// beyond the one admission slot the request holds.
func TestSimilarityWorkersChangesNothing(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(21))
	bID := uploadCommunity(t, ts, "B", randUsers(rng, 50, 4, 5))
	aID := uploadCommunity(t, ts, "A", randUsers(rng, 70, 4, 5))
	run := func(workers int) SimilarityResponse {
		var resp SimilarityResponse
		doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{
			B: bID, A: aID, Method: "ex-superego",
			Options: OptionsPayload{Epsilon: 1, Workers: workers},
		}, http.StatusOK, &resp)
		return resp
	}
	want := run(0)
	if want.Matched == 0 {
		t.Fatal("corpus produced no matches; the comparison would be vacuous")
	}
	got := run(8)
	if got.Matched != want.Matched || got.Events != want.Events {
		t.Errorf("workers=8 changed the answer: matched %d events %+v, want matched %d events %+v",
			got.Matched, got.Events, want.Matched, want.Events)
	}
}

func TestSimilarityAllMethodsAndMatchers(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(7))
	bID := uploadCommunity(t, ts, "B", randUsers(rng, 40, 5, 8))
	aID := uploadCommunity(t, ts, "A", randUsers(rng, 50, 5, 8))
	for _, method := range []string{
		"ap-baseline", "ap-minmax", "ap-superego",
		"ex-baseline", "ex-minmax", "ex-superego",
	} {
		var resp SimilarityResponse
		doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{
			B: bID, A: aID, Method: method,
			Options: OptionsPayload{Epsilon: 1, Matcher: "hk", VerifyInteger: true},
		}, http.StatusOK, &resp)
		if resp.Similarity < 0 || resp.Similarity > 1 {
			t.Errorf("%s: similarity %v out of range", method, resp.Similarity)
		}
	}
}

func TestRankEndpoint(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(9))
	pivotUsers := randUsers(rng, 60, 4, 6)
	pivot := uploadCommunity(t, ts, "pivot", pivotUsers)
	// A close candidate shares the pivot's users.
	close1 := uploadCommunity(t, ts, "close", append([][]int32{}, pivotUsers...))
	far := uploadCommunity(t, ts, "far", randUsers(rng, 70, 4, 1000))

	var out []RankEntry
	doJSON(t, "POST", ts.URL+"/rank", RankRequest{
		Pivot: pivot, Candidates: []int64{far, close1}, Method: "ex-minmax",
		Options: OptionsPayload{Epsilon: 0},
	}, http.StatusOK, &out)
	if len(out) != 2 {
		t.Fatalf("rank returned %d entries", len(out))
	}
	if out[0].Name != "close" || out[0].Similarity != 1.0 {
		t.Errorf("top entry = %+v, want close at 100%%", out[0])
	}
	doJSON(t, "POST", ts.URL+"/rank", RankRequest{
		Pivot: 424242, Candidates: []int64{far}, Method: "ex-minmax",
	}, http.StatusNotFound, nil)
}

func TestTopKEndpoint(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(11))
	pivotUsers := randUsers(rng, 50, 4, 6)
	pivot := uploadCommunity(t, ts, "pivot", pivotUsers)
	twin := uploadCommunity(t, ts, "twin", append([][]int32{}, pivotUsers...))
	noise := uploadCommunity(t, ts, "noise", randUsers(rng, 55, 4, 1000))

	var out []TopKEntry
	doJSON(t, "POST", ts.URL+"/topk", TopKRequest{
		Pivot: pivot, Candidates: []int64{noise, twin}, K: 1,
		Options: OptionsPayload{Epsilon: 0},
	}, http.StatusOK, &out)
	if len(out) != 1 || out[0].Name != "twin" || !out[0].Refined || out[0].Exact != 1.0 {
		t.Errorf("topk = %+v, want refined twin at 100%%", out)
	}
	doJSON(t, "POST", ts.URL+"/topk", TopKRequest{
		Pivot: pivot, Candidates: []int64{twin}, K: 0,
	}, http.StatusUnprocessableEntity, nil)
}

func TestMatrixEndpoint(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(17))
	baseUsers := randUsers(rng, 40, 4, 6)
	base := uploadCommunity(t, ts, "base", baseUsers)
	twin := uploadCommunity(t, ts, "twin", append([][]int32{}, baseUsers...))
	other := uploadCommunity(t, ts, "other", randUsers(rng, 44, 4, 6))
	tiny := uploadCommunity(t, ts, "tiny", randUsers(rng, 5, 4, 6))

	var cells []MatrixCell
	doJSON(t, "POST", ts.URL+"/matrix", MatrixRequest{
		Communities: []int64{base, twin, other, tiny},
		Options:     OptionsPayload{Epsilon: 0, Workers: 3},
	}, http.StatusOK, &cells)
	if len(cells) != 6 { // C(4,2) unordered pairs
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	byPair := map[[2]int64]MatrixCell{}
	for _, c := range cells {
		byPair[[2]int64{c.I, c.J}] = c
	}
	if c := byPair[[2]int64{base, twin}]; c.Similarity != 1.0 || c.Matched != 40 {
		t.Errorf("base/twin cell = %+v, want similarity 1 with 40 matches", c)
	}
	// tiny violates the size precondition against every other community.
	for _, c := range cells {
		if (c.I == tiny || c.J == tiny) && !c.Skipped {
			t.Errorf("cell %+v should be skipped (size precondition)", c)
		}
	}

	// Error paths: too few communities, unknown ID, bad method.
	doJSON(t, "POST", ts.URL+"/matrix", MatrixRequest{
		Communities: []int64{base},
	}, http.StatusUnprocessableEntity, nil)
	doJSON(t, "POST", ts.URL+"/matrix", MatrixRequest{
		Communities: []int64{base, 99999},
	}, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/matrix", MatrixRequest{
		Communities: []int64{base, twin}, Method: "nonsense",
	}, http.StatusBadRequest, nil)
}

// TestMatrixEndpointWorkerEquivalence checks the HTTP matrix answer is
// identical for serial and parallel worker counts.
func TestMatrixEndpointWorkerEquivalence(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(23))
	ids := make([]int64, 5)
	for i := range ids {
		ids[i] = uploadCommunity(t, ts, fmt.Sprintf("c%d", i), randUsers(rng, 30+i, 3, 8))
	}
	run := func(workers int) []MatrixCell {
		var cells []MatrixCell
		doJSON(t, "POST", ts.URL+"/matrix", MatrixRequest{
			Communities: ids, Method: "ap-minmax",
			Options: OptionsPayload{Epsilon: 1, Workers: workers},
		}, http.StatusOK, &cells)
		for i := range cells {
			cells[i].ElapsedMS = 0 // timing differs run to run
		}
		return cells
	}
	serial := run(1)
	for _, w := range []int{2, 7} {
		got := run(w)
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", serial) {
			t.Errorf("workers=%d matrix differs from serial:\n%+v\nvs\n%+v", w, got, serial)
		}
	}
}

func TestIncrementalJoinEndpoints(t *testing.T) {
	ts := newTestServer(t)
	var info JoinInfo
	doJSON(t, "POST", ts.URL+"/joins", JoinRequest{Dim: 3, Epsilon: 1}, http.StatusCreated, &info)
	if info.Dim != 3 || info.SizeB != 0 {
		t.Fatalf("join info = %+v", info)
	}
	joinURL := fmt.Sprintf("%s/joins/%d", ts.URL, info.ID)

	var add JoinUserResponse
	doJSON(t, "POST", joinURL+"/users",
		JoinUserRequest{Side: "B", Vector: []int32{3, 4, 2}}, http.StatusCreated, &add)
	bUID := add.UserID
	doJSON(t, "POST", joinURL+"/users",
		JoinUserRequest{Side: "A", Vector: []int32{3, 3, 3}}, http.StatusCreated, &add)
	if add.State.Matched != 1 {
		t.Fatalf("after two inserts matched = %d, want 1", add.State.Matched)
	}
	if add.State.Similarity == nil || *add.State.Similarity != 1.0 {
		t.Fatalf("similarity = %v, want 1.0", add.State.Similarity)
	}

	// Remove the B user: the join becomes empty on one side.
	var after JoinInfo
	doJSON(t, "DELETE", fmt.Sprintf("%s/users/B/%d", joinURL, bUID), nil, http.StatusOK, &after)
	if after.Matched != 0 || after.SimilarityError == "" {
		t.Fatalf("after removal = %+v", after)
	}

	// Error paths.
	doJSON(t, "POST", joinURL+"/users",
		JoinUserRequest{Side: "X", Vector: []int32{1, 2, 3}}, http.StatusBadRequest, nil)
	doJSON(t, "POST", joinURL+"/users",
		JoinUserRequest{Side: "B", Vector: []int32{1, 2}}, http.StatusUnprocessableEntity, nil)
	doJSON(t, "DELETE", fmt.Sprintf("%s/users/B/%d", joinURL, bUID), nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", fmt.Sprintf("%s/users/Q/0", joinURL), nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/joins/31337", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/joins", JoinRequest{Dim: 0, Epsilon: 1}, http.StatusUnprocessableEntity, nil)
}

// The join state endpoint must reflect a longer streaming session and
// always agree with the library's incremental join.
func TestJoinStreamingSession(t *testing.T) {
	ts := newTestServer(t)
	var info JoinInfo
	doJSON(t, "POST", ts.URL+"/joins", JoinRequest{Dim: 2, Epsilon: 1}, http.StatusCreated, &info)
	joinURL := fmt.Sprintf("%s/joins/%d", ts.URL, info.ID)

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		side := "B"
		if i%2 == 0 {
			side = "A"
		}
		v := []int32{rng.Int31n(5), rng.Int31n(5)}
		var add JoinUserResponse
		doJSON(t, "POST", joinURL+"/users",
			JoinUserRequest{Side: side, Vector: v}, http.StatusCreated, &add)
	}
	var state JoinInfo
	doJSON(t, "GET", joinURL, nil, http.StatusOK, &state)
	if state.SizeB != 15 || state.SizeA != 15 {
		t.Fatalf("sizes = %d|%d, want 15|15", state.SizeB, state.SizeA)
	}
	if state.Matched < 1 {
		t.Error("dense small-domain stream should produce matches")
	}
	if state.Similarity == nil {
		t.Errorf("similarity should be defined: %+v", state)
	}
}
