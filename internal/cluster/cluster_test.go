package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/opencsj/csj/internal/server"
)

// testCluster is three real shard servers behind a coordinator, plus a
// single-node reference server holding the same corpus — the oracle
// the scatter-gather answers are compared against.
type testCluster struct {
	coord     *Coordinator
	front     *httptest.Server
	shards    []*httptest.Server
	reference *httptest.Server
}

func newTestCluster(t *testing.T, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	names := []string{"alpha", "beta", "gamma"}
	for _, name := range names {
		srv := server.New(nil)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { srv.Close() })
		tc.shards = append(tc.shards, ts)
		cfg.Shards = append(cfg.Shards, ShardSpec{Name: name, URL: ts.URL})
	}
	ref := server.New(nil)
	tc.reference = httptest.NewServer(ref)
	t.Cleanup(tc.reference.Close)
	t.Cleanup(func() { ref.Close() })

	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	coord, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.front = httptest.NewServer(coord)
	t.Cleanup(tc.front.Close)
	return tc
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		t.Fatalf("%s %s: status %d, want %d (%s)", method, url, resp.StatusCode, wantStatus, b)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
}

// send sends a request with body, when it is not nil, as JSON to url
// and returns the status and the raw response body.
func send(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// checkSameAnswer sends one request to the cluster and to its
// single-node reference, and requires both to answer with status want
// and the same body, byte for byte. A 200 from the cluster is compared
// by its envelope's result, which must not be partial.
func checkSameAnswer(t *testing.T, tc *testCluster, method, path string, body any, want int) {
	t.Helper()
	nodeStatus, nodeBody := send(t, method, tc.reference.URL+path, body)
	clusterStatus, clusterBody := send(t, method, tc.front.URL+path, body)
	if nodeStatus != want || clusterStatus != want {
		t.Fatalf("status: node %d %s, cluster %d %s; want %d", nodeStatus, nodeBody, clusterStatus, clusterBody, want)
	}
	if clusterStatus == http.StatusOK {
		var env envelope
		if err := json.Unmarshal(clusterBody, &env); err != nil {
			t.Fatalf("decoding the cluster's envelope: %v", err)
		}
		if env.Partial {
			t.Fatal("healthy cluster answered partial=true")
		}
		clusterBody = env.Result
		nodeBody = bytes.TrimSuffix(nodeBody, []byte("\n"))
		if path == "/matrix" {
			// A cell carries its join's wall time; compare the rest.
			nodeBody, clusterBody = untimedCells(t, nodeBody), untimedCells(t, clusterBody)
		}
	}
	if !bytes.Equal(nodeBody, clusterBody) {
		t.Fatalf("bodies differ:\n  node    %s\n  cluster %s", nodeBody, clusterBody)
	}
}

// untimedCells re-encodes a /matrix answer with every elapsed_ms zeroed.
func untimedCells(t *testing.T, body []byte) []byte {
	t.Helper()
	var cells []server.MatrixCell
	if err := json.Unmarshal(body, &cells); err != nil {
		t.Fatalf("decoding matrix cells: %v", err)
	}
	for i := range cells {
		cells[i].ElapsedMS = 0
	}
	out, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// envelope mirrors Envelope with a raw result for re-decoding.
type envelope struct {
	Partial     bool            `json:"partial"`
	Unreachable []string        `json:"unreachable_shards"`
	Result      json.RawMessage `json:"result"`
}

func decodeResult[T any](t *testing.T, env envelope) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(env.Result, &v); err != nil {
		t.Fatalf("decoding envelope result: %v", err)
	}
	return v
}

// seedCorpus uploads n communities through the coordinator and the
// same ones directly into the reference server, asserting the
// coordinator assigns the ids 1..n.
func seedCorpus(t *testing.T, tc *testCluster, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= n; i++ {
		users := make([][]int32, 6+rng.Intn(10))
		for u := range users {
			vec := make([]int32, 4)
			for d := range vec {
				vec[d] = int32(rng.Intn(40))
			}
			users[u] = vec
		}
		p := server.CommunityPayload{Name: fmt.Sprintf("c%02d", i), Category: -1, Users: users}
		var info server.CommunityInfo
		doJSON(t, "POST", tc.front.URL+"/communities", p, http.StatusCreated, &info)
		if info.ID != int64(i) {
			t.Fatalf("coordinator assigned id %d to upload %d, want %d", info.ID, i, i)
		}
		var refInfo server.CommunityInfo
		doJSON(t, "POST", tc.reference.URL+"/communities", p, http.StatusCreated, &refInfo)
		if refInfo.ID != info.ID {
			t.Fatalf("reference id %d diverged from cluster id %d", refInfo.ID, info.ID)
		}
	}
}

func TestClusterMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, Config{})
	const n = 12
	seedCorpus(t, tc, n)

	// The ids must actually spread across shards, or the test proves
	// nothing about merging.
	owners := map[int]bool{}
	for id := int64(1); id <= n; id++ {
		owners[tc.coord.ring.Owner(id)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("all %d ids landed on one shard; pick a different corpus size", n)
	}

	t.Run("list", func(t *testing.T) {
		var env envelope
		doJSON(t, "GET", tc.front.URL+"/communities", nil, http.StatusOK, &env)
		if env.Partial {
			t.Fatal("healthy cluster answered partial=true")
		}
		merged := decodeResult[[]server.CommunityInfo](t, env)
		var ref []server.CommunityInfo
		doJSON(t, "GET", tc.reference.URL+"/communities", nil, http.StatusOK, &ref)
		if fmt.Sprint(merged) != fmt.Sprint(ref) {
			t.Fatalf("cluster list diverged:\n  got  %v\n  want %v", merged, ref)
		}
	})

	t.Run("get", func(t *testing.T) {
		var got, want server.CommunityInfo
		doJSON(t, "GET", tc.front.URL+"/communities/3", nil, http.StatusOK, &got)
		doJSON(t, "GET", tc.reference.URL+"/communities/3", nil, http.StatusOK, &want)
		if got != want {
			t.Fatalf("cluster get = %+v, want %+v", got, want)
		}
		doJSON(t, "GET", tc.front.URL+"/communities/999", nil, http.StatusNotFound, nil)
	})

	t.Run("rank", func(t *testing.T) {
		req := server.RankRequest{Pivot: 1, AllCandidates: true, Method: "exminmax", Options: server.OptionsPayload{Epsilon: 8}}
		var env envelope
		doJSON(t, "POST", tc.front.URL+"/rank", req, http.StatusOK, &env)
		if env.Partial {
			t.Fatal("healthy cluster answered partial=true")
		}
		got := decodeResult[[]server.RankEntry](t, env)
		var want []server.RankEntry
		doJSON(t, "POST", tc.reference.URL+"/rank", req, http.StatusOK, &want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cluster rank diverged:\n  got  %v\n  want %v", got, want)
		}
	})

	t.Run("rank threshold", func(t *testing.T) {
		req := server.RankRequest{Pivot: 2, AllCandidates: true, Method: "exminmax", MinSimilarity: 0.3,
			Options: server.OptionsPayload{Epsilon: 8}}
		var env envelope
		doJSON(t, "POST", tc.front.URL+"/rank", req, http.StatusOK, &env)
		got := decodeResult[[]server.RankEntry](t, env)
		var want []server.RankEntry
		doJSON(t, "POST", tc.reference.URL+"/rank", req, http.StatusOK, &want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cluster threshold rank diverged:\n  got  %v\n  want %v", got, want)
		}
	})

	t.Run("rank explicit candidates", func(t *testing.T) {
		req := server.RankRequest{Pivot: 4, Candidates: []int64{1, 2, 5, 9, 11}, Method: "exminmax",
			Options: server.OptionsPayload{Epsilon: 8}}
		var env envelope
		doJSON(t, "POST", tc.front.URL+"/rank", req, http.StatusOK, &env)
		got := decodeResult[[]server.RankEntry](t, env)
		var want []server.RankEntry
		doJSON(t, "POST", tc.reference.URL+"/rank", req, http.StatusOK, &want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cluster explicit-candidate rank diverged:\n  got  %v\n  want %v", got, want)
		}
	})

	t.Run("topk", func(t *testing.T) {
		req := server.TopKRequest{Pivot: 1, AllCandidates: true, K: 5,
			Options: server.OptionsPayload{Epsilon: 8}}
		var env envelope
		doJSON(t, "POST", tc.front.URL+"/topk", req, http.StatusOK, &env)
		got := decodeResult[[]server.TopKEntry](t, env)
		// A node and the cluster answer the same /topk alike, down to
		// the bound each entry reports as approx_similarity.
		var want []server.TopKEntry
		doJSON(t, "POST", tc.reference.URL+"/topk", req, http.StatusOK, &want)
		if len(got) != len(want) {
			t.Fatalf("cluster topk returned %d entries, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("topk[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	})

	t.Run("matrix", func(t *testing.T) {
		// The ring puts 1, 5, 6, 95 and 97 on alpha, 2, 3, 8, 98 and 99
		// on beta, and 4 and 7 on gamma; 95..99 name no community.
		opts := server.OptionsPayload{Epsilon: 8}
		wrongLen := server.OptionsPayload{EpsilonVec: []int32{1, 2}}
		negative := server.OptionsPayload{EpsilonVec: []int32{1, -2, 0, 1}}
		badMatcher := server.OptionsPayload{Epsilon: 8, Matcher: "bogus"}
		spread := []int64{1, 2, 3, 4, 5, 6, 7}
		for _, c := range []struct {
			name string
			body server.MatrixRequest
			want int
		}{
			{"ids on all three shards", server.MatrixRequest{Communities: spread, Options: opts}, http.StatusOK},
			{"a repeated id", server.MatrixRequest{Communities: []int64{4, 1, 4, 2}, Options: opts}, http.StatusOK},
			{"missing first id", server.MatrixRequest{Communities: []int64{99, 1, 2, 4}, Options: opts}, http.StatusNotFound},
			{"missing last id", server.MatrixRequest{Communities: []int64{1, 2, 4, 99}, Options: opts}, http.StatusNotFound},
			{"bad method", server.MatrixRequest{Communities: spread, Method: "bogus", Options: opts}, http.StatusBadRequest},
			{"non-MinMax method", server.MatrixRequest{Communities: spread, Method: "exbaseline", Options: opts}, http.StatusUnprocessableEntity},
			{"epsilon_vec of the wrong length, ids on several shards",
				server.MatrixRequest{Communities: spread, Options: wrongLen}, http.StatusUnprocessableEntity},
			{"epsilon_vec of the wrong length, ids on one shard",
				server.MatrixRequest{Communities: []int64{2, 3, 8}, Options: wrongLen}, http.StatusUnprocessableEntity},
			{"negative epsilon_vec entry", server.MatrixRequest{Communities: spread, Options: negative}, http.StatusUnprocessableEntity},
			{"bad matcher", server.MatrixRequest{Communities: spread, Options: badMatcher}, http.StatusBadRequest},
			{"one community", server.MatrixRequest{Communities: []int64{1}, Options: opts}, http.StatusUnprocessableEntity},
			// Two faults: both check the method and the options before
			// the ids.
			{"missing first id and bad method",
				server.MatrixRequest{Communities: []int64{99, 1, 2}, Method: "bogus", Options: opts}, http.StatusBadRequest},
			{"missing first id and bad matcher",
				server.MatrixRequest{Communities: []int64{99, 1, 2}, Options: badMatcher}, http.StatusBadRequest},
			{"missing first id and negative epsilon_vec entry",
				server.MatrixRequest{Communities: []int64{99, 1, 2}, Options: negative}, http.StatusUnprocessableEntity},
			{"missing first id and a non-MinMax method",
				server.MatrixRequest{Communities: []int64{99, 1, 2}, Method: "exbaseline", Options: opts}, http.StatusUnprocessableEntity},
			{"missing middle id and bad method",
				server.MatrixRequest{Communities: []int64{1, 99, 2}, Method: "bogus", Options: opts}, http.StatusBadRequest},
			// Two faults among the ids: both report the first in
			// request order, whether or not the coordinator fetches it.
			{"a missing id no shard takes as a guest, then one they do",
				server.MatrixRequest{Communities: []int64{1, 95, 99}, Options: opts}, http.StatusNotFound},
			{"epsilon_vec of the wrong length and a missing last id",
				server.MatrixRequest{Communities: []int64{1, 2, 99}, Options: wrongLen}, http.StatusUnprocessableEntity},
			{"missing first id and epsilon_vec of the wrong length",
				server.MatrixRequest{Communities: []int64{99, 1, 5}, Options: wrongLen}, http.StatusNotFound},
		} {
			t.Run(c.name, func(t *testing.T) { checkSameAnswer(t, tc, "POST", "/matrix", c.body, c.want) })
		}

		// Several missing ids: the cluster names the same one, the
		// first in request order, every time.
		t.Run("missing ids, repeated", func(t *testing.T) {
			body := server.MatrixRequest{Communities: []int64{1, 99, 98, 97}, Options: opts}
			for i := 0; i < 20; i++ {
				checkSameAnswer(t, tc, "POST", "/matrix", body, http.StatusNotFound)
			}
		})
	})

	t.Run("rank and topk requests", func(t *testing.T) {
		opts := server.OptionsPayload{Epsilon: 8}
		for _, c := range []struct {
			name string
			path string
			body any
			want int
		}{
			{"rank all candidates", "/rank",
				server.RankRequest{Pivot: 3, AllCandidates: true, Method: "exminmax", Options: opts}, http.StatusOK},
			{"rank explicit list", "/rank",
				server.RankRequest{Pivot: 3, Candidates: []int64{1, 2, 5, 9, 11}, Method: "apminmax", Options: opts}, http.StatusOK},
			{"rank min_similarity", "/rank",
				server.RankRequest{Pivot: 3, AllCandidates: true, Method: "exminmax", MinSimilarity: 0.2, Options: opts}, http.StatusOK},
			{"rank non-MinMax method", "/rank",
				server.RankRequest{Pivot: 3, AllCandidates: true, Method: "exbaseline", Options: opts}, http.StatusOK},
			{"topk all candidates", "/topk",
				server.TopKRequest{Pivot: 5, AllCandidates: true, K: 4, Options: opts}, http.StatusOK},
			{"topk explicit list", "/topk",
				server.TopKRequest{Pivot: 5, Candidates: []int64{1, 2, 3, 8, 10}, K: 3, Options: opts}, http.StatusOK},
			{"rank missing pivot", "/rank",
				server.RankRequest{Pivot: 99, AllCandidates: true, Method: "exminmax", Options: opts}, http.StatusNotFound},
			{"topk missing pivot", "/topk",
				server.TopKRequest{Pivot: 99, Candidates: []int64{1, 2}, K: 1, Options: opts}, http.StatusNotFound},
			{"rank missing candidate", "/rank",
				server.RankRequest{Pivot: 3, Candidates: []int64{1, 99}, Method: "exminmax", Options: opts}, http.StatusNotFound},
			{"topk missing candidate", "/topk",
				server.TopKRequest{Pivot: 3, Candidates: []int64{99}, K: 1, Options: opts}, http.StatusNotFound},
			{"topk k = 0", "/topk",
				server.TopKRequest{Pivot: 3, AllCandidates: true, K: 0, Options: opts}, http.StatusBadRequest},
			// Both check the candidate forms before k.
			{"topk k = 0 and neither candidate form", "/topk",
				server.TopKRequest{Pivot: 3, K: 0, Options: opts}, http.StatusBadRequest},
			{"rank neither candidate form", "/rank",
				server.RankRequest{Pivot: 3, Method: "exminmax", Options: opts}, http.StatusBadRequest},
			{"rank both candidate forms", "/rank",
				server.RankRequest{Pivot: 3, Candidates: []int64{1}, AllCandidates: true, Method: "exminmax", Options: opts}, http.StatusBadRequest},
			{"topk neither candidate form", "/topk",
				server.TopKRequest{Pivot: 3, K: 2, Options: opts}, http.StatusBadRequest},
			{"topk both candidate forms", "/topk",
				server.TopKRequest{Pivot: 3, Candidates: []int64{1}, AllCandidates: true, K: 2, Options: opts}, http.StatusBadRequest},
			{"rank bad method", "/rank",
				server.RankRequest{Pivot: 3, AllCandidates: true, Method: "bogus", Options: opts}, http.StatusBadRequest},
			{"rank bad matcher", "/rank",
				server.RankRequest{Pivot: 3, AllCandidates: true, Method: "exminmax",
					Options: server.OptionsPayload{Epsilon: 8, Matcher: "bogus"}}, http.StatusBadRequest},
			{"topk bad matcher", "/topk",
				server.TopKRequest{Pivot: 3, AllCandidates: true, K: 2,
					Options: server.OptionsPayload{Epsilon: 8, Matcher: "bogus"}}, http.StatusBadRequest},
			{"rank negative epsilon_vec entry", "/rank",
				server.RankRequest{Pivot: 3, AllCandidates: true, Method: "exminmax",
					Options: server.OptionsPayload{EpsilonVec: []int32{1, -2, 0, 1}}}, http.StatusUnprocessableEntity},
			{"topk epsilon_vec of the wrong length", "/topk",
				server.TopKRequest{Pivot: 3, AllCandidates: true, K: 2,
					Options: server.OptionsPayload{EpsilonVec: []int32{1, 2}}}, http.StatusUnprocessableEntity},
			{"rank negative min_similarity", "/rank",
				server.RankRequest{Pivot: 3, AllCandidates: true, Method: "exminmax", MinSimilarity: -0.5, Options: opts}, http.StatusBadRequest},
			{"rank min_similarity with a non-MinMax method", "/rank",
				server.RankRequest{Pivot: 3, AllCandidates: true, Method: "exbaseline", MinSimilarity: 0.2, Options: opts}, http.StatusBadRequest},
			// Two faults: both check the method and the options before
			// the pivot.
			{"rank missing pivot and bad method", "/rank",
				server.RankRequest{Pivot: 99, AllCandidates: true, Method: "bogus", Options: opts}, http.StatusBadRequest},
			{"rank missing pivot and negative epsilon_vec entry", "/rank",
				server.RankRequest{Pivot: 99, AllCandidates: true, Method: "exminmax",
					Options: server.OptionsPayload{EpsilonVec: []int32{1, -2, 0, 1}}}, http.StatusUnprocessableEntity},
			{"topk missing pivot and negative epsilon_vec entry", "/topk",
				server.TopKRequest{Pivot: 99, AllCandidates: true, K: 2,
					Options: server.OptionsPayload{EpsilonVec: []int32{1, -2, 0, 1}}}, http.StatusUnprocessableEntity},
			{"topk missing pivot and bad matcher", "/topk",
				server.TopKRequest{Pivot: 99, Candidates: []int64{1, 2}, K: 2,
					Options: server.OptionsPayload{Epsilon: 8, Matcher: "bogus"}}, http.StatusBadRequest},
		} {
			t.Run(c.name, func(t *testing.T) { checkSameAnswer(t, tc, "POST", c.path, c.body, c.want) })
		}

		// A corpus of one community: every candidate set is empty.
		one := newTestCluster(t, Config{})
		seedCorpus(t, one, 1)
		for _, c := range []struct {
			name string
			path string
			body any
			want int
		}{
			{"rank empty candidate set", "/rank",
				server.RankRequest{Pivot: 1, AllCandidates: true, Method: "exminmax", Options: opts}, http.StatusOK},
			{"topk empty candidate set", "/topk",
				server.TopKRequest{Pivot: 1, AllCandidates: true, K: 3, Options: opts}, http.StatusOK},
			{"rank missing pivot, empty candidate set", "/rank",
				server.RankRequest{Pivot: 99, AllCandidates: true, Method: "exminmax", Options: opts}, http.StatusNotFound},
			{"topk missing pivot, empty candidate set", "/topk",
				server.TopKRequest{Pivot: 99, AllCandidates: true, K: 3, Options: opts}, http.StatusNotFound},
		} {
			t.Run(c.name, func(t *testing.T) { checkSameAnswer(t, one, "POST", c.path, c.body, c.want) })
		}
	})

	t.Run("delete", func(t *testing.T) {
		doJSON(t, "DELETE", tc.front.URL+"/communities/12", nil, http.StatusNoContent, nil)
		doJSON(t, "GET", tc.front.URL+"/communities/12", nil, http.StatusNotFound, nil)
		doJSON(t, "DELETE", tc.front.URL+"/communities/12", nil, http.StatusNotFound, nil)
	})

	t.Run("community requests", func(t *testing.T) {
		// Both parse the path with the node's parser and check a body
		// with the node's ingest check, which the cluster runs before
		// it allocates an id: the create after the rejected ones gets
		// the same id from both.
		ok := server.CommunityPayload{Name: "after", Users: [][]int32{{1, 2, 3, 4}, {5, 6, 7, 8}}}
		for _, c := range []struct {
			name, method, path string
			body               any
			want               int
		}{
			{"get malformed id", "GET", "/communities/abc", nil, http.StatusBadRequest},
			{"get missing id", "GET", "/communities/99", nil, http.StatusNotFound},
			{"delete malformed id", "DELETE", "/communities/abc", nil, http.StatusBadRequest},
			{"delete missing id", "DELETE", "/communities/99", nil, http.StatusNotFound},
			{"create with no users", "POST", "/communities",
				server.CommunityPayload{Name: "none"}, http.StatusUnprocessableEntity},
			{"create with users of zero dimensions", "POST", "/communities",
				server.CommunityPayload{Users: [][]int32{{}, {}}}, http.StatusUnprocessableEntity},
			{"create with a category past int32", "POST", "/communities",
				json.RawMessage(`{"category":4294967297,"users":[[1]]}`), http.StatusUnprocessableEntity},
			{"create with ragged users", "POST", "/communities",
				server.CommunityPayload{Users: [][]int32{{1, 2}, {3}}}, http.StatusUnprocessableEntity},
			{"create with a negative counter", "POST", "/communities",
				server.CommunityPayload{Users: [][]int32{{1, -2}}}, http.StatusUnprocessableEntity},
			{"create after the rejected ones", "POST", "/communities", ok, http.StatusCreated},
		} {
			t.Run(c.name, func(t *testing.T) { checkSameAnswer(t, tc, c.method, c.path, c.body, c.want) })
		}
	})
}

func TestClusterPartialDegradation(t *testing.T) {
	tc := newTestCluster(t, Config{
		Retries:          1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // stays open for the whole test
		RequestTimeout:   2 * time.Second,
	})
	const n = 12
	seedCorpus(t, tc, n)

	// Kill shard beta (index 1) abruptly: connections refused from here on.
	downName := tc.coord.cfg.Shards[1].Name
	tc.shards[1].CloseClientConnections()
	tc.shards[1].Close()

	// Pick a pivot the dead shard does NOT own, so the profile fetch
	// succeeds and only beta's partial results go missing.
	pivot := int64(-1)
	survivors := map[int64]bool{}
	for id := int64(1); id <= n; id++ {
		if tc.coord.owner(id).name != downName {
			survivors[id] = true
			if pivot < 0 {
				pivot = id
			}
		}
	}
	if pivot < 0 {
		t.Fatal("no surviving pivot available")
	}

	req := server.TopKRequest{Pivot: pivot, AllCandidates: true, K: n,
		Options: server.OptionsPayload{Epsilon: 8}}
	var env envelope
	doJSON(t, "POST", tc.front.URL+"/topk", req, http.StatusOK, &env)
	if !env.Partial {
		t.Fatal("degraded cluster must flag partial=true")
	}
	if len(env.Unreachable) != 1 || env.Unreachable[0] != downName {
		t.Fatalf("unreachable = %v, want [%s]", env.Unreachable, downName)
	}
	got := decodeResult[[]server.TopKEntry](t, env)
	// Every returned entry must belong to a surviving shard — no
	// half-answers attributed to the dead one.
	for _, e := range got {
		if !survivors[e.Community] {
			t.Fatalf("degraded answer contains community %d owned by dead shard %s", e.Community, downName)
		}
		delete(survivors, e.Community)
	}
	delete(survivors, pivot) // the pivot never ranks itself
	if len(survivors) != 0 {
		t.Fatalf("degraded answer is missing surviving communities: %v", survivors)
	}

	// require_complete=1 turns the same degradation into a 503.
	doJSON(t, "POST", tc.front.URL+"/topk?require_complete=1", req, http.StatusServiceUnavailable, nil)

	// The breaker must have opened; /cluster/status reports it.
	var status StatusResponse
	doJSON(t, "GET", tc.front.URL+"/cluster/status", nil, http.StatusOK, &status)
	var betaState string
	for _, sh := range status.Shards {
		if sh.Name == downName {
			betaState = sh.State
		}
	}
	if betaState != "open" {
		t.Fatalf("dead shard breaker state = %q, want open", betaState)
	}

	// Exposition: the csj_cluster_* families must be present and the
	// dead shard's open-state gauge must read 1.
	resp, err := http.Get(tc.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf(`csj_cluster_shard_state{shard="%s",state="open"} 1`, downName),
		"csj_cluster_partial_responses_total 1",
		"csj_cluster_rejected_incomplete_total 1",
		"csj_cluster_retries_total",
		"csj_cluster_probes_total",
		"csj_cluster_promotions_total 0",
		"csj_http_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics exposition missing %q", want)
		}
	}
}

func TestClusterReadyzDrain(t *testing.T) {
	tc := newTestCluster(t, Config{})
	doJSON(t, "GET", tc.front.URL+"/readyz", nil, http.StatusOK, nil)
	tc.coord.BeginDrain()
	doJSON(t, "GET", tc.front.URL+"/readyz", nil, http.StatusServiceUnavailable, nil)
	// Liveness is unaffected by draining.
	doJSON(t, "GET", tc.front.URL+"/healthz", nil, http.StatusOK, nil)
}

func TestClusterCreateRejectsWhenAllocatorBlind(t *testing.T) {
	// With a shard down before the first write, the id allocator cannot
	// prove the cluster-wide max id, so creates must fail loudly rather
	// than risk a duplicate id.
	tc := newTestCluster(t, Config{Retries: -1, BreakerThreshold: 100, RequestTimeout: time.Second})
	tc.shards[2].CloseClientConnections()
	tc.shards[2].Close()
	p := server.CommunityPayload{Name: "x", Category: -1, Users: [][]int32{{1, 2}, {3, 4}}}
	doJSON(t, "POST", tc.front.URL+"/communities", p, http.StatusServiceUnavailable, nil)
}

// TestCoordinatorRetriesCanBeDisabled counts the attempts one routed
// read makes against a shard that answers 503: a negative Retries
// disables retries (1 attempt), and 0 selects DefaultRetries (3).
func TestCoordinatorRetriesCanBeDisabled(t *testing.T) {
	for _, tc := range []struct {
		retries, want int
	}{{-1, 1}, {0, 1 + DefaultRetries}} {
		var attempts atomic.Int32
		shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/communities/7" {
				attempts.Add(1)
			}
			http.Error(w, "busy", http.StatusServiceUnavailable)
		}))
		coord, err := New(nil, Config{
			Shards:           []ShardSpec{{Name: "alpha", URL: shard.URL}},
			Retries:          tc.retries,
			RetryBackoff:     time.Millisecond,
			BreakerThreshold: 100,
			RequestTimeout:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(coord)
		resp, err := http.Get(front.URL + "/communities/7")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		front.Close()
		shard.Close()
		if got := int(attempts.Load()); got != tc.want {
			t.Errorf("Retries %d: shard saw %d attempts of GET /communities/7, want %d", tc.retries, got, tc.want)
		}
	}
}

// TestCoordinatorForwardsShardErrorBodies pins how a shard's own error
// answer reaches a coordinator client: a JSON body verbatim with the
// shard's status — a poisoned node's pinned 503 on a write included —
// and any other body as the message of an error body.
func TestCoordinatorForwardsShardErrorBodies(t *testing.T) {
	const degraded = `{"detail":"write-ahead log poisoned; node is read-only","error":"degraded"}`
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == "GET" && r.URL.Path == "/communities":
			io.WriteString(w, "[]\n")
		case r.URL.Path == "/internal/communities":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, degraded+"\n")
		default:
			http.Error(w, "no such thing", http.StatusNotFound)
		}
	}))
	t.Cleanup(shard.Close)
	coord, err := New(nil, Config{
		Shards:         []ShardSpec{{Name: "alpha", URL: shard.URL}},
		RequestTimeout: time.Second,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	t.Cleanup(front.Close)

	p := server.CommunityPayload{Name: "x", Category: -1, Users: [][]int32{{1, 2}, {3, 4}}}
	status, body := send(t, "POST", front.URL+"/communities", p)
	if status != http.StatusServiceUnavailable || string(body) != degraded+"\n" {
		t.Errorf("create on a poisoned shard: %d %s, want 503 %s", status, body, degraded)
	}

	resp, err := http.Get(front.URL + "/communities/7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"error":"no such thing"}` + "\n"; resp.StatusCode != http.StatusNotFound || string(body) != want {
		t.Errorf("get with a plain-text 404: %d %s, want 404 %s", resp.StatusCode, body, want)
	}
}
