package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/opencsj/csj/internal/server"
)

// TestCoordinatorForwardsSpecVerbatim pins the lossless-forwarding
// contract for the full match spec: whatever OptionsPayload arrives at
// the coordinator — epsilon vector, parts, composite scorer — must
// reach every shard byte-for-byte, with no field dropped, reordered,
// or re-derived along the way. The shards here are real servers behind
// a thin tap that records each /internal/rank and /internal/topk body
// before passing it through, so the assertion covers the coordinator's
// actual wire encoding, not an in-process shortcut. A scattered rank
// with the same spec is also checked against a single-node reference
// server holding the same corpus: forwarding that *looked* verbatim
// but dropped a field would diverge there.
func TestCoordinatorForwardsSpecVerbatim(t *testing.T) {
	var mu sync.Mutex
	var captured []server.ShardQueryRequest

	cfg := Config{RequestTimeout: 5 * time.Second, RetryBackoff: time.Millisecond}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		srv := server.New(nil)
		tap := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/internal/rank" || r.URL.Path == "/internal/topk" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Errorf("reading shard body: %v", err)
				}
				var q server.ShardQueryRequest
				if err := json.Unmarshal(body, &q); err != nil {
					t.Errorf("decoding shard body: %v", err)
				} else {
					mu.Lock()
					captured = append(captured, q)
					mu.Unlock()
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			srv.ServeHTTP(w, r)
		})
		ts := httptest.NewServer(tap)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { srv.Close() })
		cfg.Shards = append(cfg.Shards, ShardSpec{Name: name, URL: ts.URL})
	}
	coord, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	t.Cleanup(front.Close)
	ref := server.New(nil)
	refTS := httptest.NewServer(ref)
	t.Cleanup(refTS.Close)
	t.Cleanup(func() { ref.Close() })

	rng := rand.New(rand.NewSource(47))
	const n = 8
	for i := 1; i <= n; i++ {
		users := make([][]int32, 8+rng.Intn(8))
		for u := range users {
			vec := make([]int32, 4)
			for d := range vec {
				vec[d] = int32(rng.Intn(30))
			}
			users[u] = vec
		}
		p := server.CommunityPayload{Name: fmt.Sprintf("c%02d", i), Category: i % 3, Users: users}
		doJSON(t, "POST", front.URL+"/communities", p, http.StatusCreated, nil)
		doJSON(t, "POST", refTS.URL+"/communities", p, http.StatusCreated, nil)
	}

	opts := server.OptionsPayload{
		EpsilonVec: []int32{0, 2, 1, 3},
		Parts:      2,
		Scorer:     &server.ScorerPayload{CSJ: 2, Category: 1, Cosine: 1},
	}
	candidates := []int64{2, 3, 4, 5, 6, 7, 8}
	rankReq := server.RankRequest{Pivot: 1, Candidates: candidates,
		Method: "exminmax", Options: opts}
	var env envelope
	doJSON(t, "POST", front.URL+"/rank", rankReq, http.StatusOK, &env)
	clusterRank := decodeResult[[]server.RankEntry](t, env)

	doJSON(t, "POST", front.URL+"/topk",
		server.TopKRequest{Pivot: 1, Candidates: candidates, K: 3, Options: opts},
		http.StatusOK, &env)

	mu.Lock()
	taps := append([]server.ShardQueryRequest(nil), captured...)
	mu.Unlock()
	if len(taps) < 2 {
		t.Fatalf("captured %d shard queries, want at least one rank and one topk fan-out", len(taps))
	}
	for i, q := range taps {
		if !reflect.DeepEqual(q.Options, opts) {
			t.Errorf("shard query %d options = %+v, want the coordinator input %+v forwarded verbatim",
				i, q.Options, opts)
		}
	}

	// Same spec against the single-node reference: the scattered answer
	// must be entry-for-entry identical.
	var want []server.RankEntry
	doJSON(t, "POST", refTS.URL+"/rank", rankReq, http.StatusOK, &want)
	if !reflect.DeepEqual(clusterRank, want) {
		t.Errorf("scattered rank with epsilon_vec+scorer diverges from single node\ncluster:   %+v\nreference: %+v",
			clusterRank, want)
	}
}

// TestNegativePartsRejectedColdAndWarm: a negative part count is a spec
// error, 422 before any view lookup, so a node and the cluster answer
// it alike whatever their view caches hold. Cold, no view is cached;
// warm, a parts: 0 /topk has cached the default views, under the
// digest a negative count must never share.
func TestNegativePartsRejectedColdAndWarm(t *testing.T) {
	tc := newTestCluster(t, Config{})
	seedCorpus(t, tc, 6)
	negative := server.OptionsPayload{Epsilon: 8, Parts: -1}
	reject := func(t *testing.T) {
		checkSameAnswer(t, tc, "POST", "/topk",
			server.TopKRequest{Pivot: 1, AllCandidates: true, K: 3, Options: negative}, http.StatusUnprocessableEntity)
		checkSameAnswer(t, tc, "POST", "/rank",
			server.RankRequest{Pivot: 1, AllCandidates: true, Method: "exminmax", Options: negative}, http.StatusUnprocessableEntity)
		checkSameAnswer(t, tc, "POST", "/matrix",
			server.MatrixRequest{Communities: []int64{1, 2, 3}, Options: negative}, http.StatusUnprocessableEntity)
	}
	t.Run("cold", reject)
	checkSameAnswer(t, tc, "POST", "/topk",
		server.TopKRequest{Pivot: 1, AllCandidates: true, K: 3, Options: server.OptionsPayload{Epsilon: 8}}, http.StatusOK)
	t.Run("warm", reject)
}
