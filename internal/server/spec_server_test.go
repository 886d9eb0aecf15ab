package server

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSpecValidationStatusAndBodies pins the HTTP status and error
// body for every way an epsilon vector, scorer or part count can be
// semantically invalid. These are all 422s — the request is well-formed JSON with
// known fields, the *spec* is what's wrong — and the bodies are part
// of the wire contract (clients match on them to surface actionable
// messages).
func TestSpecValidationStatusAndBodies(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(31))
	b := uploadCommunity(t, ts, "b", randUsers(rng, 20, 4, 7))
	a := uploadCommunity(t, ts, "a", randUsers(rng, 24, 4, 7))

	cases := []struct {
		name string
		req  SimilarityRequest
		frag string
	}{
		{"negative epsilon_vec entry",
			SimilarityRequest{B: b, A: a, Method: "exminmax",
				Options: OptionsPayload{EpsilonVec: []int32{1, -2, 0, 1}}},
			"epsilon_vec entry 1 is -2; entries must be >= 0"},
		{"epsilon_vec length mismatch",
			SimilarityRequest{B: b, A: a, Method: "exminmax",
				Options: OptionsPayload{EpsilonVec: []int32{1, 2}}},
			"epsilon vector has 2 entries for 4 dimensions"},
		{"heterogeneous epsilon_vec on a scalar-only method",
			SimilarityRequest{B: b, A: a, Method: "exbaseline",
				Options: OptionsPayload{EpsilonVec: []int32{0, 1, 2, 3}}},
			"per-dimension epsilon requires a MinMax method"},
		{"all-zero scorer",
			SimilarityRequest{B: b, A: a, Method: "exminmax",
				Options: OptionsPayload{Scorer: &ScorerPayload{}}},
			"all weights are zero"},
		{"negative scorer weight",
			SimilarityRequest{B: b, A: a, Method: "exminmax",
				Options: OptionsPayload{Scorer: &ScorerPayload{CSJ: -1, Category: 1}}},
			"weights must be non-negative"},
		{"scorer weights whose sum overflows",
			SimilarityRequest{B: b, A: a, Method: "exminmax",
				Options: OptionsPayload{Scorer: &ScorerPayload{CSJ: 1e308, Category: 1e308}}},
			"weights must be finite with a finite sum"},
		{"negative parts",
			SimilarityRequest{B: b, A: a, Method: "exminmax",
				Options: OptionsPayload{Parts: -1}},
			"parts is -1; it must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body map[string]string
			doJSON(t, "POST", ts.URL+"/similarity", tc.req,
				http.StatusUnprocessableEntity, &body)
			if !strings.Contains(body["error"], tc.frag) {
				t.Errorf("422 body = %q, want it to contain %q", body["error"], tc.frag)
			}
		})
	}

	// An all-equal vector canonicalizes to its scalar before the method
	// gate, so it works even with the scalar-only Baseline family.
	doJSON(t, "POST", ts.URL+"/similarity",
		SimilarityRequest{B: b, A: a, Method: "exbaseline",
			Options: OptionsPayload{EpsilonVec: []int32{1, 1, 1, 1}}},
		http.StatusOK, nil)
}

// TestNegativePartsRejectedColdAndWarm: a negative part count is 422
// before any view lookup, on every read route, whether or not a
// parts: 0 read has cached the default views first.
func TestNegativePartsRejectedColdAndWarm(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(33))
	b := uploadCommunity(t, ts, "b", randUsers(rng, 20, 6, 7))
	a := uploadCommunity(t, ts, "a", randUsers(rng, 24, 6, 7))
	negative := OptionsPayload{Epsilon: 2, Parts: -1}
	topk := TopKRequest{Pivot: b, AllCandidates: true, K: 1, Options: OptionsPayload{Epsilon: 2}}
	reject := func(t *testing.T) {
		bad := topk
		bad.Options = negative
		doJSON(t, "POST", ts.URL+"/topk", bad, http.StatusUnprocessableEntity, nil)
		doJSON(t, "POST", ts.URL+"/similarity",
			SimilarityRequest{B: b, A: a, Method: "exminmax", Options: negative}, http.StatusUnprocessableEntity, nil)
		doJSON(t, "POST", ts.URL+"/rank",
			RankRequest{Pivot: b, AllCandidates: true, Method: "exminmax", Options: negative}, http.StatusUnprocessableEntity, nil)
		doJSON(t, "POST", ts.URL+"/matrix",
			MatrixRequest{Communities: []int64{b, a}, Options: negative}, http.StatusUnprocessableEntity, nil)
	}
	t.Run("cold", reject)
	doJSON(t, "POST", ts.URL+"/topk", topk, http.StatusOK, nil)
	t.Run("warm", reject)
}

// TestMatrixSpecWarmCacheNoRebuild is the end-to-end cache-key check:
// a second identical /matrix request with a heterogeneous epsilon_vec
// must rebuild zero prepared views, and a third that differs only in
// scorer must share them too (views depend on the tolerance and part
// count, not the scorer). A digest that drifted across requests, or a
// key that missed the vector, would show up here as extra builds.
func TestMatrixSpecWarmCacheNoRebuild(t *testing.T) {
	srv := New(nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	rng := rand.New(rand.NewSource(37))
	ids := make([]int64, 3)
	for i := range ids {
		ids[i] = uploadCommunity(t, ts, "m", randUsers(rng, 10+2*i, 4, 7))
	}

	req := MatrixRequest{Communities: ids, Method: "exminmax",
		Options: OptionsPayload{EpsilonVec: []int32{0, 1, 2, 1}}}
	doJSON(t, "POST", ts.URL+"/matrix", req, http.StatusOK, nil)
	cold := srv.store.CacheStats().Builds
	if cold != int64(len(ids)) {
		t.Fatalf("cold matrix built %d views, want %d", cold, len(ids))
	}

	doJSON(t, "POST", ts.URL+"/matrix", req, http.StatusOK, nil)
	if warm := srv.store.CacheStats().Builds; warm != cold {
		t.Errorf("warm matrix rebuilt views: builds %d -> %d, want unchanged", cold, warm)
	}

	withScorer := req
	withScorer.Options.Scorer = &ScorerPayload{CSJ: 2, Cosine: 1}
	doJSON(t, "POST", ts.URL+"/matrix", withScorer, http.StatusOK, nil)
	if got := srv.store.CacheStats().Builds; got != cold {
		t.Errorf("scorer-only change rebuilt views: builds %d -> %d, want unchanged", cold, got)
	}
}

// TestSimilarityScorerBlendE2E drives the composite scorer over the
// wire with a hand-constructed pair whose blend is exact: eps 0 joins
// nothing (CSJ component 0), the categories agree (overlap 1), and the
// normalized centroids coincide (cosine 1), so weights (2, 1, 1)
// blend to exactly 0.5.
func TestSimilarityScorerBlendE2E(t *testing.T) {
	ts := newTestServer(t)
	var bInfo, aInfo CommunityInfo
	doJSON(t, "POST", ts.URL+"/communities",
		CommunityPayload{Name: "b", Category: 3, Users: [][]int32{{1, 1}}},
		http.StatusCreated, &bInfo)
	doJSON(t, "POST", ts.URL+"/communities",
		CommunityPayload{Name: "a", Category: 3, Users: [][]int32{{0, 2}, {2, 0}}},
		http.StatusCreated, &aInfo)

	req := SimilarityRequest{B: bInfo.ID, A: aInfo.ID, Method: "exminmax",
		Options: OptionsPayload{Scorer: &ScorerPayload{CSJ: 2, Category: 1, Cosine: 1}}}
	var resp SimilarityResponse
	doJSON(t, "POST", ts.URL+"/similarity", req, http.StatusOK, &resp)
	if resp.Blend == nil {
		t.Fatal("scored response has no blend components")
	}
	if resp.Blend.CSJ != 0 || resp.Blend.Category != 1 ||
		math.Abs(resp.Blend.Cosine-1) > 1e-12 {
		t.Errorf("blend = %+v, want {CSJ:0 Category:1 Cosine:1}", resp.Blend)
	}
	if math.Abs(resp.Similarity-0.5) > 1e-12 {
		t.Errorf("similarity = %g, want exactly 0.5", resp.Similarity)
	}

	// Without a scorer the same join reports the plain CSJ score and no
	// blend — the field stays off the wire entirely.
	var plain SimilarityResponse
	doJSON(t, "POST", ts.URL+"/similarity",
		SimilarityRequest{B: bInfo.ID, A: aInfo.ID, Method: "exminmax"},
		http.StatusOK, &plain)
	if plain.Blend != nil {
		t.Errorf("unscored response carries blend %+v", plain.Blend)
	}
	if plain.Similarity != 0 {
		t.Errorf("plain similarity = %g, want 0 (eps 0 matches nothing)", plain.Similarity)
	}
}
