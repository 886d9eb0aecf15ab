package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"testing"

	csj "github.com/opencsj/csj"
)

// FuzzOptionsPayload decodes arbitrary bytes as a request's options and
// runs the checks every query makes before it resolves a community:
// CheckRank, CheckTopK and CheckMatrix. None may panic; all three must
// reach the same verdict on the same options; a rejection is 400 or
// 422; accepted options carry no negative part count or epsilon_vec
// entry and a scorer that validates, whose weights normalize to finite
// values summing to 1. Seeded with the option bodies of the cluster's
// /matrix table and a negative part count. Part of `make fuzzsmoke`.
func FuzzOptionsPayload(f *testing.F) {
	for _, o := range []OptionsPayload{
		{Epsilon: 8},
		{EpsilonVec: []int32{1, 2}},
		{EpsilonVec: []int32{1, -2, 0, 1}},
		{Epsilon: 8, Matcher: "bogus"},
		{EpsilonVec: []int32{0, 2, 1, 3}, Parts: 2, Scorer: &ScorerPayload{CSJ: 2, Category: 1, Cosine: 1}},
		{Scorer: &ScorerPayload{CSJ: -1, Category: 1}},
		{Scorer: &ScorerPayload{CSJ: 1e308, Category: 1e308}},
		{Epsilon: 8, Parts: -1},
	} {
		seed, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var o OptionsPayload
		if json.Unmarshal(data, &o) != nil {
			return
		}
		verdict := func(name string, opts *csj.Options, status int, err error) string {
			if err != nil {
				if status != http.StatusBadRequest && status != http.StatusUnprocessableEntity {
					t.Fatalf("%s rejected %s with status %d: %v", name, data, status, err)
				}
				return fmt.Sprintf("%d %v", status, err)
			}
			if opts.Parts < 0 {
				t.Fatalf("%s accepted %s with parts %d", name, data, opts.Parts)
			}
			for i, e := range opts.EpsilonVec {
				if e < 0 {
					t.Fatalf("%s accepted %s with epsilon_vec entry %d = %d", name, data, i, e)
				}
			}
			if err := opts.Scorer.Validate(); err != nil {
				t.Fatalf("%s accepted %s with a scorer that fails validation: %v", name, data, err)
			}
			if sc := opts.Scorer; sc != nil {
				sum := sc.CSJWeight + sc.CategoryWeight + sc.CosineWeight
				w := []float64{sc.CSJWeight / sum, sc.CategoryWeight / sum, sc.CosineWeight / sum}
				if total := w[0] + w[1] + w[2]; math.IsNaN(total) || math.IsInf(total, 0) || math.Abs(total-1) > 1e-9 {
					t.Fatalf("%s accepted %s with normalized scorer weights %v", name, data, w)
				}
			}
			return "accepted"
		}
		_, opts, status, err := CheckRank("exminmax", 0, false, &o)
		rank := verdict("CheckRank", opts, status, err)
		opts, status, err = CheckTopK(1, &o)
		topk := verdict("CheckTopK", opts, status, err)
		_, opts, status, err = CheckMatrix("", &o)
		matrix := verdict("CheckMatrix", opts, status, err)
		if rank != topk || rank != matrix {
			t.Fatalf("verdicts on %s differ: rank %q, topk %q, matrix %q", data, rank, topk, matrix)
		}
	})
}

// FuzzCommunityPayload decodes arbitrary bytes as the body of POST
// /communities. Whatever the ingest check (CheckCommunity) accepts must
// write and read back through the compact binary format, the encoding
// of the WAL's puts and of checkpoints, with its name, category and
// users unchanged: ingest must never acknowledge a community recovery
// cannot replay. Seeded with a valid body, a ragged one, a negative
// counter, users of zero dimensions and a category past int32. Part of
// `make fuzzsmoke`.
func FuzzCommunityPayload(f *testing.F) {
	for _, seed := range []string{
		`{"name":"c","category":3,"users":[[1,2],[3,4]]}`,
		`{"users":[[1,2],[3]]}`,
		`{"users":[[1,-2]]}`,
		`{"users":[[],[]]}`,
		`{"category":4294967297,"users":[[1]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p CommunityPayload
		if json.Unmarshal(data, &p) != nil {
			return
		}
		c, err := CheckCommunity(&p)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := csj.WriteCommunityBinary(&buf, c); err != nil {
			t.Fatalf("writing accepted %s: %v", data, err)
		}
		back, err := csj.ReadCommunityBinary(&buf)
		if err != nil {
			t.Fatalf("ingest accepted %s, but its binary form does not read back: %v", data, err)
		}
		if back.Name != c.Name || back.Category != c.Category || !slices.EqualFunc(back.Users, c.Users, slices.Equal) {
			t.Fatalf("ingest accepted %s, but it reads back as %q category %d users %v",
				data, back.Name, back.Category, back.Users)
		}
	})
}
