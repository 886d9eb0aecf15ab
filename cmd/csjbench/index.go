package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	csj "github.com/opencsj/csj"
)

// The -index mode prices the envelope-pruning index (DESIGN.md §12) on
// the workload it targets: one pivot against a large clustered corpus
// under a selective epsilon, where most candidates are provably far
// from the pivot. Each scale reports the indexed best-first top-k
// against a full exact scan, verifies the two agree cell for cell, and
// records what fraction of the corpus ever reached a join.

// indexConfig parameterizes the -index benchmark mode.
type indexConfig struct {
	Scales     []int
	K          int
	Dims       int
	Archetypes int
	Size       int
	Epsilon    int32
	Seed       int64
}

// indexScaleReport is one corpus size's figures.
type indexScaleReport struct {
	Communities  int   `json:"communities"`
	IndexBuildNs int64 `json:"index_build_ns"`
	IndexBytes   int64 `json:"index_bytes"`

	TopKIndexedNs int64   `json:"topk_indexed_ns"`
	TopKFullNs    int64   `json:"topk_full_ns"`
	Speedup       float64 `json:"speedup"`

	BoundChecks int64 `json:"bound_checks"`
	Visited     int64 `json:"visited"`
	Pruned      int64 `json:"pruned"`
	Skipped     int64 `json:"skipped"`
	// VisitedFrac is the fraction of candidates whose full join actually
	// ran — the ISSUE's acceptance figure (< 0.05 at 100k).
	VisitedFrac float64 `json:"index_topk_visited_frac"`
	PrunedFrac  float64 `json:"index_topk_pruned_frac"`
}

// indexReport is the JSON emitted by -index.
type indexReport struct {
	K          int                `json:"k"`
	Dims       int                `json:"dims"`
	Archetypes int                `json:"archetypes"`
	Size       int                `json:"community_size"`
	Epsilon    int32              `json:"epsilon"`
	Seed       int64              `json:"seed"`
	Scales     []indexScaleReport `json:"scales"`
}

// indexCorpus synthesizes a pivot plus n candidates clustered around
// per-dimension archetype bases. Bases are drawn from [5000, 500000)
// per dimension, so at a selective epsilon almost every archetype pair
// is disjoint on at least one dimension and the index proves their
// joins empty.
func indexCorpus(cfg indexConfig, n int) (pivot *csj.Community, cands []*csj.Community) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	bases := make([][]int32, cfg.Archetypes)
	for a := range bases {
		b := make([]int32, cfg.Dims)
		for j := range b {
			// Keep the noise band non-negative: profiles are counters.
			b[j] = 5000 + rng.Int31n(495000)
		}
		bases[a] = b
	}
	comm := func(name string, base []int32, size int) *csj.Community {
		users := make([]csj.Vector, size)
		for i := range users {
			u := make([]int32, cfg.Dims)
			for j := range u {
				u[j] = base[j] + rng.Int31n(200)
			}
			users[i] = u
		}
		return &csj.Community{Name: name, Category: -1, Users: users}
	}
	pivot = comm("pivot", bases[0], cfg.Size)
	cands = make([]*csj.Community, n)
	for i := range cands {
		// Sizes within ±20% of the pivot keep the CSJ size precondition
		// satisfied for every candidate.
		size := cfg.Size - cfg.Size/5 + rng.Intn(2*(cfg.Size/5)+1)
		cands[i] = comm(fmt.Sprintf("c%07d", i), bases[i%cfg.Archetypes], size)
	}
	return pivot, cands
}

// topKCell is the projection of one result the verification compares.
type topKCell struct {
	index   int
	skipped bool
	sim     float64
	pairs   int
}

func indexedCells(top []csj.TopKResult) []topKCell {
	cells := make([]topKCell, len(top))
	for i, r := range top {
		cells[i] = topKCell{index: r.Index, skipped: r.Skipped}
		if r.Result != nil {
			cells[i].sim = r.Result.Similarity
			cells[i].pairs = len(r.Result.Pairs)
		}
	}
	return cells
}

// fullTopK is the unindexed reference: a full exact ranking truncated
// to k, with skipped candidates padding the tail the way the indexed
// engine pads (index-ascending), so the two are comparable cell for
// cell.
func fullTopK(pivot *csj.Community, cands []*csj.Community, k int, opts *csj.Options) ([]topKCell, error) {
	ranked, err := csj.Rank(context.Background(), pivot, cands, csj.ExMinMax, opts)
	if err != nil {
		return nil, err
	}
	var scored, skipped []topKCell
	for _, r := range ranked {
		if r.Err != nil {
			return nil, fmt.Errorf("candidate %d: %w", r.Index, r.Err)
		}
		c := topKCell{index: r.Index, skipped: r.Skipped}
		if r.Result != nil {
			c.sim = r.Result.Similarity
			c.pairs = len(r.Result.Pairs)
			scored = append(scored, c)
		} else {
			skipped = append(skipped, c)
		}
	}
	if len(scored) > k {
		scored = scored[:k]
	}
	for len(scored) < k && len(skipped) > 0 {
		scored = append(scored, skipped[0])
		skipped = skipped[1:]
	}
	return scored, nil
}

func runIndex(w io.Writer, cfg indexConfig) error {
	rep := indexReport{
		K:          cfg.K,
		Dims:       cfg.Dims,
		Archetypes: cfg.Archetypes,
		Size:       cfg.Size,
		Epsilon:    cfg.Epsilon,
		Seed:       cfg.Seed,
	}
	for _, n := range cfg.Scales {
		sr, err := runIndexScale(cfg, n)
		if err != nil {
			return fmt.Errorf("scale %d: %w", n, err)
		}
		rep.Scales = append(rep.Scales, sr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func runIndexScale(cfg indexConfig, n int) (indexScaleReport, error) {
	sr := indexScaleReport{Communities: n}
	pivot, cands := indexCorpus(cfg, n)
	// Both engines run serially: the indexed engine is inherently
	// sequential (the pruning threshold is a running value), so the
	// comparison is single-thread against single-thread.
	opts := &csj.Options{Epsilon: cfg.Epsilon, Workers: 1}

	// Index build: one summary per candidate. Views resolve lazily, so
	// only the candidates the engine visits ever get encoded.
	start := time.Now()
	ics := make([]csj.IndexedCandidate, n)
	for i, c := range cands {
		sum, err := csj.SummarizeCommunity(c, 0)
		if err != nil {
			return sr, err
		}
		c := c
		ics[i] = csj.IndexedCandidate{
			Name:    c.Name,
			Summary: sum,
			View:    func() (*csj.PreparedCommunity, error) { return csj.Precompute(c, opts) },
		}
		sr.IndexBytes += sum.Footprint()
	}
	sr.IndexBuildNs = time.Since(start).Nanoseconds()

	pv, err := csj.Precompute(pivot, opts)
	if err != nil {
		return sr, err
	}
	var stats csj.IndexStats
	opts.OnIndexStats = func(s csj.IndexStats) { stats = s }
	start = time.Now()
	top, err := csj.TopKIndexed(pv, ics, cfg.K, opts)
	if err != nil {
		return sr, err
	}
	sr.TopKIndexedNs = time.Since(start).Nanoseconds()
	opts.OnIndexStats = nil

	start = time.Now()
	ref, err := fullTopK(pivot, cands, cfg.K, opts)
	if err != nil {
		return sr, err
	}
	sr.TopKFullNs = time.Since(start).Nanoseconds()

	// The benchmark is only worth reporting if the pruned engine is
	// exact: verify the indexed answer cell for cell.
	got := indexedCells(top)
	if len(got) != len(ref) {
		return sr, fmt.Errorf("indexed top-k has %d entries, reference %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			return sr, fmt.Errorf("indexed top-k diverged at %d: got %+v, want %+v", i, got[i], ref[i])
		}
	}

	sr.BoundChecks = stats.BoundChecks
	sr.Visited = stats.Visited
	sr.Pruned = stats.Pruned
	sr.Skipped = stats.Skipped
	if n > 0 {
		sr.VisitedFrac = float64(stats.Visited) / float64(n)
		sr.PrunedFrac = float64(stats.Pruned) / float64(n)
	}
	if sr.TopKIndexedNs > 0 {
		sr.Speedup = float64(sr.TopKFullNs) / float64(sr.TopKIndexedNs)
	}
	return sr, nil
}

// parseScales parses the -indexscales list ("1000,10000,100000").
func parseScales(s string) ([]int, error) {
	var scales []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -indexscales entry %q", part)
		}
		scales = append(scales, n)
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("-indexscales is empty")
	}
	sort.Ints(scales)
	return scales, nil
}
