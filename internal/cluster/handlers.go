package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/opencsj/csj/internal/server"
)

// The coordinator speaks the shard server's wire types (imported, not
// mirrored), so cluster answers are drop-in compatible with
// single-node answers — the clusterguard harness leans on that to
// compare them byte-for-byte.

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	c.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleReady(w http.ResponseWriter, _ *http.Request) {
	if c.notReady.Load() {
		c.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	c.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// ShardStatus is one shard's entry in the /cluster/status response.
type ShardStatus struct {
	Name     string `json:"name"`
	Primary  string `json:"primary"`
	Replica  string `json:"replica,omitempty"`
	Active   string `json:"active"`
	State    string `json:"state"`
	Promoted bool   `json:"promoted,omitempty"`
	// DownForMS is how long the current outage has lasted (0 while
	// healthy) — the countdown toward PromoteAfter.
	DownForMS int64 `json:"down_for_ms,omitempty"`
}

// StatusResponse is the GET /cluster/status body. Goroutines and
// OpenFDs are the coordinator's own resource counters; clusterguard
// diffs them across the chaos run to catch leaks.
type StatusResponse struct {
	Shards     []ShardStatus `json:"shards"`
	Goroutines int           `json:"goroutines"`
	OpenFDs    int           `json:"open_fds"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	resp := StatusResponse{
		Goroutines: runtime.NumGoroutine(),
		OpenFDs:    countOpenFDs(),
	}
	now := time.Now()
	for _, sh := range c.shards {
		st := ShardStatus{
			Name:     sh.name,
			Primary:  sh.primary,
			Replica:  sh.replica,
			Active:   sh.activeURL(),
			State:    sh.breaker.State().String(),
			Promoted: sh.promoted.Load(),
		}
		if since := sh.downSince.Load(); since != 0 {
			st.DownForMS = now.Sub(time.Unix(0, since)).Milliseconds()
		}
		resp.Shards = append(resp.Shards, st)
	}
	c.WriteJSON(w, http.StatusOK, resp)
}

// countOpenFDs counts this process's open file descriptors via
// /proc/self/fd; -1 where proc is unavailable. The absolute number
// includes the transient fd of the readdir itself — callers compare
// deltas, where the constant bias cancels.
func countOpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// ---- community CRUD ----

func (c *Coordinator) handleCreate(w http.ResponseWriter, r *http.Request) {
	var p server.CommunityPayload
	if !c.Decode(w, r, &p) {
		return
	}
	// The node's ingest check comes before the id allocation, so a
	// rejected body uses up no id.
	if _, err := server.CheckCommunity(&p); err != nil {
		c.WriteErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	if err := c.ensureNextID(r.Context()); err != nil {
		c.WriteErr(w, http.StatusServiceUnavailable, err)
		return
	}
	id := c.nextID.Add(1)
	sh := c.owner(id)
	var info server.CommunityInfo
	// Writes never retry: a timed-out create may have landed on the
	// shard, and a blind resend would 409 (or worse, double-ingest
	// under a fresh id).
	err := sh.client.postJSON(r.Context(), "/internal/communities",
		server.InternalCreateRequest{ID: id, Community: p}, &info, false)
	if err != nil {
		c.forwardErr(w, err)
		return
	}
	c.WriteJSON(w, http.StatusCreated, info)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	results := scatter(r.Context(), c.shards, func(ctx context.Context, sh *shard) ([]server.CommunityInfo, error) {
		var list []server.CommunityInfo
		err := sh.client.getJSON(ctx, "/communities", &list)
		return list, err
	})
	unreachable, terminal := gatherErrors(results)
	if terminal != nil {
		c.forwardErr(w, terminal)
		return
	}
	merged := []server.CommunityInfo{}
	for _, res := range results {
		if res.err == nil {
			merged = append(merged, res.val...)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	c.writeGathered(w, r, merged, unreachable)
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := server.PathID(r, "community")
	if err != nil {
		c.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	var info server.CommunityInfo
	if err := c.owner(id).client.getJSON(r.Context(), fmt.Sprintf("/communities/%d", id), &info); err != nil {
		c.forwardErr(w, err)
		return
	}
	c.WriteJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := server.PathID(r, "community")
	if err != nil {
		c.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if err := c.owner(id).client.del(r.Context(), fmt.Sprintf("/communities/%d", id)); err != nil {
		c.forwardErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- scatter-gather queries ----

func (c *Coordinator) handleRank(w http.ResponseWriter, r *http.Request) {
	var req server.RankRequest
	if !c.Decode(w, r, &req) {
		return
	}
	check := func() (int, error) {
		_, _, status, err := server.CheckRank(req.Method, req.MinSimilarity, req.UseIndex, &req.Options)
		return status, err
	}
	q := server.ShardQueryRequest{Method: req.Method, MinSimilarity: req.MinSimilarity,
		UseIndex: req.UseIndex, Options: req.Options}
	scatterQuery(c, w, r, "rank", req.Pivot, req.Candidates, req.AllCandidates, check, q, mergeRank)
}

func (c *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req server.TopKRequest
	if !c.Decode(w, r, &req) {
		return
	}
	check := func() (int, error) {
		_, status, err := server.CheckTopK(req.K, &req.Options)
		return status, err
	}
	// Shards of earlier releases pick their top-k engine by use_index;
	// set, it runs the indexed engine, whose exact per-shard top-k is
	// what makes the merge exact. Current shards always run it.
	q := server.ShardQueryRequest{K: req.K, UseIndex: true, Options: req.Options}
	scatterQuery(c, w, r, "topk", req.Pivot, req.Candidates, req.AllCandidates, check, q,
		func(all []server.TopKEntry) []server.TopKEntry { return mergeTopK(all, req.K) })
}

// scatterQuery serves a rank or top-k request in a node's order: the
// candidate forms (400), then check — the query's own checks, method or
// k and then the options — and only then the pivot. Each shard gets q
// with its own pivot form and candidates at /internal/<query>, and
// merge turns the entries of the shards that answered into the result.
func scatterQuery[T any](c *Coordinator, w http.ResponseWriter, r *http.Request, query string,
	pivot int64, candidates []int64, all bool, check func() (int, error),
	q server.ShardQueryRequest, merge func([]T) []T) {
	if err := server.CheckCandidates(query, candidates, all); err != nil {
		c.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if status, err := check(); err != nil {
		c.WriteErr(w, status, err)
		return
	}
	targets, queries, err := c.shardQueries(r.Context(), pivot, candidates, q)
	if err != nil {
		c.forwardErr(w, err)
		return
	}
	results := scatter(r.Context(), targets, func(ctx context.Context, sh *shard) ([]T, error) {
		var out []T
		err := sh.client.postJSON(ctx, "/internal/"+query, queries[sh], &out, true)
		return out, err
	})
	unreachable, terminal := gatherErrors(results)
	if terminal != nil {
		c.forwardErr(w, terminal)
		return
	}
	var entries []T
	for _, res := range results {
		if res.err == nil {
			entries = append(entries, res.val...)
		}
	}
	c.writeGathered(w, r, merge(entries), unreachable)
}

// shardQueries builds the per-shard copies of q for a rank/topk
// scatter, and lists their shards in shard order: the pivot's owner
// gets the local id (cached views stay hot), every other shard gets the
// pivot profile inline. With an explicit candidate list the ids are
// partitioned by ownership and shards without candidates are skipped
// entirely; the profile fetch still proves the pivot exists.
func (c *Coordinator) shardQueries(ctx context.Context, pivot int64, candidates []int64, q server.ShardQueryRequest) ([]*shard, map[*shard]*server.ShardQueryRequest, error) {
	pivotOwner := c.owner(pivot)
	var profile *server.CommunityPayload
	if len(c.shards) > 1 {
		// The profile ships to every non-owner shard; fetch it once.
		p, err := c.fetchProfile(ctx, pivot)
		if err != nil {
			return nil, nil, fmt.Errorf("resolving pivot %d: %w", pivot, err)
		}
		profile = p
	}
	byShard := map[*shard][]int64{}
	for _, id := range candidates {
		sh := c.owner(id)
		byShard[sh] = append(byShard[sh], id)
	}
	var targets []*shard
	queries := make(map[*shard]*server.ShardQueryRequest, len(c.shards))
	for _, sh := range c.shards {
		if len(candidates) > 0 && len(byShard[sh]) == 0 {
			continue
		}
		sq := q
		sq.Candidates = byShard[sh]
		if sh == pivotOwner {
			sq.Pivot.ID = &pivot
		} else {
			sq.Pivot.Profile = profile
		}
		targets = append(targets, sh)
		queries[sh] = &sq
	}
	return targets, queries, nil
}

// mergeRank reassembles a global ranking from shard-local rankings:
// scored entries by (similarity desc, id asc) — the tie-break the
// single-node engine applies over an ascending-id candidate list —
// followed by unscored entries (skipped or failed) in ascending id.
func mergeRank(all []server.RankEntry) []server.RankEntry {
	scored := make([]server.RankEntry, 0, len(all))
	var unscored []server.RankEntry
	for _, e := range all {
		if e.Skipped || e.Error != "" {
			unscored = append(unscored, e)
		} else {
			scored = append(scored, e)
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Similarity != scored[j].Similarity {
			return scored[i].Similarity > scored[j].Similarity
		}
		return scored[i].Community < scored[j].Community
	})
	sort.Slice(unscored, func(i, j int) bool { return unscored[i].Community < unscored[j].Community })
	return append(scored, unscored...)
}

// mergeTopK merges shard-local exact top-k lists. The global top-k is
// a subset of the union of per-shard top-k lists, so sorting the union
// by (exact desc, id asc) and cutting at k reproduces the single-node
// answer exactly; skipped entries pad the tail in id order,
// matching the single-node engine's padding.
func mergeTopK(all []server.TopKEntry, k int) []server.TopKEntry {
	refined := make([]server.TopKEntry, 0, len(all))
	var skipped []server.TopKEntry
	for _, e := range all {
		if e.Skipped {
			skipped = append(skipped, e)
		} else {
			refined = append(refined, e)
		}
	}
	sort.Slice(refined, func(i, j int) bool {
		if refined[i].Exact != refined[j].Exact {
			return refined[i].Exact > refined[j].Exact
		}
		return refined[i].Community < refined[j].Community
	})
	sort.Slice(skipped, func(i, j int) bool { return skipped[i].Community < skipped[j].Community })
	out := append(refined, skipped...)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func (c *Coordinator) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req server.MatrixRequest
	if !c.Decode(w, r, &req) {
		return
	}
	ids := req.Communities
	if len(ids) < 2 {
		c.WriteErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("matrix needs at least 2 communities, got %d", len(ids)))
		return
	}
	// The node's order: the method and the options, and only then the
	// ids.
	if _, _, status, err := server.CheckMatrix(req.Method, &req.Options); err != nil {
		c.WriteErr(w, status, err)
		return
	}
	// Canonical cell order: (i, j) over request positions with i < j —
	// identical to the single-node matrix. Each cell is computed by the
	// shard owning its position-i community; ids that shard does not
	// own ship inline as guests (O(n) profile bytes buy O(n²) cells of
	// distributed compute). Targets are listed in the order of their
	// first cell, so the owner of the first id, whose cells name every
	// other id, comes first.
	var targets []*shard
	reqs := map[*shard]*server.ShardMatrixRequest{}
	guest := map[int64]bool{}
	for i, a := range ids[:len(ids)-1] {
		sh := c.owner(a)
		sreq := reqs[sh]
		if sreq == nil {
			sreq = &server.ShardMatrixRequest{Method: req.Method, Options: req.Options}
			reqs[sh] = sreq
			targets = append(targets, sh)
		}
		for _, b := range ids[i+1:] {
			sreq.Cells = append(sreq.Cells, [2]int64{a, b})
			if c.owner(b) != sh {
				guest[b] = true
			}
		}
	}
	// Fetch each guest profile once, from its owner, in request order.
	// A 4xx (the request names a missing id) stops the fetches. Any
	// other failure marks the owner unreachable and drops the cells that
	// need the guest — the partial contract, not a hard failure.
	profiles := map[int64]*server.CommunityPayload{}
	down := map[int64]bool{}
	unreachable := map[string]bool{}
	var missing error
	for _, id := range ids {
		if !guest[id] || profiles[id] != nil || down[id] {
			continue
		}
		p, err := c.fetchProfile(r.Context(), id)
		if err == nil {
			profiles[id] = p
			continue
		}
		var he *httpError
		if errors.As(err, &he) && he.status < 500 {
			missing = err
			break
		}
		down[id] = true
		unreachable[c.owner(id).name] = true
	}
	if missing != nil {
		// The request fails, with the fault a node meets first in
		// request order. The owner of the first id resolves the ids in
		// that order, so it alone is asked; if it cannot answer, the
		// missing id's error stands.
		targets = targets[:1]
	}
	live := targets[:0]
	for _, sh := range targets {
		sreq := reqs[sh]
		cells := sreq.Cells[:0]
		shipped := map[int64]bool{}
		for _, cell := range sreq.Cells {
			b := cell[1]
			if c.owner(b) != sh {
				if down[b] {
					continue // the guest's owner is down; drop the cell
				}
				if p := profiles[b]; p != nil && !shipped[b] {
					shipped[b] = true
					sreq.Guests = append(sreq.Guests, server.GuestCommunity{ID: b, Community: *p})
				}
			}
			cells = append(cells, cell)
		}
		if sreq.Cells = cells; len(cells) > 0 {
			live = append(live, sh)
		}
	}
	results := scatter(r.Context(), live, func(ctx context.Context, sh *shard) ([]server.MatrixCell, error) {
		var out []server.MatrixCell
		err := sh.client.postJSON(ctx, "/internal/matrix", reqs[sh], &out, true)
		return out, err
	})
	names, terminal := gatherErrors(results)
	if terminal == nil {
		terminal = missing
	}
	if terminal != nil {
		c.forwardErr(w, terminal)
		return
	}
	for _, name := range names {
		unreachable[name] = true
	}
	// Reassemble in canonical order from whatever came back.
	got := map[[2]int64]server.MatrixCell{}
	for _, res := range results {
		if res.err != nil {
			continue
		}
		for _, cell := range res.val {
			got[[2]int64{cell.I, cell.J}] = cell
		}
	}
	merged := make([]server.MatrixCell, 0, len(ids)*(len(ids)-1)/2)
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if cell, ok := got[[2]int64{a, b}]; ok {
				merged = append(merged, cell)
			}
		}
	}
	var shards []string
	for _, sh := range c.shards {
		if unreachable[sh.name] {
			shards = append(shards, sh.name)
		}
	}
	c.writeGathered(w, r, merged, shards)
}
