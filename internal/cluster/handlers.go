package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
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

// pathID parses the {id} path value.
func pathID(r *http.Request) (int64, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad community id %q", raw)
	}
	return id, nil
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
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
	id, err := pathID(r)
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

// shardQueries builds the per-shard request for a rank/topk scatter:
// the pivot's owner gets the local id (cached views stay hot), every
// other shard gets the pivot profile inline. With an explicit
// candidate list the ids are partitioned by ownership and shards
// without candidates are skipped entirely.
func (c *Coordinator) shardQueries(ctx context.Context, pivot int64, candidates []int64) (map[*shard]*server.ShardQueryRequest, error) {
	pivotOwner := c.owner(pivot)
	var profile *server.CommunityPayload
	if len(c.shards) > 1 {
		// The profile ships to every non-owner shard; fetch it once.
		p, err := c.fetchProfile(ctx, pivot)
		if err != nil {
			return nil, fmt.Errorf("resolving pivot %d: %w", pivot, err)
		}
		profile = p
	}
	reqs := make(map[*shard]*server.ShardQueryRequest, len(c.shards))
	byShard := map[*shard][]int64{}
	if len(candidates) > 0 {
		for _, id := range candidates {
			sh := c.owner(id)
			byShard[sh] = append(byShard[sh], id)
		}
	}
	for _, sh := range c.shards {
		if len(candidates) > 0 && len(byShard[sh]) == 0 {
			continue
		}
		req := &server.ShardQueryRequest{Candidates: byShard[sh]}
		if sh == pivotOwner {
			p := pivot
			req.Pivot.ID = &p
		} else {
			req.Pivot.Profile = profile
		}
		reqs[sh] = req
	}
	// Verify the pivot exists even when its owner serves no candidates
	// (pivotOwner always got a query above unless an explicit candidate
	// list skipped it — the profile fetch covered that case).
	return reqs, nil
}

func (c *Coordinator) handleRank(w http.ResponseWriter, r *http.Request) {
	var req server.RankRequest
	if !c.Decode(w, r, &req) {
		return
	}
	// The node's order: the candidate forms, the method and the options,
	// and only then the pivot.
	if err := server.CheckCandidates("rank", req.Candidates, req.AllCandidates); err != nil {
		c.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if _, _, status, err := server.CheckRank(req.Method, req.MinSimilarity, req.UseIndex, &req.Options); err != nil {
		c.WriteErr(w, status, err)
		return
	}
	queries, err := c.shardQueries(r.Context(), req.Pivot, req.Candidates)
	if err != nil {
		c.forwardErr(w, err)
		return
	}
	targets := make([]*shard, 0, len(queries))
	for _, sh := range c.shards {
		if q, ok := queries[sh]; ok {
			q.Method = req.Method
			q.MinSimilarity = req.MinSimilarity
			q.UseIndex = req.UseIndex
			q.Options = req.Options
			targets = append(targets, sh)
		}
	}
	results := scatter(r.Context(), targets, func(ctx context.Context, sh *shard) ([]server.RankEntry, error) {
		var out []server.RankEntry
		err := sh.client.postJSON(ctx, "/internal/rank", queries[sh], &out, true)
		return out, err
	})
	unreachable, terminal := gatherErrors(results)
	if terminal != nil {
		c.forwardErr(w, terminal)
		return
	}
	var all []server.RankEntry
	for _, res := range results {
		if res.err == nil {
			all = append(all, res.val...)
		}
	}
	c.writeGathered(w, r, mergeRank(all), unreachable)
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

func (c *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req server.TopKRequest
	if !c.Decode(w, r, &req) {
		return
	}
	// The node's order: the candidate forms, k and the options, and only
	// then the pivot.
	if err := server.CheckCandidates("topk", req.Candidates, req.AllCandidates); err != nil {
		c.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if _, status, err := server.CheckTopK(req.K, &req.Options); err != nil {
		c.WriteErr(w, status, err)
		return
	}
	queries, err := c.shardQueries(r.Context(), req.Pivot, req.Candidates)
	if err != nil {
		c.forwardErr(w, err)
		return
	}
	targets := make([]*shard, 0, len(queries))
	for _, sh := range c.shards {
		if q, ok := queries[sh]; ok {
			q.K = req.K
			// Shards of earlier releases pick their top-k engine by
			// use_index; set, it runs the indexed engine, whose exact
			// per-shard top-k is what makes the merge exact. Current
			// shards always run it.
			q.UseIndex = true
			q.Options = req.Options
			targets = append(targets, sh)
		}
	}
	results := scatter(r.Context(), targets, func(ctx context.Context, sh *shard) ([]server.TopKEntry, error) {
		var out []server.TopKEntry
		err := sh.client.postJSON(ctx, "/internal/topk", queries[sh], &out, true)
		return out, err
	})
	unreachable, terminal := gatherErrors(results)
	if terminal != nil {
		c.forwardErr(w, terminal)
		return
	}
	var all []server.TopKEntry
	for _, res := range results {
		if res.err == nil {
			all = append(all, res.val...)
		}
	}
	c.writeGathered(w, r, mergeTopK(all, req.K), unreachable)
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
	if len(req.Communities) < 2 {
		c.WriteErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("matrix needs at least 2 communities, got %d", len(req.Communities)))
		return
	}
	// Canonical cell order: (i, j) over request positions with i < j —
	// identical to the single-node matrix. Each cell is computed by the
	// shard owning its position-i community; ids that shard does not
	// own ship inline as guests (O(n) profile bytes buy O(n²) cells of
	// distributed compute).
	type cellKey struct{ a, b int64 }
	var canonical []cellKey
	cellsByShard := map[*shard][][2]int64{}
	guestsByShard := map[*shard]map[int64]bool{}
	for i := 0; i < len(req.Communities); i++ {
		for j := i + 1; j < len(req.Communities); j++ {
			a, b := req.Communities[i], req.Communities[j]
			canonical = append(canonical, cellKey{a, b})
			sh := c.owner(a)
			cellsByShard[sh] = append(cellsByShard[sh], [2]int64{a, b})
			if c.owner(b) != sh {
				if guestsByShard[sh] == nil {
					guestsByShard[sh] = map[int64]bool{}
				}
				guestsByShard[sh][b] = true
			}
		}
	}
	// Fetch each needed guest profile once, from its owner. A failed
	// fetch marks the owner unreachable and drops the cells that need
	// the guest — the partial contract, not a hard failure.
	profiles := map[int64]*server.CommunityPayload{}
	unreachableSet := map[string]bool{}
	var terminal error
	for _, guests := range guestsByShard {
		for id := range guests {
			if _, done := profiles[id]; done {
				continue
			}
			p, err := c.fetchProfile(r.Context(), id)
			if err != nil {
				var he *httpError
				if errors.As(err, &he) && he.status < 500 {
					terminal = err // e.g. 404: the request names a missing id
					break
				}
				unreachableSet[c.owner(id).name] = true
				continue
			}
			profiles[id] = p
		}
	}
	if terminal != nil {
		c.forwardErr(w, terminal)
		return
	}
	targets := make([]*shard, 0, len(cellsByShard))
	reqs := map[*shard]*server.ShardMatrixRequest{}
	for _, sh := range c.shards {
		cells, ok := cellsByShard[sh]
		if !ok {
			continue
		}
		sreq := &server.ShardMatrixRequest{Method: req.Method, Options: req.Options}
		for _, cell := range cells {
			if guestsByShard[sh][cell[1]] && profiles[cell[1]] == nil {
				continue // guest's owner is down; drop the cell
			}
			sreq.Cells = append(sreq.Cells, cell)
		}
		for id := range guestsByShard[sh] {
			if p := profiles[id]; p != nil {
				sreq.Guests = append(sreq.Guests, server.GuestCommunity{ID: id, Community: *p})
			}
		}
		sort.Slice(sreq.Guests, func(i, j int) bool { return sreq.Guests[i].ID < sreq.Guests[j].ID })
		if len(sreq.Cells) == 0 {
			continue
		}
		reqs[sh] = sreq
		targets = append(targets, sh)
	}
	results := scatter(r.Context(), targets, func(ctx context.Context, sh *shard) ([]server.MatrixCell, error) {
		var out []server.MatrixCell
		err := sh.client.postJSON(ctx, "/internal/matrix", reqs[sh], &out, true)
		return out, err
	})
	unreachable, terminal := gatherErrors(results)
	if terminal != nil {
		c.forwardErr(w, terminal)
		return
	}
	for _, name := range unreachable {
		unreachableSet[name] = true
	}
	// Reassemble in canonical order from whatever came back.
	got := make(map[cellKey]server.MatrixCell, len(canonical))
	for _, res := range results {
		if res.err != nil {
			continue
		}
		for _, cell := range res.val {
			got[cellKey{cell.I, cell.J}] = cell
		}
	}
	merged := make([]server.MatrixCell, 0, len(canonical))
	for _, key := range canonical {
		if cell, ok := got[key]; ok {
			merged = append(merged, cell)
		}
	}
	names := make([]string, 0, len(unreachableSet))
	for _, sh := range c.shards {
		if unreachableSet[sh.name] {
			names = append(names, sh.name)
		}
	}
	c.writeGathered(w, r, merged, names)
}
