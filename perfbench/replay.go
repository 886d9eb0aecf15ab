package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/server"
	"github.com/opencsj/csj/internal/store"
)

// The replay runs after the window, in the benchmark's own process. It
// times the work inside a request by calling each layer's public
// functions on the window's inputs: the same corpus, queries and
// options, on library-built views.

// replayResult holds the replayed per-layer figures.
type replayResult struct {
	// engine is the replayed engine time of a query on a node (key
	// shard -1) or on one shard, in milliseconds, on the oracle's
	// views.
	engine map[[2]int]float64
	// handler is the replayed handler work of a query, in
	// milliseconds: request decode, candidate resolution from a store
	// holding the node's (shard's) corpus, the engine on the store's
	// views, and the response encode. On the cluster the three shards
	// replay concurrently, as the coordinator's fan-out runs them, and
	// handler is the slowest shard's time.
	handler map[int]float64

	jsonMS, lookupUS, publishMS     float64
	boundMS, orderMS                float64
	joinUS, comparisonsPerJoin      float64
	nsPerComparison                 float64
	edgesPerJoin, csfUS, pairJoinUS float64
	poolSpeedup                     float64
	prepareMS, viewKB               float64
	appendUS, bytesPerUserByte      float64
}

// key returns the replay key of a read on node ("node" or a shard
// name).
func (w *workload) key(op int, node string) [2]int {
	shard := -1
	if w.spec.Cluster {
		fmt.Sscanf(node, "shard%d", &shard)
	}
	return [2]int{w.window[op].Query, shard}
}

// joinTally accumulates joins, each timed from its candidate's view
// resolution (which immediately precedes the join) to the join's
// event callback.
type joinTally struct {
	viewEnd     time.Time
	joinNS      time.Duration
	joins       int64
	comparisons int64
}

func (jt *joinTally) candidates(ids []int64, w *workload) []csj.IndexedCandidate {
	out := make([]csj.IndexedCandidate, len(ids))
	for i, id := range ids {
		v := w.views[id-1]
		out[i] = csj.IndexedCandidate{Name: w.corpus[id-1].Name, Summary: w.sums[id-1],
			View: func() (*csj.PreparedCommunity, error) {
				jt.viewEnd = time.Now()
				return v, nil
			}}
	}
	return out
}

func (jt *joinTally) options(base csj.Options, stats *csj.IndexStats) *csj.Options {
	o := base
	o.OnJoinEvents = func(ev csj.Events) {
		jt.joinNS += time.Since(jt.viewEnd)
		jt.joins++
		jt.comparisons += ev.NoMatches + ev.Matches
	}
	o.OnIndexStats = func(st csj.IndexStats) { *stats = st }
	return &o
}

func (r *runner) replay() (*replayResult, error) {
	w := r.w
	rp := &replayResult{engine: map[[2]int]float64{}, handler: map[int]float64{}}
	var err error
	if w.spec.Read == opTopK {
		err = r.replayTopK(rp)
	} else {
		err = r.replayRank(rp)
	}
	if err != nil {
		return nil, err
	}
	if err := r.replayMatching(rp); err != nil {
		return nil, err
	}
	if err := r.replayStore(rp); err != nil {
		return nil, err
	}
	if err := r.replayJSON(rp); err != nil {
		return nil, err
	}
	if w.spec.Cluster {
		if err := r.replayDurable(rp); err != nil {
			return nil, err
		}
	}
	// encoding: one-shot preparation of corpus communities.
	n := min(len(w.corpus), 200)
	var prep time.Duration
	var bytes int64
	for i := 0; i < n; i++ {
		t := time.Now()
		v, err := csj.Precompute(w.corpus[i], &w.opts)
		prep += time.Since(t)
		if err != nil {
			return nil, err
		}
		bytes += v.Footprint()
	}
	rp.prepareMS = ms(prep) / float64(n)
	rp.viewKB = float64(bytes) / float64(n) / 1024
	return rp, nil
}

func (r *runner) replayTopK(rp *replayResult) error {
	w := r.w
	shards := 1
	if w.spec.Cluster {
		shards = len(shardNames)
	}
	var jt joinTally
	var bound, order time.Duration
	var queries int
	for qi := range w.queries {
		q := &w.queries[qi]
		for sh := 0; sh < shards; sh++ {
			var ids []int64
			for id := int64(1); id <= int64(len(w.corpus)); id++ {
				if id != q.Pivot && w.owner[id] == sh {
					ids = append(ids, id)
				}
			}
			key := [2]int{qi, sh}
			if !w.spec.Cluster {
				key[1] = -1
			}
			start := time.Now()
			pivot := w.views[q.Pivot-1]
			if w.spec.Cluster && w.owner[q.Pivot] != sh {
				// A non-owner shard encodes the inline pivot profile.
				var err error
				if pivot, err = csj.Precompute(w.corpus[q.Pivot-1], &w.opts); err != nil {
					return err
				}
			}
			prepared := time.Since(start)
			ics := jt.candidates(ids, w)
			var st csj.IndexStats
			before := jt
			t := time.Now()
			if _, err := csj.TopKIndexed(pivot, ics, w.spec.K, jt.options(w.opts, &st)); err != nil {
				return fmt.Errorf("replaying query %d: %w", qi, err)
			}
			total := time.Since(t)
			rp.engine[key] = ms(prepared + total)

			// Bounds alone: the pivot summary plus one bound per candidate.
			t = time.Now()
			ps, err := pivot.Summarize(0)
			if err != nil {
				return err
			}
			for _, id := range ids {
				_ = csj.UpperBoundPairs(ps, w.sums[id-1], w.spec.Epsilon)
			}
			b := time.Since(t)
			bound += b
			order += total - b - (jt.joinNS - before.joinNS)
			queries++
		}
	}
	rp.boundMS = ms(bound) / float64(queries)
	rp.orderMS = ms(order) / float64(queries)
	rp.joinUS = float64(jt.joinNS) / float64(time.Microsecond) / float64(max(jt.joins, 1))
	rp.comparisonsPerJoin = ratio(float64(jt.comparisons), float64(jt.joins))
	rp.nsPerComparison = ratio(float64(jt.joinNS), float64(jt.comparisons))
	return nil
}

func (r *runner) replayRank(rp *replayResult) error {
	w := r.w
	var serial, pooled time.Duration
	var jt joinTally
	for qi := range w.queries {
		q := &w.queries[qi]
		cands := make([]*csj.PreparedCommunity, len(q.Cands))
		for i, id := range q.Cands {
			cands[i] = w.views[id-1]
		}
		pivot := w.views[q.Pivot-1]
		t := time.Now()
		if _, err := csj.RankPrepared(pivot, cands, csj.ExMinMax, &w.opts); err != nil {
			return err
		}
		d := time.Since(t)
		pooled += d
		rp.engine[[2]int{qi, -1}] = ms(d)
		one := w.opts
		one.Workers = 1
		t = time.Now()
		if _, err := csj.RankPrepared(pivot, cands, csj.ExMinMax, &one); err != nil {
			return err
		}
		serial += time.Since(t)
		for _, c := range cands {
			b, a := orient(pivot, c)
			res, err := csj.SimilarityPrepared(b, a, csj.ExMinMax, &w.opts)
			if err != nil {
				return err
			}
			jt.joinNS += res.Elapsed
			jt.joins++
			jt.comparisons += res.Events.Comparisons()
		}
	}
	rp.poolSpeedup = ratio(float64(serial), float64(pooled))
	rp.joinUS = float64(jt.joinNS) / float64(time.Microsecond) / float64(max(jt.joins, 1))
	rp.comparisonsPerJoin = ratio(float64(jt.comparisons), float64(jt.joins))
	rp.nsPerComparison = ratio(float64(jt.joinNS), float64(jt.comparisons))
	return nil
}

// orient mirrors the engines' pair orientation: the smaller community
// becomes B, ties keep the input order.
func orient(x, y *csj.PreparedCommunity) (b, a *csj.PreparedCommunity) {
	if x.Size() <= y.Size() {
		return x, y
	}
	return y, x
}

// matchPairs are the pairs the matching replay uses: every pivot and
// candidate of the first rank queries, or every scored answer of the
// first normal top-k queries.
func (r *runner) matchPairs() [][2]*csj.Community {
	w := r.w
	var out [][2]*csj.Community
	for qi := range w.queries {
		q := &w.queries[qi]
		if q.Niche {
			continue
		}
		if w.spec.Read == opRank {
			for _, id := range q.Cands {
				out = append(out, [2]*csj.Community{w.corpus[q.Pivot-1], w.corpus[id-1]})
			}
		} else {
			var top []server.TopKEntry
			if w.spec.Cluster {
				var env struct {
					Result []server.TopKEntry `json:"result"`
				}
				_ = json.Unmarshal(q.Expect, &env)
				top = env.Result
			} else {
				_ = json.Unmarshal(q.Expect, &top)
			}
			for _, e := range top {
				if e.Exact > 0 {
					out = append(out, [2]*csj.Community{w.corpus[q.Pivot-1], w.corpus[e.Community-1]})
				}
			}
		}
		if len(out) >= 24 {
			break
		}
	}
	return out
}

// replayMatching builds each sample pair's match graph (every user
// pair within epsilon on every dimension) and times matching.CSF on
// it, beside the full prepared join of the same pair.
func (r *runner) replayMatching(rp *replayResult) error {
	eps := r.w.spec.Epsilon
	var csfNS, joinNS time.Duration
	var edges int
	pairs := r.matchPairs()
	for _, p := range pairs {
		b, a := p[0], p[1]
		if b.Size() > a.Size() {
			b, a = a, b
		}
		g := matching.NewGraph()
		for i, u := range b.Users {
			for j, v := range a.Users {
				if within(u, v, eps) {
					g.AddEdge(int32(i), int32(j))
				}
			}
		}
		edges += g.Edges()
		t := time.Now()
		_ = matching.CSF(g)
		csfNS += time.Since(t)
		pb, err := csj.Precompute(b, &r.w.opts)
		if err != nil {
			return err
		}
		pa, err := csj.Precompute(a, &r.w.opts)
		if err != nil {
			return err
		}
		res, err := csj.SimilarityPrepared(pb, pa, csj.ExMinMax, &r.w.opts)
		if err != nil {
			return err
		}
		joinNS += res.Elapsed
	}
	if n := float64(len(pairs)); n > 0 {
		rp.edgesPerJoin = float64(edges) / n
		rp.csfUS = float64(csfNS) / float64(time.Microsecond) / n
		rp.pairJoinUS = float64(joinNS) / float64(time.Microsecond) / n
	}
	return nil
}

func within(u, v []int32, eps int32) bool {
	for k := range u {
		d := u[k] - v[k]
		if d > eps || d < -eps {
			return false
		}
	}
	return true
}

// shardStore boots a store holding the set-up corpus of a node (shard
// -1) or of one shard, with the program's view-cache cap.
func (r *runner) shardStore(shard int) (*store.Store, []store.SeedEntry) {
	w := r.w
	seed := &store.Seed{}
	for i, c := range w.corpus {
		id := int64(i + 1)
		if shard >= 0 && w.owner[id] != shard {
			continue
		}
		seed.Entries = append(seed.Entries, store.SeedEntry{ID: id, Version: uint64(id), Comm: c.Clone()})
		seed.NextID, seed.Version = id, uint64(id)
	}
	capBytes := w.spec.CacheBytes
	if capBytes == 0 {
		capBytes = server.DefaultPreparedCacheBytes
	}
	return store.New(store.Config{Seed: seed, MaxCacheBytes: capBytes}), seed.Entries
}

// replayHandler times, per query, the work the node's (each shard's)
// handler does for it with the store's public API: decode the request,
// resolve the candidates from a snapshot the way the server does
// (summary plus a lazy view per candidate), resolve or encode the
// pivot, run the engine on the store's views and encode the answer.
// The shards run concurrently. A first pass over every query, untimed,
// fills the view caches as the set-up and the window do.
func (r *runner) replayHandler(rp *replayResult, stores []*store.Store, shards []int) error {
	w := r.w
	spec := w.opts.Spec()
	run := func(q *query, st *store.Store, shard int) error {
		var pivot int64
		var ids []int64
		if w.spec.Read == opRank {
			var req server.RankRequest
			if err := json.Unmarshal(q.Body, &req); err != nil {
				return err
			}
			pivot, ids = req.Pivot, req.Candidates
		} else {
			var req server.TopKRequest
			if err := json.Unmarshal(q.Body, &req); err != nil {
				return err
			}
			pivot = req.Pivot
		}
		snap := st.Snapshot()
		if w.spec.Read == opTopK {
			for _, e := range snap.List() {
				if e.ID != pivot {
					ids = append(ids, e.ID)
				}
			}
		}
		var pv *csj.PreparedCommunity
		var err error
		if shard < 0 || w.owner[pivot] == shard {
			pv, err = snap.PreparedSpec(pivot, spec)
		} else {
			pv, err = csj.Precompute(w.corpus[pivot-1], &w.opts)
		}
		if err != nil {
			return err
		}
		var answer any
		if w.spec.Read == opRank {
			views := make([]*csj.PreparedCommunity, len(ids))
			for i, id := range ids {
				if views[i], err = snap.PreparedSpec(id, spec); err != nil {
					return err
				}
			}
			answer, err = csj.RankPrepared(pv, views, csj.ExMinMax, &w.opts)
		} else {
			ics := make([]csj.IndexedCandidate, len(ids))
			for i, id := range ids {
				e, ok := snap.Get(id)
				if !ok {
					return fmt.Errorf("no community %d", id)
				}
				id := id
				ics[i] = csj.IndexedCandidate{Name: e.Comm.Name, Summary: e.Summary,
					View: func() (*csj.PreparedCommunity, error) { return snap.PreparedSpec(id, spec) }}
			}
			answer, err = csj.TopKIndexed(pv, ics, w.spec.K, &w.opts)
		}
		if err != nil {
			return err
		}
		_, err = json.Marshal(answer)
		return err
	}
	// fanOut runs a query on every shard at once and returns the
	// slowest shard's time.
	fanOut := func(q *query) (float64, error) {
		durs := make([]time.Duration, len(shards))
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t := time.Now()
				errs[i] = run(q, stores[i], shards[i])
				durs[i] = time.Since(t)
			}(i)
		}
		wg.Wait()
		slowest := slices.Max(durs)
		return ms(slowest), errors.Join(errs...)
	}
	for qi := range w.queries {
		if _, err := fanOut(&w.queries[qi]); err != nil {
			return fmt.Errorf("replaying query %d: %w", qi, err)
		}
	}
	for qi := range w.queries {
		d, err := fanOut(&w.queries[qi])
		if err != nil {
			return fmt.Errorf("replaying query %d: %w", qi, err)
		}
		rp.handler[qi] = d
	}
	return nil
}

// replayStore replays every node's (shard's) handler work, then times
// warm view lookups and the publish of a Create on the first node's
// store, at its corpus size.
func (r *runner) replayStore(rp *replayResult) error {
	w := r.w
	shards := []int{-1}
	if w.spec.Cluster {
		shards = []int{0, 1, 2}
	}
	stores := make([]*store.Store, len(shards))
	var entries []store.SeedEntry
	for i, sh := range shards {
		var es []store.SeedEntry
		stores[i], es = r.shardStore(sh)
		if i == 0 {
			entries = es
		}
	}
	if err := r.replayHandler(rp, stores, shards); err != nil {
		return err
	}
	st := stores[0]
	snap := st.Snapshot()
	spec := w.opts.Spec()
	for _, e := range entries {
		if _, err := snap.PreparedSpec(e.ID, spec); err != nil {
			return err
		}
	}
	const passes = 20
	t := time.Now()
	for p := 0; p < passes; p++ {
		for _, e := range entries {
			if _, err := snap.PreparedSpec(e.ID, spec); err != nil {
				return err
			}
		}
	}
	rp.lookupUS = float64(time.Since(t)) / float64(time.Microsecond) / float64(passes*len(entries))

	var creates []*csj.Community
	for i := range w.writes {
		if w.writes[i].Kind == opCreate {
			creates = append(creates, w.writes[i].Comm)
		}
	}
	creates = creates[:min(len(creates), 20)]
	var pub time.Duration
	for _, c := range creates {
		t := time.Now()
		e, err := st.Create(c)
		pub += time.Since(t)
		if err != nil {
			return err
		}
		if _, err := st.Delete(e.ID); err != nil {
			return err
		}
	}
	rp.publishMS = ratio(ms(pub), float64(len(creates)))
	return nil
}

// replayJSON times the decode of each distinct request body and the
// encode of its answer with the server's wire types.
func (r *runner) replayJSON(rp *replayResult) error {
	w := r.w
	var total time.Duration
	for qi := range w.queries {
		q := &w.queries[qi]
		t := time.Now()
		if w.spec.Read == opRank {
			var req server.RankRequest
			var resp []server.RankEntry
			if err := json.Unmarshal(q.Body, &req); err != nil {
				return err
			}
			if err := json.Unmarshal(q.Expect, &resp); err != nil {
				return err
			}
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
		} else {
			var req server.TopKRequest
			var resp []server.TopKEntry
			if err := json.Unmarshal(q.Body, &req); err != nil {
				return err
			}
			body := q.Expect
			if w.spec.Cluster {
				var env struct {
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal(body, &env); err != nil {
					return err
				}
				body = env.Result
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
		}
		total += time.Since(t)
	}
	rp.jsonMS = ms(total) / float64(len(w.queries))
	return nil
}

// replayDurable appends the created communities of the write blocks
// to a fresh write-ahead log under the workload's fsync policy.
func (r *runner) replayDurable(rp *replayResult) error {
	policy, err := durable.ParseFsyncPolicy(r.w.spec.Fsync)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.dir, "replay-wal")
	lg, err := durable.Open(dir, durable.Options{Fsync: policy, CheckpointEvery: -1})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var dur time.Duration
	var n, userBytes int64
	for i := range r.w.writes {
		o := &r.w.writes[i]
		if o.Kind != opCreate {
			continue
		}
		n++
		userBytes += int64(o.Comm.Size() * o.Comm.Dim() * 4)
		t := time.Now()
		if err := lg.AppendPut(int64(r.w.mainN)+n, uint64(n), o.Comm); err != nil {
			_ = lg.Close()
			return err
		}
		dur += time.Since(t)
	}
	if err := lg.Close(); err != nil {
		return err
	}
	var walBytes int64
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			walBytes += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	rp.appendUS = ratio(float64(dur)/float64(time.Microsecond), float64(n))
	rp.bytesPerUserByte = ratio(float64(walBytes), float64(userBytes))
	return nil
}
