package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// perLayer lists the per-layer metrics of a traced run, in output
// order, with their units. Every traced run reports all of them; a
// layer a workload does not exercise reports 0.
var perLayer = []struct{ Name, Unit string }{
	{"loadgen.wire_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.trace_overhead_pct", "%"},
	{"trace.path_coverage", "ratio"},
	{"trace.coverage_ok", "bool"},
	{"server.handle_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.json_ms", "ms"},
	{"server.body_kb", "KiB"},
	{"server.rejected", "count"},
	{"store.view_hit_ratio", "ratio"},
	{"store.view_builds_per_req", "count"},
	{"store.view_build_ms", "ms"},
	{"store.view_lookup_us", "us"},
	{"store.publish_ms", "ms"},
	{"store.cache_mb", "MiB"},
	{"index.bound_checks_per_req", "count"},
	{"index.visited_frac", "ratio"},
	{"index.full_scan_share", "ratio"},
	{"index.bound_ms", "ms"},
	{"index.order_ms", "ms"},
	{"core.joins_per_req", "count"},
	{"core.join_us", "us"},
	{"core.comparisons_per_join", "count"},
	{"core.ns_per_comparison", "ns"},
	{"core.prune_ratio", "ratio"},
	{"matching.edges_per_join", "count"},
	{"matching.csf_us", "us"},
	{"matching.join_share", "ratio"},
	{"batch.pool_utilization", "ratio"},
	{"batch.pool_speedup", "x"},
	{"encoding.prepare_ms", "ms"},
	{"encoding.view_kb", "KiB"},
	{"cluster.coord_self_ms", "ms"},
	{"cluster.profile_fetch_ms", "ms"},
	{"cluster.fanout_ms", "ms"},
	{"cluster.shard_skew_ms", "ms"},
	{"cluster.shard_calls_per_req", "count"},
	{"cluster.retries", "count"},
	{"cluster.partials", "count"},
	{"durable.fsyncs_per_write", "count"},
	{"durable.fsync_ms", "ms"},
	{"durable.append_us", "us"},
	{"durable.bytes_per_user_byte", "ratio"},
	{"durable.checkpoints", "count"},
	{"durable.checkpoint_ms", "ms"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_mb", "MiB"},
	{"host.steal_pct", "%"},
	{"host.calibrate_ms", "ms"},
}

// coverageTolerance is how far the replayed handler work may fall
// short of, or exceed, the median handler span on a read's blocking
// path before trace.coverage_ok reads 0. The live handler also reads
// the request from the connection, routes it, updates the program's
// metrics and shares the machine with concurrent requests; the replay
// does none of that.
const coverageTolerance = 0.25

// traced runs the schedule on an untraced host and then on a traced
// one, and reports per-layer metrics from the traced run's spans, the
// program's /metrics and runtime counters, and a replay of each
// layer's public functions on the same inputs.
func (r *runner) traced() (*result, error) {
	calib := []float64{calibrate()}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	runHost := func(trace bool) (rd, wr *phaseResult, spans []span, err error) {
		h, _, err := r.setup(trace)
		if err != nil {
			return nil, nil, nil, err
		}
		rd, wr, err = r.window(h, trace)
		if err == nil && trace {
			c := newClient()
			var text string
			text, err = getText(c, h.info.Control+"/spans")
			c.CloseIdleConnections()
			if err == nil {
				err = json.Unmarshal([]byte(text), &spans)
			}
		}
		if err != nil {
			_ = h.stop()
			return nil, nil, nil, err
		}
		if err := h.stop(); err != nil {
			return nil, nil, nil, err
		}
		name := map[bool]string{false: "untraced", true: "traced"}[trace]
		res.Attempted += len(rd.Ops) + len(wr.Ops)
		res.Failed += r.check(name+" reads", rd) + r.check(name+" writes", wr)
		return rd, wr, spans, nil
	}
	plain, _, _, err := runHost(false)
	if err != nil {
		return nil, err
	}
	win, wr, hostSpans, err := runHost(true)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0

	spans := hostSpans
	spans = append(spans, loadgenSpans(r.w.window, win.Samples, 0)...)
	spans = append(spans, loadgenSpans(r.w.writes, wr.Samples, int64(len(r.w.window)))...)
	if err := writeSpans(filepath.Join(r.dir, "spans.jsonl"), spans); err != nil {
		return nil, err
	}
	rp, err := r.replay()
	if err != nil {
		return nil, err
	}
	calib = append(calib, calibrate())
	m := r.layerMetrics(plain, win, wr, spans, rp)
	m["host.steal_pct"] = stealPct(win.Before, win.After)
	m["host.calibrate_ms"] = median(calib)
	for _, l := range perLayer {
		v, ok := m[l.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", l.Name)
		}
		res.Metrics[l.Name] = metric{v, l.Unit}
	}
	return res, nil
}

func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Req != spans[j].Req {
			return spans[i].Req < spans[j].Req
		}
		return spans[i].Start < spans[j].Start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace groups the spans of each traced read of the window.
type readTrace struct {
	op     int
	root   *span   // loadgen.request
	front  *span   // the program's outermost span
	handle []*span // server.handle spans of query routes
	all    []*span
}

func traceReads(t *spanTree, spans []span, ops []op) []readTrace {
	byReq := map[int64]*readTrace{}
	for i := range spans {
		s := &spans[i]
		if s.Req < 0 || s.Req >= int64(len(ops)) || !ops[s.Req].Kind.isRead() {
			continue
		}
		rt := byReq[s.Req]
		if rt == nil {
			rt = &readTrace{op: int(s.Req)}
			byReq[s.Req] = rt
		}
		rt.all = append(rt.all, s)
		switch {
		case s.Name == spanLoadgen:
			rt.root = s
		case s.Name == spanHandle && !strings.HasPrefix(s.Path, "GET "):
			rt.handle = append(rt.handle, s)
		}
	}
	out := make([]readTrace, 0, len(byReq))
	for _, rt := range byReq {
		if rt.root == nil {
			continue
		}
		for _, k := range t.children[rt.root.ID] {
			rt.front = k
		}
		if rt.front == nil {
			continue
		}
		out = append(out, *rt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].op < out[j].op })
	return out
}

// layerMetrics computes every per-layer metric but the host ones from
// the untraced run's reads (plain) and the traced run's reads (win)
// and writes (wr). Counter deltas span the whole traced window, writes
// included.
func (r *runner) layerMetrics(plain, win, wr *phaseResult, spans []span, rp *replayResult) map[string]float64 {
	m := map[string]float64{}
	w := r.w
	t := newSpanTree(spans)
	reads := traceReads(t, spans, w.window)
	nReads := float64(max(len(w.window), 1))

	// loadgen
	alone := isolated(spans)
	var wire, coverage, handle, self, body []float64
	for _, rt := range reads {
		wire = append(wire, ms(rt.root.dur()-rt.front.dur()))
		var b int64
		for _, s := range rt.all {
			if s.Name == spanCoordinate || s.Name == spanHandle {
				b += s.Bytes
			}
		}
		body = append(body, float64(b)/1024)
		for _, h := range rt.handle {
			handle = append(handle, ms(h.dur()))
			self = append(self, ms(h.dur())-rp.engine[w.key(rt.op, h.Node)])
		}
		// The query handler on the blocking path (the node's, or the
		// shard's that answered last) against the replayed handler
		// work of the same query (on the cluster, the slowest shard of
		// a concurrent replay). The replay runs alone, so only reads
		// that overlapped no other request are compared.
		if !alone[rt.root.Req] {
			continue
		}
		var live float64
		for _, s := range t.criticalPath(rt.root) {
			if s.Name == spanHandle && !strings.HasPrefix(s.Path, "GET ") {
				live += ms(s.dur())
			}
		}
		if live > 0 {
			coverage = append(coverage, rp.handler[w.window[rt.op].Query]/live)
		}
	}
	m["loadgen.wire_ms"] = median(wire)
	m["loadgen.late_p99_ms"] = lateP99(win, wr)
	p50 := percentile(latencies(plain), 0.5)
	m["loadgen.trace_overhead_pct"] = 100 * ratio(percentile(latencies(win), 0.5)-p50, p50)
	c := median(coverage)
	m["trace.path_coverage"] = c
	m["trace.coverage_ok"] = 0
	if c >= 1-coverageTolerance && c <= 1+coverageTolerance {
		m["trace.coverage_ok"] = 1
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: replayed handler work covers %.3f of the blocking-path handler spans (tolerance %.2f)\n", c, coverageTolerance)
	}

	// server
	m["server.handle_ms"] = median(handle)
	m["server.self_ms"] = median(self)
	m["server.json_ms"] = rp.jsonMS
	m["server.body_kb"] = median(body)
	d := delta(win.Before.Prom, win.After.Prom)
	m["server.rejected"] = d.sum("csj_http_rejected_total")

	// store
	hits, misses := d.sum("csj_prepared_cache_hits_total"), d.sum("csj_prepared_cache_misses_total")
	m["store.view_hit_ratio"] = ratio(hits, hits+misses)
	m["store.view_builds_per_req"] = d.sum("csj_prepared_cache_builds_total") / nReads
	life := win.After.Prom
	m["store.view_build_ms"] = 1000 * ratio(life.sum("csj_prepared_cache_build_seconds_sum"), life.sum("csj_prepared_cache_build_seconds_count"))
	m["store.view_lookup_us"] = rp.lookupUS
	m["store.publish_ms"] = rp.publishMS
	m["store.cache_mb"] = life.sum("csj_prepared_cache_bytes") / (1 << 20)

	// index
	checks, pruned := d.sum("csj_index_bound_checks_total"), d.sum("csj_index_candidates_pruned_total")
	m["index.bound_checks_per_req"] = checks / nReads
	m["index.visited_frac"] = ratio(checks-pruned, checks)
	m["index.full_scan_share"] = w.fullScanShare()
	m["index.bound_ms"] = rp.boundMS
	m["index.order_ms"] = rp.orderMS

	// core
	m["core.joins_per_req"] = (checks - pruned + d.sum("csj_batch_pool_tasks_total")) / nReads
	m["core.join_us"] = rp.joinUS
	m["core.comparisons_per_join"] = rp.comparisonsPerJoin
	m["core.ns_per_comparison"] = rp.nsPerComparison
	pre := d.label("csj_scan_events_total", `"min_prune"`) + d.label("csj_scan_events_total", `"max_prune"`) + d.label("csj_scan_events_total", `"no_overlap"`)
	cmp := d.label("csj_scan_events_total", `"no_match"`) + d.label("csj_scan_events_total", `"match"`)
	m["core.prune_ratio"] = ratio(pre, pre+cmp)

	// matching and batch
	m["matching.edges_per_join"] = rp.edgesPerJoin
	m["matching.csf_us"] = rp.csfUS
	m["matching.join_share"] = ratio(rp.csfUS, rp.pairJoinUS)
	m["batch.pool_utilization"] = ratio(d.sum("csj_batch_pool_utilization_ratio_sum"), d.sum("csj_batch_pool_utilization_ratio_count"))
	m["batch.pool_speedup"] = rp.poolSpeedup

	// encoding
	m["encoding.prepare_ms"] = rp.prepareMS
	m["encoding.view_kb"] = rp.viewKB

	// cluster
	var coordSelf, fetch, fanout, skew, calls []float64
	for _, rt := range reads {
		if rt.front.Name != spanCoordinate {
			continue
		}
		coordSelf = append(coordSelf, ms(t.self(rt.front)))
		var lo, hi int64
		var durs []float64
		n := 0
		for _, s := range t.children[rt.front.ID] {
			n++
			if strings.HasPrefix(s.Path, "GET ") {
				fetch = append(fetch, ms(s.dur()))
				continue
			}
			if lo == 0 || s.Start < lo {
				lo = s.Start
			}
			if s.End > hi {
				hi = s.End
			}
			durs = append(durs, ms(s.dur()))
		}
		calls = append(calls, float64(n))
		if len(durs) > 0 {
			sort.Float64s(durs)
			fanout = append(fanout, ms(time.Duration(hi-lo)))
			skew = append(skew, durs[len(durs)-1]-durs[0])
		}
	}
	m["cluster.coord_self_ms"] = median(coordSelf)
	m["cluster.profile_fetch_ms"] = median(fetch)
	m["cluster.fanout_ms"] = median(fanout)
	m["cluster.shard_skew_ms"] = median(skew)
	m["cluster.shard_calls_per_req"] = mean(calls)
	m["cluster.retries"] = d.sum("csj_cluster_retries_total")
	m["cluster.partials"] = d.sum("csj_cluster_partial_responses_total")

	// durable
	fsyncs := d.sum("csj_wal_fsync_seconds_count")
	m["durable.fsyncs_per_write"] = ratio(fsyncs, float64(len(w.writes)))
	m["durable.fsync_ms"] = 1000 * ratio(d.sum("csj_wal_fsync_seconds_sum"), fsyncs)
	m["durable.append_us"] = rp.appendUS
	m["durable.bytes_per_user_byte"] = rp.bytesPerUserByte
	ckpts := d.sum("csj_checkpoint_seconds_count")
	m["durable.checkpoints"] = ckpts
	m["durable.checkpoint_ms"] = 1000 * ratio(d.sum("csj_checkpoint_seconds_sum"), ckpts)

	// runtime of the program's process
	rb, ra := win.Before.Runtime, win.After.Runtime
	m["runtime.alloc_kb_per_req"] = (ra["/gc/heap/allocs:bytes"] - rb["/gc/heap/allocs:bytes"]) / 1024 / float64(len(w.window)+len(w.writes))
	m["runtime.gc_cpu_frac"] = ratio(ra["/cpu/classes/gc/total:cpu-seconds"]-rb["/cpu/classes/gc/total:cpu-seconds"],
		ra["/cpu/classes/total:cpu-seconds"]-rb["/cpu/classes/total:cpu-seconds"])
	m["runtime.gc_cycles"] = ra["/gc/cycles/total:gc-cycles"] - rb["/gc/cycles/total:gc-cycles"]
	m["runtime.heap_mb"] = ra["/memory/classes/heap/objects:bytes"] / (1 << 20)
	return m
}

// isolated marks the requests whose client span overlapped no other
// client span.
func isolated(spans []span) map[int64]bool {
	var cs []*span
	for i := range spans {
		if spans[i].Name == spanLoadgen {
			cs = append(cs, &spans[i])
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	out := map[int64]bool{}
	var lastEnd int64 // latest end among the spans before i
	for i, s := range cs {
		if (i == 0 || lastEnd <= s.Start) && (i+1 == len(cs) || cs[i+1].Start >= s.End) {
			out[s.Req] = true
		}
		lastEnd = max(lastEnd, s.End)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
