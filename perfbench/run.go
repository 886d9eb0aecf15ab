package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/opencsj/csj/internal/server"
)

// runner executes one benchmark invocation.
type runner struct {
	spec    *workloadSpec
	seed    int64
	seconds int
	dir     string // scratch directory of this invocation
	w       *workload
	hosts   int // hosts started so far (names their WAL directories)
}

// prepare generates the workload and its expected answers.
func (r *runner) prepare() error {
	w, err := buildWorkload(r.spec, r.seed, r.seconds)
	if err != nil {
		return err
	}
	if err := w.oracle(); err != nil {
		return err
	}
	r.w = w
	return nil
}

// setup starts the program, ingests the corpus through the public
// HTTP API from pre-encoded bodies, one request at a time, and runs
// the warm-up reads. Its duration runs from the process start to the
// end of the warm-up.
func (r *runner) setup(trace bool) (*hostProc, float64, error) {
	r.hosts++
	wal := filepath.Join(r.dir, fmt.Sprintf("wal%d", r.hosts))
	h, err := startHost(r.spec, wal, trace)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*hostProc, float64, error) {
		_ = h.stop()
		return nil, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for i, body := range r.w.ingest {
		status, resp, err := do(c, http.MethodPost, h.info.Front+"/communities", body, nil)
		if err != nil {
			return fail(fmt.Errorf("ingesting community %d: %w", i+1, err))
		}
		var info server.CommunityInfo
		if status != http.StatusCreated || json.Unmarshal(resp, &info) != nil || info.ID != int64(i+1) {
			return fail(fmt.Errorf("ingesting community %d: status %d: %s", i+1, status, bytes.TrimSpace(resp)))
		}
	}
	for _, qi := range r.w.warmup() {
		q := &r.w.queries[qi]
		status, resp, err := do(c, http.MethodPost, h.info.Front+"/"+r.spec.Read.String(), q.Body, nil)
		if err != nil {
			return fail(fmt.Errorf("warm-up query %d: %w", qi, err))
		}
		if status != http.StatusOK || !bytes.Equal(bytes.TrimSpace(resp), q.Expect) {
			return fail(fmt.Errorf("warm-up query %d: wrong answer (workload %s, seed %d): status %d", qi, r.spec.Name, r.seed, status))
		}
	}
	return h, time.Since(h.started).Seconds(), nil
}

// snapshot is the state of the program read around a phase.
type snapshot struct {
	Prom    promSeries
	Runtime map[string]float64
	Steal   uint64
	Total   uint64
}

func (r *runner) snap(h *hostProc) (*snapshot, error) {
	s := &snapshot{Prom: promSeries{}}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, u := range h.urls() {
		text, err := getText(c, u+"/metrics")
		if err != nil {
			return nil, err
		}
		s.Prom.merge(parseProm(text))
	}
	text, err := getText(c, h.info.Control+"/runtime")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(text), &s.Runtime); err != nil {
		return nil, err
	}
	s.Steal, s.Total = cpuTimes()
	return s, nil
}

// phaseResult is one driven phase, or several joined.
type phaseResult struct {
	Ops     []op
	Samples []sample
	// Before and After are the program's state around the whole
	// window; set on its joined reads and writes.
	Before *snapshot
	After  *snapshot
	// CPU is the program's CPU time over the phase alone.
	CPU time.Duration
}

// joined concatenates consecutive phases into one.
func joined(ps []*phaseResult) *phaseResult {
	j := &phaseResult{}
	for _, p := range ps {
		j.Ops = append(j.Ops, p.Ops...)
		j.Samples = append(j.Samples, p.Samples...)
		j.CPU += p.CPU
	}
	return j
}

// drive runs ops against the host, open loop on their schedule or,
// with closed set, back to back on one connection.
func (r *runner) drive(h *hostProc, ops []op, traceBase int64, closed bool) (*phaseResult, error) {
	cpu0, err := procCPU(h.pid())
	if err != nil {
		return nil, err
	}
	var samples []sample
	if closed {
		samples = runClosed(h.clients[0], h.info.Front, ops, traceBase)
	} else {
		samples = runPhase(h.clients, h.info.Front, ops, traceBase)
	}
	cpu1, err := procCPU(h.pid())
	if err != nil {
		return nil, err
	}
	return &phaseResult{Ops: ops, Samples: samples, CPU: cpu1 - cpu0}, nil
}

// check compares every response with its expected answer and returns
// the number of failed operations. A failure is a transport error, a
// non-2xx status or a wrong answer; the first few are printed with the
// workload, seed and operation index.
func (r *runner) check(phase string, p *phaseResult) int {
	failed := 0
	for i := range p.Samples {
		if msg := r.checkOne(&p.Ops[i], &p.Samples[i]); msg != "" {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: workload %s seed %d %s op %d (%s %s): %s\n",
					"failed", r.spec.Name, r.seed, phase, i, p.Ops[i].Kind, p.Ops[i].Path, msg)
			}
		}
	}
	return failed
}

func (r *runner) checkOne(o *op, s *sample) string {
	if s.Err != nil {
		return s.Err.Error()
	}
	body := bytes.TrimSpace(s.Body)
	switch o.Kind {
	case opTopK, opRank:
		if s.Status != http.StatusOK {
			return fmt.Sprintf("status %d: %s", s.Status, body)
		}
		if !bytes.Equal(body, r.w.queries[o.Query].Expect) {
			return "wrong answer: got " + string(body) + " want " + string(r.w.queries[o.Query].Expect)
		}
	case opCreate:
		var info server.CommunityInfo
		if s.Status != http.StatusCreated || json.Unmarshal(body, &info) != nil {
			return fmt.Sprintf("status %d: %s", s.Status, body)
		}
		c := o.Comm
		if info.Name != c.Name || info.Size != c.Size() || info.Dim != c.Dim() || info.ID <= int64(r.w.mainN) {
			return "wrong create answer: " + string(body)
		}
	case opDelete:
		if s.Status != http.StatusNoContent {
			return fmt.Sprintf("status %d: %s", s.Status, body)
		}
	}
	return ""
}

// latencies returns the latencies of a phase's successful operations
// in milliseconds.
func latencies(p *phaseResult) []float64 {
	var out []float64
	for i := range p.Samples {
		if s := &p.Samples[i]; s.Err == nil && s.Status/100 == 2 {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// diagnostics are printed beside a run's result and never used to
// adjust a metric: steal time, a CPU calibration loop, sample counts.
type diagnostics struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	StealPct     float64   `json:"steal_pct"`
	CalibrateMS  []float64 `json:"calibrate_ms"`
	Reads        int       `json:"reads"`
	Writes       int       `json:"writes"`
	SetupS       []float64 `json:"setup_s,omitempty"`
	LateP99MS    float64   `json:"late_p99_ms"`
	FullScan     float64   `json:"full_scan_share"`
	NicheReads   float64   `json:"niche_read_share"`
	ViewHitRatio float64   `json:"view_hit_ratio"`
	// ReadPcts and WritePcts are the 10th, 25th, 50th, 75th, 90th,
	// 95th and 99th latency percentiles over the whole run, for seeing
	// where the gated percentiles sit in the distribution.
	ReadPcts  []float64 `json:"read_pcts_ms"`
	WritePcts []float64 `json:"write_pcts_ms"`
}

func pcts(xs []float64) []float64 {
	var out []float64
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		out = append(out, math.Round(percentile(xs, p)*1000)/1000)
	}
	return out
}

func printDiagnostics(d *diagnostics) {
	b, err := json.Marshal(map[string]any{"diagnostics": d})
	if err == nil {
		fmt.Println(string(b))
	}
}

func stealPct(before, after *snapshot) float64 {
	if after.Total <= before.Total {
		return 0
	}
	return 100 * float64(after.Steal-before.Steal) / float64(after.Total-before.Total)
}

func lateP99(ps ...*phaseResult) float64 {
	var late []float64
	for _, p := range ps {
		for i := range p.Samples {
			late = append(late, ms(p.Samples[i].late()))
		}
	}
	return percentile(late, 0.99)
}

func nicheReadShare(w *workload) float64 {
	niche := 0
	for i := range w.window {
		if w.queries[w.window[i].Query].Niche {
			niche++
		}
	}
	return ratio(float64(niche), float64(len(w.window)))
}

func viewHitRatio(p *phaseResult) float64 {
	d := delta(p.Before.Prom, p.After.Prom)
	hits, misses := d.sum("csj_prepared_cache_hits_total"), d.sum("csj_prepared_cache_misses_total")
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// endToEnd lists the gated metrics of an untraced run, with units.
var endToEnd = []struct{ Name, Unit string }{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"rss_mb", "MiB"},
	{"setup_s", "s"},
	{"ok_frac", "frac"},
}

// split splits a window's operations by scheduled time into n
// consecutive slices, each rebased to start at zero.
func split(ops []op, seconds, n int) [][]op {
	out := make([][]op, n)
	d := time.Duration(seconds) * time.Second / time.Duration(n)
	for _, o := range ops {
		k := min(int(o.At/d), n-1)
		o.At -= time.Duration(k) * d
		out[k] = append(out[k], o)
	}
	return out
}

// window drives the read window on h in writeBlocks consecutive
// slices, open loop, each followed by a block of closed-loop writes.
// It returns the reads and the writes, each joined into one phase in
// schedule order, with snapshots of the program taken only before the
// first slice and after the last block, so that the scrapes disturb
// no phase. With trace set, a read carries its index in the window as
// its request id and a write its index in the writes, offset by the
// window's length.
func (r *runner) window(h *hostProc, trace bool) (reads, writes *phaseResult, err error) {
	before, err := r.snap(h)
	if err != nil {
		return nil, nil, err
	}
	var rs, ws []*phaseResult
	start := 0 // window index of the slice's first read
	for k, ops := range split(r.w.window, r.seconds, writeBlocks) {
		base, wbase := int64(-1), int64(-1)
		if trace {
			base, wbase = int64(start), int64(len(r.w.window)+k*blockWrites)
		}
		p, err := r.drive(h, ops, base, false)
		if err != nil {
			return nil, nil, err
		}
		time.Sleep(writeGap)
		q, err := r.drive(h, r.w.writes[k*blockWrites:(k+1)*blockWrites], wbase, true)
		if err != nil {
			return nil, nil, err
		}
		rs, ws = append(rs, p), append(ws, q)
		start += len(ops)
	}
	after, err := r.snap(h)
	if err != nil {
		return nil, nil, err
	}
	reads, writes = joined(rs), joined(ws)
	for _, p := range []*phaseResult{reads, writes} {
		p.Before, p.After = before, after
	}
	return reads, writes, nil
}

// untraced is the gated run. It sets the program up several times
// (setup_s is the median), then drives the window. Every figure pools
// the whole window.
func (r *runner) untraced() (*result, error) {
	diag := &diagnostics{Workload: r.spec.Name, Seed: r.seed, CalibrateMS: []float64{calibrate()}}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	if nr, nw := len(r.w.window), len(r.w.writes); nr < minSamples || nw < minSamples {
		return nil, fmt.Errorf("the window schedules %d reads and %d writes; each p90 needs at least %d (raise --seconds)", nr, nw, minSamples)
	}
	var h *hostProc
	for i := 0; i < setupReps; i++ {
		hp, s, err := r.setup(false)
		if err != nil {
			return nil, err
		}
		diag.SetupS = append(diag.SetupS, s)
		if i < setupReps-1 {
			if err := hp.stop(); err != nil {
				return nil, err
			}
			continue
		}
		h = hp
	}
	rd, wr, err := r.window(h, false)
	if err != nil {
		_ = h.stop()
		return nil, err
	}
	rss, rssErr := procPeakRSS(h.pid())
	if err := h.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}

	res := &result{Metrics: map[string]metric{}}
	res.Attempted = len(rd.Ops) + len(wr.Ops)
	res.Failed = r.check("reads", rd) + r.check("writes", wr)
	res.Correct = res.Failed == 0
	reads, writes := latencies(rd), latencies(wr)
	values := map[string]float64{
		"p50_ms":         percentile(reads, 0.5),
		"p90_ms":         percentile(reads, 0.9),
		"write_p50_ms":   percentile(writes, 0.5),
		"write_p90_ms":   percentile(writes, 0.9),
		"cpu_ms_per_req": ms(rd.CPU) / float64(max(len(rd.Ops), 1)),
		"rss_mb":         rss,
		"setup_s":        median(diag.SetupS),
		"ok_frac":        float64(res.Attempted-res.Failed) / float64(res.Attempted),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metric{values[m.Name], m.Unit}
	}

	diag.CalibrateMS = append(diag.CalibrateMS, calibrate())
	diag.StealPct = stealPct(rd.Before, rd.After)
	diag.Reads, diag.Writes = len(reads), len(writes)
	diag.ReadPcts, diag.WritePcts = pcts(reads), pcts(writes)
	diag.LateP99MS = lateP99(rd, wr)
	diag.FullScan = r.w.fullScanShare()
	diag.NicheReads = nicheReadShare(r.w)
	diag.ViewHitRatio = viewHitRatio(rd)
	printDiagnostics(diag)
	return res, nil
}
