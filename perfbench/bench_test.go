package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/opencsj/csj/internal/cluster"
	"github.com/opencsj/csj/internal/server"
)

// tiny returns a small copy of a workload spec, fast enough for tests.
func tiny(name string) *workloadSpec {
	s := *workloadSpecs[name]
	s.Rate = 40
	switch s.Read {
	case opTopK:
		s.Communities, s.Queries, s.Warmup = 200, 10, 10
		s.Group = 20
	case opRank:
		s.Communities, s.Queries, s.Warmup = 8, 6, 6
	}
	return &s
}

// scheduleBytes serializes everything a workload sends.
func scheduleBytes(t *testing.T, w *workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ops := range [][]op{w.window, w.writes} {
		for _, o := range ops {
			fmt.Fprintf(&buf, "%d %d %s %s %s\n", o.At, o.Kind, o.Method, o.Path, o.Body)
		}
	}
	for _, b := range w.ingest {
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSameSeedSameSchedule(t *testing.T) {
	for _, name := range workloadNames {
		spec := workloadSpecs[name]
		a, err := buildWorkload(spec, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(spec, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(scheduleBytes(t, a), scheduleBytes(t, b)) {
			t.Errorf("%s: seed 7 built two different schedules", name)
		}
		c, err := buildWorkload(spec, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(scheduleBytes(t, a), scheduleBytes(t, c)) {
			t.Errorf("%s: seeds 7 and 8 built the same schedule", name)
		}
	}
}

// TestScheduleShares checks that the window holds only reads, every
// segment of it exactly the workload's niche-read share, and every
// write block exactly its create share.
func TestScheduleShares(t *testing.T) {
	for _, name := range workloadNames {
		spec := workloadSpecs[name]
		w, err := buildWorkload(spec, 3, 20)
		if err != nil {
			t.Fatal(err)
		}
		for k, seg := range split(w.window, 20, segmentCount) {
			niche := 0
			for _, o := range seg {
				if o.Kind != spec.Read {
					t.Fatalf("%s segment %d: a %s in the read window", name, k, o.Kind)
				}
				if w.queries[o.Query].Niche {
					niche++
				}
			}
			if want := int(math.Round(spec.NicheShare * float64(len(seg)))); niche != want {
				t.Errorf("%s segment %d: %d niche reads of %d, want exactly %d", name, k, niche, len(seg), want)
			}
		}
		if len(w.writes) != writeBlocks*blockWrites {
			t.Fatalf("%s: %d writes, want %d", name, len(w.writes), writeBlocks*blockWrites)
		}
		deletes := 0
		for b := 0; b < writeBlocks; b++ {
			creates := 0
			for _, o := range w.writes[b*blockWrites : (b+1)*blockWrites] {
				if o.Kind == opCreate {
					creates++
				} else {
					deletes++
				}
			}
			if want := int(math.Round(spec.CreateShare * blockWrites)); creates != want {
				t.Errorf("%s block %d: %d creates, want exactly %d", name, b, creates, want)
			}
		}
		if got := len(w.corpus) - w.mainN; got != deletes {
			t.Errorf("%s: %d disposable communities for %d deletes", name, got, deletes)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}, {0.25, 2}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimeAndCriticalPath(t *testing.T) {
	// A client request [0,100] around a coordinator span [10,90] that
	// fetches a profile [15,25] and then fans out to two shards [30,70]
	// and [32,85]; the second shard's handler runs [35,80].
	spans := []span{
		{ID: "L", Name: spanLoadgen, Start: 0, End: 100},
		{ID: "c", Parent: "L", Name: spanCoordinate, Start: 10, End: 90},
		{ID: "p", Parent: "c", Name: spanShardCall, Start: 15, End: 25},
		{ID: "s1", Parent: "c", Name: spanShardCall, Start: 30, End: 70},
		{ID: "s2", Parent: "c", Name: spanShardCall, Start: 32, End: 85},
		{ID: "h2", Parent: "s2", Name: spanHandle, Start: 35, End: 80},
	}
	tr := newSpanTree(spans)
	self := map[string]time.Duration{"L": 20, "c": 80 - 10 - 55, "p": 10, "s1": 40, "s2": 53 - 45, "h2": 45}
	for id, want := range self {
		if got := tr.self(tr.byID[id]); got != want {
			t.Errorf("self(%s) = %d, want %d", id, got, want)
		}
	}
	var path []string
	for _, s := range tr.criticalPath(tr.byID["L"]) {
		path = append(path, s.ID)
	}
	if got, want := fmt.Sprint(path), "[L c s2 h2 p]"; got != want {
		t.Errorf("critical path = %s, want %s", got, want)
	}
	if got := covered(0, 10, [][2]int64{{-5, 3}, {2, 4}, {8, 20}}); got != 6 {
		t.Errorf("covered = %d, want 6", got)
	}
}

func TestIsolated(t *testing.T) {
	// Requests 1 and 2 overlap; 3 touches 2's end without overlapping
	// it; 4 starts inside 1's span although 2 and 3 lie between them.
	spans := []span{
		{Req: 1, Name: spanLoadgen, Start: 0, End: 50},
		{Req: 2, Name: spanLoadgen, Start: 10, End: 20},
		{Req: 3, Name: spanLoadgen, Start: 20, End: 30},
		{Req: 4, Name: spanLoadgen, Start: 40, End: 60},
		{Req: 5, Name: spanLoadgen, Start: 70, End: 80},
		{Req: 5, Name: spanHandle, Start: 71, End: 79},
	}
	got := isolated(spans)
	if len(got) != 1 || !got[5] {
		t.Errorf("isolated = %v, want only request 5", got)
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm("# HELP x\nx_total 3\ny{event=\"a\"} 2\ny{event=\"b\"} 5\nz_sum 1.5\n")
	if p.sum("x_total") != 3 || p.sum("y") != 7 || p.label("y", `"b"`) != 5 || p.sum("z_sum") != 1.5 {
		t.Errorf("parsed %v", p)
	}
}

// ingestAndCheck uploads the workload's corpus to front and checks
// every distinct query's served answer against the oracle.
func ingestAndCheck(t *testing.T, w *workload, front string) {
	t.Helper()
	c := newClient()
	defer c.CloseIdleConnections()
	for i, body := range w.ingest {
		status, resp, err := do(c, http.MethodPost, front+"/communities", body, nil)
		var info server.CommunityInfo
		if err != nil || status != http.StatusCreated || json.Unmarshal(resp, &info) != nil || info.ID != int64(i+1) {
			t.Fatalf("ingest %d: status %d err %v: %s", i, status, err, resp)
		}
	}
	for qi, q := range w.queries {
		status, resp, err := do(c, http.MethodPost, front+"/"+w.spec.Read.String(), q.Body, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("query %d: status %d err %v", qi, status, err)
		}
		if got := bytes.TrimSpace(resp); !bytes.Equal(got, q.Expect) {
			t.Errorf("query %d: served %s, oracle %s", qi, got, q.Expect)
		}
	}
}

func TestOracleMatchesServedAnswers(t *testing.T) {
	for _, name := range []string{"node-topk", "node-rank"} {
		t.Run(name, func(t *testing.T) {
			w, err := buildWorkload(tiny(name), 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.oracle(); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(server.New(nil))
			defer srv.Close()
			ingestAndCheck(t, w, srv.URL)
		})
	}
	t.Run("cluster-mixed", func(t *testing.T) {
		w, err := buildWorkload(tiny("cluster-mixed"), 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.oracle(); err != nil {
			t.Fatal(err)
		}
		var shards []cluster.ShardSpec
		for i := 0; i < 3; i++ {
			s := httptest.NewServer(server.New(nil))
			defer s.Close()
			shards = append(shards, cluster.ShardSpec{Name: fmt.Sprintf("shard%d", i), URL: s.URL})
		}
		coord, err := cluster.New(nil, cluster.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(coord)
		defer front.Close()
		ingestAndCheck(t, w, front.URL)
	})
}

// TestSecondSeedRunsClean drives a tiny window open loop and its
// write segments closed loop against an in-process server and checks
// every answer.
func TestSecondSeedRunsClean(t *testing.T) {
	for _, name := range []string{"node-topk", "node-rank"} {
		t.Run(name, func(t *testing.T) {
			spec := tiny(name)
			r := &runner{spec: spec, seed: 11, seconds: 1, dir: t.TempDir()}
			if err := r.prepare(); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(server.New(nil))
			defer srv.Close()
			ingestAndCheck(t, r.w, srv.URL)
			for phase, ops := range [][]op{r.w.window, r.w.writes} {
				var samples []sample
				clients := loadClients()
				if phase == 0 {
					samples = runPhase(clients, srv.URL, ops, -1)
				} else {
					samples = runClosed(clients[0], srv.URL, ops, -1)
				}
				for _, c := range clients {
					c.CloseIdleConnections()
				}
				p := &phaseResult{Ops: ops, Samples: samples}
				if failed := r.check(fmt.Sprint(phase), p); failed != 0 {
					t.Errorf("phase %d: %d of %d operations failed", phase, failed, len(ops))
				}
				for i := range p.Samples {
					if l := p.Samples[i].latency(); l <= 0 || p.Samples[i].late() < 0 {
						t.Fatalf("op %d: latency %v, late %v", i, l, p.Samples[i].late())
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(cfg.Workloads), len(workloadNames))
	}
	for i, wl := range cfg.Workloads {
		if i < len(workloadNames) && wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %s, want %s", i, wl.Name, workloadNames[i])
		}
	}
	if len(cfg.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(cfg.PerLayer), len(perLayer))
	}
	for i, m := range cfg.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit) {
			t.Errorf("per-layer metric %d is %s/%s, want %s/%s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	for i, m := range cfg.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit) {
			t.Errorf("end-to-end metric %d is %s/%s, want %s/%s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
	}
	if len(cfg.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(cfg.EndToEnd), len(endToEnd))
	}
}
