package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"github.com/opencsj/csj/internal/cluster"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/server"
)

// The host is the program under test: this binary started as
// `perfbench host`, serving one server.Server (single-node workloads)
// or three shard servers plus a cluster.Coordinator, each on its own
// loopback listener, with the program's default configuration except
// where the workload spec says otherwise. It prints one JSON line with
// its URLs, serves until its standard input closes, then shuts down.
//
// A separate control listener, outside the program's handlers, serves
// the recorded spans (/spans) and the Go runtime's metrics (/runtime).

// hostInfo is the host's ready line.
type hostInfo struct {
	Front   string   `json:"front"`
	Shards  []string `json:"shards,omitempty"`
	Control string   `json:"control"`
}

// runtimeSample names the runtime/metrics the per-layer runtime
// figures are computed from.
var runtimeSample = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func hostMain(args []string) int {
	fs := flag.NewFlagSet("perfbench host", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	dir := fs.String("dir", "", "directory for the shards' write-ahead logs")
	trace := fs.Bool("trace", false, "record spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloadSpecs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench host: unknown workload %q\n", *name)
		return 2
	}
	h, err := startPrograms(spec, *dir, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench host:", err)
		return 1
	}
	line, err := json.Marshal(h.info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench host:", err)
		return 1
	}
	fmt.Println(string(line))
	// Serve until the benchmark closes standard input.
	_, _ = io.Copy(io.Discard, bufio.NewReader(os.Stdin))
	if err := h.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench host:", err)
		return 1
	}
	return 0
}

type programs struct {
	info    hostInfo
	servers []*http.Server // front first
	nodes   []*server.Server
	stop    context.CancelFunc
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (p *programs) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	p.servers = append(p.servers, srv)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench host: serve:", err)
		}
	}()
}

func startPrograms(spec *workloadSpec, dir string, trace bool) (*programs, error) {
	p := &programs{stop: func() {}}
	var rec *spanRecorder
	if trace {
		rec = &spanRecorder{}
	}
	wrap := func(name, node string, h http.Handler) http.Handler {
		if rec == nil {
			return h
		}
		return rec.wrap(name, node, h)
	}
	frontLn, front, err := listen()
	if err != nil {
		return nil, err
	}
	p.info.Front = front
	if !spec.Cluster {
		s := server.NewWithConfig(nil, server.Config{PreparedCacheBytes: spec.CacheBytes})
		p.nodes = append(p.nodes, s)
		p.serve(frontLn, wrap(spanHandle, "node", s))
	} else {
		policy, err := durable.ParseFsyncPolicy(spec.Fsync)
		if err != nil {
			return nil, err
		}
		var shards []cluster.ShardSpec
		names := map[string]string{}
		type pending struct {
			ln   net.Listener
			name string
			s    *server.Server
		}
		var ps []pending
		for _, name := range shardNames {
			ln, url, err := listen()
			if err != nil {
				return nil, err
			}
			lg, err := durable.Open(filepath.Join(dir, name), durable.Options{Fsync: policy, CheckpointEvery: spec.CheckpointEvery})
			if err != nil {
				return nil, err
			}
			s := server.NewWithConfig(nil, server.Config{PreparedCacheBytes: spec.CacheBytes, Durable: lg})
			p.nodes = append(p.nodes, s)
			ps = append(ps, pending{ln, name, s})
			shards = append(shards, cluster.ShardSpec{Name: name, URL: url})
			names[ln.Addr().String()] = name
			p.info.Shards = append(p.info.Shards, url)
		}
		if rec != nil {
			// The coordinator's shard client uses the default
			// transport; wrapping it links shard calls to the traced
			// request through the request context.
			http.DefaultTransport = &traceTransport{rec: rec, base: http.DefaultTransport, names: names}
		}
		coord, err := cluster.New(nil, cluster.Config{Shards: shards})
		if err != nil {
			return nil, err
		}
		p.serve(frontLn, wrap(spanCoordinate, "coordinator", coord))
		for _, x := range ps {
			p.serve(x.ln, wrap(spanHandle, x.name, x.s))
		}
		ctx, cancel := context.WithCancel(context.Background())
		coord.Start(ctx)
		p.stop = cancel
	}
	ctlLn, ctl, err := listen()
	if err != nil {
		return nil, err
	}
	p.info.Control = ctl
	mux := http.NewServeMux()
	mux.HandleFunc("GET /spans", func(w http.ResponseWriter, _ *http.Request) {
		var spans []span
		if rec != nil {
			spans = rec.all()
		}
		writeJSON(w, spans)
	})
	mux.HandleFunc("GET /runtime", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, readRuntime())
	})
	p.serve(ctlLn, mux)
	return p, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench host: encoding response:", err)
	}
}

// readRuntime samples runtimeSample.
func readRuntime() map[string]float64 {
	samples := make([]metrics.Sample, len(runtimeSample))
	for i, name := range runtimeSample {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// close stops the listeners, then flushes and closes every server's
// store (the shards' write-ahead logs).
func (p *programs) close() error {
	p.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, srv := range p.servers {
		if err := srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	for _, s := range p.nodes {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
