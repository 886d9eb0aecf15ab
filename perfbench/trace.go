package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by benchmark-owned wrappers around the program's
// public http.Handlers and around the coordinator's outgoing shard
// calls; the program itself is not modified. A request of the
// schedule carries its id in hdrReq and its parent span in hdrParent;
// requests without hdrReq (set-up, health probes) are not traced.
const (
	hdrReq    = "X-Bench-Request"
	hdrParent = "X-Bench-Parent"
)

// Span names, one per layer boundary.
const (
	spanLoadgen    = "loadgen.request"
	spanCoordinate = "cluster.coordinate"
	spanShardCall  = "cluster.shard_call"
	spanHandle     = "server.handle"
)

// span is one timed interval of one request. Times are Unix
// nanoseconds, comparable across the benchmark's processes.
type span struct {
	Req    int64  `json:"req"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Path   string `json:"path,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Bytes counts request plus response body bytes.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder keeps the host's spans in memory until the run ends.
// Its span ids start with "h"; client span ids start with "L".
type spanRecorder struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (r *spanRecorder) newID() string { return "h" + strconv.FormatInt(r.next.Add(1), 36) }

func (r *spanRecorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *spanRecorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type traceKey struct{}

// traceCtx links a handler's outgoing calls to its span.
type traceCtx struct {
	req  int64
	span string
}

type countingReader struct {
	io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// wrap records a span named name around every traced request h serves.
func (r *spanRecorder) wrap(name, node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		raw := req.Header.Get(hdrReq)
		if raw == "" {
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseInt(raw, 10, 64)
		sp := span{Req: id, ID: r.newID(), Parent: req.Header.Get(hdrParent), Name: name, Node: node,
			Path: req.Method + " " + req.URL.Path, Start: time.Now().UnixNano()}
		body := &countingReader{ReadCloser: req.Body}
		req.Body = body
		cw := &countingWriter{ResponseWriter: w}
		ctx := context.WithValue(req.Context(), traceKey{}, traceCtx{req: id, span: sp.ID})
		h.ServeHTTP(cw, req.WithContext(ctx))
		sp.End = time.Now().UnixNano()
		sp.Bytes = body.n + cw.n
		r.add(sp)
	})
}

// traceTransport records a span around every outgoing call made from a
// traced handler's context and forwards the request id to the callee.
type traceTransport struct {
	rec   *spanRecorder
	base  http.RoundTripper
	names map[string]string // host:port -> node name
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc, ok := req.Context().Value(traceKey{}).(traceCtx)
	if !ok {
		return t.base.RoundTrip(req)
	}
	sp := span{Req: tc.req, ID: t.rec.newID(), Parent: tc.span, Name: spanShardCall,
		Node: t.names[req.URL.Host], Path: req.Method + " " + req.URL.Path, Start: time.Now().UnixNano()}
	out := req.Clone(req.Context())
	out.Header.Set(hdrReq, strconv.FormatInt(tc.req, 10))
	out.Header.Set(hdrParent, sp.ID)
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.End = time.Now().UnixNano()
		t.rec.add(sp)
		return nil, err
	}
	reqBytes := req.ContentLength
	if reqBytes < 0 {
		reqBytes = 0
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		sp.End = time.Now().UnixNano()
		sp.Bytes = reqBytes + n
		t.rec.add(sp)
	}}
	return resp, nil
}

// spanBody ends its span when the caller closes the response body.
type spanBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// ---- span arithmetic ----

// covered returns the length of the union of the intervals, clipped
// to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curE {
			curE = iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// spanTree indexes spans by id and by parent.
type spanTree struct {
	byID     map[string]*span
	children map[string][]*span
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{byID: map[string]*span{}, children: map[string][]*span{}}
	for i := range spans {
		s := &spans[i]
		t.byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != "" {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// self is a span's duration minus the part its child spans cover.
func (t *spanTree) self(s *span) time.Duration {
	kids := t.children[s.ID]
	ivs := make([][2]int64, len(kids))
	for i, k := range kids {
		ivs[i] = [2]int64{k.Start, k.End}
	}
	return time.Duration(s.End - s.Start - covered(s.Start, s.End, ivs))
}

// criticalPath returns the spans on the blocking path under s, s
// first: walking back from the end of s, each step takes the child
// that ended last before the current point, then recurses into it.
func (t *spanTree) criticalPath(s *span) []*span {
	path := []*span{s}
	kids := append([]*span(nil), t.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].End > kids[j].End })
	point := s.End
	for _, k := range kids {
		if k.End > point {
			continue // overlaps a later blocking child: runs in parallel
		}
		path = append(path, t.criticalPath(k)...)
		point = k.Start
	}
	return path
}
