package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// hostProc is a running host process.
type hostProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	info    hostInfo
	started time.Time
	done    chan error
	// clients are the load generator's connections to the program.
	clients []*http.Client
}

// startHost starts the program under test and waits for its ready
// line.
func startHost(spec *workloadSpec, dir string, trace bool) (*hostProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"host", "--workload", spec.Name, "--dir", dir}
	if trace {
		args = append(args, "--trace")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// The host dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	h := &hostProc{cmd: cmd, stdin: stdin, started: time.Now(), done: make(chan error, 1), clients: loadClients()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &h.info)
	}
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		h.done <- cmd.Wait()
	}()
	if err != nil {
		h.stop()
		return nil, fmt.Errorf("host did not start: %w", err)
	}
	return h, nil
}

func (h *hostProc) pid() int { return h.cmd.Process.Pid }

// stop closes the host's standard input, which makes it shut down,
// and waits for it to exit; a host that hangs is killed.
func (h *hostProc) stop() error {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	_ = h.stdin.Close()
	select {
	case err := <-h.done:
		return err
	case <-time.After(20 * time.Second):
		_ = h.cmd.Process.Kill()
		<-h.done
		return fmt.Errorf("host did not exit; killed")
	}
}

// urls lists every program listener whose /metrics the run reads.
func (h *hostProc) urls() []string { return append([]string{h.info.Front}, h.info.Shards...) }

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte, hdr map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getText fetches a text resource.
func getText(c *http.Client, url string) (string, error) {
	status, b, err := do(c, http.MethodGet, url, nil, nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, status)
	}
	return string(b), nil
}

// sample is the outcome of one scheduled operation.
type sample struct {
	Sched  time.Time
	Sent   time.Time
	Done   time.Time
	Status int
	Body   []byte
	Err    error
}

// latency is measured from the scheduled send, so a stall also
// charges the requests queued behind it.
func (s *sample) latency() time.Duration { return s.Done.Sub(s.Sched) }

// late is how far behind schedule the generator sent.
func (s *sample) late() time.Duration { return s.Sent.Sub(s.Sched) }

// loadClients returns the generator's clients, one connection each
// and at most one per CPU. They are made once per run, so that only
// the first requests of a run open connections.
func loadClients() []*http.Client {
	out := make([]*http.Client, runtime.NumCPU())
	for i := range out {
		out[i] = newClient()
	}
	return out
}

// runPhase drives ops open-loop against front: a dispatcher releases
// each operation at its scheduled offset, and one worker per client
// sends them in order. An operation that finds every worker busy
// waits, and the wait counts in its latency. With traceBase >= 0 each
// request carries id traceBase+i.
func runPhase(clients []*http.Client, front string, ops []op, traceBase int64) []sample {
	out := make([]sample, len(ops))
	queue := make(chan int, len(ops)) // every op is queued at most once
	done := make(chan struct{})
	for _, c := range clients {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				o := &ops[i]
				var hdr map[string]string
				if traceBase >= 0 {
					id := strconv.FormatInt(traceBase+int64(i), 10)
					hdr = map[string]string{hdrReq: id, hdrParent: "L" + id}
				}
				s := &out[i]
				s.Sent = time.Now()
				s.Status, s.Body, s.Err = do(c, o.Method, front+o.Path, o.Body, hdr)
				s.Done = time.Now()
			}
		}()
	}
	start := time.Now().Add(50 * time.Millisecond)
	for i := range ops {
		at := start.Add(ops[i].At)
		out[i].Sched = at
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	for range clients {
		<-done
	}
	return out
}

// runClosed sends ops back to back on c: each is scheduled the moment
// the previous one completes, so no operation ever waits in the
// generator.
func runClosed(c *http.Client, front string, ops []op, traceBase int64) []sample {
	out := make([]sample, len(ops))
	for i := range ops {
		o := &ops[i]
		var hdr map[string]string
		if traceBase >= 0 {
			id := strconv.FormatInt(traceBase+int64(i), 10)
			hdr = map[string]string{hdrReq: id, hdrParent: "L" + id}
		}
		s := &out[i]
		s.Sched = time.Now()
		s.Sent = s.Sched
		s.Status, s.Body, s.Err = do(c, o.Method, front+o.Path, o.Body, hdr)
		s.Done = time.Now()
	}
	return out
}

// loadgenSpans converts a traced phase's samples into client spans.
func loadgenSpans(ops []op, samples []sample, traceBase int64) []span {
	out := make([]span, 0, len(samples))
	for i := range samples {
		s := &samples[i]
		id := traceBase + int64(i)
		out = append(out, span{Req: id, ID: "L" + strconv.FormatInt(id, 10), Name: spanLoadgen, Node: "loadgen",
			Path: ops[i].Method + " " + ops[i].Path, Start: s.Sent.UnixNano(), End: s.Done.UnixNano(),
			Bytes: int64(len(ops[i].Body) + len(s.Body))})
	}
	return out
}
