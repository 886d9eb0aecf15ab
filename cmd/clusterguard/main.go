// Command clusterguard is the kill-a-shard chaos harness for the
// cluster mode (`make clusterguard`, DESIGN.md §13). It builds
// csjserve and csjcoord, spins up three durable shards each with a
// WAL-shipped follower replica, a coordinator in front, and a
// single-node reference server holding the same corpus, then:
//
//  1. ingests a seeded corpus through the coordinator and records the
//     coordinator's full /topk answer, asserting it is identical to
//     the single-node reference;
//  2. kills one shard with SIGKILL while /topk queries are in flight
//     and asserts the degraded responses are flagged partial, name
//     exactly the dead shard, and contain exactly the surviving
//     shards' correct entries (no more, no fewer, right order);
//  3. waits for the coordinator to promote the dead shard's replica
//     and asserts the full /topk answer is byte-identical to the
//     pre-kill baseline;
//  4. asserts the coordinator leaked neither goroutines nor file
//     descriptors across the whole run.
//
// Any violation exits non-zero.
//
// Usage:
//
//	clusterguard [-communities 12] [-server path] [-coord path] [-keep]
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

import "flag"

type communityPayload struct {
	Name     string    `json:"name"`
	Category int       `json:"category"`
	Users    [][]int32 `json:"users"`
}

type communityInfo struct {
	ID   int64  `json:"id"`
	Name string `json:"name"`
	Size int    `json:"size"`
}

type topKEntry struct {
	Community int64   `json:"community"`
	Name      string  `json:"name"`
	Approx    float64 `json:"approx_similarity"`
	Exact     float64 `json:"exact_similarity"`
	Refined   bool    `json:"refined"`
	Skipped   bool    `json:"skipped,omitempty"`
}

type envelope struct {
	Partial     bool            `json:"partial"`
	Unreachable []string        `json:"unreachable_shards"`
	Result      json.RawMessage `json:"result"`
}

type shardStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Active   string `json:"active"`
	Promoted bool   `json:"promoted"`
}

type clusterStatus struct {
	Shards     []shardStatus `json:"shards"`
	Goroutines int           `json:"goroutines"`
	OpenFDs    int           `json:"open_fds"`
}

func main() {
	var (
		nCommunities = flag.Int("communities", 12, "corpus size ingested through the coordinator")
		serverPath   = flag.String("server", "", "csjserve binary (empty = build it)")
		coordPath    = flag.String("coord", "", "csjcoord binary (empty = build it)")
		keep         = flag.Bool("keep", false, "keep the scratch directory on exit")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("clusterguard ")

	scratch, err := os.MkdirTemp("", "clusterguard-*")
	if err != nil {
		log.Fatal(err)
	}
	if !*keep {
		defer os.RemoveAll(scratch)
	}

	serverBin := buildIfNeeded(*serverPath, scratch, "csjserve", "./cmd/csjserve")
	coordBin := buildIfNeeded(*coordPath, scratch, "csjcoord", "./cmd/csjcoord")

	if err := run(scratch, serverBin, coordBin, *nCommunities); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Printf("PASS: degraded answers exact, promotion restored byte-identical results, no leaks")
}

func buildIfNeeded(path, scratch, name, pkg string) string {
	if path != "" {
		return path
	}
	bin := filepath.Join(scratch, name)
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		log.Fatalf("building %s: %v", pkg, err)
	}
	return bin
}

// proc is one child process of the harness.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string
}

func (p *proc) kill9() error {
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	p.cmd.Wait()
	return nil
}

func (p *proc) stop() {
	if p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

func startProc(name, bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	p.stop()
	return nil, fmt.Errorf("%s did not become healthy on %s", name, addr)
}

func run(scratch, serverBin, coordBin string, n int) error {
	shardNames := []string{"alpha", "beta", "gamma"}

	// Three durable shards, each with a WAL-shipping follower replica.
	var shards, replicas []*proc
	var shardFlagValues []string
	for _, name := range shardNames {
		sh, err := startProc("shard "+name, serverBin,
			"-store-dir", filepath.Join(scratch, name),
			"-fsync", "always",
			"-checkpoint-every", "5", // rotate segments so checkpoint shipping is exercised
			"-q")
		if err != nil {
			return err
		}
		defer sh.stop()
		shards = append(shards, sh)

		rep, err := startProc("replica "+name, serverBin,
			"-store-dir", filepath.Join(scratch, name+"-replica"),
			"-follow", sh.base,
			"-follow-interval", "50ms",
			"-fsync", "always",
			"-q")
		if err != nil {
			return err
		}
		defer rep.stop()
		replicas = append(replicas, rep)
		shardFlagValues = append(shardFlagValues, fmt.Sprintf("%s=%s,%s", name, sh.base, rep.base))
	}

	coordArgs := []string{
		"-request-timeout", "10s",
		"-retries", "1",
		"-retry-backoff", "10ms",
		"-breaker-threshold", "2",
		"-breaker-cooldown", "500ms",
		"-probe-interval", "100ms",
		"-promote-after", "700ms",
		"-q",
	}
	for _, v := range shardFlagValues {
		coordArgs = append(coordArgs, "-shard", v)
	}
	coord, err := startProc("csjcoord", coordBin, coordArgs...)
	if err != nil {
		return err
	}
	defer coord.stop()

	// A single node holding the whole corpus: the oracle every cluster
	// answer is compared against.
	reference, err := startProc("reference", serverBin, "-q")
	if err != nil {
		return err
	}
	defer reference.stop()

	// Seeded corpus, ingested through the coordinator and mirrored into
	// the reference.
	rng := rand.New(rand.NewSource(42))
	for i := 1; i <= n; i++ {
		users := make([][]int32, 6+rng.Intn(10))
		for u := range users {
			row := make([]int32, 4)
			for j := range row {
				row[j] = rng.Int31n(30)
			}
			users[u] = row
		}
		p := communityPayload{Name: fmt.Sprintf("c%03d", i), Category: -1, Users: users}
		info, err := postCommunity(coord.base, p)
		if err != nil {
			return fmt.Errorf("ingest %d via coordinator: %w", i, err)
		}
		if info.ID != int64(i) {
			return fmt.Errorf("coordinator assigned id %d to upload %d", info.ID, i)
		}
		if _, err := postCommunity(reference.base, p); err != nil {
			return fmt.Errorf("ingest %d into reference: %w", i, err)
		}
	}
	log.Printf("ingested %d communities across %d shards", n, len(shards))

	// Wait for every replica to catch up before the chaos starts: the
	// promotion contract only holds for WAL bytes that reached the
	// follower (the final sync is best-effort against a dead leader).
	for i, rep := range replicas {
		if err := waitCaughtUp(rep.base); err != nil {
			return fmt.Errorf("replica %s: %w", shardNames[i], err)
		}
	}
	log.Printf("all replicas caught up")

	const pivot = int64(1)
	topkBody, _ := json.Marshal(map[string]any{
		"pivot": pivot, "all_candidates": true, "k": n,
		"options": map[string]any{"epsilon": 6, "allow_size_imbalance": true},
	})

	// Baseline: the cluster's complete answer, and the single-node
	// oracle it must match: both run the exact indexed engine.
	baseline, env, err := postTopK(coord.base+"/topk?require_complete=1", topkBody)
	if err != nil {
		return fmt.Errorf("baseline /topk: %w", err)
	}
	if env.Partial {
		return fmt.Errorf("baseline /topk flagged partial on a healthy cluster")
	}
	refEntries, err := postTopKPlain(reference.base+"/topk", topkBody)
	if err != nil {
		return fmt.Errorf("reference /topk: %w", err)
	}
	if err := compareEntries(decode(baseline), refEntries); err != nil {
		return fmt.Errorf("healthy cluster diverged from single node: %w", err)
	}
	log.Printf("baseline verified: cluster == single node (%d entries)", len(refEntries))

	// Resource baseline for the leak check, taken after the cluster has
	// served real traffic.
	statusBefore, err := getStatus(coord.base)
	if err != nil {
		return err
	}

	// Pick a victim that does not own the pivot, so the degraded
	// queries keep a resolvable pivot.
	victimIdx, err := pickVictim(shards, pivot)
	if err != nil {
		return err
	}
	victim := shards[victimIdx]
	victimName := shardNames[victimIdx]

	// Kill -9 mid-query: fire /topk continuously and drop the shard
	// while they are in flight.
	queryErr := make(chan error, 1)
	stopQueries := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopQueries:
				queryErr <- nil
				return
			default:
			}
			// Degraded or complete are both fine mid-kill; transport-level
			// failures of the coordinator itself are not.
			if _, _, err := postTopK(coord.base+"/topk", topkBody); err != nil {
				queryErr <- fmt.Errorf("/topk during chaos: %w", err)
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let queries get in flight
	if err := victim.kill9(); err != nil {
		return fmt.Errorf("kill -9 %s: %w", victimName, err)
	}
	log.Printf("killed shard %s (SIGKILL) mid-/topk", victimName)
	time.Sleep(200 * time.Millisecond)
	close(stopQueries)
	if err := <-queryErr; err != nil {
		return err
	}

	// Degraded answers: partial, naming exactly the victim, containing
	// exactly the surviving shards' entries in oracle order. The
	// expected degraded answer is the oracle list minus the victim's
	// communities (k = n, so no cut-off interplay).
	victimIDs, err := ownedBy(victim.base) // dead now; use the replica's mirror via the oracle instead
	if err == nil {
		return fmt.Errorf("victim shard answered /communities after SIGKILL (ids %v)", victimIDs)
	}
	surviving := map[int64]bool{}
	for _, sh := range shards {
		if sh == victim {
			continue
		}
		ids, err := ownedBy(sh.base)
		if err != nil {
			return fmt.Errorf("listing survivor: %w", err)
		}
		for _, id := range ids {
			surviving[id] = true
		}
	}
	var wantDegraded []topKEntry
	for _, e := range refEntries {
		if surviving[e.Community] {
			wantDegraded = append(wantDegraded, e)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	var degraded envelope
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("no partial /topk answer within 10s of the kill")
		}
		raw, env, err := postTopK(coord.base+"/topk", topkBody)
		if err != nil {
			return fmt.Errorf("degraded /topk: %w", err)
		}
		if env.Partial {
			degraded = env
			degraded.Result = raw
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if len(degraded.Unreachable) != 1 || degraded.Unreachable[0] != victimName {
		return fmt.Errorf("degraded unreachable = %v, want [%s]", degraded.Unreachable, victimName)
	}
	if err := compareEntries(decode(degraded.Result), wantDegraded); err != nil {
		return fmt.Errorf("degraded answer is not exactly the survivors' results: %w", err)
	}
	// require_complete must reject the same degradation loudly... unless
	// promotion already healed the cluster, which is a pass, not a race
	// to assert on.
	if code, err := statusOf(coord.base+"/topk?require_complete=1", topkBody); err == nil &&
		code != http.StatusServiceUnavailable && code != http.StatusOK {
		return fmt.Errorf("require_complete during outage: status %d, want 503 (or 200 after promotion)", code)
	}
	log.Printf("degraded answers verified: partial=true, unreachable=[%s], %d surviving entries exact",
		victimName, len(wantDegraded))

	// Promotion: the coordinator must detect the dead leader and point
	// the shard at its replica; the cluster then answers completely and
	// byte-identically to the pre-kill baseline.
	deadline = time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica for %s not promoted within 20s", victimName)
		}
		st, err := getStatus(coord.base)
		if err != nil {
			return err
		}
		promoted := false
		for _, sh := range st.Shards {
			if sh.Name == victimName && sh.Promoted {
				promoted = true
			}
		}
		if promoted {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Printf("replica promoted for shard %s", victimName)

	deadline = time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("no complete /topk answer within 10s of promotion")
		}
		raw, env, err := postTopK(coord.base+"/topk?require_complete=1", topkBody)
		if err == nil && !env.Partial {
			if !bytes.Equal(normalizeJSON(raw), normalizeJSON(baseline)) {
				return fmt.Errorf("post-promotion /topk differs from baseline:\n  got  %s\n  want %s", raw, baseline)
			}
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Printf("post-promotion answer byte-identical to baseline")

	// Leak check: after the chaos settles, the coordinator must hold no
	// more goroutines or fds than before (small slack for transient
	// keep-alive conns and probe timing).
	time.Sleep(2 * time.Second)
	statusAfter, err := getStatus(coord.base)
	if err != nil {
		return err
	}
	if statusAfter.Goroutines > statusBefore.Goroutines+10 {
		return fmt.Errorf("goroutine leak in coordinator: %d -> %d", statusBefore.Goroutines, statusAfter.Goroutines)
	}
	if statusBefore.OpenFDs > 0 && statusAfter.OpenFDs > statusBefore.OpenFDs+10 {
		return fmt.Errorf("fd leak in coordinator: %d -> %d", statusBefore.OpenFDs, statusAfter.OpenFDs)
	}
	log.Printf("no leaks: goroutines %d -> %d, fds %d -> %d",
		statusBefore.Goroutines, statusAfter.Goroutines, statusBefore.OpenFDs, statusAfter.OpenFDs)
	return nil
}

// waitCaughtUp polls a follower's /healthz until it reports a fully
// mirrored log.
func waitCaughtUp(base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Follower struct {
				CaughtUp bool  `json:"caught_up"`
				Rounds   int64 `json:"rounds"`
			} `json:"follower"`
		}
		if err := getJSON(base+"/healthz", &st); err == nil &&
			st.Follower.CaughtUp && st.Follower.Rounds > 0 {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("follower not caught up within 15s")
}

// pickVictim returns the index of a shard that does NOT own the pivot.
func pickVictim(shards []*proc, pivot int64) (int, error) {
	for i, sh := range shards {
		resp, err := http.Get(fmt.Sprintf("%s/communities/%d", sh.base, pivot))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return i, nil
		}
	}
	return 0, fmt.Errorf("every shard claims the pivot — ownership is broken")
}

// ownedBy lists the community ids a shard holds.
func ownedBy(base string) ([]int64, error) {
	var list []communityInfo
	if err := getJSON(base+"/communities", &list); err != nil {
		return nil, err
	}
	ids := make([]int64, len(list))
	for i, c := range list {
		ids[i] = c.ID
	}
	return ids, nil
}

func getStatus(base string) (clusterStatus, error) {
	var st clusterStatus
	err := getJSON(base+"/cluster/status", &st)
	return st, err
}

func compareEntries(got, want []topKEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d (got %v, want %v)", len(got), len(want), ids(got), ids(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Community != w.Community || g.Exact != w.Exact || g.Name != w.Name || g.Skipped != w.Skipped {
			return fmt.Errorf("entry %d = {%d %q exact=%v skipped=%v}, want {%d %q exact=%v skipped=%v}",
				i, g.Community, g.Name, g.Exact, g.Skipped, w.Community, w.Name, w.Exact, w.Skipped)
		}
	}
	return nil
}

func ids(entries []topKEntry) []int64 {
	out := make([]int64, len(entries))
	for i, e := range entries {
		out[i] = e.Community
	}
	return out
}

func decode(raw json.RawMessage) []topKEntry {
	var entries []topKEntry
	json.Unmarshal(raw, &entries)
	return entries
}

// normalizeJSON compacts raw JSON so byte comparison ignores
// insignificant whitespace only.
func normalizeJSON(raw []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

func postCommunity(base string, p communityPayload) (*communityInfo, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/communities", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return nil, fmt.Errorf("POST /communities: status %d (%s)", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var info communityInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// postTopK posts to a coordinator /topk URL and returns the raw result
// JSON plus the envelope metadata.
func postTopK(url string, body []byte) (json.RawMessage, envelope, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, envelope{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return nil, envelope{}, fmt.Errorf("status %d (%s)", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, envelope{}, err
	}
	return env.Result, env, nil
}

// postTopKPlain posts to a single-node /topk (bare array response).
func postTopKPlain(url string, body []byte) ([]topKEntry, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return nil, fmt.Errorf("status %d (%s)", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var entries []topKEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// statusOf returns just the HTTP status of a POST.
func statusOf(url string, body []byte) (int, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
