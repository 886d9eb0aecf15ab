// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload's corpus and open-loop schedule from a seed,
// hosts the CSJ HTTP server (or a 3-shard cluster behind the
// coordinator) in a child process, drives the schedule against it,
// checks every answer against the library, and prints one JSON result
// line. With --trace 1 it runs the same schedule twice, untraced and
// traced, and reports per-layer metrics instead.
//
//	perfbench --workload node-topk --seed 1 --seconds 22 --trace 0
//
// The child processes are this binary started as `perfbench host ...`
// (the program under test) and as `perfbench awake` (see awake.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "host" {
		os.Exit(hostMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "awake" {
		os.Exit(awakeMain())
	}
	os.Exit(benchMain(os.Args[1:]))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	name := fs.String("workload", "", "workload: node-topk, node-rank or cluster-mixed")
	seed := fs.Int64("seed", 1, "seed of the corpus, schedule and request bodies")
	seconds := fs.Int("seconds", 22, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	spec, ok := workloadSpecs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*root, ".bench_build", "runs", fmt.Sprintf("%s-%d-t%d", *name, *seed, *trace)))
	if err == nil {
		err = os.RemoveAll(dir)
	}
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	awake, awakeIn, err := startAwake()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{spec: spec, seed: *seed, seconds: *seconds, dir: dir}
	var res *result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	_ = awakeIn.Close()
	if werr := awake.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("keeping the CPUs awake: %w", werr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The write-ahead logs are no longer needed; the span file stays.
	wals, _ := filepath.Glob(filepath.Join(dir, "wal*"))
	for _, w := range wals {
		if err := os.RemoveAll(w); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
