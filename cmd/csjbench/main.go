// Command csjbench regenerates the paper's evaluation tables (1-11),
// its figures (1-3), and the ablation studies, on scaled-down
// synthesized data.
//
// Usage:
//
//	csjbench -table 4                 # reproduce Table 4
//	csjbench -all                     # reproduce Tables 1-11
//	csjbench -figure 2                # regenerate a paper figure
//	csjbench -ablation parts          # run one ablation study
//	csjbench -ablation all            # run every ablation study
//	csjbench -table 11 -scale 0.005   # smaller/faster scalability sweep
//	csjbench -batch -workers 1        # batch-join engine at one pool size, JSON
//	csjbench -index                   # envelope-index top-k vs full scan at 1k/10k/100k, JSON
//
// Flags -scale, -minsize, and -seed control the synthesized data;
// -format selects text (default), markdown, or csv output. The -batch
// mode measures the worker-pool SimilarityMatrix engine and the serial
// indexed TopK on N synthesized communities (-communities, -batchsize,
// -workers, -topkk) and emits a JSON report with ns/op and allocs/op;
// `make bench` compares the matrix's pool sizes.
//
// Service latency is measured by perfbench (perfbench/README.md); the
// scan kernels are compared by the Go benchmarks in internal/core
// (soa_bench_test.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"

	"github.com/opencsj/csj/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "csjbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("csjbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.Int("table", 0, "paper table to reproduce (1-11)")
		figure   = fs.Int("figure", 0, "paper figure to regenerate (1-3)")
		all      = fs.Bool("all", false, "reproduce every table (1-11)")
		ablation = fs.String("ablation", "", "ablation study to run (parts, matcher, skipoffset, normalization, threshold, or all)")
		report   = fs.Bool("report", false, "emit the full markdown reproduction report (figures + tables + ablations)")
		scale    = fs.Float64("scale", 0.01, "fraction of the paper's community sizes")
		minSize  = fs.Int("minsize", 100, "minimum scaled community size")
		seed     = fs.Int64("seed", 1, "random seed for data synthesis")
		egoT     = fs.Int("egothreshold", 0, "SuperEGO recursion threshold t (0 = default)")
		format   = fs.String("format", "text", "output format: text, markdown, or csv")
		out      = fs.String("o", "", "output file (default stdout)")
		quiet    = fs.Bool("q", false, "suppress progress lines on stderr")

		batch       = fs.Bool("batch", false, "benchmark the batch-join engine (JSON output)")
		index       = fs.Bool("index", false, "benchmark the envelope-pruning index: indexed vs full top-k over clustered corpora (JSON output)")
		indexScales = fs.String("indexscales", "1000,10000,100000",
			"index mode: comma-separated corpus sizes")
		indexDims = fs.Int("indexdims", 6, "index mode: profile dimensionality")
		indexArch = fs.Int("indexarchetypes", 64, "index mode: number of corpus clusters")
		indexSize = fs.Int("indexsize", 10, "index mode: base community size (users)")
		indexEps  = fs.Int("indexeps", 1500, "index mode: join epsilon (selective for the clustered corpus)")
		nComms    = fs.Int("communities", 12, "batch mode: number of synthesized communities")
		batchSize = fs.Int("batchsize", 400, "batch mode: base community size")
		workers   = fs.Int("workers", 0, "batch mode: parallel worker count (0 = GOMAXPROCS)")
		topkK     = fs.Int("topkk", 3, "batch mode: k of the TopK benchmark")
		metricsOn = fs.Bool("metrics", false, "batch mode: add scan-event counters and per-worker pool utilization to the JSON report")
		pprofOut  = fs.String("pprof", "", "write a CPU profile of the whole run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	cfg := harness.Config{
		Scale:        *scale,
		MinSize:      *minSize,
		Seed:         *seed,
		EGOThreshold: *egoT,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	render := func(t *harness.Table) error {
		var err error
		switch *format {
		case "text":
			err = t.Render(w)
		case "markdown", "md":
			err = t.RenderMarkdown(w)
		case "csv":
			err = t.RenderCSV(w)
		default:
			err = fmt.Errorf("unknown format %q (want text, markdown, or csv)", *format)
		}
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w)
		return err
	}

	switch {
	case *index:
		scales, err := parseScales(*indexScales)
		if err != nil {
			return err
		}
		return runIndex(w, indexConfig{
			Scales:     scales,
			K:          *topkK,
			Dims:       *indexDims,
			Archetypes: *indexArch,
			Size:       *indexSize,
			Epsilon:    int32(*indexEps),
			Seed:       *seed,
		})
	case *batch:
		return runBatch(w, batchConfig{
			Communities: *nComms,
			Size:        *batchSize,
			Workers:     *workers,
			K:           *topkK,
			Seed:        *seed,
			Metrics:     *metricsOn,
		})
	case *report:
		return harness.WriteReport(w, cfg)
	case *figure != 0:
		return harness.RenderFigure(*figure, w)
	case *ablation != "":
		names := []string{*ablation}
		if *ablation == "all" {
			names = names[:0]
			for name := range harness.Ablations {
				names = append(names, name)
			}
			sort.Strings(names)
		}
		for _, name := range names {
			runAblation, ok := harness.Ablations[name]
			if !ok {
				return fmt.Errorf("unknown ablation %q (want parts, matcher, skipoffset, normalization, threshold, or all)", name)
			}
			t, err := runAblation(cfg)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
		}
		return nil
	case *all:
		for n := 1; n <= 11; n++ {
			t, err := harness.RunTable(n, cfg)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
		}
		return nil
	case *table != 0:
		t, err := harness.RunTable(*table, cfg)
		if err != nil {
			return err
		}
		return render(t)
	default:
		fs.Usage()
		return fmt.Errorf("one of -table, -figure, -all, or -ablation is required")
	}
}
