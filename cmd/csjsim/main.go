// Command csjsim computes the CSJ similarity of two community files.
//
// Usage:
//
//	csjsim -eps 1 b.csv a.csv                     # Ex-MinMax (default)
//	csjsim -eps 1 -method ap-superego b.csv a.csv
//	csjsim -eps 1 -method all -v b.csv a.csv      # all six methods
//
// The first file should be the less-followed community B; pass -orient
// to let the tool order the pair automatically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	csj "github.com/opencsj/csj"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "csjsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("csjsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		methodName = fs.String("method", "ex-minmax", "method name (e.g. ex-minmax, ap-baseline) or all")
		eps        = fs.Int("eps", 1, "per-dimension absolute-difference threshold")
		parts      = fs.Int("parts", 0, "MinMax encoding parts (0 = default 4)")
		egoT       = fs.Int("egothreshold", 0, "SuperEGO recursion threshold t (0 = default)")
		hk         = fs.Bool("hk", false, "use Hopcroft-Karp instead of CSF in exact methods")
		orient     = fs.Bool("orient", false, "order the pair automatically (smaller community becomes B)")
		force      = fs.Bool("force", false, "skip the ceil(|A|/2) <= |B| <= |A| precondition")
		verbose    = fs.Bool("v", false, "print event statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("want exactly two community files, got %d", fs.NArg())
	}

	b, err := csj.LoadCommunity(fs.Arg(0))
	if err != nil {
		return err
	}
	a, err := csj.LoadCommunity(fs.Arg(1))
	if err != nil {
		return err
	}
	if *orient {
		b, a = csj.Orient(b, a)
	}
	fmt.Fprintf(stdout, "B: %-30s %8d users, d=%d\n", name(b), b.Size(), b.Dim())
	fmt.Fprintf(stdout, "A: %-30s %8d users, d=%d\n", name(a), a.Size(), a.Dim())

	var methods []csj.Method
	if strings.EqualFold(*methodName, "all") {
		methods = csj.Methods
	} else {
		m, err := csj.ParseMethod(*methodName)
		if err != nil {
			return err
		}
		methods = []csj.Method{m}
	}

	opts := &csj.Options{
		Epsilon:            int32(*eps),
		Parts:              *parts,
		EGOThreshold:       *egoT,
		AllowSizeImbalance: *force,
	}
	if *hk {
		opts.Matcher = csj.MatcherHopcroftKarp
	}

	for _, m := range methods {
		res, err := csj.Similarity(context.Background(), b, a, m, opts)
		if err != nil {
			return fmt.Errorf("%v: %w", m, err)
		}
		fmt.Fprintf(stdout, "%-12s similarity = %6.2f%%  (%d pairs, %v)\n",
			m, 100*res.Similarity, len(res.Pairs), res.Elapsed)
		if *verbose {
			e := res.Events
			fmt.Fprintf(stdout, "             events: %d min-prunes, %d max-prunes, %d no-overlaps, "+
				"%d comparisons (%d matches), %d CSF calls, %d EGO prunes\n",
				e.MinPrunes, e.MaxPrunes, e.NoOverlaps, e.Comparisons(), e.Matches,
				e.CSFCalls, e.EGOPrunes)
		}
	}
	return nil
}

func name(c *csj.Community) string {
	if c.Name == "" {
		return "(unnamed)"
	}
	return c.Name
}
