// Command csjgen synthesizes community files for experimentation: a
// single community from one of the two dataset generators, or a couple
// (B and A) with a planted similarity.
//
// Usage:
//
//	csjgen -kind vk -size 5000 -category Sport -o sport.csv
//	csjgen -kind synthetic -size 2000 -o syn.bin
//	csjgen -kind vk -couple -size 2000 -sizea 3000 -target 0.25 -o pair.csv
//	    (writes pair_B.csv and pair_A.csv)
//
// The output format follows the file extension: .csv for CSV, anything
// else for the compact binary format.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "csjgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("csjgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kindName = fs.String("kind", "vk", "generator: vk or synthetic")
		size     = fs.Int("size", 1000, "community size (|B| when -couple)")
		sizeA    = fs.Int("sizea", 0, "|A| when -couple (default same as -size)")
		category = fs.String("category", "", "home category name (VK generator)")
		name     = fs.String("name", "", "community name (default derived)")
		couple   = fs.Bool("couple", false, "generate a couple with planted similarity")
		couples  = fs.Bool("couples", false, "materialize all 20 case-study couples into the -o directory")
		scale    = fs.Float64("scale", 0.01, "fraction of paper sizes for -couples")
		minSize  = fs.Int("minsize", 100, "minimum community size for -couples")
		target   = fs.Float64("target", 0.2, "planted similarity for -couple")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("o", "", "output path (required); for -couple a prefix, for -couples a directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("-o is required")
	}
	var kind dataset.Kind
	switch strings.ToLower(*kindName) {
	case "vk":
		kind = dataset.VK
	case "synthetic", "syn":
		kind = dataset.Synthetic
	default:
		return fmt.Errorf("unknown kind %q (want vk or synthetic)", *kindName)
	}
	home := -1
	if *category != "" {
		home = dataset.CategoryIndex(*category)
		if home < 0 {
			return fmt.Errorf("unknown category %q (see Table 1 for names)", *category)
		}
	}
	if *couples {
		m, err := dataset.WriteCoupleSet(*out, kind, *scale, *minSize, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d couples (%s, eps=%d, scale %.3g) to %s\n",
			len(m.Entries), m.Kind, m.Epsilon, m.Scale, *out)
		return nil
	}

	rng := rand.New(rand.NewSource(*seed))
	gen := dataset.NewGenerator(kind, rng, home)

	if !*couple {
		n := *name
		if n == "" {
			n = fmt.Sprintf("%s-%d", kind, *size)
		}
		c := dataset.GenerateCommunity(gen, n, home, *size)
		if err := csj.SaveCommunity(*out, c); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %d users, d=%d\n", *out, c.Size(), c.Dim())
		return nil
	}

	na := *sizeA
	if na == 0 {
		na = *size
	}
	spec := dataset.PairSpec{
		NameB: "B", NameA: "A",
		CatB: home, CatA: home,
		SizeB: *size, SizeA: na,
		Target: *target,
	}
	b, a, err := dataset.BuildPair(spec, gen, gen, kind.Epsilon(), rng)
	if err != nil {
		return err
	}
	prefix, ext := *out, ".csv"
	if i := strings.LastIndex(prefix, "."); i > 0 {
		prefix, ext = prefix[:i], prefix[i:]
	}
	pathB, pathA := prefix+"_B"+ext, prefix+"_A"+ext
	if err := csj.SaveCommunity(pathB, b); err != nil {
		return err
	}
	if err := csj.SaveCommunity(pathA, a); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d users) and %s (%d users); planted similarity %.0f%%, eps=%d\n",
		pathB, b.Size(), pathA, a.Size(), 100**target, kind.Epsilon())
	return nil
}
