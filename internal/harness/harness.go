package harness

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/dataset"
)

// Config controls the scaled-down reproduction runs.
type Config struct {
	// Scale multiplies the paper's community sizes (default 0.01: the
	// paper's ~150k-subscriber communities become ~1.5k). The shape of
	// the results is preserved; absolute times shrink accordingly.
	Scale float64
	// MinSize floors the scaled community sizes (default 100).
	MinSize int
	// Seed drives all data generation (default 1).
	Seed int64
	// EGOThreshold overrides SuperEGO's t (0 = default).
	EGOThreshold int
	// ScalabilityTarget is the planted similarity of Table 11's couples
	// (default 0.20, matching the paper's typical similarity levels).
	ScalabilityTarget float64
	// Progress, when non-nil, receives a line per completed experiment
	// unit (couple or size point).
	Progress func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.MinSize <= 0 {
		c.MinSize = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ScalabilityTarget <= 0 {
		c.ScalabilityTarget = 0.20
	}
	return c
}

func (c *Config) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// CoupleResult holds the raw per-method results for one synthesized
// couple, for programmatic consumers (tests, benches, EXPERIMENTS.md
// tooling).
type CoupleResult struct {
	CID          int
	Label        string
	SizeB, SizeA int
	Paper        dataset.PaperSimilarities
	Results      map[csj.Method]*csj.Result
}

// methodPaper returns the paper's similarity percentage for the method.
func methodPaper(p dataset.PaperSimilarities, m csj.Method) float64 {
	switch m {
	case csj.ApBaseline:
		return p.ApBaseline
	case csj.ApMinMax:
		return p.ApMinMax
	case csj.ApSuperEGO:
		return p.ApSuperEGO
	case csj.ExBaseline:
		return p.ExBaseline
	case csj.ExMinMax:
		return p.ExMinMax
	default:
		return p.ExSuperEGO
	}
}

// caseStudyTableNumber maps (dataset, same-category, exact) to the
// paper's table number (Tables 3-10).
func caseStudyTableNumber(kind dataset.Kind, same, exact bool) int {
	n := 3
	if kind == dataset.Synthetic {
		n += 4
	}
	if same {
		n += 2
	}
	if exact {
		n++
	}
	return n
}

// BuildCouple synthesizes one case-study couple at the configured
// scale and returns the generated pair.
func BuildCouple(c *dataset.Couple, kind dataset.Kind, cfg Config) (*csj.Community, *csj.Community, error) {
	cfg = cfg.withDefaults()
	spec := c.Spec(kind).Scaled(cfg.Scale, cfg.MinSize)
	rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(c.CID)))
	genB := dataset.NewGenerator(kind, rng, spec.CatB)
	genA := dataset.NewGenerator(kind, rng, spec.CatA)
	return dataset.BuildPair(spec, genB, genA, kind.Epsilon(), rng)
}

// RunCaseStudy reproduces one of Tables 3-10: the given dataset and
// category regime, either the three approximate or the three exact
// methods, over the 10 couples of the case study.
func RunCaseStudy(kind dataset.Kind, same, exact bool, cfg Config) (*Table, []CoupleResult, error) {
	cfg = cfg.withDefaults()
	couples := dataset.DifferentCategoryCouples()
	floor := 15
	if same {
		couples = dataset.SameCategoryCouples()
		floor = 30
	}
	methods := csj.ApproximateMethods
	kindWord := "Approximate"
	if exact {
		methods = csj.ExactMethods
		kindWord = "Exact"
	}

	table := &Table{
		Number: caseStudyTableNumber(kind, same, exact),
		Title: fmt.Sprintf("%s methods on %s dataset for eps=%d and %s categories where similarity >= %d%% "+
			"(scale %.3g of paper sizes; cells: measured%% / paper%% (time))",
			kindWord, kind, kind.Epsilon(), regime(same), floor, cfg.Scale),
		Columns: []string{"cID", "Categories (B | A)"},
	}
	for _, m := range methods {
		table.Columns = append(table.Columns, m.String())
	}
	table.Columns = append(table.Columns, "size_B | size_A")

	var results []CoupleResult
	for i := range couples {
		c := &couples[i]
		b, a, err := BuildCouple(c, kind, cfg)
		if err != nil {
			return nil, nil, err
		}
		label := fmt.Sprintf("%s | %s", dataset.Categories[c.CatB], dataset.Categories[c.CatA])
		cr := CoupleResult{
			CID: c.CID, Label: label,
			SizeB: b.Size(), SizeA: a.Size(),
			Paper:   paperFor(c, kind),
			Results: map[csj.Method]*csj.Result{},
		}
		row := []string{fmt.Sprintf("%d", c.CID), label}
		for _, m := range methods {
			res, err := csj.Similarity(context.Background(), b, a, m, &csj.Options{
				Epsilon:      kind.Epsilon(),
				EGOThreshold: cfg.EGOThreshold,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("harness: couple %d method %v: %w", c.CID, m, err)
			}
			cr.Results[m] = res
			row = append(row, fmt.Sprintf("%.2f%% / %.2f%% (%s)",
				100*res.Similarity, methodPaper(cr.Paper, m), fmtDur(res.Elapsed)))
		}
		row = append(row, fmt.Sprintf("%d | %d", b.Size(), a.Size()))
		table.Rows = append(table.Rows, row)
		results = append(results, cr)
		cfg.progress("table %d: couple %d done", table.Number, c.CID)
	}
	return table, results, nil
}

func paperFor(c *dataset.Couple, kind dataset.Kind) dataset.PaperSimilarities {
	if kind == dataset.VK {
		return c.VK
	}
	return c.Synthetic
}

func regime(same bool) string {
	if same {
		return "same"
	}
	return "different"
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
