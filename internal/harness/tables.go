package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/dataset"
)

// RunTable1 reproduces Table 1: the per-category ranking by total
// likes, for a generated population sample of each dataset. The VK-like
// sample reproduces the paper's skewed ranking; the Synthetic sample is
// nearly flat, as in the paper.
func RunTable1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sample := int(7800000 * cfg.Scale)
	if sample < 1000 {
		sample = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	totalsFor := func(kind dataset.Kind) ([]int, []int64) {
		gen := dataset.NewGenerator(kind, rng, -1)
		totals := make([]int64, dataset.Dim)
		for i := 0; i < sample; i++ {
			for j, v := range gen.User() {
				totals[j] += int64(v)
			}
		}
		order := make([]int, dataset.Dim)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return totals[order[x]] > totals[order[y]] })
		return order, totals
	}
	vkOrder, vkTotals := totalsFor(dataset.VK)
	synOrder, synTotals := totalsFor(dataset.Synthetic)

	t := &Table{
		Number: 1,
		Title: fmt.Sprintf("Ranking per category by total_likes (descending) for generated "+
			"VK-like and Synthetic samples of %d users each", sample),
		Columns: []string{"rank", "VK category", "total_likes", "paper_rank",
			"Synthetic category", "total_likes"},
	}
	for r := 0; r < dataset.Dim; r++ {
		vk, syn := vkOrder[r], synOrder[r]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r+1),
			dataset.Categories[vk],
			fmt.Sprintf("%d", vkTotals[vk]),
			fmt.Sprintf("%d", vk+1), // the paper's VK rank is the category index + 1
			dataset.Categories[syn],
			fmt.Sprintf("%d", synTotals[syn]),
		})
	}
	return t, nil
}

// RunTable2 reproduces Table 2: the names and VK page ids of the 20
// compared community pairs.
func RunTable2() *Table {
	t := &Table{
		Number:  2,
		Title:   "The names and VK-ids of compared community pairs (https://vk.com/public<ID>)",
		Columns: []string{"cID", "name_B", "id_B", "name_A", "id_A"},
	}
	for i := range dataset.Couples {
		c := &dataset.Couples[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.CID),
			c.NameB, fmt.Sprintf("%d", c.IDB),
			c.NameA, fmt.Sprintf("%d", c.IDA),
		})
	}
	return t
}

// ScalabilityPoint is one measured cell of Table 11.
type ScalabilityPoint struct {
	Category string
	Size     int
	Result   *csj.Result
}

// RunTable11 reproduces Table 11: Ex-MinMax scalability on the VK-like
// dataset — for each of 20 categories, four couples of increasing
// average size.
func RunTable11(cfg Config) (*Table, []ScalabilityPoint, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Number: 11,
		Title: fmt.Sprintf("Scalability results for Exact MinMax on VK-like data "+
			"(scale %.3g of paper sizes; planted similarity %.0f%%)",
			cfg.Scale, 100*cfg.ScalabilityTarget),
		Columns: []string{"Category",
			"size_1", "Ex-MinMax", "size_2", "Ex-MinMax",
			"size_3", "Ex-MinMax", "size_4", "Ex-MinMax"},
	}
	var points []ScalabilityPoint
	for ri := range dataset.ScalabilityRows {
		r := &dataset.ScalabilityRows[ri]
		catIdx := dataset.CategoryIndex(r.Category)
		row := []string{r.Category}
		for si, paperSize := range r.Sizes {
			size := int(float64(paperSize) * cfg.Scale)
			if size < cfg.MinSize {
				size = cfg.MinSize
			}
			rng := rand.New(rand.NewSource(cfg.Seed*10000 + int64(ri*4+si)))
			gen := dataset.NewGenerator(dataset.VK, rng, catIdx)
			spec := dataset.PairSpec{
				CID:   0,
				NameB: r.Category + "_B", NameA: r.Category + "_A",
				CatB: catIdx, CatA: catIdx,
				SizeB: size, SizeA: size,
				Target: cfg.ScalabilityTarget,
			}
			b, a, err := dataset.BuildPair(spec, gen, gen, dataset.EpsilonVK, rng)
			if err != nil {
				return nil, nil, err
			}
			res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax,
				&csj.Options{Epsilon: dataset.EpsilonVK})
			if err != nil {
				return nil, nil, err
			}
			points = append(points, ScalabilityPoint{Category: r.Category, Size: size, Result: res})
			row = append(row, fmt.Sprintf("%d", size), fmtDur(res.Elapsed))
			cfg.progress("table 11: %s size %d done (%s)", r.Category, size, fmtDur(res.Elapsed))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, points, nil
}

// RunTable runs the reproduction of the given paper table (1-11).
func RunTable(n int, cfg Config) (*Table, error) {
	switch n {
	case 1:
		return RunTable1(cfg)
	case 2:
		return RunTable2(), nil
	case 3, 4, 5, 6, 7, 8, 9, 10:
		kind := dataset.VK
		if n >= 7 {
			kind = dataset.Synthetic
		}
		same := n == 5 || n == 6 || n == 9 || n == 10
		exact := n%2 == 0
		t, _, err := RunCaseStudy(kind, same, exact, cfg)
		return t, err
	case 11:
		t, _, err := RunTable11(cfg)
		return t, err
	default:
		return nil, fmt.Errorf("harness: no table %d in the paper (want 1-11)", n)
	}
}
