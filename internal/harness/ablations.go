package harness

import (
	"context"
	"fmt"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/dataset"
)

// ablationCouple picks a representative mid-size couple (cID 1,
// Restaurants | Food_recipes on the VK-like dataset) for the ablation
// studies.
func ablationCouple(cfg Config) (*csj.Community, *csj.Community, error) {
	return BuildCouple(dataset.CoupleByID(1), dataset.VK, cfg)
}

// RunAblationParts reproduces the paper's Section 4 design argument:
// fewer encoding parts prune less (more d-dimensional comparisons),
// more parts cost more memory per entry. The table reports similarity,
// time, and comparison counts for part counts 1-8.
func RunAblationParts(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	b, a, err := ablationCouple(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Ablation: MinMax encoding part count (Ex-MinMax, VK-like couple 1, scale %.3g)", cfg.Scale),
		Columns: []string{"parts", "similarity", "time",
			"d-dim comparisons", "no-overlap rejects", "min prunes", "max prunes"},
	}
	for _, parts := range []int{1, 2, 3, 4, 6, 8} {
		res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax,
			&csj.Options{Epsilon: dataset.EpsilonVK, Parts: parts})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", parts),
			fmt.Sprintf("%.2f%%", 100*res.Similarity),
			fmtDur(res.Elapsed),
			fmt.Sprintf("%d", res.Events.Comparisons()),
			fmt.Sprintf("%d", res.Events.NoOverlaps),
			fmt.Sprintf("%d", res.Events.MinPrunes),
			fmt.Sprintf("%d", res.Events.MaxPrunes),
		})
		cfg.progress("ablation parts=%d done", parts)
	}
	return t, nil
}

// RunAblationMatcher compares the paper's CSF heuristic against the
// optimal Hopcroft–Karp matcher on the exact methods: matching quality
// (pairs found) and cost.
func RunAblationMatcher(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	b, a, err := ablationCouple(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: CSF vs Hopcroft-Karp matcher (VK-like couple 1, scale %.3g)", cfg.Scale),
		Columns: []string{"method", "matcher", "pairs", "similarity", "time"},
	}
	for _, m := range []csj.Method{csj.ExBaseline, csj.ExMinMax, csj.ExSuperEGO} {
		for _, mk := range []csj.MatcherKind{csj.MatcherCSF, csj.MatcherHopcroftKarp, csj.MatcherGreedy} {
			res, err := csj.Similarity(context.Background(), b, a, m,
				&csj.Options{Epsilon: dataset.EpsilonVK, Matcher: mk})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				m.String(), mk.String(),
				fmt.Sprintf("%d", len(res.Pairs)),
				fmt.Sprintf("%.2f%%", 100*res.Similarity),
				fmtDur(res.Elapsed),
			})
		}
		cfg.progress("ablation matcher %v done", m)
	}
	return t, nil
}

// RunAblationSkipOffset measures the skip/offset fast-forwarding of the
// Baseline and MinMax scans.
func RunAblationSkipOffset(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	b, a, err := ablationCouple(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: skip/offset fast-forwarding (VK-like couple 1, scale %.3g)", cfg.Scale),
		Columns: []string{"method", "skip/offset", "similarity", "time", "offset advances"},
	}
	for _, m := range []csj.Method{csj.ApBaseline, csj.ApMinMax, csj.ExMinMax} {
		for _, disabled := range []bool{false, true} {
			res, err := csj.Similarity(context.Background(), b, a, m,
				&csj.Options{Epsilon: dataset.EpsilonVK, DisableSkipOffset: disabled})
			if err != nil {
				return nil, err
			}
			state := "on"
			if disabled {
				state = "off"
			}
			t.Rows = append(t.Rows, []string{
				m.String(), state,
				fmt.Sprintf("%.2f%%", 100*res.Similarity),
				fmtDur(res.Elapsed),
				fmt.Sprintf("%d", res.Events.OffsetAdvances),
			})
		}
		cfg.progress("ablation skip/offset %v done", m)
	}
	return t, nil
}

// RunAblationNormalization quantifies SuperEGO's normalized-conversion
// accuracy loss: float32 (the paper's setup), float64, and the
// integer-verified variant, on both datasets.
func RunAblationNormalization(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   fmt.Sprintf("Ablation: SuperEGO normalization precision (Ex-SuperEGO, couple 1, scale %.3g)", cfg.Scale),
		Columns: []string{"dataset", "normalization", "similarity", "match events", "time"},
	}
	for _, kind := range []dataset.Kind{dataset.VK, dataset.Synthetic} {
		b, a, err := BuildCouple(dataset.CoupleByID(1), kind, cfg)
		if err != nil {
			return nil, err
		}
		variants := []struct {
			name string
			opts csj.Options
		}{
			{"float32 (paper)", csj.Options{Epsilon: kind.Epsilon()}},
			{"float64", csj.Options{Epsilon: kind.Epsilon(), Float64Normalization: true}},
			{"integer-verified", csj.Options{Epsilon: kind.Epsilon(), VerifyInteger: true}},
		}
		for _, v := range variants {
			res, err := csj.Similarity(context.Background(), b, a, csj.ExSuperEGO, &v.opts)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				kind.String(), v.name,
				fmt.Sprintf("%.2f%%", 100*res.Similarity),
				fmt.Sprintf("%d", res.Events.Matches),
				fmtDur(res.Elapsed),
			})
		}
		cfg.progress("ablation normalization %v done", kind)
	}
	return t, nil
}

// RunAblationEGOThreshold sweeps SuperEGO's recursion threshold t.
func RunAblationEGOThreshold(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	b, a, err := ablationCouple(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: SuperEGO recursion threshold t (Ex-SuperEGO, VK-like couple 1, scale %.3g)", cfg.Scale),
		Columns: []string{"t", "similarity", "time", "EGO prunes", "d-dim comparisons"},
	}
	for _, tv := range []int{4, 16, 64, 256, 1024} {
		res, err := csj.Similarity(context.Background(), b, a, csj.ExSuperEGO,
			&csj.Options{Epsilon: dataset.EpsilonVK, EGOThreshold: tv})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", tv),
			fmt.Sprintf("%.2f%%", 100*res.Similarity),
			fmtDur(res.Elapsed),
			fmt.Sprintf("%d", res.Events.EGOPrunes),
			fmt.Sprintf("%d", res.Events.Comparisons()),
		})
		cfg.progress("ablation t=%d done", tv)
	}
	return t, nil
}

// Ablations maps ablation names to their runners (for cmd/csjbench).
var Ablations = map[string]func(Config) (*Table, error){
	"parts":         RunAblationParts,
	"matcher":       RunAblationMatcher,
	"skipoffset":    RunAblationSkipOffset,
	"normalization": RunAblationNormalization,
	"threshold":     RunAblationEGOThreshold,
}
