package csj_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	csj "github.com/opencsj/csj"
)

// section3B and section3A are the paper's Section 3 worked example.
func section3() (*csj.Community, *csj.Community) {
	b := &csj.Community{Name: "B", Category: -1, Users: []csj.Vector{
		{3, 4, 2}, {2, 2, 3},
	}}
	a := &csj.Community{Name: "A", Category: -1, Users: []csj.Vector{
		{2, 3, 5}, {2, 3, 1}, {3, 3, 3},
	}}
	return b, a
}

func randComm(rng *rand.Rand, name string, n, d int, maxVal int32) *csj.Community {
	users := make([]csj.Vector, n)
	for i := range users {
		u := make(csj.Vector, d)
		for j := range u {
			u[j] = rng.Int31n(maxVal + 1)
		}
		users[i] = u
	}
	return &csj.Community{Name: name, Category: -1, Users: users}
}

func TestAllMethodsOnSection3Example(t *testing.T) {
	b, a := section3()
	for _, m := range csj.Methods {
		opts := &csj.Options{Epsilon: 1}
		if m == csj.ApSuperEGO || m == csj.ExSuperEGO {
			// Tiny integer domain: make SuperEGO authoritative so the
			// worked example is deterministic.
			opts.VerifyInteger = true
		}
		res, err := csj.Similarity(context.Background(), b, a, m, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Method != m || res.SizeB != 2 || res.SizeA != 3 {
			t.Errorf("%v: result metadata wrong: %+v", m, res)
		}
		if m.IsExact() && res.Similarity != 1.0 {
			t.Errorf("%v: similarity = %.2f, want 1.00", m, res.Similarity)
		}
		if !m.IsExact() && (res.Similarity < 0.5 || res.Similarity > 1.0) {
			t.Errorf("%v: similarity = %.2f, want within [0.50, 1.00]", m, res.Similarity)
		}
		if res.Elapsed < 0 {
			t.Errorf("%v: negative elapsed time", m)
		}
	}
}

func TestSizePrecondition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := randComm(rng, "B", 4, 3, 10)
	a := randComm(rng, "A", 10, 3, 10)
	if _, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1}); !errors.Is(err, csj.ErrSizeConstraint) {
		t.Fatalf("expected ErrSizeConstraint, got %v", err)
	}
	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1, AllowSizeImbalance: true})
	if err != nil {
		t.Fatalf("AllowSizeImbalance should bypass the check: %v", err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	// Swapped order (B larger than A) must also fail.
	if _, err := csj.Similarity(context.Background(), a, b, csj.ExMinMax, &csj.Options{Epsilon: 1}); !errors.Is(err, csj.ErrSizeConstraint) {
		t.Fatalf("expected ErrSizeConstraint for |B| > |A|, got %v", err)
	}
}

func TestOrient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small := randComm(rng, "small", 5, 2, 5)
	big := randComm(rng, "big", 9, 2, 5)
	b, a := csj.Orient(big, small)
	if b != small || a != big {
		t.Error("Orient should put the smaller community first")
	}
	b, a = csj.Orient(small, big)
	if b != small || a != big {
		t.Error("Orient should keep an already ordered pair")
	}
}

func TestMethodParsingAndNames(t *testing.T) {
	for _, m := range csj.Methods {
		got, err := csj.ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	for in, want := range map[string]csj.Method{
		"exminmax":    csj.ExMinMax,
		"EX-MINMAX":   csj.ExMinMax,
		"ap_baseline": csj.ApBaseline,
		"Ap-SuperEGO": csj.ApSuperEGO,
	} {
		got, err := csj.ParseMethod(in)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := csj.ParseMethod("nonsense"); !errors.Is(err, csj.ErrUnknownMethod) {
		t.Error("expected ErrUnknownMethod")
	}
	if csj.ApMinMax.IsExact() || !csj.ExSuperEGO.IsExact() {
		t.Error("IsExact misclassifies methods")
	}
	if len(csj.ApproximateMethods) != 3 || len(csj.ExactMethods) != 3 || len(csj.Methods) != 6 {
		t.Error("method lists have wrong sizes")
	}
}

func TestApproximateDiscountFactorP(t *testing.T) {
	b, a := section3()
	res, err := csj.Similarity(context.Background(), b, a, csj.ApMinMax, &csj.Options{Epsilon: 1, P: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	undiscounted := float64(len(res.Pairs)) / float64(b.Size())
	if want := 0.8 * undiscounted; res.Similarity != want {
		t.Errorf("similarity = %v, want %v (p=0.8)", res.Similarity, want)
	}
	// P must not discount exact methods.
	ex, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1, P: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Similarity != 1.0 {
		t.Errorf("exact similarity = %v, want 1.0 regardless of P", ex.Similarity)
	}
}

func TestAllMethodsAgreeWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		na := 40 + rng.Intn(40)
		nb := (na+1)/2 + rng.Intn(na-(na+1)/2+1)
		b := randComm(rng, "B", nb, 6, 8)
		a := randComm(rng, "A", na, 6, 8)
		opt, err := csj.Similarity(context.Background(), b, a, csj.ExBaseline, &csj.Options{
			Epsilon: 1, Matcher: csj.MatcherHopcroftKarp,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range csj.Methods {
			res, err := csj.Similarity(context.Background(), b, a, m, &csj.Options{Epsilon: 1, VerifyInteger: true})
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if res.Similarity > opt.Similarity+1e-12 {
				t.Errorf("%v similarity %.4f exceeds optimum %.4f", m, res.Similarity, opt.Similarity)
			}
			// Every reported pair must satisfy the epsilon condition.
			for _, p := range res.Pairs {
				for j := range b.Users[p.B] {
					d := b.Users[p.B][j] - a.Users[p.A][j]
					if d < 0 {
						d = -d
					}
					if d > 1 {
						t.Fatalf("%v produced an invalid pair %v", m, p)
					}
				}
			}
			// Exact methods with the optimal matcher equal the optimum.
			if m.IsExact() {
				hk, err := csj.Similarity(context.Background(), b, a, m, &csj.Options{
					Epsilon: 1, Matcher: csj.MatcherHopcroftKarp, VerifyInteger: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if hk.Similarity != opt.Similarity {
					t.Errorf("%v(HK) similarity %.4f != optimum %.4f", m, hk.Similarity, opt.Similarity)
				}
			}
		}
	}
}

func TestValidationErrorsSurface(t *testing.T) {
	good := &csj.Community{Name: "g", Users: []csj.Vector{{1, 2}, {3, 4}}}
	if _, err := csj.Similarity(context.Background(), &csj.Community{Name: "e"}, good, csj.ExMinMax, nil); !errors.Is(err, csj.ErrEmptyCommunity) {
		t.Errorf("expected ErrEmptyCommunity, got %v", err)
	}
	badDim := &csj.Community{Name: "d", Users: []csj.Vector{{1, 2}, {1, 2, 3}}}
	if _, err := csj.Similarity(context.Background(), badDim, good, csj.ExMinMax, nil); !errors.Is(err, csj.ErrDimensionMismatch) {
		t.Errorf("expected ErrDimensionMismatch, got %v", err)
	}
	if _, err := csj.Similarity(context.Background(), good, good, csj.Method(99), nil); !errors.Is(err, csj.ErrUnknownMethod) {
		t.Errorf("expected ErrUnknownMethod, got %v", err)
	}
}

func TestNilOptionsDefaults(t *testing.T) {
	b := &csj.Community{Name: "B", Users: []csj.Vector{{1, 2}}}
	a := &csj.Community{Name: "A", Users: []csj.Vector{{1, 2}}}
	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Epsilon defaults to 0: identical vectors still match.
	if res.Similarity != 1.0 {
		t.Errorf("similarity = %v, want 1.0", res.Similarity)
	}
}

func TestRankBroadcastScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Build a pivot and three candidates with decreasing overlap: the
	// first candidate is a light perturbation of the pivot, the second a
	// heavier one, the third unrelated.
	pivot := randComm(rng, "Nike", 50, 5, 6)
	perturbed := func(name string, noise int32, n int) *csj.Community {
		users := make([]csj.Vector, n)
		for i := range users {
			src := pivot.Users[i%pivot.Size()]
			u := make(csj.Vector, len(src))
			for j := range u {
				v := src[j] + rng.Int31n(2*noise+1) - noise
				if v < 0 {
					v = 0
				}
				u[j] = v
			}
			users[i] = u
		}
		return &csj.Community{Name: name, Users: users}
	}
	adidas := perturbed("Adidas", 1, 55)
	puma := perturbed("Puma", 4, 60)
	reebok := randComm(rng, "Reebok", 58, 5, 100)

	ranked, err := csj.Rank(context.Background(), pivot, []*csj.Community{reebok, puma, adidas}, csj.ExMinMax, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("got %d entries, want 3", len(ranked))
	}
	if ranked[0].Name != "Adidas" {
		t.Errorf("top candidate = %s, want Adidas (ranking: %v, %v, %v)",
			ranked[0].Name, ranked[0].Name, ranked[1].Name, ranked[2].Name)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Result != nil && ranked[i].Result != nil &&
			ranked[i-1].Result.Similarity < ranked[i].Result.Similarity {
			t.Error("ranking not descending")
		}
	}
}

func TestRankSkipsImbalancedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pivot := randComm(rng, "pivot", 100, 3, 5)
	tiny := randComm(rng, "tiny", 5, 3, 5)
	ok := randComm(rng, "ok", 90, 3, 5)
	ranked, err := csj.Rank(context.Background(), pivot, []*csj.Community{tiny, ok}, csj.ApMinMax, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	var tinySkipped, okScored bool
	for _, r := range ranked {
		if r.Name == "tiny" && r.Skipped {
			tinySkipped = true
		}
		if r.Name == "ok" && r.Result != nil {
			okScored = true
		}
	}
	if !tinySkipped || !okScored {
		t.Errorf("ranked = %+v; want tiny skipped and ok scored", ranked)
	}
	// Skipped entries sort last.
	if ranked[len(ranked)-1].Name != "tiny" {
		t.Error("skipped entry should sort last")
	}
	if _, err := csj.Rank(context.Background(), nil, nil, csj.ApMinMax, nil); err == nil {
		t.Error("expected error for empty Rank input")
	}
}

func TestCommunityFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := randComm(rng, "Quick Recipes", 30, 27, 100)
	c.Category = 22
	dir := t.TempDir()
	for _, name := range []string{"c.csv", "c.bin"} {
		path := filepath.Join(dir, name)
		if err := csj.SaveCommunity(path, c); err != nil {
			t.Fatalf("SaveCommunity(%s): %v", name, err)
		}
		got, err := csj.LoadCommunity(path)
		if err != nil {
			t.Fatalf("LoadCommunity(%s): %v", name, err)
		}
		if got.Name != c.Name || got.Category != c.Category || got.Size() != c.Size() || got.Dim() != c.Dim() {
			t.Fatalf("%s: metadata mismatch: %+v", name, got)
		}
		for i := range c.Users {
			for j := range c.Users[i] {
				if got.Users[i][j] != c.Users[i][j] {
					t.Fatalf("%s: user %d dim %d mismatch", name, i, j)
				}
			}
		}
	}
	if _, err := csj.LoadCommunity(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestEventsSurfaceInResults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := randComm(rng, "B", 60, 5, 10)
	a := randComm(rng, "A", 80, 5, 10)
	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Events
	if ev.Comparisons() == 0 && ev.NoOverlaps == 0 && ev.MinPrunes == 0 {
		t.Error("expected some events to be recorded")
	}
	if int64(len(res.Pairs)) > ev.Matches {
		t.Error("more pairs than match events")
	}
	ego, err := csj.Similarity(context.Background(), b, a, csj.ExSuperEGO, &csj.Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ego.Events.EGOPrunes < 0 {
		t.Error("negative EGO prunes")
	}
}
