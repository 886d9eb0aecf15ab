//go:build !race

// The metrics-overhead guard (run by `make check`'s plain pass): the
// prepared MinMax hot path, Ap and Ex, must stay 0 allocs/op with metrics
// collection enabled. The scan loops tally into core.Events in-loop (plain integer
// adds); the metrics layer aggregates those tallies once per join via
// ScanEventCounters.Observe, which is map lookups plus atomic adds.
// This test runs the full instrumented sequence — scratch'd prepared
// join, then Observe — under testing.AllocsPerRun and fails on any
// allocation. It is skipped under -race because the detector's
// instrumentation inflates allocation counts (same convention as
// internal/core's race_off/race_on files).

package metrics

import (
	"math/rand"
	"testing"

	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/vector"
)

func preparedPair(tb testing.TB, eps int32) (*core.Prepared, *core.Prepared) {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	mk := func(n, d int) *vector.Community {
		users := make([]vector.Vector, n)
		for i := range users {
			u := make(vector.Vector, d)
			for j := range u {
				u[j] = int32(rng.Intn(40))
			}
			users[i] = u
		}
		return &vector.Community{Name: "g", Category: -1, Users: users}
	}
	opts := core.Options{Eps: eps}
	pb, err := core.Prepare(mk(96, 8), opts)
	if err != nil {
		tb.Fatal(err)
	}
	pa, err := core.Prepare(mk(128, 8), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return pb, pa
}

func TestInstrumentedPreparedZeroAllocs(t *testing.T) {
	// The Ex leg runs at a wider epsilon than the Ap leg: at eps 2 this
	// pair has no match, so an Ex join would never reach CSF.
	for _, leg := range []struct {
		name string
		eps  int32
		run  func(b, a *core.Prepared, opts core.Options, s *core.Scratch, res *core.Result) error
	}{
		{"Ap", 2, core.ApMinMaxPreparedInto},
		{"Ex", 16, core.ExMinMaxPreparedInto},
	} {
		pb, pa := preparedPair(t, leg.eps)
		reg := NewRegistry()
		sc := NewScanEventCounters(reg, "csj_scan_events_total", "scan events")
		opts := core.Options{Eps: leg.eps}
		scratch := core.NewScratch()
		var res core.Result

		// Warm the scratch so buffer growth is excluded (steady state).
		if err := leg.run(pb, pa, opts, scratch, &res); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := leg.run(pb, pa, opts, scratch, &res); err != nil {
				panic(err)
			}
			sc.Observe(&res.Events)
		})
		if allocs != 0 {
			t.Errorf("instrumented prepared %s path allocates %.1f allocs/op, want 0", leg.name, allocs)
		}
		if res.Events.Comparisons() == 0 {
			t.Fatalf("%s: guard join performed no comparisons; test data is degenerate", leg.name)
		}
		if sc.Counter("match").Value() == 0 && sc.Counter("no_match").Value() == 0 {
			t.Errorf("%s: metrics observed no comparison events; Observe is not wired", leg.name)
		}
		if leg.name == "Ex" && sc.Counter("csf_flush").Value() == 0 {
			t.Fatalf("%s: guard join made no CSF flush; the matcher is not measured", leg.name)
		}
	}
}

// BenchmarkInstrumentedPreparedAp keeps an allocation-reporting
// benchmark alongside the hard guard, so `make bench` surfaces any
// regression's magnitude, not just its existence.
func BenchmarkInstrumentedPreparedAp(b *testing.B) {
	pb, pa := preparedPair(b, 2)
	reg := NewRegistry()
	sc := NewScanEventCounters(reg, "csj_scan_events_total", "scan events")
	opts := core.Options{Eps: 2}
	scratch := core.NewScratch()
	var res core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.ApMinMaxPreparedInto(pb, pa, opts, scratch, &res); err != nil {
			b.Fatal(err)
		}
		sc.Observe(&res.Events)
	}
}
