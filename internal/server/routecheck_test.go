package server

import (
	"testing"

	"github.com/opencsj/csj/internal/durable"
)

// TestRouteMetricsCoverage is the server half of the route-coverage
// check (internal/cluster's test of the same name is the other half):
// every registered route — including the pprof mounts and the
// durability-gated WAL shipping endpoints — must have a route-label
// entry in the metrics set, or its traffic lands silently in the
// {method="other", route="other"} bucket.
func TestRouteMetricsCoverage(t *testing.T) {
	dl, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Maximal surface: pprof on and a durable log wired, so the gated
	// routes are registered too.
	s := NewWithConfig(nil, Config{EnablePprof: true, Durable: dl})
	defer s.Close()
	patterns := s.Patterns()
	if len(patterns) == 0 {
		t.Fatal("server registered no routes")
	}
	for _, p := range patterns {
		if !s.HasRouteMetric(p) {
			t.Errorf("route %q has no metrics route-label entry", p)
		}
	}
}
