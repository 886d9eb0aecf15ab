package cluster

import (
	"testing"
	"time"
)

// TestRouteMetricsCoverage is the cluster half of the route-coverage
// check (internal/server's test of the same name is the other half):
// every route registered on the coordinator must have a route-label
// entry in the metrics set, or its traffic lands silently in the
// {method="other", route="other"} bucket and vanishes from
// per-endpoint dashboards.
func TestRouteMetricsCoverage(t *testing.T) {
	c, err := New(nil, Config{
		Shards:         []ShardSpec{{Name: "a", URL: "http://127.0.0.1:1"}},
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := c.Patterns()
	if len(patterns) == 0 {
		t.Fatal("coordinator registered no routes")
	}
	for _, p := range patterns {
		if !c.HasRouteMetric(p) {
			t.Errorf("route %q has no metrics route-label entry", p)
		}
	}
}
