package metrics

import "time"

// Per-route HTTP instrumentation of the system's HTTP surface
// (internal/server.Surface, which the node and the cluster coordinator
// share): one latency histogram and one requests-completed counter per
// status class, labeled {method, route}. Centralizing the pattern keeps the exposition identical across
// processes and lets the route-coverage check (TestRouteMetricsCoverage)
// verify that every registered handler has a label entry — a route
// without one would silently land in the "other" bucket and vanish
// from per-endpoint dashboards.

// statusClasses are the status-class label values, indexed status/100.
var statusClasses = [...]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

// RouteInstruments is the instrument set of one registered route.
type RouteInstruments struct {
	seconds *Histogram
	byClass [len(statusClasses)]*Counter
}

// Observe records one completed request.
func (ri *RouteInstruments) Observe(status int, elapsed time.Duration) {
	class := status / 100
	if class < 1 || class >= len(statusClasses) {
		class = 5
	}
	ri.byClass[class].Inc()
	ri.seconds.Observe(elapsed.Seconds())
}

// RouteSet is the per-route instrument registry of one HTTP surface.
type RouteSet struct {
	reg    *Registry
	routes map[string]*RouteInstruments
	// Unmatched covers requests no registered route matched (404s, bad
	// methods) under the label pair {method="other", route="other"}.
	Unmatched *RouteInstruments
}

// NewRouteSet builds a route set registering into reg under the metric
// names csj_http_request_seconds / csj_http_requests_total.
func NewRouteSet(reg *Registry) *RouteSet {
	rs := &RouteSet{reg: reg, routes: make(map[string]*RouteInstruments)}
	rs.Unmatched = rs.Route("other", "other")
	return rs
}

// Route registers (or returns) the instrument set for one endpoint.
// Not safe for concurrent use: call it during handler registration,
// before the surface serves traffic.
func (rs *RouteSet) Route(method, path string) *RouteInstruments {
	key := method + " " + path
	if ri, ok := rs.routes[key]; ok {
		return ri
	}
	ri := &RouteInstruments{
		seconds: rs.reg.Histogram("csj_http_request_seconds",
			"Request latency by endpoint.",
			Labels{"method": method, "route": path}, nil),
	}
	for class := 1; class < len(statusClasses); class++ {
		ri.byClass[class] = rs.reg.Counter("csj_http_requests_total",
			"Requests completed, by endpoint and status class.",
			Labels{"method": method, "route": path, "class": statusClasses[class]})
	}
	rs.routes[key] = ri
	return ri
}

// Has reports whether a "METHOD /path" pattern has a route-label entry
// — the route-coverage check's probe.
func (rs *RouteSet) Has(pattern string) bool {
	_, ok := rs.routes[pattern]
	return ok
}

// Len returns the number of registered route entries (including the
// "other" fallthrough).
func (rs *RouteSet) Len() int { return len(rs.routes) }
