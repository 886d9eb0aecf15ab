package cluster

import (
	"github.com/opencsj/csj/internal/metrics"
)

// clusterMetrics bundles the coordinator's csj_cluster_* series; its
// Surface adds the per-route HTTP set (same families as the shards, so
// dashboards query one exposition shape).
type clusterMetrics struct {
	// shardState is a 0/1 gauge per (shard, state) — the breaker state
	// machine rendered the Prometheus-idiomatic way: exactly one series
	// per shard is 1 at any instant.
	shardState map[string]map[BreakerState]*metrics.Gauge

	retries    map[string]*metrics.Counter // per shard
	partials   *metrics.Counter
	incomplete *metrics.Counter
	probes     map[string]map[bool]*metrics.Counter // per shard, by outcome
	promotions *metrics.Counter
}

func newClusterMetrics(reg *metrics.Registry, shardNames []string) *clusterMetrics {
	m := &clusterMetrics{
		shardState: make(map[string]map[BreakerState]*metrics.Gauge, len(shardNames)),
		retries:    make(map[string]*metrics.Counter, len(shardNames)),
		probes:     make(map[string]map[bool]*metrics.Counter, len(shardNames)),
		partials: reg.Counter("csj_cluster_partial_responses_total",
			"Queries answered 200 with partial=true because at least one shard was unreachable.", nil),
		incomplete: reg.Counter("csj_cluster_rejected_incomplete_total",
			"Queries answered 503 because require_complete=1 was set and a shard was unreachable.", nil),
		promotions: reg.Counter("csj_cluster_promotions_total",
			"Replica promotions executed after leader-failure detection.", nil),
	}
	for _, name := range shardNames {
		states := make(map[BreakerState]*metrics.Gauge, len(BreakerStates))
		for _, st := range BreakerStates {
			states[st] = reg.Gauge("csj_cluster_shard_state",
				"Circuit-breaker position per shard: the shard's current state holds 1, the others 0.",
				metrics.Labels{"shard": name, "state": st.String()})
		}
		states[StateClosed].Set(1)
		m.shardState[name] = states
		m.retries[name] = reg.Counter("csj_cluster_retries_total",
			"Idempotent-read retries sent to a shard after a timeout or 5xx.",
			metrics.Labels{"shard": name})
		m.probes[name] = map[bool]*metrics.Counter{
			true: reg.Counter("csj_cluster_probes_total",
				"Health probes by outcome.", metrics.Labels{"shard": name, "result": "ok"}),
			false: reg.Counter("csj_cluster_probes_total",
				"Health probes by outcome.", metrics.Labels{"shard": name, "result": "fail"}),
		}
	}
	return m
}

// observeState flips the shard's state gauges after a breaker
// transition.
func (m *clusterMetrics) observeState(shard string, from, to BreakerState) {
	states := m.shardState[shard]
	if states == nil {
		return
	}
	states[from].Set(0)
	states[to].Set(1)
}

func (m *clusterMetrics) observeRetry(shard string) {
	if c := m.retries[shard]; c != nil {
		c.Inc()
	}
}

func (m *clusterMetrics) observeProbe(shard string, ok bool) {
	if byOutcome := m.probes[shard]; byOutcome != nil {
		byOutcome[ok].Inc()
	}
}

func (m *clusterMetrics) observePartial()    { m.partials.Inc() }
func (m *clusterMetrics) observeIncomplete() { m.incomplete.Inc() }
func (m *clusterMetrics) observePromotion()  { m.promotions.Inc() }
