GO ?= go

.PHONY: check vet build test race bench faults metricsguard storeguard indexguard kernelguard specguard fuzzsmoke crashguard clusterguard faultguard routecheck perfcheck

# check is the CI gate: vet (with the gofmt check), build, and the full
# test suite twice — once plain, so the !race-gated allocation tests
# run, and once under the race detector.
check: vet build test race

# vet also fails on any tracked Go file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists files to format:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# faults runs the fault-injection suite under the race detector:
# injected panics, oversized bodies, shed load, exhausted compute
# budgets, mid-join client disconnects (DESIGN.md §8), and the
# crash-recovery faults of the durable layer — torn tails, bit rot,
# repair, delete-then-crash replay, churn storms (DESIGN.md §11).
faults:
	$(GO) test -race -v -run '^TestFault' ./internal/server ./internal/durable

# bench runs the batch-engine benchmarks (serial vs parallel) with
# allocation counts.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimilarityMatrix|BenchmarkTopK' -benchmem .

# metricsguard is the metrics-overhead gate (DESIGN.md §9): the
# prepared Ap and Ex fast paths must stay 0 allocs/op with scan-event
# counters attached. Runs without -race — race instrumentation inflates
# allocation counts, which is why the test is !race-gated.
metricsguard:
	$(GO) test -count=1 -v -run '^TestInstrumentedPreparedZeroAllocs$$' ./internal/metrics

# storeguard is the store-overhead gate (DESIGN.md §10): the cache-hit
# prepared Ap and Ex paths — snapshot load, view lookups, scratch'd
# join — must stay 0 allocs/op, and the store must scale with the
# corpus: a
# Create+Delete allocates the same at 1k and 50k stored communities, and
# an all-candidates indexed top-k through the snapshot's candidate
# source the same at 1k and 10k. !race-gated for the same reason as
# metricsguard.
storeguard:
	$(GO) test -count=1 -v -run '^TestStoreCacheHitPreparedZeroAllocs$$|^TestStoreCreateDeleteAllocsScaleFree$$|^TestIndexedTopKAllocsScaleFree$$' ./internal/store

# indexguard is the envelope-index exactness gate (DESIGN.md §12): the
# bucket max-flow must equal a reference max-flow exactly, the upper
# bound must dominate every exact join, and the indexed engines must
# return, cell for cell, the exhaustive RankPrepared ranking cut to k
# or to the threshold (property tests over seeded corpora — a failing
# case names its seed). The tie suite
# pins the top-k cutoff on bounds tied with the kth-best score: exact
# answers with exactly the expected number of joins, with and without
# a scorer. The bound check itself must stay 0 allocs/op: the index
# only pays off if a bound is far cheaper than the join it replaces.
# !race-gated alloc guard, same reason as metricsguard.
indexguard:
	$(GO) test -count=1 -v -run '^TestDimFlowIsExactMaxFlow$$|^TestUpperBoundDominatesExactJoin$$|^TestUpperBoundZeroAllocs$$' ./internal/index
	$(GO) test -count=1 -v -run '^TestIndexedTopKExactness$$|^TestRankAboveExactness$$|^TestIndexedTopKTies$$|^TestIndexedTopKTiesRandomized$$' .

# kernelguard is the SoA scan-kernel gate (DESIGN.md §14): the fused
# sweeps must be byte-identical to the scalar reference, pairs and event
# tallies, over seeded random corpora (part counts 1-5, the skip offset
# on and off, duplicates, full-int32 extremes, block-boundary
# dimensions), over the served shapes (node-rank's 1,500 x 27 VK-like
# pairs, a top-k read's 16-24 x 6 archetype siblings), and on the
# directed empty-part-range pair that a one-compare range test gets
# wrong; the prepared SoA Ap and Ex joins must stay 0 allocs/op (Ex
# with its CSF flushes), and the workers<=1 pool path must run tasks
# inline on the caller's goroutine.
# The alloc check is !race-gated, same reason as metricsguard.
kernelguard:
	$(GO) test -count=1 -v -run '^TestSoAKernelMatchesReference$$|^TestSoAKernelServedShapes$$|^TestSoAKernelDuplicateScores$$|^TestSoAKernelExtremeValues$$|^TestSoAKernelEmptyPartRange$$|^TestEpsWithinKernelEdges$$|^TestKernelGuardSoAZeroAlloc$$' ./internal/core
	$(GO) test -count=1 -v -run '^TestRunPoolSerialInline$$' .

# specguard is the MatchSpec gate (DESIGN.md §15): per-dimension
# epsilon vectors must match the scalar reference cell-for-cell (SoA
# kernel included), an all-equal vector must be indistinguishable from
# its scalar everywhere, the spec-digest cache key must be stable and
# collision-resistant with a 0 allocs/op warm hit, the envelope index
# must stay provably exact under heterogeneous vectors and composite
# scorers, the server must map bad specs to pinned 422 bodies without
# rebuilding warm views, and the coordinator must forward the full
# spec to every shard verbatim. The alloc check is !race-gated, same
# reason as metricsguard.
specguard:
	$(GO) test -count=1 -v -run '^TestNewEpsCanonicalForm$$|^TestEpsAtAndEqual$$|^TestEpsValidate$$|^TestMatchEpsUniformEquivalence$$|^TestMatchEpsPerDimension$$' ./internal/vector
	$(GO) test -count=1 -v -run '^TestEpsVec' ./internal/core
	$(GO) test -count=1 -v -run '^TestSpecKeyedCache|^TestSpecDigestStability$$|^TestStoreCacheHitSpecZeroAllocs$$' ./internal/store
	$(GO) test -count=1 -v -run '^TestSpecAllEqualVecMatchesScalar$$|^TestEpsilonVec|^TestScorer|^TestMatchSpecDigest$$' .
	$(GO) test -count=1 -v -run '^TestSpecValidationStatusAndBodies$$|^TestMatrixSpecWarmCacheNoRebuild$$|^TestSimilarityScorerBlendE2E$$' ./internal/server
	$(GO) test -count=1 -v -run '^TestCoordinatorForwardsSpecVerbatim$$' ./internal/cluster

# fuzzsmoke gives each ingest fuzz target a short native-fuzzing burst
# (seeded with the crafted-header corpus of the hardening pass), so CI
# catches parser regressions without a long fuzzing budget. The
# prepared-record target is seeded with the golden v1/v2 files; every
# record it loads must also Ex-join itself. Its minimization is capped
# at 1s: the default 60s spends the whole burst shrinking the first
# interesting 3.7 KB input instead of fuzzing. The wire-options target
# runs the pre-lookup checks of /rank, /topk and /matrix on decoded
# options: no panic, one verdict, 400 or 422 on rejection.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 15s ./internal/vector
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 15s ./internal/vector
	$(GO) test -run '^$$' -fuzz '^FuzzReadPrepared$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzOptionsPayload$$' -fuzztime 15s ./internal/server

# crashguard is the end-to-end durability gate (DESIGN.md §11): it
# kill -9s a live csjserve mid-ingest, restarts it over the same WAL
# directory, and fails if any acknowledged write is lost.
crashguard:
	$(GO) run ./cmd/crashguard

# clusterguard is the kill-a-shard chaos gate (DESIGN.md §13): three
# shards with WAL-shipped follower replicas behind a coordinator, one
# shard kill -9'd mid-/topk. Degraded answers must be flagged partial
# and contain exactly the survivors' correct results, the replica must
# be promoted, post-promotion answers must be byte-identical to the
# pre-kill baseline, and the coordinator must leak no goroutines/fds.
clusterguard:
	$(GO) run ./cmd/clusterguard

# faultguard is the disk-fault exploration gate (DESIGN.md §16): it
# enumerates every mutating filesystem operation of a scripted
# store+WAL workload, injects each fault class (transient EIO, sticky
# ENOSPC, short write) at each point, and fails on any silent loss of
# an acknowledged write, any recovered refused-by-poison write, or any
# refusal to reopen without -repair guidance. Deterministic: seeded
# content, no wall-clock sleeps, one process.
faultguard:
	$(GO) run ./cmd/faultguard

# routecheck asserts every registered HTTP route — shard server and
# cluster coordinator — has a metrics route-label entry, so no endpoint
# silently lands in the {route="other"} bucket.
routecheck:
	$(GO) test -count=1 -v -run '^TestRouteMetricsCoverage$$' ./internal/server ./internal/cluster

# perfcheck vets and tests perfbench, the nested module of the end-to-end
# benchmark. It compiles against the root package and several internal
# packages, and nothing else in CI builds it, so an API change that
# breaks the benchmark would otherwise surface only at the next
# benchmark run. It reads perfbench and writes nothing under it.
perfcheck:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...
