GO ?= go

.PHONY: check vet build test race bench fuzzsmoke crashguard clusterguard faultguard perfcheck

# check is the CI gate: vet (with the gofmt check), build, and the full
# test suite twice — once plain, so the !race-gated allocation guards
# run (the prepared, store, index and kernel 0 allocs/op tests), and
# once under the race detector, which also covers the TestFault*
# fault-injection suites of internal/server and internal/durable.
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

# bench runs the batch-engine benchmarks (serial vs parallel) with
# allocation counts.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimilarityMatrix|BenchmarkTopK' -benchmem .

# fuzzsmoke gives each ingest fuzz target a short native-fuzzing burst
# (seeded with the crafted-header corpus of the hardening pass), so CI
# catches parser regressions without a long fuzzing budget. The
# community-body target runs the ingest check of POST /communities on
# decoded bodies: whatever it accepts must read back unchanged from the
# binary form the WAL and checkpoints store. The wire-options target
# runs the pre-lookup checks of /rank, /topk and /matrix on decoded
# options: no panic, one verdict, 400 or 422 on rejection. The WAL
# payload target decodes arbitrary payloads: no panic, and every
# accepted put or delete re-encodes to the same bytes.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 15s ./internal/vector
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 15s ./internal/vector
	$(GO) test -run '^$$' -fuzz '^FuzzCommunityPayload$$' -fuzztime 15s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzOptionsPayload$$' -fuzztime 15s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime 15s ./internal/durable

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

# perfcheck vets and tests perfbench, the nested module of the end-to-end
# benchmark. It compiles against the root package and several internal
# packages, and nothing else in CI builds it, so an API change that
# breaks the benchmark would otherwise surface only at the next
# benchmark run. It reads perfbench and writes nothing under it.
perfcheck:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...
