#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload node-topk --seed 1 --seconds 22 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, a private HOME, temporary
# files, WAL directories and span files.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/gocache"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" "$@"
