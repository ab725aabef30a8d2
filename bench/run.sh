#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash bench/run.sh                                  # all four workloads
#   bash bench/run.sh -workload serve -seed 3 -seconds 15 -trace 0
#   bash bench/run.sh -trace                           # per-layer metrics
# The build cache, temporary files and traces stay in .bench_build/ at the
# repository root, which is also the working directory of the benchmark.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C bench -o "$build/chopbench" .
exec "$build/chopbench" "$@"
