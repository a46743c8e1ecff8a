#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives into .bench_build/ at the
# root of the checkout, then runs the benchmark with the given arguments:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Nothing outside the checkout is written: the Go build cache lives in
# .bench_build/ too. In a directory without the rest of the repository
# the build fails and the script exits non-zero.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$bench" && go build -o "$build/bench" . && go build -o "$build/volcano-serve" repro/cmd/volcano-serve)
export BENCH_SERVE_BIN="$build/volcano-serve"
cd "$root"
exec "$build/bench" "$@"
