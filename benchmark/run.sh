#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache and GOPATH included, so nothing outside the
# checkout is written) and runs it with the arguments given. Run from the root:
#
#   bash benchmark/run.sh --workload chat_poisson --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/benchmark" && go build -ldflags "-X main.commit=$commit" -o "$build/kvbench" .)
cd "$root"
exec "$build/kvbench" "$@"
