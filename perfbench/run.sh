#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload ga-search --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go config) stays in
# .bench_build/ under the current directory. The build fails, and so does
# the benchmark, when the directory does not hold the repository's sources.
set -euo pipefail

out="$(pwd)/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
