#!/usr/bin/env bash
# Builds the muxperf benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through, e.g.
#
#   bash muxperf/run.sh --workload sharegpt-engine --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the traced pass's span file stay
# under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd muxperf && go build -o "$out/muxperf" .)
exec "$out/muxperf" "$@"
