#!/usr/bin/env bash
# Builds qosconfigd and the benchmark from source into .bench_build/ and
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-handoff --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload fig5-churn --seed 1 --seconds 30 --steady 10
#
# Run it from the repository root. Every build and Go cache file stays
# under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/qosconfigd" ./cmd/qosconfigd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/qosconfigd" -dir "$out" "$@"
