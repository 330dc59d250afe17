#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload lstm-ckpt --seed 1 --seconds 30 --trace 0
#
# Run it from the checkout root. The Go build cache, the binary and every
# file a run writes stay under .bench_build/ there. The benchmark module
# replaces the a2sgd module with the checkout root (see go.mod), so a copy
# of perfbench/ without the repository around it fails to build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
