#!/usr/bin/env bash
# Builds apcc-serve, the byte-budget launcher and the benchmark itself
# from the source tree, then runs the benchmark. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload block-hot --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/apcc-serve || ! -d internal/service || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the apcc sources were not found" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/bin/apcc-serve" ./cmd/apcc-serve
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/perfbench-launcher" ./launcher)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
