#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fib --seed 1 --seconds 55 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# at the repository root, including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# VCS stamping records the git revision when there is one; a checkout
# without usable git metadata builds without it.
(cd "$root/perfbench" && { go build -o "$out/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" "$@"
