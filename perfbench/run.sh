#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload pair-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, GOPATH, temporary files and the go command's own config
# directory (telemetry counters) stay under .bench_build, so a run writes
# nothing outside the checkout; no module is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
