#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the repository
# root. Everything it writes stays under .bench_build/ at the root: the Go
# build cache, the binary, scratch caches and the traced runs' spans.
#
#   bash perfbench/run.sh --workload report-cold --seed 1 --seconds 16 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
