#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload tab-cpu --seed 1 --seconds 10 --trace 0
# Every build artefact and Go cache lives under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .)

cd "$root"
exec "$bin" "$@"
