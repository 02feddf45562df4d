#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it from there. Every build output, the Go build cache included, stays inside
# the checkout; nothing is fetched (the module has no dependency but the
# repository itself, through a replace directive).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bin/bench" . >&2
exec "$build/bin/bench" "$@"
