#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (binary and Go build cache) stays under .bench_build/ in the checkout, so a
# run touches nothing outside it. Arguments are passed through unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
cd "$here"
go build -o "$build/pcbench" .
exec "$build/pcbench" "$@"
