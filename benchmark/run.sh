#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — compiler cache, temporary files, the binary —
# stays under .bench_build/ at the root of the checkout, so a run reads and
# writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local
cd "$here"
go build -o "$build/ompcloud-benchmark" .
exec "$build/ompcloud-benchmark" "$@"
