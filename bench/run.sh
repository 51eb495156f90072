#!/usr/bin/env bash
# Build the harness from source inside the checkout and run it. Everything
# the build and the run leave behind stays under .bench_build/ and
# bench/out/ (both in .gitignore); nothing outside the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/sfcbench" . >&2
cd "$root"
exec "$build/sfcbench" "$@"
