#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash servebench/run.sh --workload hot-keys --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# server's WAL/snapshot files all stay under .bench_build/ in the current
# directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C servebench build -o "$build/servebench" .
exec "$build/servebench" --workdir "$build/tmp" "$@"
