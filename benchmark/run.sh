#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it there, so that the compiler cache, the binary and the
# scratch files (write-ahead logs, checkpoints) all stay inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
APAN_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export APAN_BENCH_COMMIT
(cd "$here" && go build -buildvcs=false -o "$build/apan-benchmark" .)
cd "$root"
exec "$build/apan-benchmark" "$@"
