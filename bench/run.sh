#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given flags.
# Everything the Go toolchain writes (build cache, temp files, telemetry)
# is pointed at .bench_build/ under the repository root, so a run reads and
# writes only inside its checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
DDBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export DDBENCH_COMMIT
go build -C "$root/bench" -o "$build/ddbench" .
cd "$root"
exec "$build/ddbench" "$@"
