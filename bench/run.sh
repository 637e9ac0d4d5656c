#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache, binary and temporary files all live in
# .bench_build/) and runs it with the driver's arguments from the checkout
# root. For work on the benchmark itself, `go run . -workload ...` in this
# directory does the same with the usual caches.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry files
(cd "$root/bench" && go build -o "$build/assocbench" .) >&2
cd "$root"
# Not exec: the benchmark counts its children's peak RSS, and a process
# that replaced this shell would inherit the compiler as a child.
"$build/assocbench" "$@"
