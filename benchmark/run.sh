#!/bin/bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root and runs it there with the caller's arguments. Nothing is read or
# written outside the checkout apart from the Go toolchain itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
# Freed heap pages stay with the process (MADV_FREE) instead of going back
# to the guest kernel: on this VM the cost of faulting one in again varies
# thirteenfold with the host's mood, and a refresh re-faulted ~150 MB.
export GODEBUG=madvdontneed=0
exec "$build/benchmark" "$@"
