#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes stays inside the checkout: the go build cache and the
# binary under .bench_build/, traces and the file workload's database under
# bench/out/ (both are in .gitignore).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"
