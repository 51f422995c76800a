#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the build
# and the run write (Go build cache, temp files, the binary, the journal
# directories) inside the checkout under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/hp4bench" .)
cd "$root"
exec "$build/hp4bench" -tmp "$build/tmp" -out "$here/out" "$@"
