#!/usr/bin/env bash
# Builds ctrlbench from this checkout and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash bench/run.sh --workload service --seed 3 --seconds 20 --trace 0
#
# Binaries, temp dirs, span files and Go's build cache all live under
# .bench_build at the repository root, so a run reads and writes only
# inside the checkout. Without the repository's Go sources next to it
# the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bin/ctrlbench" ./cmd/ctrlbench)
exec "$build/bin/ctrlbench" -root "$root" -build-dir "$build" "$@"
