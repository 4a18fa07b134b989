#!/usr/bin/env bash
# Builds mscperf from this checkout and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload paper-aea --seed 3 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1 -out results/      # one full set
#
# Everything the build and the run write (Go build cache, temp files,
# generated instances, the binaries) stays under .bench_build/ at the root
# of the checkout. mscperf needs the whole repository: it builds
# cmd/mscgen and cmd/mscplace from it and links the msc packages, so on a
# copy holding only bench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"

export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go -C "$root/bench" build -o "$build/mscperf" ./mscperf
cd "$root"
exec "$build/mscperf" "$@"
