#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the arguments
# given, from the root of the repository:
#
#   bash perfbench/run.sh --workload google-stream --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

if ! (cd "$here" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 3
fi
exec "$out/perfbench" --out "$out" "$@"
