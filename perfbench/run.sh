#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and executes it with the given arguments. Run it from the checkout's
# root: bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
