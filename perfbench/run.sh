#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, keeping every build and scratch file inside the
# checkout. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --outdir "$build" "$@"
