#!/usr/bin/env bash
# Builds perfbench from source into .bench_build and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 25 --trace 0
#
# Every build product and cache stays under .bench_build in the
# checkout. The build needs the repository around this directory (the
# benchmark module replaces the program module with ../), so outside a
# full checkout it fails, and the benchmark exits non-zero.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
