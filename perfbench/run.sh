#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it.
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything the build and the run write
# goes under $CARGO_TARGET_DIR (default .bench_build) in that root.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --work-dir "$out/perfbench" "$@"
