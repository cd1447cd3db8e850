#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it. Run from
# the repository root:
#
#   bash e2ebench/run.sh --workload wire-churn --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout. The build fails — and so does this
# script, without printing a result — when the repository around the
# benchmark is missing.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep the toolchain's caches, temporary files and telemetry in the
# checkout, and never reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
