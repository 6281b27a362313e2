#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-edge --seed 1 --seconds 10 --trace 0
#
# All build and run state stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The revision is read here rather than stamped by the Go toolchain, whose
# VCS stamping fails the build when git cannot read the checkout.
rev="$(HOME="$out" GIT_CONFIG_NOSYSTEM=1 GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -workdir "$out" -revision "$rev" "$@"
