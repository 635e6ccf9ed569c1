#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# one workload:
#
#   bash perfbench/run.sh --workload traversal --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/perfbench
# in the checkout: the Go build cache, the binary and the traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
commit=
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
cd "$root"
exec "$out/perfbench" -commit "$commit" "$@"
