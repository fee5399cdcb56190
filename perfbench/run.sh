#!/usr/bin/env bash
# Builds the benchmark from the working tree and runs it. Arguments pass
# through: --workload <name|all> --seed <n> --seconds <n> --trace <0|1>.
# Every build artefact and cache stays under .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
