#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, e.g.:
#
#	bash perfbench/run.sh --workload mice --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, binary, store directories,
# span files) lands in .bench_build/ at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's caches, temporary files and telemetry counters in
# the checkout too, and build without cgo so no C toolchain is involved.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	CGO_ENABLED=0 GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
