#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the go command
# writes (build cache, temp files, GOPATH, its telemetry counters under the
# user config directory) is pointed inside .bench_build/ too, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gotmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local go -C "$here" build -o "$out/roadsbench" .
exec "$out/roadsbench" "$@"
