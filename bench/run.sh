#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# e.g. `bash bench/run.sh --workload serve-read --seed 1 --seconds 15`.
# Every file the build and the run write stays under .bench_build in the
# checkout: the Go build cache, its temp files, its config, the binary,
# and the workloads' scratch directories.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" --root "$root" "$@"
