#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Everything the build writes (binary, Go build cache, temp
# files, the go command's config and telemetry directory) stays under
# .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload rt-inproc --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config" GOENV=off
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
