#!/bin/sh
# Builds the program's binaries and the benchmark from source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   sh bench/run.sh [-workload NAME] [-seed N] [-trace 0|1]
#
# Everything building and running leaves behind goes to .bench_build/,
# the Go build cache included.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
go build -o "$out/bin/" ./cmd/sparseadapt ./cmd/sparseadaptd
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
