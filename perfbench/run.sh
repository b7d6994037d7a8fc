#!/usr/bin/env bash
# Builds the diagnosis benchmark from the checkout in the current
# directory and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload soc1-sweep --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh report .bench_build/perfbench/spans/soc1-sweep-seed1.json
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/perfbench, so the benchmark writes nothing outside the
# checkout. Without the repository's Go module beside perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= GO111MODULE=on
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
