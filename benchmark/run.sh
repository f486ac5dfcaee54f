#!/usr/bin/env bash
# Builds the program under test (cmd/flickrun) and the harness from source,
# then runs the harness from the repository root. Everything it writes —
# the Go build cache included — stays inside the checkout, under
# .bench_build/ and benchmark/out/.
#
# The harness gets the last CPU to itself and the proxy the others, so the
# two never compete for a core and thread placement is the same every run.
# Without taskset, or on a single CPU, both run wherever the kernel puts
# them; results.json records which.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p .bench_build
go build -o .bench_build/flickrun ./cmd/flickrun
(cd benchmark && go build -o "$root/.bench_build/harness" .)
n=$(nproc)
if command -v taskset >/dev/null 2>&1 && [ "$n" -ge 2 ]; then
	exec taskset -c "$((n - 1))" .bench_build/harness -proxy-cpus "$(seq -s, 0 "$((n - 2))")" "$@"
fi
exec .bench_build/harness "$@"
