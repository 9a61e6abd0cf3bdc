#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given
# arguments from the repository root, e.g.
#   bash servebench/run.sh --workload lineage --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; stdout carries only the benchmark's.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./servebench/main.exe 1>&2
exec ./_build/default/servebench/main.exe "$@"
