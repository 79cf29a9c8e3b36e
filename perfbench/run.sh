#!/bin/sh
# Builds the benchmark from source and runs one workload:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the root of the repository.  Build output goes to stderr.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
