#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one measurement:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line on stdout is the run's JSON
# verdict. The dune cache is off so the build reads and writes only inside
# the checkout, and a build that hangs is cut off.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled timeout 850 dune build --root . --display quiet \
  bin/tea_tool.exe benchmark/tea_bench.exe >&2
exec ./_build/default/benchmark/tea_bench.exe run "$@"
