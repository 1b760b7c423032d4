#!/bin/sh
# Builds perf.exe from the checkout it is run in, then runs it with the
# given arguments.  Run from the repository root, for example:
#
#   sh bench/perf/run.sh --workload count --seed 3 --seconds 30 --trace 0
#
# Build messages go to stderr, so the last line on stdout stays the run's
# JSON result.  The shared dune cache is off: the build reads and writes
# only inside the checkout.
set -eu
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
