#!/bin/sh
# Run the full set twice on the same tree and hold the two against the
# benchmark's own bounds: per workload x end-to-end metric both values,
# their relative difference and ok / unresolved; the counters that must
# repeat exactly are compared exactly.  Exits non-zero on any
# unresolved.
#
#   benchmark/agree.sh [--seed N] [--seconds S]
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/benchmark}
export CARGO_TARGET_DIR
P5_BENCH_RESULTS=benchmark/results/agree-1 "$here/run.sh" "$@" >/dev/null
P5_BENCH_RESULTS=benchmark/results/agree-2 "$here/run.sh" "$@" >/dev/null
cd "$root"
exec "$CARGO_TARGET_DIR/release/p5-benchmark" --agree \
    benchmark/results/agree-1/latest.json benchmark/results/agree-2/latest.json
