#!/bin/sh
# The one command: build the benchmark, run every workload in a fresh
# process each, print every metric by name, write results/latest.json
# and append to results/history.jsonl.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--quick]
#
# --quick (2 segments, no traced pass) is for smoke use only and says so
# in its output.  Builds offline into the git-ignored target/ unless
# CARGO_TARGET_DIR is already set.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/benchmark}
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
cd "$root"
exec "$CARGO_TARGET_DIR/release/p5-benchmark" --all --commit "$commit" \
    --results "${P5_BENCH_RESULTS:-benchmark/results}" "$@"
