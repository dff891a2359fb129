#!/usr/bin/env sh
# Tier-1+ gate: formatting, lints, tests, and netlist static analysis.
# Everything runs offline against the vendored compat/ stand-ins.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> pub census (pub items no other crate names: pub_census.txt)"
# A new pub item nothing outside its crate names, or a listed one that
# gained a caller or went, fails here; re-run the script into
# pub_census.txt to accept the change on purpose.
sh scripts/pub_census.sh | diff -u pub_census.txt -

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build (examples)"
cargo build -q --offline --examples

echo "==> cargo test (workspace)"
cargo test -q --workspace --offline

echo "==> cargo test (benchmark/, outside the workspace)"
# The benchmark package compiles against the crates' public API but is
# not a workspace member: a device-API change that breaks its build or
# its delivery checks fails here, before the PR's benchmark run does.
# Its build re-resolves the committed (stale) benchmark/Cargo.lock
# offline and rewrites it; the lock is copied first and put back after,
# pass or fail, so a check.sh run leaves the tree as it found it.
lock_copy="$(mktemp)"
cp benchmark/Cargo.lock "$lock_copy"
restore_lock() {
    cp "$lock_copy" benchmark/Cargo.lock
    rm -f "$lock_copy"
}
trap restore_lock EXIT
(cd benchmark && cargo test -q --offline)
restore_lock
trap - EXIT

echo "==> cargo doc (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "==> p5lint (shipped netlists + compositions, timing gate)"
# --deny-warnings with the committed baseline: any new finding at any
# severity fails; --report-timing refreshes results/TIMING_*.json and
# exits 2 if any shipped netlist's worst slack goes negative at the
# 78.125 MHz line clock on the target part.
cargo run -q --release -p p5-lint --bin p5lint --offline -- \
    --strict --deny-warnings --baseline lint.baseline.json --report-timing

echo "==> throughput smoke + perf gate (results/BENCH_throughput.json)"
# The bytes/cycle floors are the shipped numbers: a cycle-model change
# that costs cycles fails here rather than landing silently.  The
# sim-speed floors gate the fused fast path (measured ~2.9 Gbps both
# widths on the reference host; the floors sit far below so shared-CI
# noise cannot flake, yet far above the staged-path ~0.04/0.17 Gbps —
# losing the fused path fails here).  The alloc ceiling holds the
# steady-state datapath at 0 heap allocations per datagram, an exact
# count (every buffer comes from the recycling pool after warm-up, so
# one allocation per frame fails).  The
# dense/clean gate holds the fused link's rate on 25 %-escape datagrams
# to at least 0.35 of its IMIX rate: one over the median of 15 per-pair
# ratios of seconds per payload octet, each dense run read against the
# IMIX runs on either side of it.  A ratio, so host speed cancels; the
# word-wide byte sorter reads ~0.37 on the simplex Link, per-octet escape
# handling ~0.22.  The SONET fill gate holds the share of flag fill in
# the SPE octets a 32-bit link over STM-16 carries (32 windows of 1024
# IMIX datagrams) to at most 0.1527: an exact count, 0.0756 with no hunt
# frames while the path's receiver is in frame, 0.2297 with two after
# every flush; the ceiling sits halfway between.
cargo run -q --release --offline -p p5-bench --bin throughput_report -- \
    --smoke --min-bpc8 0.9998 --min-bpc32 3.9931 \
    --min-sim8 0.25 --min-sim32 0.75 --max-allocs-per-frame 0 \
    --min-dense-over-clean 0.35 --max-sonet-fill-ratio 0.1527

echo "==> gate-sim smoke + perf gate (results/BENCH_gate_sim.json)"
# The compiled 64-lane engine must stay >=10x the scalar walker on the
# 32-bit system aggregate (measured ~300x; 10x leaves noise headroom).
cargo run -q --release --offline -p p5-bench --bin gate_sim_report -- \
    --smoke --min-x64 10

echo "==> trace smoke + overhead gate (results/BENCH_trace.json)"
# The duplex lifecycle trace must match every frame end to end, the
# instrumented-but-disabled device must stay within 3% of the baseline
# bytes/cycle recorded by the throughput step above, and the fleet's
# observability drive path (`run_sampled` with no collector) must stay
# within 3% wall of the plain drive loop on a 256-link fleet.
cargo run -q --release --offline -p p5-bench --bin trace_report -- \
    --smoke --max-overhead-pct 3 --max-fleet-overhead-pct 3

echo "==> obs smoke + live-detection gates (results/BENCH_obs.json)"
# Live observability gates: an actively sampling collector on a
# 256-link fleet must cost <= 25% wall (measured ~0 on the reference
# host; the headroom absorbs shared-CI noise), a seeded BER burst on
# one link must be reported Degraded within the documented detection
# budget (every * (degrade_after + 1) ticks) while the run is still in
# progress — scraped live over real TCP — and the frozen flight
# recorder must capture all four entry kinds around the trigger.
cargo run -q --release --offline -p p5-bench --bin obs_report -- \
    --smoke --max-sampling-overhead-pct 25

echo "==> fault smoke + recovery gates (results/BENCH_fault.json)"
# Chaos gates: zero corrupt deliveries, one-sided drop accounting on
# every injection scenario, re-delineation within the documented bound,
# and renegotiation within the RFC 1661 restart budget.
cargo run -q --release --offline -p p5-bench --bin fault_report -- --smoke

echo "==> runtime smoke + scaling gate (results/BENCH_runtime.json)"
# Carrier-scale fleet gates: the sweep must conserve every frame at
# every link count (shed == rejected == 0 uncongested, delivered ==
# accepted — asserted inside the report), p99 submit->delivery latency
# must stay within 64 ticks on uncongested rows, and on hosts with
# >= 4 cores the best aggregate throughput at >= 64 links must reach
# 2x the single-link row (the gate self-skips below 4 cores, where the
# scaling claim is vacuous).  The channelized-STM-4 fleet must reach
# 0.06 of the single-link fleet's payload rate: one over the median of
# 15 interleaved per-pair ratios of seconds per payload octet.  A ratio,
# so host speed cancels; the word-wide SONET path reads ~0.08, a
# bit-serial one ~0.02, so losing the word-wide scramblers or the
# row-slice framer fails here.  The largest sweep row must stay within 40 resident kB per
# link (VmRSS, fleet built and run to drain): a footprint, so it repeats
# to a few hundred bytes where wall-clock numbers drift; process-wide CRC
# tables read ~28 with this report's 1024 B frames, one private table
# per engine ~93 (self-skips where /proc is absent).
cargo run -q --release --offline -p p5-bench --bin runtime_report -- \
    --smoke --min-uplift 2.0 --max-p99-ticks 64 \
    --min-channelized-over-single 0.06 --max-rss-kb-per-link 40

echo "==> xport smoke + real-endpoint gates (results/BENCH_xport.json)"
# Real-endpoint gates: LCP + IPCP bring-up on a TCP loopback socket
# within 5 s (measured ~1-30 ms; the budget absorbs shared-CI thread
# scheduling), sustained one-way 1500 B throughput of >= 0.05 Gbps
# (measured ~0.2-0.3 Gbps even on a single-CPU host; the floor catches
# the transport path collapsing, not host variance), a scripted mid-run
# sever over the deterministic pipe renegotiated within 66 session ticks
# (two default restart budgets, one each for LCP and IPCP; an exact
# count, measured 1), and zero corrupt deliveries across every
# experiment.
cargo run -q --release --offline -p p5-bench --bin xport_report -- \
    --smoke --max-bringup-ms 5000 --min-gbps 0.05 --max-reconnect-ticks 66

echo "==> all checks passed"
