//! Carrier-scale runtime report: aggregate throughput and p99 frame
//! latency as the fleet grows from one link to ten thousand.
//!
//! The tentpole claim of `p5-runtime` is that the fused single-link
//! fast path *composes*: shard N independent links across a worker
//! pool and the aggregate simulation speed scales past any single
//! link.  This report measures that — a link-count sweep on the raw
//! carrier (every worker core in play), one work-stealing vs static
//! sharding comparison, and one channelized-STM-4 realism row —
//! writing `results/BENCH_runtime.json` for `scripts/check.sh` to gate
//! on:
//!
//! * `--min-uplift <x>`: best aggregate Gbps at ≥ 64 links must be at
//!   least `x` times the single-link row (enforced only when the host
//!   has ≥ 4 cores — below that, the scaling claim is vacuous);
//! * `--max-p99-ticks <n>`: p99 submit→delivery latency ceiling on
//!   every uncongested sweep row;
//! * `--min-channelized-over-single <x>`: the channelized-STM-4 fleet's
//!   payload rate over the single-link fleet's, read as one over the
//!   median of interleaved per-pair ratios of seconds per payload octet
//!   — a ratio, so host speed cancels; a bit-serial SONET path reads
//!   ~0.02, the word-wide one ~0.08;
//! * `--max-rss-kb-per-link <n>`: resident kilobytes per link of the
//!   largest sweep row, fleet built and run to drain — a footprint, so
//!   it repeats where wall-clock numbers drift; with this report's
//!   1024 B frames per-engine CRC tables read ~93, process-wide ones
//!   ~28 (skipped where `/proc` is absent);
//! * conservation is always enforced: an uncongested fleet must
//!   deliver every offered frame (zero shed, zero rejected, zero
//!   lost).
//!
//! With `--smoke` the report sweeps a reduced link set with a smaller
//! payload budget (suitable for CI) and still writes the same JSON.

use std::fmt::Write as _;
use std::time::Instant;

use p5_bench::{heading, interleaved_overhead};
use p5_runtime::{Carrier, Fleet, FleetConfig, Sharding, TrafficSpec};
use p5_sonet::StmLevel;

/// Payload octets per frame across the whole report.
const PAYLOAD_LEN: usize = 1024;
/// Frames offered per link per tick.
const FRAMES_PER_TICK: u32 = 4;

struct RowMeasure {
    workers: usize,
    wall_s: f64,
    aggregate_gbps: f64,
    p99_latency_ticks: Option<u64>,
    delivered: u64,
    ticks: u64,
}

/// Offered ticks per link so the whole fleet moves ≈ `budget` payload
/// octets regardless of link count (floor of 2 ticks keeps the biggest
/// fleets honest).
fn ticks_for(links: usize, budget: usize) -> u64 {
    let per_tick = links * FRAMES_PER_TICK as usize * PAYLOAD_LEN;
    ((budget / per_tick.max(1)) as u64).max(2)
}

/// Run one fleet shape to drain, `reps` times (first is construction +
/// cache warm-up, discarded), keeping the best wall time.  The workload
/// is deterministic, so only the clock varies between reps.
fn measure(cfg: &FleetConfig, reps: usize) -> RowMeasure {
    let mut best = f64::INFINITY;
    let mut out: Option<RowMeasure> = None;
    for rep in 0..reps {
        let mut fleet = Fleet::new(cfg.clone()).expect("valid fleet config");
        let started = Instant::now();
        assert!(fleet.run_until_drained(u64::MAX), "fleet failed to drain");
        let wall = started.elapsed().as_secs_f64();
        let st = fleet.stats();
        // The always-on conservation gate: uncongested fleets lose
        // nothing, anywhere, at any scale.
        assert_eq!(st.flow.shed, 0, "uncongested fleet shed frames");
        assert_eq!(st.flow.rejected, 0, "uncongested fleet rejected frames");
        assert_eq!(
            st.flow.delivered, st.flow.accepted,
            "accepted frames went missing"
        );
        assert_eq!(st.flow.offered, st.flow.accepted);
        if rep == 0 {
            continue;
        }
        if wall < best {
            best = wall;
            out = Some(RowMeasure {
                workers: st.workers,
                wall_s: wall,
                aggregate_gbps: st.flow.delivered_bytes as f64 * 8.0 / wall / 1e9,
                p99_latency_ticks: st.p99_latency_ticks(),
                delivered: st.flow.delivered,
                ticks: st.ticks,
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(40));
    }
    out.expect("at least two reps")
}

/// Seconds per delivered payload octet of one fleet shape, built fresh
/// and run to drain (construction untimed).
fn secs_per_byte(cfg: &FleetConfig) -> f64 {
    let mut fleet = Fleet::new(cfg.clone()).expect("valid fleet config");
    let started = Instant::now();
    assert!(fleet.run_until_drained(u64::MAX), "fleet failed to drain");
    let wall = started.elapsed().as_secs_f64();
    wall / fleet.stats().flow.delivered_bytes.max(1) as f64
}

/// Channelized runs in the interleaved gate measurement, each between
/// two single-link runs.
const CHANNELIZED_PAIRS: usize = 15;

/// `VmRSS` of this process in kB (`None` off Linux).
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Resident kB per link of one fleet shape, built and run to drain so
/// the buffers a link grows into on its first ticks are counted.  Call
/// it before anything else has grown the heap: memory an earlier fleet
/// freed but the allocator kept would hide part of the next one.
fn rss_kb_per_link(cfg: &FleetConfig) -> Option<f64> {
    let before = vm_rss_kb()?;
    let mut fleet = Fleet::new(cfg.clone()).expect("valid fleet config");
    assert!(fleet.run_until_drained(u64::MAX), "fleet failed to drain");
    let after = vm_rss_kb()?;
    Some(after.saturating_sub(before) as f64 / cfg.links as f64)
}

fn sweep_config(links: usize, budget: usize, sharding: Sharding, carrier: Carrier) -> FleetConfig {
    FleetConfig {
        links,
        workers: 0, // one per available core
        carrier,
        sharding,
        seed: 42,
        traffic: Some(TrafficSpec {
            frames_per_tick: FRAMES_PER_TICK,
            payload_len: PAYLOAD_LEN,
            duplex: false,
            ticks: ticks_for(links, budget),
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let min_uplift = arg_value(&args, "--min-uplift");
    let max_p99 = arg_value(&args, "--max-p99-ticks");
    let min_channelized = arg_value(&args, "--min-channelized-over-single");
    let max_rss = arg_value(&args, "--max-rss-kb-per-link");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (link_counts, budget, reps): (&[usize], usize, usize) = if smoke {
        (&[1, 4, 64, 256], 8 << 20, 2)
    } else {
        (&[1, 4, 16, 64, 256, 1024, 10_000], 32 << 20, 3)
    };

    print!(
        "{}",
        heading("Runtime report - fleet scaling, 1 -> 10k links")
    );
    println!("host cores: {cores}");

    let mut gate_failures: Vec<String> = Vec::new();
    let largest = *link_counts.last().expect("a non-empty sweep");
    let rss = rss_kb_per_link(&sweep_config(
        largest,
        budget,
        Sharding::WorkStealing,
        Carrier::Raw,
    ));
    match rss {
        Some(kb) => println!("rss_kb_per_link: {kb:.1} ({largest} links)\n"),
        None => println!("rss_kb_per_link: n/a (no /proc/self/status)\n"),
    }
    if let (Some(kb), Some(ceiling)) = (rss, max_rss) {
        if kb > ceiling {
            gate_failures.push(format!(
                "{kb:.1} kB resident per link at {largest} links, above ceiling {ceiling:.0}"
            ));
        }
    }
    println!(
        "{:>7} {:>8} {:>7} {:>10} {:>12} {:>10} {:>10}",
        "links", "workers", "ticks", "frames", "agg (Gbps)", "p99 (tk)", "wall (s)"
    );

    let mut rows = String::new();
    let mut single_gbps = 0f64;
    let mut best_at_scale = 0f64;
    for &links in link_counts {
        let m = measure(
            &sweep_config(links, budget, Sharding::WorkStealing, Carrier::Raw),
            reps,
        );
        if links == 1 {
            single_gbps = m.aggregate_gbps;
        }
        if links >= 64 {
            best_at_scale = best_at_scale.max(m.aggregate_gbps);
        }
        let p99 = m.p99_latency_ticks.unwrap_or(0);
        println!(
            "{:>7} {:>8} {:>7} {:>10} {:>12.4} {:>10} {:>10.4}",
            links, m.workers, m.ticks, m.delivered, m.aggregate_gbps, p99, m.wall_s
        );
        if let Some(ceiling) = max_p99 {
            if p99 as f64 > ceiling {
                gate_failures.push(format!(
                    "links={links}: p99 latency {p99} ticks above ceiling {ceiling:.0}"
                ));
            }
        }
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"links\": {links}, \"workers\": {}, \"ticks\": {}, \
             \"delivered_frames\": {}, \"aggregate_gbps\": {:.4}, \
             \"p99_latency_ticks\": {p99}, \"wall_s\": {:.4}}}",
            m.workers, m.ticks, m.delivered, m.aggregate_gbps, m.wall_s
        );
    }
    let uplift = if single_gbps > 0.0 {
        best_at_scale / single_gbps
    } else {
        0.0
    };
    println!(
        "\nscaling: single link {single_gbps:.4} Gbps, best at >=64 links \
         {best_at_scale:.4} Gbps -> uplift {uplift:.2}x"
    );
    if let Some(floor) = min_uplift {
        if cores >= 4 {
            if uplift < floor {
                gate_failures.push(format!(
                    "aggregate uplift {uplift:.2}x below floor {floor:.2}x \
                     ({cores} cores)"
                ));
            }
        } else {
            println!("(uplift gate skipped: only {cores} host cores, need >= 4)");
        }
    }

    // Mode comparison rows at a fixed fleet size: how the cohorts are
    // dealt to workers, and what per-tributary SDH carriage costs.
    let cmp_links = if smoke { 64 } else { 256 };
    let single = sweep_config(1, budget, Sharding::WorkStealing, Carrier::Raw);
    // Channelized realism: 16 links as tributaries of STM-4 envelopes,
    // full transmission convergence per envelope — this measures
    // fidelity, not speed.
    let channelized = sweep_config(
        16,
        budget / 64,
        Sharding::WorkStealing,
        Carrier::Channelized(StmLevel::Stm4),
    );
    let mut modes = String::new();
    for (name, cfg) in [
        (
            "work_stealing",
            sweep_config(cmp_links, budget / 2, Sharding::WorkStealing, Carrier::Raw),
        ),
        (
            "static",
            sweep_config(cmp_links, budget / 2, Sharding::Static, Carrier::Raw),
        ),
        ("channelized_stm4", channelized.clone()),
    ] {
        let m = measure(&cfg, 2);
        let links = cfg.links;
        println!(
            "mode {name:<17} links {links:>4}: {:.4} Gbps, p99 {} ticks",
            m.aggregate_gbps,
            m.p99_latency_ticks.unwrap_or(0)
        );
        if !modes.is_empty() {
            modes.push_str(",\n");
        }
        let _ = write!(
            modes,
            "    {{\"mode\": \"{name}\", \"links\": {links}, \
             \"aggregate_gbps\": {:.4}, \"p99_latency_ticks\": {}, \
             \"wall_s\": {:.4}}}",
            m.aggregate_gbps,
            m.p99_latency_ticks.unwrap_or(0),
            m.wall_s
        );
    }

    // The channelized gate: channelized runs alternated with single-link
    // runs, each read against the single-link runs on either side of it,
    // so host drift lands on both sides of every ratio.
    let (single_s, channelized_s, per_pair) = interleaved_overhead(CHANNELIZED_PAIRS, |chan| {
        secs_per_byte(if chan { &channelized } else { &single })
    });
    let channelized_over_single = 1.0 / per_pair;
    println!(
        "channelized_over_single: {channelized_over_single:.3} (median of \
         {CHANNELIZED_PAIRS} interleaved pairs; single {:.4} Gbps, channelized {:.4} Gbps)",
        8.0 / single_s / 1e9,
        8.0 / channelized_s / 1e9,
    );
    if let Some(floor) = min_channelized {
        if channelized_over_single < floor {
            gate_failures.push(format!(
                "channelized STM-4 at {channelized_over_single:.3} of the single link, \
                 below floor {floor:.3}"
            ));
        }
    }

    let rss_json = rss.map_or("null".to_string(), |kb| format!("{kb:.1}"));
    let json = format!(
        "{{\n  \"bench\": \"runtime\",\n  \"smoke\": {smoke},\n  \
         \"cores\": {cores},\n  \"payload_len\": {PAYLOAD_LEN},\n  \
         \"frames_per_tick\": {FRAMES_PER_TICK},\n  \
         \"single_link_gbps\": {single_gbps:.4},\n  \
         \"best_aggregate_gbps\": {best_at_scale:.4},\n  \
         \"scaling_uplift\": {uplift:.2},\n  \
         \"channelized_over_single\": {channelized_over_single:.3},\n  \
         \"rss_kb_per_link\": {rss_json},\n  \"sweep\": [\n{rows}\n  ],\n  \
         \"modes\": [\n{modes}\n  ]\n}}\n"
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_runtime.json", &json).expect("write results/");
    println!("\nwrote results/BENCH_runtime.json");
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}
