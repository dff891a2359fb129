//! Live observability report — the p5-obs layer exercised at fleet
//! scale, with hard gates.
//!
//! Three experiments:
//!
//! 1. **Sampling overhead** — a one-worker 256-link fleet runs the same
//!    workload plain (`Fleet::run_until_drained`) and with a
//!    [`Collector`] attached and sampling at its default cadence,
//!    alternating run by run; the median of the per-pair wall-time
//!    ratios must stay within `--max-sampling-overhead-pct` (default
//!    25%).
//! 2. **Health-detection latency** — one link of a 256-link fleet is
//!    seeded with a BER burst (`fault_links`); the collector must
//!    report it Degraded within the documented detection budget
//!    (`HealthPolicy::detection_budget_ticks`), measured *live*: the
//!    run is still in progress when the HTTP endpoint is scraped over
//!    real TCP.
//! 3. **Flight-recorder completeness** — the seeded link's post-mortem
//!    must hold all four entry kinds (trigger, sample, transition,
//!    device), i.e. the freeze captured the window around the event.
//!
//! Writes `BENCH_obs.json` (under `target/` with `--smoke`, which
//! shrinks the overhead workload for CI; under `results/` without) and
//! ends with the ledger's exact readings from experiments 2 and 3; any
//! gate failure exits 1.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Instant;

use p5_bench::{arg_value, heading, interleaved_overhead, Ledger};
use p5_fault::FaultSpec;
use p5_obs::{serve, Collector, CollectorConfig, HealthState};
use p5_runtime::{Fleet, FleetConfig, TrafficSpec};

const LINKS: usize = 256;
const BAD_LINK: usize = 17;

/// Wall time (seconds) of one run of a fresh one-worker fleet: plain,
/// or watched by a collector sampling at its default cadence.  One
/// worker: the collector runs on the driving thread, and the per-batch
/// worker spawns of a pool would only add jitter.
fn sampling_wall(ticks: u64, sampled: bool) -> f64 {
    let mut fleet = Fleet::new(FleetConfig {
        links: LINKS,
        workers: 1,
        traffic: Some(TrafficSpec {
            frames_per_tick: 1,
            ticks,
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    })
    .expect("fleet builds");
    let mut collector = sampled.then(|| Collector::new(CollectorConfig::default()));
    let started = Instant::now();
    match &mut collector {
        Some(collector) => {
            collector.watch(&mut fleet, ticks * 4);
        }
        None => {
            fleet.run_until_drained(ticks * 4);
        }
    }
    started.elapsed().as_secs_f64()
}

fn faulted_fleet(ticks: u64) -> Fleet {
    Fleet::new(FleetConfig {
        links: LINKS,
        fault: Some(FaultSpec {
            ber: 5e-3,
            ..FaultSpec::default()
        }),
        fault_links: Some(vec![BAD_LINK]),
        trace_links: vec![BAD_LINK],
        seed: 0xD00D,
        traffic: Some(TrafficSpec {
            frames_per_tick: 1,
            ticks,
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    })
    .expect("fleet builds")
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect scrape endpoint");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("write request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_sampling_overhead_pct = arg_value(&args, "--max-sampling-overhead-pct").unwrap_or(25.0);
    let max_detect_ticks = arg_value(&args, "--max-detect-ticks");

    print!(
        "{}",
        heading("Obs report - sampling overhead, live health detection, flight recorder")
    );
    let mut gate_failures: Vec<String> = Vec::new();

    // 1. Sampling overhead: plain drive vs an actively sampling
    //    collector, interleaved run by run.
    let (ticks, pairs) = if smoke { (600, 15) } else { (2_000, 21) };
    let (plain, sampled, ratio) =
        interleaved_overhead(pairs, |sampled| sampling_wall(ticks, sampled));
    let overhead_pct = 100.0 * (ratio - 1.0);
    println!(
        "sampling overhead ({LINKS} links, one worker, {ticks} traffic ticks, {pairs} \
         interleaved pairs): plain {:.1} ms, collector@64 {:.1} ms, median ratio \
         {ratio:.4} ({overhead_pct:+.2}%)",
        plain * 1e3,
        sampled * 1e3
    );
    if overhead_pct > max_sampling_overhead_pct {
        gate_failures.push(format!(
            "active sampling costs {overhead_pct:.2}% wall (median of {pairs} interleaved \
             pairs; gate {max_sampling_overhead_pct}%)"
        ));
    }

    // 2. Live health detection on a seeded fault burst.
    let every = 32u64;
    let mut fleet = faulted_fleet(4_000);
    let mut collector = Collector::new(CollectorConfig {
        every,
        ..CollectorConfig::default()
    });
    let budget = collector.config().policy.detection_budget_ticks(every);
    let server = serve(collector.hub(), "127.0.0.1:0").expect("bind scrape endpoint");
    let addr = server.addr();
    collector.watch(&mut fleet, 512);
    let live = !fleet.is_idle();
    let detect = collector
        .transitions()
        .iter()
        .find(|t| t.link == BAD_LINK && t.to == HealthState::Degraded)
        .map(|t| t.tick);
    let gate_ticks = max_detect_ticks.map_or(budget, |v| v as u64);
    let mut ledger = Ledger::new("obs");
    ledger.put("ber.budget_ticks", budget);
    ledger.put("ber.live_at_scrape", live);
    ledger.put(
        "ber.degraded_tick",
        detect.map_or("none".to_string(), |t| t.to_string()),
    );
    match detect {
        Some(t) => {
            println!(
                "health detection: link {BAD_LINK} Degraded at tick {t} \
                 (budget {budget}, gate {gate_ticks}, run still live: {live})"
            );
            if t > gate_ticks {
                gate_failures.push(format!(
                    "Degraded detected at tick {t}, over the {gate_ticks}-tick gate"
                ));
            }
        }
        None => gate_failures.push(format!(
            "seeded link {BAD_LINK} never reported Degraded within 512 ticks"
        )),
    }
    if !live {
        gate_failures.push("fleet drained before the live scrape (not a live detection)".into());
    }

    // The scrape happens mid-run, over real TCP.
    let metrics = http_get(addr, "/metrics");
    let health = http_get(addr, "/health");
    let metrics_lines = metrics.lines().count();
    let scrape_ok = metrics.starts_with("HTTP/1.1 200 OK\r\n")
        && metrics.contains(&format!("p5_obs_link_health{{link=\"{BAD_LINK}\"}}"))
        && metrics.contains("p5_obs_health_links{state=\"degraded\"}")
        && health.contains(&format!("\"link\":{BAD_LINK}"));
    println!("live scrape: ok={scrape_ok}, /metrics payload {metrics_lines} lines");
    ledger.put("ber.scrape_ok", scrape_ok);
    ledger.put("ber.metrics_lines", metrics_lines);
    if !scrape_ok {
        gate_failures.push("live /metrics-/health scrape missing the degraded link".into());
    }

    // Let the run advance past the scrape, then freeze-check the recorder.
    collector.watch(&mut fleet, 512);
    let pm = collector.postmortem(BAD_LINK).unwrap_or_default();
    let kinds = ["trigger", "sample", "transition", "device"];
    let present = kinds
        .iter()
        .filter(|k| pm.contains(&format!("\"kind\":\"{k}\"")))
        .count();
    let completeness = present as f64 / kinds.len() as f64;
    ledger.put("ber.flight_kinds_present", present);
    println!(
        "flight recorder: {present}/{} entry kinds captured (completeness {completeness:.2})",
        kinds.len()
    );
    if completeness < 1.0 {
        let missing: Vec<&str> = kinds
            .iter()
            .filter(|k| !pm.contains(&format!("\"kind\":\"{k}\"")))
            .copied()
            .collect();
        gate_failures.push(format!(
            "flight post-mortem incomplete: missing {missing:?}"
        ));
    }
    server.stop();

    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"smoke\": {smoke},\n  \
         \"sampling\": {{\"links\": {LINKS}, \"workers\": 1, \"traffic_ticks\": {ticks}, \
         \"pairs\": {pairs}, \"plain_wall_s\": {plain:.6}, \"sampled_wall_s\": {sampled:.6}, \
         \"median_ratio\": {ratio:.4}, \"overhead_pct\": {overhead_pct:.2}, \
         \"gate_pct\": {max_sampling_overhead_pct}}},\n  \
         \"detection\": {{\"links\": {LINKS}, \"seeded_link\": {BAD_LINK}, \
         \"every_ticks\": {every}, \"budget_ticks\": {budget}, \"gate_ticks\": {gate_ticks}, \
         \"detected_tick\": {}, \"live_at_scrape\": {live}, \
         \"scrape_ok\": {scrape_ok}, \"metrics_lines\": {metrics_lines}}},\n  \
         \"flight\": {{\"kinds_present\": {present}, \"kinds_expected\": {}, \
         \"completeness\": {completeness:.2}}}\n}}\n",
        detect.map_or("null".to_string(), |t| t.to_string()),
        kinds.len()
    );
    ledger.finish(smoke, &json, &gate_failures);
}
