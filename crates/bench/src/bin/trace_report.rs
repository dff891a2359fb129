//! Observability report — the p5-trace layer exercised end to end.
//!
//! Three experiments per datapath width (8-bit and 32-bit):
//!
//! 1. **Duplex lifecycle trace** — two devices clocked in lockstep,
//!    wire bytes shuttled both ways each cycle, a [`SharedRecorder`]
//!    on each.  Every frame's submit → framed → stuffed → wire →
//!    delineated → CRC verdict → delivered chain is matched up by
//!    frame id and the cycle-exact latency histogrammed.
//! 2. **Stall attribution** — a simplex link whose line a seeded
//!    stall plan holds, sent a window past the transmitter's wire
//!    high-water mark; the admission and line boundaries'
//!    offered/accepted/blocked table names where frames waited.
//! 3. **Tracing overhead** — the instrumented device re-runs the
//!    throughput workload with tracing disabled and with a recorder
//!    attached; both runs' cycles and wire octets go to the ledger,
//!    where the disabled run matches `throughput_report`'s staged
//!    counts exactly.
//! 4. **Fleet-path overhead gate** — a 256-link fleet runs plain
//!    (`Fleet::run_until_drained`) and through the observability
//!    sampling path (`Fleet::run_sampled`) with *no collector
//!    attached*, alternating rep by rep; the median of the per-pair
//!    wall-time ratios must stay within `--max-fleet-overhead-pct`
//!    (default 3%) when nothing is sampling.
//!
//! Writes `BENCH_trace.json` (under `target/` with `--smoke`, which
//! shrinks the traffic for CI; under `results/` without) and ends with
//! the ledger's exact counts from experiments 1–3.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use p5_bench::{arg_value, heading, imix_sizes, interleaved_overhead, ip_like_datagram, Ledger};
use p5_core::{DatapathWidth, P5};
use p5_fault::FaultSpec;
use p5_link::LinkBuilder;
use p5_runtime::{Fleet, FleetConfig, TrafficSpec};
use p5_stream::SharedRecorder;
use p5_trace::{EventKind, Histogram};

/// One direction's latency summary from matched Submit/Delivered events.
struct Latency {
    hist: Histogram,
    min: u64,
    max: u64,
}

impl Latency {
    fn observe_all(submits: &HashMap<u32, u64>, delivers: &[(u32, u64)]) -> Self {
        let mut l = Latency {
            hist: Histogram::new(),
            min: u64::MAX,
            max: 0,
        };
        for (id, cycle) in delivers {
            let Some(&sub) = submits.get(id) else {
                continue;
            };
            let d = cycle - sub;
            l.hist.observe(d);
            l.min = l.min.min(d);
            l.max = l.max.max(d);
        }
        l
    }

    fn min(&self) -> u64 {
        if self.hist.is_empty() {
            0
        } else {
            self.min
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"frames\": {}, \"mean_cycles\": {:.1}, \
             \"min_cycles\": {}, \"max_cycles\": {}}}",
            self.hist.count(),
            self.hist.mean(),
            self.min(),
            self.max
        )
    }

    /// The exact readings: frames matched, and the sum, least and most
    /// of their latencies in cycles.
    fn ledger(&self, ledger: &mut Ledger, key: &str) {
        ledger.put(&format!("{key}.frames"), self.hist.count());
        ledger.put(&format!("{key}.sum_cycles"), self.hist.sum());
        ledger.put(&format!("{key}.min_cycles"), self.min());
        ledger.put(&format!("{key}.max_cycles"), self.max);
    }
}

struct DuplexOut {
    events_a: usize,
    events_b: usize,
    census_a: String,
    census_b: String,
    a2b: Latency,
    b2a: Latency,
}

/// Clock two traced devices in lockstep, shuttling the wire both ways
/// every cycle, until `frames` frames have been delivered in each
/// direction.  The devices and the wire come from
/// [`LinkBuilder::build_duplex`]; the lockstep clocking (one cycle per
/// exchange, for cycle-exact latency) is driven here.
fn duplex_run(width: DatapathWidth, frames: usize) -> DuplexOut {
    let rec_a = SharedRecorder::with_capacity(1 << 15);
    let rec_b = SharedRecorder::with_capacity(1 << 15);
    let mut link = LinkBuilder::new()
        .width(width)
        .build_duplex()
        .expect("clean duplex link builds");
    // Latency is matched per direction, so each device gets its own
    // recorder (the builder's `.trace` installs one shared recorder).
    link.a.dev.set_trace(Box::new(rec_a.clone()));
    link.b.dev.set_trace(Box::new(rec_b.clone()));
    let (a, b) = (&mut link.a.dev, &mut link.b.dev);

    let sizes_a = imix_sizes(frames, 11);
    let sizes_b = imix_sizes(frames, 23);
    let (mut next_a, mut next_b) = (0usize, 0usize);
    let (mut got_a, mut got_b) = (0usize, 0usize);
    let mut guard = 0u64;
    while got_a < frames || got_b < frames {
        // Streaming load: each side submits its next datagram as soon
        // as the transmit queue has room.
        if next_a < frames && a.tx.control.queue_free() > 0 {
            a.submit(0x0021, ip_like_datagram(sizes_a[next_a], next_a as u64))
                .expect("queue_free checked");
            next_a += 1;
        }
        if next_b < frames && b.tx.control.queue_free() > 0 {
            b.submit(0x0021, ip_like_datagram(sizes_b[next_b], next_b as u64))
                .expect("queue_free checked");
            next_b += 1;
        }
        a.clock();
        b.clock();
        // One cycle per exchange: the clean ferry is a zero-latency wire,
        // so the matched submit→deliver latencies stay cycle-exact.
        let wa = a.take_wire_out();
        if !wa.is_empty() {
            b.put_wire_in(&wa);
        }
        let wb = b.take_wire_out();
        if !wb.is_empty() {
            a.put_wire_in(&wb);
        }
        got_b += a.take_received().len();
        got_a += b.take_received().len();
        guard += 1;
        assert!(guard < 50_000_000, "duplex run failed to drain");
    }

    // Match Submit (sender clock) to Delivered (receiver clock): the
    // clocks are lockstep and the link is in-order and lossless, so the
    // receiver's k-th frame id equals the sender's k-th.
    let index = |rec: &SharedRecorder| {
        let mut submits = HashMap::new();
        let mut delivers = Vec::new();
        for e in rec.events() {
            match e.kind {
                EventKind::Submit { id, .. } => {
                    submits.insert(id, e.cycle);
                }
                EventKind::Delivered { id, .. } => delivers.push((id, e.cycle)),
                _ => {}
            }
        }
        (submits, delivers)
    };
    let (sub_a, del_a) = index(&rec_a);
    let (sub_b, del_b) = index(&rec_b);
    DuplexOut {
        events_a: rec_a.len(),
        events_b: rec_b.len(),
        census_a: event_census(&rec_a),
        census_b: event_census(&rec_b),
        a2b: Latency::observe_all(&sub_a, &del_b),
        b2a: Latency::observe_all(&sub_b, &del_a),
    }
}

/// Event-kind census of one recorder, rendered as `kind:count` pairs.
fn event_census(rec: &SharedRecorder) -> String {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for e in rec.events() {
        let name = e.kind.name();
        match counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => counts.push((name, 1)),
        }
    }
    counts
        .iter()
        .map(|(n, c)| format!("{n}:{c}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Send `datagrams` IMIX datagrams over a simplex link whose line a
/// seeded stall plan holds, run it to drain, and return the rendered
/// stall table, the boundary counters for the JSON report and the
/// plan's stall decisions; the counters also go to the ledger under
/// `key`.  The window passes the transmitter's wire high-water mark,
/// so sends pump the line and storms queue frames.
fn stall_run(
    width: DatapathWidth,
    datagrams: usize,
    ledger: &mut Ledger,
    key: &str,
) -> (String, String, u64) {
    let plan = FaultSpec::clean()
        .stall(0.5, 8)
        .compile(31)
        .expect("stall spec is valid");
    let mut link = LinkBuilder::new()
        .width(width)
        .fault(plan)
        .build()
        .expect("stalled link builds");
    for (i, len) in imix_sizes(datagrams, 31).iter().enumerate() {
        link.send(0x0021, &ip_like_datagram(*len, i as u64));
    }
    link.run(400_000).expect("stalled link failed to drain");
    assert_eq!(
        link.drain_deliveries(|_, _| {}),
        datagrams,
        "a storm lost frames"
    );
    let mut table = format!(
        "{:<10} {:>9} {:>9} {:>9} {:>8} {:>10}\n",
        "boundary", "offered", "accepted", "blocked", "blocked%", "bytes"
    );
    let mut json = String::new();
    for (name, b) in link.stack().named_boundaries() {
        let _ = writeln!(
            table,
            "{name:<10} {:>9} {:>9} {:>9} {:>7.1}% {:>10}",
            b.offered,
            b.accepted,
            b.blocked,
            100.0 * b.blocked as f64 / b.offered.max(1) as f64,
            b.bytes_out,
        );
        ledger.put(&format!("{key}.{name}.offered"), b.offered);
        ledger.put(&format!("{key}.{name}.accepted"), b.accepted);
        ledger.put(&format!("{key}.{name}.blocked"), b.blocked);
        ledger.put(&format!("{key}.{name}.bytes_out"), b.bytes_out);
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "{{\"boundary\": \"{name}\", \"offered\": {}, \"accepted\": {}, \
             \"blocked\": {}}}",
            b.offered, b.accepted, b.blocked,
        );
    }
    let stall_cycles = link
        .stage_stats()
        .into_iter()
        .find(|(name, _)| *name == "fault")
        .map_or(0, |(_, st)| st.stall_cycles);
    ledger.put(&format!("{key}.stall_cycles"), stall_cycles);
    (table, json, stall_cycles)
}

/// The throughput workload through the cycle model, with tracing either
/// left disabled or attached: (cycles, wire octets, wire Gbit/s of host
/// simulation).
fn measure_bpc(width: DatapathWidth, datagrams: usize, traced: bool) -> (u64, u64, f64) {
    let mut p5 = P5::new(width);
    let rec = SharedRecorder::with_capacity(1 << 15);
    if traced {
        p5.set_trace(Box::new(rec.clone()));
    }
    for (i, len) in imix_sizes(datagrams, 42).iter().enumerate() {
        p5.submit(0x0021, ip_like_datagram(*len, i as u64)).unwrap();
    }
    let started = Instant::now();
    let cycles = p5.run_until_idle(100_000_000);
    let wall = started.elapsed().as_secs_f64();
    let wire = p5.take_wire_out().len() as u64;
    (cycles, wire, wire as f64 * 8.0 / wall / 1e9)
}

/// Wall time (seconds) of one fleet run on a freshly built fleet.
fn fleet_wall(links: usize, ticks: u64, sampled: bool) -> f64 {
    let mut fleet = Fleet::new(FleetConfig {
        links,
        // One worker: the hook runs on the driving thread, and the
        // per-batch worker spawns of a pool would only add jitter.
        workers: 1,
        traffic: Some(TrafficSpec {
            frames_per_tick: 1,
            ticks,
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    })
    .expect("fleet builds");
    let started = Instant::now();
    if sampled {
        // The observability drive path at the collector's default
        // cadence, with NOTHING attached: this is what every fleet
        // pays just for being scrape-ready.
        fleet.run_sampled(ticks * 4, 64, |_| {});
    } else {
        // The established drive loop (same 64-tick batching), so
        // the comparison isolates the sampling hook itself.
        fleet.run_until_drained(ticks * 4);
    }
    started.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_fleet_overhead_pct = arg_value(&args, "--max-fleet-overhead-pct").unwrap_or(3.0);
    let frames = if smoke { 24 } else { 120 };

    print!(
        "{}",
        heading("Trace report - duplex lifecycle, stall attribution, overhead")
    );

    let mut ledger = Ledger::new("trace");
    let mut gate_failures: Vec<String> = Vec::new();
    let (mut duplex_rows, mut stall_rows, mut overhead_rows) =
        (String::new(), String::new(), String::new());

    for (width, bits) in [(DatapathWidth::W8, 8u32), (DatapathWidth::W32, 32u32)] {
        println!("\n--- {bits}-bit datapath ---");

        // 1. Duplex lifecycle trace + latency histograms.
        let d = duplex_run(width, frames);
        println!(
            "duplex: {} frames/direction, {} + {} events recorded",
            frames, d.events_a, d.events_b
        );
        println!("  station A events: {}", d.census_a);
        println!("  station B events: {}", d.census_b);
        for (dir, l) in [("A->B", &d.a2b), ("B->A", &d.b2a)] {
            println!(
                "latency {dir}: {} frames, mean {:.1} cycles, min {}, max {}",
                l.hist.count(),
                l.hist.mean(),
                l.min,
                l.max
            );
            for line in l.hist.render().lines() {
                println!("  {line}");
            }
        }
        ledger.put(&format!("w{bits}.duplex.events_a"), d.events_a);
        ledger.put(&format!("w{bits}.duplex.events_b"), d.events_b);
        d.a2b.ledger(&mut ledger, &format!("w{bits}.duplex.a2b"));
        d.b2a.ledger(&mut ledger, &format!("w{bits}.duplex.b2a"));
        if d.a2b.hist.count() as usize != frames || d.b2a.hist.count() as usize != frames {
            gate_failures.push(format!(
                "{bits}-bit duplex: matched {}/{} A->B and {}/{} B->A lifecycles",
                d.a2b.hist.count(),
                frames,
                d.b2a.hist.count(),
                frames
            ));
        }
        if !duplex_rows.is_empty() {
            duplex_rows.push_str(",\n");
        }
        let _ = write!(
            duplex_rows,
            "    {{\"width_bits\": {bits}, \"frames_per_direction\": {frames}, \
             \"events_a\": {}, \"events_b\": {}, \
             \"latency_a2b\": {}, \"latency_b2a\": {}}}",
            d.events_a,
            d.events_b,
            d.a2b.json(),
            d.b2a.json()
        );

        // 2. Stall attribution on a link under a seeded stall plan.
        let stall_frames = 40 * frames;
        let (table, boundaries_json, stall_cycles) =
            stall_run(width, stall_frames, &mut ledger, &format!("w{bits}.stall"));
        println!("\nstall attribution (stalled line, {stall_frames} frames):");
        print!("{table}");
        println!("stall decisions that held the line: {stall_cycles}");
        if !stall_rows.is_empty() {
            stall_rows.push_str(",\n");
        }
        let _ = write!(
            stall_rows,
            "    {{\"width_bits\": {bits}, \"frames\": {stall_frames}, \
             \"stall_cycles\": {stall_cycles}, \"boundaries\": [{boundaries_json}]}}"
        );

        // 3. Tracing overhead: the throughput workload, tracing disabled
        //    and attached.
        let imix = if smoke { 40 } else { 200 };
        let (cycles_off, wire_off, gbps_off) = measure_bpc(width, imix, false);
        let (cycles_on, wire_on, _) = measure_bpc(width, imix, true);
        let (bpc_off, bpc_on) = (
            wire_off as f64 / cycles_off as f64,
            wire_on as f64 / cycles_on as f64,
        );
        println!(
            "\noverhead: disabled {bpc_off:.4} B/cyc, enabled {bpc_on:.4} B/cyc, \
             sim {gbps_off:.4} Gbps"
        );
        ledger.put(&format!("w{bits}.disabled_cycles"), cycles_off);
        ledger.put(&format!("w{bits}.disabled_wire_bytes"), wire_off);
        ledger.put(&format!("w{bits}.enabled_cycles"), cycles_on);
        ledger.put(&format!("w{bits}.enabled_wire_bytes"), wire_on);
        if !overhead_rows.is_empty() {
            overhead_rows.push_str(",\n");
        }
        let _ = write!(
            overhead_rows,
            "    {{\"width_bits\": {bits}, \"imix_datagrams\": {imix}, \
             \"disabled_bytes_per_cycle\": {bpc_off:.4}, \
             \"enabled_bytes_per_cycle\": {bpc_on:.4}}}"
        );
    }

    // 4. Fleet-path overhead: the observability drive path with nothing
    //    attached vs the plain drive, same 256-link workload.
    let (links, ticks, pairs) = if smoke {
        (256, 100, 61)
    } else {
        (256, 400, 41)
    };
    let (plain, ready, ratio) =
        interleaved_overhead(pairs, |ready| fleet_wall(links, ticks, ready));
    let fleet_overhead_pct = 100.0 * (ratio - 1.0);
    println!(
        "\nfleet path ({links} links, {ticks} traffic ticks, {pairs} interleaved pairs): \
         plain {:.1} ms, scrape-ready (no collector) {:.1} ms, \
         median ratio {ratio:.4} ({fleet_overhead_pct:+.2}%)",
        plain * 1e3,
        ready * 1e3
    );
    if fleet_overhead_pct > max_fleet_overhead_pct {
        gate_failures.push(format!(
            "fleet sampling path with no collector costs {fleet_overhead_pct:.2}% \
             wall (median of {pairs} interleaved pairs; gate {max_fleet_overhead_pct}%)"
        ));
    }
    let fleet_json = format!(
        "{{\"links\": {links}, \"traffic_ticks\": {ticks}, \"pairs\": {pairs}, \
         \"plain_wall_s\": {plain:.6}, \"scrape_ready_wall_s\": {ready:.6}, \
         \"median_ratio\": {ratio:.4}, \"overhead_pct\": {fleet_overhead_pct:.2}, \
         \"gate_pct\": {max_fleet_overhead_pct}}}"
    );

    let json = format!(
        "{{\n  \"bench\": \"trace\",\n  \"smoke\": {smoke},\n  \
         \"duplex\": [\n{duplex_rows}\n  ],\n  \
         \"stall\": [\n{stall_rows}\n  ],\n  \
         \"overhead\": [\n{overhead_rows}\n  ],\n  \
         \"fleet_overhead\": {fleet_json}\n}}\n"
    );
    ledger.finish(smoke, &json, &gate_failures);
}
