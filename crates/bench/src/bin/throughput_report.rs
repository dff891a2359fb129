//! §5 headline claims — throughput: cycles-per-byte of both datapaths
//! × the achievable clock per device ⇒ line rate served.
//!
//! "Making use of a 32-bit bus, the system had to operate at a
//! frequency of at least [78.125 MHz].  It is imperative that at this
//! speed the system is able to process 32 bits every clock cycle."
//!
//! With `--smoke` the report runs a reduced IMIX (suitable for CI) and
//! still writes `results/BENCH_throughput.json`, so `scripts/check.sh`
//! can gate on the numbers existing and the shape holding.

use std::fmt::Write as _;
use std::time::Instant;

use p5_bench::{heading, imix_sizes, ip_like_datagram, payload_with_flag_density};
use p5_core::{encap, DatapathWidth, RxStage, TxStage, P5};
use p5_fpga::devices;
use p5_rtl::synthesize_system;
use p5_stream::{pool::alloc_count, StreamStage, WireBuf, WordStream};

struct DatapathRun {
    bytes_per_cycle: f64,
    cycles_per_byte: f64,
}

/// The cycle-model reading is fully deterministic (the clock loop takes
/// the same number of cycles every run), so one pass suffices.
fn datapath_run(width: DatapathWidth, datagrams: usize) -> DatapathRun {
    let sizes = imix_sizes(datagrams, 42);
    let mut p5 = P5::new(width);
    // The staged pipeline is the cycle model; the fused path does not
    // advance cycles, so it must stay out of this measurement.
    p5.fused_enabled = false;
    for (i, len) in sizes.iter().enumerate() {
        p5.submit(0x0021, ip_like_datagram(*len, i as u64)).unwrap();
    }
    let cycles = p5.run_until_idle(100_000_000);
    let bytes_per_cycle = p5.take_wire_out().len() as f64 / cycles as f64;
    DatapathRun {
        bytes_per_cycle,
        cycles_per_byte: 1.0 / bytes_per_cycle,
    }
}

struct FastPathRun {
    /// Host-side simulation speed: wire bits through a fused
    /// `TxStage → RxStage` link per wall-clock second (how fast the
    /// simulator runs, not the modelled line rate).
    sim_wall_gbps: f64,
    /// Steady-state heap allocations per datagram (pool misses counted
    /// by `alloc_count`), measured after a warm-up batch has stocked the
    /// buffer shelves.
    allocs_per_frame: f64,
    /// Payload rate on 576-octet datagrams with one octet in four a flag
    /// or an escape over the payload rate on the IMIX datagrams.
    dense_over_clean: f64,
}

/// One batch of datagrams through a `TxStage → RxStage` link, swept the
/// way `Stack::step` sweeps (sink→source, drain before offer) until fully
/// drained; delivered frames are popped into `scratch` so every buffer
/// is reused across batches.
fn fast_path_batch(
    tx: &mut TxStage,
    rx: &mut RxStage,
    payloads: &[Vec<u8>],
    input: &mut WireBuf,
    mid: &mut WireBuf,
    out: &mut WireBuf,
    scratch: &mut Vec<u8>,
) {
    for p in payloads {
        encap(0x0021, p, input);
    }
    let mut sweeps = 0u32;
    loop {
        let _ = rx.drain(out);
        let _ = rx.offer(mid);
        let _ = tx.drain(mid);
        let _ = tx.offer(input);
        if input.is_empty() && mid.is_empty() && tx.is_idle() && rx.is_idle() {
            let _ = rx.drain(out);
            break;
        }
        sweeps += 1;
        assert!(sweeps < 10_000_000, "fused link failed to drain");
    }
    while out.pop_frame_into(scratch).is_some() {}
}

/// What one timed rep of a payload set measured.
struct Rep {
    wall: f64,
    wire_bytes: f64,
    allocs: f64,
}

/// A fresh fused link, one untimed warm-up batch (it stocks the
/// recycled-buffer shelves, so the timed rounds see the steady state),
/// then `rounds` timed batches.
fn fast_path_rep(width: DatapathWidth, payloads: &[Vec<u8>], rounds: usize) -> Rep {
    let mut tx = TxStage::new(P5::new(width));
    let mut rx = RxStage::new(P5::new(width));
    let mut input = WireBuf::new();
    let mut mid = WireBuf::new();
    let mut out = WireBuf::new();
    let mut scratch = Vec::new();
    let mut batch = |tx: &mut TxStage, rx: &mut RxStage| {
        fast_path_batch(
            tx,
            rx,
            payloads,
            &mut input,
            &mut mid,
            &mut out,
            &mut scratch,
        )
    };
    batch(&mut tx, &mut rx);
    let bytes0 = StreamStage::stats(&tx).bytes_out;
    let allocs0 = alloc_count::events();
    let started = Instant::now();
    for _ in 0..rounds {
        batch(&mut tx, &mut rx);
    }
    Rep {
        wall: started.elapsed().as_secs_f64(),
        wire_bytes: (StreamStage::stats(&tx).bytes_out - bytes0) as f64,
        allocs: (alloc_count::events() - allocs0) as f64,
    }
}

fn fast_path_run(width: DatapathWidth, datagrams: usize) -> FastPathRun {
    let sizes = imix_sizes(datagrams, 42);
    let imix: Vec<Vec<u8>> = sizes
        .iter()
        .enumerate()
        .map(|(i, len)| ip_like_datagram(*len, i as u64))
        .collect();
    let dense: Vec<Vec<u8>> = (0..datagrams)
        .map(|i| payload_with_flag_density(576, 0.25, i as u64))
        .collect();
    // Enough rounds per rep that the timed region moves ≥ ~2 MB of
    // payload — long enough for a stable clock reading even in smoke
    // mode.  The wall clock is noisy where the cycle count is not: one
    // untimed warm-up rep, then the identical rep repeated with the
    // best time kept, so scheduler noise can't fake a regression.
    // Shared hosts throttle in windows of tens of milliseconds, so the
    // reps are spread out with short sleeps — one of them lands in a
    // fast window even when a single burst would sit entirely in a
    // slow one.  The two payload sets alternate within each rep, so the
    // dense/clean ratio compares readings taken side by side.
    let payload_bytes = |set: &[Vec<u8>]| set.iter().map(Vec::len).sum::<usize>();
    let rounds = |set: &[Vec<u8>]| (2 * 1024 * 1024 / payload_bytes(set).max(1)).max(1);
    let (imix_rounds, dense_rounds) = (rounds(&imix), rounds(&dense));
    let (mut best_imix, mut best_dense) = (f64::INFINITY, f64::INFINITY);
    let mut wire_bytes = 0f64;
    let mut allocs_per_frame = f64::INFINITY;
    for rep in 0..=4 {
        let clean = fast_path_rep(width, &imix, imix_rounds);
        let escaped = fast_path_rep(width, &dense, dense_rounds);
        if rep == 0 {
            continue; // process warm-up
        }
        wire_bytes = clean.wire_bytes;
        best_imix = best_imix.min(clean.wall);
        best_dense = best_dense.min(escaped.wall);
        allocs_per_frame = allocs_per_frame.min(clean.allocs / (imix_rounds * imix.len()) as f64);
        std::thread::sleep(std::time::Duration::from_millis(40));
    }
    let rate =
        |set: &[Vec<u8>], rounds: usize, wall: f64| (payload_bytes(set) * rounds) as f64 / wall;
    FastPathRun {
        sim_wall_gbps: wire_bytes * 8.0 / best_imix / 1e9,
        allocs_per_frame,
        dense_over_clean: rate(&dense, dense_rounds, best_dense)
            / rate(&imix, imix_rounds, best_imix),
    }
}

/// Host-simulation speed of the pre-vectorisation engine (recorded in
/// EXPERIMENTS.md) — the denominators for the `sim_wall_uplift` column.
const SIM_WALL_BASELINE_W8: f64 = 0.0388;
const SIM_WALL_BASELINE_W32: f64 = 0.1716;

/// Parse `--flag <value>` from the argument list.
fn arg_value(args: &[String], flag: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Regression gates: fail the run (exit 1) if a width's measured
    // bytes/cycle drops below the floor.  `scripts/check.sh` pins these
    // to the shipped numbers so a cycle-model "optimisation" that costs
    // cycles cannot land silently.
    let min_bpc8 = arg_value(&args, "--min-bpc8");
    let min_bpc32 = arg_value(&args, "--min-bpc32");
    // Fast-path gates: floors on the fused link's host simulation speed
    // and a ceiling on steady-state heap allocations per datagram.
    let min_sim8 = arg_value(&args, "--min-sim8");
    let min_sim32 = arg_value(&args, "--min-sim32");
    let max_allocs = arg_value(&args, "--max-allocs-per-frame");
    // Byte-sorter gate: the fused link's payload rate on escape-dense
    // datagrams over its IMIX rate, measured side by side — a ratio, so
    // host speed cancels; per-octet escape handling reads ~0.22, the
    // word-wide byte sorter 0.5-0.65.
    let min_dense = arg_value(&args, "--min-dense-over-clean");
    let datagrams = if smoke { 40 } else { 200 };
    print!(
        "{}",
        heading("Throughput report - cycle model x synthesis clock")
    );
    println!(
        "{:<8} {:<12} {:>12} {:>12} {:>14} {:>12}",
        "width", "device", "bytes/cycle", "fMax (MHz)", "rate (Gbps)", "target"
    );
    let mut rows = String::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (width, w, dev_list) in [
        (
            DatapathWidth::W8,
            1usize,
            vec![devices::XCV50_4, devices::XC2V40_6],
        ),
        (
            DatapathWidth::W32,
            4usize,
            vec![devices::XCV600_4, devices::XC2V1000_6],
        ),
    ] {
        let run = datapath_run(width, datagrams);
        let fast = fast_path_run(width, datagrams);
        let (floor, sim_floor, sim_baseline) = match width {
            DatapathWidth::W8 => (min_bpc8, min_sim8, SIM_WALL_BASELINE_W8),
            DatapathWidth::W32 => (min_bpc32, min_sim32, SIM_WALL_BASELINE_W32),
        };
        if let Some(floor) = floor {
            // Compare at the JSON's own 4-decimal precision so shipped
            // report numbers can be pinned as floors verbatim.
            let bpc = (run.bytes_per_cycle * 1e4).round() / 1e4;
            if bpc < floor {
                gate_failures.push(format!(
                    "{}-bit bytes/cycle {bpc:.4} below floor {floor:.4}",
                    w * 8,
                ));
            }
        }
        if let Some(floor) = sim_floor {
            let gbps = (fast.sim_wall_gbps * 1e4).round() / 1e4;
            if gbps < floor {
                gate_failures.push(format!(
                    "{}-bit fused sim speed {gbps:.4} Gbps below floor {floor:.4}",
                    w * 8,
                ));
            }
        }
        if let Some(floor) = min_dense {
            if fast.dense_over_clean < floor {
                gate_failures.push(format!(
                    "{}-bit dense_over_clean {:.3} below floor {floor:.3}",
                    w * 8,
                    fast.dense_over_clean,
                ));
            }
        }
        if let Some(ceiling) = max_allocs {
            if fast.allocs_per_frame > ceiling {
                gate_failures.push(format!(
                    "{}-bit allocs/frame {:.4} above ceiling {ceiling:.4}",
                    w * 8,
                    fast.allocs_per_frame,
                ));
            }
        }
        for dev in dev_list {
            let r = synthesize_system(w, &dev);
            let gbps = run.bytes_per_cycle * r.fmax_post_mhz * 1e6 * 8.0 / 1e9;
            let target = width.line_rate_bps() as f64 / 1e9;
            println!(
                "{:<8} {:<12} {:>12.3} {:>12.1} {:>14.3} {:>9.3}  {}",
                format!("{}-bit", w * 8),
                dev.name,
                run.bytes_per_cycle,
                r.fmax_post_mhz,
                gbps,
                target,
                if gbps >= target { "MET" } else { "missed" },
            );
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            let _ = write!(
                rows,
                "    {{\"width_bits\": {}, \"device\": \"{}\", \
                 \"bytes_per_cycle\": {:.4}, \"cycles_per_byte\": {:.4}, \
                 \"fmax_mhz\": {:.1}, \"line_rate_gbps\": {:.4}, \
                 \"target_gbps\": {:.4}, \"met\": {}, \
                 \"sim_wall_gbps\": {:.4}, \
                 \"sim_wall_baseline_gbps\": {:.4}, \
                 \"sim_wall_uplift\": {:.2}, \
                 \"allocs_per_frame\": {:.4}, \
                 \"dense_over_clean\": {:.3}}}",
                w * 8,
                dev.name,
                run.bytes_per_cycle,
                run.cycles_per_byte,
                r.fmax_post_mhz,
                gbps,
                target,
                gbps >= target,
                fast.sim_wall_gbps,
                sim_baseline,
                fast.sim_wall_gbps / sim_baseline,
                fast.allocs_per_frame,
                fast.dense_over_clean,
            );
        }
        println!(
            "         {:<12} fused link: sim {:.4} Gbps (uplift {:.1}x vs \
             staged baseline), {:.4} allocs/frame, dense_over_clean {:.3}",
            "(host)",
            fast.sim_wall_gbps,
            fast.sim_wall_gbps / sim_baseline,
            fast.allocs_per_frame,
            fast.dense_over_clean,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"smoke\": {smoke},\n  \
         \"imix_datagrams\": {datagrams},\n  \"rows\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_throughput.json", &json).expect("write results/");
    println!("\nwrote results/BENCH_throughput.json");
    println!(
        "shape check (paper): the 32-bit P5 reaches 2.5 Gbps only on \
         Virtex-II technology;\nthe 8-bit baseline tops out at ~625 Mbps \
         regardless of device."
    );
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}
