//! §5 headline claims — throughput: cycles-per-byte of both datapaths
//! × the achievable clock per device ⇒ line rate served.
//!
//! "Making use of a 32-bit bus, the system had to operate at a
//! frequency of at least [78.125 MHz].  It is imperative that at this
//! speed the system is able to process 32 bits every clock cycle."
//!
//! With `--smoke` the report runs a reduced IMIX (suitable for CI) and
//! still writes `results/BENCH_throughput.json`, so `scripts/check.sh`
//! can gate on the numbers existing and the shape holding.  The
//! `sonet_carriage` row is the same in both modes: the line frames per
//! window and the fill share of a link over STM-16, exact counts that
//! `--max-sonet-fill-ratio` gates.

use std::fmt::Write as _;
use std::time::Instant;

use p5_bench::{
    heading, imix_sizes, interleaved_overhead, ip_like_datagram, payload_with_flag_density,
};
use p5_core::{DatapathWidth, P5};
use p5_fpga::devices;
use p5_link::{Link, LinkBuilder};
use p5_rtl::synthesize_system;
use p5_sonet::StmLevel;
use p5_stream::{pool::alloc_count, BufPool};

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
    /// Host-side simulation speed: wire bits through a fused simplex
    /// [`Link`] per wall-clock second (how fast the simulator runs, not
    /// the modelled line rate), from the median IMIX run.
    sim_wall_gbps: f64,
    /// Steady-state heap allocations per datagram (pool misses counted
    /// by `alloc_count`), measured after a warm-up batch has stocked the
    /// buffer shelves; the most any IMIX run counted.
    allocs_per_frame: f64,
    /// Payload rate on 576-octet datagrams with one octet in four a flag
    /// or an escape over the payload rate on the IMIX datagrams: one
    /// over the median of per-pair ratios of seconds per payload octet.
    dense_over_clean: f64,
}

/// Datagrams sent before each drain: the receive shelf holds
/// [`BufPool::MAX_SHELVED`] payload buffers, so a window no larger
/// recycles every one of them.
const WINDOW: usize = BufPool::MAX_SHELVED;

/// One batch of datagrams through the link, in windows run to drain and
/// delivered through [`Link::drain_deliveries`], which hands every
/// payload buffer back to the receiver.
fn fast_path_batch(link: &mut Link, payloads: &[Vec<u8>]) {
    for window in payloads.chunks(WINDOW) {
        for p in window {
            link.send(0x0021, p);
        }
        link.run(10_000_000).expect("fused link failed to drain");
        let delivered = link.drain_deliveries(|_, _| {});
        assert_eq!(delivered, window.len(), "fused link lost frames");
    }
}

/// What one timed run of a payload set measured.
struct Rep {
    wall: f64,
    wire_bytes: f64,
    allocs: f64,
}

/// A fresh link, one untimed warm-up batch (it stocks the
/// recycled-buffer shelves, so the timed rounds see the steady state),
/// then `rounds` timed batches.
fn fast_path_rep(width: DatapathWidth, payloads: &[Vec<u8>], rounds: usize) -> Rep {
    let mut link = LinkBuilder::new()
        .width(width)
        .build()
        .expect("clean link builds");
    fast_path_batch(&mut link, payloads);
    let line_bytes = |link: &Link| link.stack().boundary_stats()[1].bytes_out;
    let bytes0 = line_bytes(&link);
    let allocs0 = alloc_count::events();
    let started = Instant::now();
    for _ in 0..rounds {
        fast_path_batch(&mut link, payloads);
    }
    Rep {
        wall: started.elapsed().as_secs_f64(),
        wire_bytes: (line_bytes(&link) - bytes0) as f64,
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
    // Enough rounds per run that the timed region moves ≥ ~2 MB of
    // payload.  The wall clock is noisy where the cycle count is not,
    // and shared hosts throttle in windows of tens of milliseconds, so
    // the two sets alternate run by run (`interleaved_overhead`): each
    // dense run is read against the IMIX runs on either side of it, and
    // the gate reads the median of those per-pair ratios.
    let payload_bytes = |set: &[Vec<u8>]| set.iter().map(Vec::len).sum::<usize>();
    let rounds = |set: &[Vec<u8>]| (2 * 1024 * 1024 / payload_bytes(set).max(1)).max(1);
    let (imix_rounds, dense_rounds) = (rounds(&imix), rounds(&dense));
    let imix_payload = (payload_bytes(&imix) * imix_rounds) as f64;
    let mut wire_per_payload = 0f64;
    let mut allocs_per_frame = 0f64;
    let (imix_s, _, dense_per_clean) = interleaved_overhead(PAIRS, |dense_set| {
        if dense_set {
            let run = fast_path_rep(width, &dense, dense_rounds);
            return run.wall / (payload_bytes(&dense) * dense_rounds) as f64;
        }
        let run = fast_path_rep(width, &imix, imix_rounds);
        wire_per_payload = run.wire_bytes / imix_payload;
        allocs_per_frame = allocs_per_frame.max(run.allocs / (imix_rounds * imix.len()) as f64);
        run.wall / imix_payload
    });
    FastPathRun {
        sim_wall_gbps: wire_per_payload * 8.0 / imix_s / 1e9,
        allocs_per_frame,
        dense_over_clean: 1.0 / dense_per_clean,
    }
}

/// Dense runs in the interleaved measurement, each between two IMIX
/// runs.
const PAIRS: usize = 15;

/// Windows the SONET carriage row sends, and datagrams per window.
const SONET_WINDOWS: usize = 32;
const SONET_WINDOW: usize = 1024;

/// Line accounting of a fused link over an STM-16 path.  Both are
/// exact counts of what the path ran, the same on every run and host.
struct SonetCarriage {
    /// STM-16 frames the path ran per window.
    line_frames_per_window: f64,
    /// Share of the SPE octets those frames carried that was flag fill
    /// rather than the transmitter's wire.
    fill_ratio: f64,
}

/// [`SONET_WINDOWS`] windows of [`SONET_WINDOW`] IMIX datagrams through
/// a 32-bit link over STM-16, each run to drain and delivered through
/// [`Link::drain_deliveries`]; the counts come from
/// [`Link::stage_stats`]: the `oc-path` row's line frames and the
/// `p5-tx` row's octets put on the line.
fn sonet_carriage_run() -> SonetCarriage {
    let level = StmLevel::Stm16;
    let mut link = LinkBuilder::new()
        .width(DatapathWidth::W32)
        .sonet(level)
        .build()
        .expect("STM-16 link builds");
    let payloads: Vec<Vec<u8>> = imix_sizes(SONET_WINDOW, 42)
        .iter()
        .enumerate()
        .map(|(i, len)| ip_like_datagram(*len, i as u64))
        .collect();
    for _ in 0..SONET_WINDOWS {
        for p in &payloads {
            link.send(0x0021, p);
        }
        link.run(10_000_000).expect("SONET link failed to drain");
        let delivered = link.drain_deliveries(|_, _| {});
        assert_eq!(delivered, payloads.len(), "SONET link lost frames");
    }
    let stats = link.stage_stats();
    let row = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .expect("a SONET link reports this row")
    };
    let frames = row("oc-path").cycles as f64;
    let line_bytes = row("p5-tx").bytes_out as f64;
    SonetCarriage {
        line_frames_per_window: frames / SONET_WINDOWS as f64,
        fill_ratio: 1.0 - line_bytes / (frames * level.payload_per_frame() as f64),
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
    // datagrams over its IMIX rate, the median of interleaved per-pair
    // ratios — a ratio, so host speed cancels; per-octet escape
    // handling reads ~0.22, the word-wide byte sorter ~0.37.
    let min_dense = arg_value(&args, "--min-dense-over-clean");
    // SONET fill gate: the share of the STM-16 path's SPE octets that
    // were flag fill on the carriage row — an exact count, so flushes
    // that run frames past the backlog fail on a number, not on speed.
    let max_sonet_fill = arg_value(&args, "--max-sonet-fill-ratio");
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
    let sonet = sonet_carriage_run();
    println!(
        "\nsonet_carriage (32-bit link over STM-16, {SONET_WINDOWS} windows of \
         {SONET_WINDOW} IMIX datagrams): {:.4} line frames/window, fill ratio {:.4}",
        sonet.line_frames_per_window, sonet.fill_ratio,
    );
    if let Some(ceiling) = max_sonet_fill {
        if sonet.fill_ratio > ceiling {
            gate_failures.push(format!(
                "sonet_carriage fill ratio {:.4} above ceiling {ceiling:.4}",
                sonet.fill_ratio,
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"smoke\": {smoke},\n  \
         \"imix_datagrams\": {datagrams},\n  \"rows\": [\n{rows}\n  ],\n  \
         \"sonet_carriage\": {{\"level\": \"STM-16\", \"width_bits\": 32, \
         \"windows\": {SONET_WINDOWS}, \"window_datagrams\": {SONET_WINDOW}, \
         \"line_frames_per_window\": {:.4}, \"fill_ratio\": {:.4}}}\n}}\n",
        sonet.line_frames_per_window, sonet.fill_ratio,
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
