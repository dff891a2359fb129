//! §5 headline claims — throughput: cycles-per-byte of both datapaths
//! × the achievable clock per device ⇒ line rate served.
//!
//! "Making use of a 32-bit bus, the system had to operate at a
//! frequency of at least [78.125 MHz].  It is imperative that at this
//! speed the system is able to process 32 bits every clock cycle."
//!
//! Writes `BENCH_throughput.json` (under `target/` with `--smoke`, a
//! reduced IMIX suitable for CI; under `results/` without) and ends with
//! the ledger's exact counts: the staged cycle model's cycles and wire
//! octets per width, the fused link's steady-state pool allocations,
//! and the line frames and octets of a link over STM-16 (the
//! `sonet_carriage` row, the same in both modes).

use std::fmt::Write as _;
use std::time::Instant;

use p5_bench::{
    arg_value, heading, imix_sizes, interleaved_overhead, ip_like_datagram,
    payload_with_flag_density, Ledger,
};
use p5_core::{DatapathWidth, P5};
use p5_fpga::devices;
use p5_link::{Link, LinkBuilder};
use p5_rtl::synthesize_system;
use p5_sonet::StmLevel;
use p5_stream::{pool::alloc_count, BufPool};

struct DatapathRun {
    cycles: u64,
    wire_bytes: u64,
}

impl DatapathRun {
    fn bytes_per_cycle(&self) -> f64 {
        self.wire_bytes as f64 / self.cycles as f64
    }
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
    DatapathRun {
        cycles,
        wire_bytes: p5.take_wire_out().len() as u64,
    }
}

struct FastPathRun {
    /// Host-side simulation speed: wire bits through a fused simplex
    /// [`Link`] per wall-clock second (how fast the simulator runs, not
    /// the modelled line rate), from the median IMIX run.
    sim_wall_gbps: f64,
    /// Steady-state heap allocations (pool misses counted by
    /// `alloc_count`) over every timed IMIX run, each measured after a
    /// warm-up batch has stocked the buffer shelves.
    imix_allocs: u64,
    /// The datagrams those runs sent.
    imix_frames: u64,
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
    allocs: u64,
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
        allocs: alloc_count::events() - allocs0,
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
    let (mut imix_allocs, mut imix_frames) = (0u64, 0u64);
    let (imix_s, _, dense_per_clean) = interleaved_overhead(PAIRS, |dense_set| {
        if dense_set {
            let run = fast_path_rep(width, &dense, dense_rounds);
            return run.wall / (payload_bytes(&dense) * dense_rounds) as f64;
        }
        let run = fast_path_rep(width, &imix, imix_rounds);
        wire_per_payload = run.wire_bytes / imix_payload;
        imix_allocs += run.allocs;
        imix_frames += (imix_rounds * imix.len()) as u64;
        run.wall / imix_payload
    });
    FastPathRun {
        sim_wall_gbps: wire_per_payload * 8.0 / imix_s / 1e9,
        imix_allocs,
        imix_frames,
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
    /// STM-16 frames the path ran.
    line_frames: u64,
    /// Octets the transmitter put on the line.
    line_octets: u64,
}

impl SonetCarriage {
    fn line_frames_per_window(&self) -> f64 {
        self.line_frames as f64 / SONET_WINDOWS as f64
    }

    /// Share of the SPE octets the line frames carried that was flag
    /// fill rather than the transmitter's wire.
    fn fill_ratio(&self) -> f64 {
        let spe = self.line_frames * StmLevel::Stm16.payload_per_frame() as u64;
        1.0 - self.line_octets as f64 / spe as f64
    }
}

/// [`SONET_WINDOWS`] windows of [`SONET_WINDOW`] IMIX datagrams through
/// a 32-bit link over STM-16, each run to drain and delivered through
/// [`Link::drain_deliveries`]; the counts come from
/// [`Link::stage_stats`]: the `oc-path` row's line frames and the
/// `p5-tx` row's octets put on the line.
fn sonet_carriage_run() -> SonetCarriage {
    let mut link = LinkBuilder::new()
        .width(DatapathWidth::W32)
        .sonet(StmLevel::Stm16)
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
    SonetCarriage {
        line_frames: row("oc-path").cycles,
        line_octets: row("p5-tx").bytes_out,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Fast-path gates: floors on the fused link's host simulation speed.
    let min_sim8 = arg_value(&args, "--min-sim8");
    let min_sim32 = arg_value(&args, "--min-sim32");
    // Byte-sorter gate: the fused link's payload rate on escape-dense
    // datagrams over its IMIX rate, the median of interleaved per-pair
    // ratios — a ratio, so host speed cancels; per-octet escape
    // handling reads ~0.22, the word-wide byte sorter ~0.39.
    let min_dense = arg_value(&args, "--min-dense-over-clean");
    let mut ledger = Ledger::new("throughput");
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
        let bits = w * 8;
        ledger.put(&format!("w{bits}.staged_cycles"), run.cycles);
        ledger.put(&format!("w{bits}.staged_wire_bytes"), run.wire_bytes);
        ledger.put(&format!("w{bits}.fused_imix_allocs"), fast.imix_allocs);
        let allocs_per_frame = fast.imix_allocs as f64 / fast.imix_frames as f64;
        let sim_floor = match width {
            DatapathWidth::W8 => min_sim8,
            DatapathWidth::W32 => min_sim32,
        };
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
        for dev in dev_list {
            let r = synthesize_system(w, &dev);
            let gbps = run.bytes_per_cycle() * r.fmax_post_mhz * 1e6 * 8.0 / 1e9;
            let target = width.line_rate_bps() as f64 / 1e9;
            println!(
                "{:<8} {:<12} {:>12.3} {:>12.1} {:>14.3} {:>9.3}  {}",
                format!("{}-bit", w * 8),
                dev.name,
                run.bytes_per_cycle(),
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
                 \"allocs_per_frame\": {:.4}, \
                 \"dense_over_clean\": {:.3}}}",
                w * 8,
                dev.name,
                run.bytes_per_cycle(),
                1.0 / run.bytes_per_cycle(),
                r.fmax_post_mhz,
                gbps,
                target,
                gbps >= target,
                fast.sim_wall_gbps,
                allocs_per_frame,
                fast.dense_over_clean,
            );
        }
        println!(
            "         {:<12} fused link: sim {:.4} Gbps, {:.4} allocs/frame, \
             dense_over_clean {:.3}",
            "(host)", fast.sim_wall_gbps, allocs_per_frame, fast.dense_over_clean,
        );
    }
    let sonet = sonet_carriage_run();
    println!(
        "\nsonet_carriage (32-bit link over STM-16, {SONET_WINDOWS} windows of \
         {SONET_WINDOW} IMIX datagrams): {:.4} line frames/window, fill ratio {:.4}",
        sonet.line_frames_per_window(),
        sonet.fill_ratio(),
    );
    ledger.put("stm16.line_frames", sonet.line_frames);
    ledger.put("stm16.line_octets", sonet.line_octets);
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"smoke\": {smoke},\n  \
         \"imix_datagrams\": {datagrams},\n  \"rows\": [\n{rows}\n  ],\n  \
         \"sonet_carriage\": {{\"level\": \"STM-16\", \"width_bits\": 32, \
         \"windows\": {SONET_WINDOWS}, \"window_datagrams\": {SONET_WINDOW}, \
         \"line_frames_per_window\": {:.4}, \"fill_ratio\": {:.4}}}\n}}\n",
        sonet.line_frames_per_window(),
        sonet.fill_ratio(),
    );
    println!(
        "\nshape check (paper): the 32-bit P5 reaches 2.5 Gbps only on \
         Virtex-II technology;\nthe 8-bit baseline tops out at ~625 Mbps \
         regardless of device."
    );
    ledger.finish(smoke, &json, &gate_failures);
}
