//! One workload, one process: the untraced pass that yields the
//! end-to-end metrics, and the traced pass that yields the per-layer
//! ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::alloc;
use crate::json::num;
use crate::kernels::{layer_kernels, link_goodput, pair_goodput};
use crate::report::{end_to_end, per_layer, OverSegments, References, Traced};
use crate::span::Tracer;
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{best_tenth, Better};
use crate::tcp::Wire;
use crate::workload::{proc_status_kb, Counts, Segment, Until, Workload};

/// Segments an untraced run aims for (after one discarded warm-up):
/// many and short, so that the best tenth of them needs only a second
/// of quiet host.  A workload whose eight-window minimum outlasts a
/// segment's share of the run simply fits fewer.
const SEGMENTS: usize = 40;
/// Segments of the traced pass (two plain, two traced) are this share
/// of the run each.
const TRACED_SEGMENT_SHARE: f64 = 0.1;
/// Set-up runs at least this many times, and up to `MAX_SETUPS` times
/// while that stays under `SETUP_BUDGET_S` in total: a millisecond
/// set-up needs many repeats for a steady reading, a quarter-second one
/// cannot afford them.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.25;
/// Spans kept for the span file; totals stay exact beyond it.
const SPAN_CAPACITY: usize = 400_000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// Smoke mode: a fifth of the run.
    pub quick: bool,
    /// Where the span file goes.
    pub results: PathBuf,
}

/// What a run prints: the contract's result line, and a detail line
/// (segments, sample counts, spreads) for people.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    pub detail: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (m, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(*v),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn build(args: &Args, probe: bool) -> Result<Box<dyn Workload>, String> {
    spec::build(&args.workload, args.seed, probe)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))
}

/// Every segment conserves frames; a workload that loses count of its
/// own offers has a bug the numbers would hide.
fn total(segments: &[Segment]) -> Counts {
    let mut all = Counts::default();
    for s in segments {
        assert_eq!(
            s.counts.offered,
            s.counts.delivered + s.counts.failed,
            "segment does not conserve frames"
        );
        all.add(&s.counts);
    }
    all
}

fn list(values: impl Iterator<Item = f64>) -> String {
    let v: Vec<String> = values.map(num).collect();
    format!("[{}]", v.join(", "))
}

fn over_segments_json(name: &str, o: &OverSegments) -> String {
    format!(
        "\"{name}\": {{\"best_tenth\": {}, \"segment_median\": {}, \"segment_iqr_over_median\": {}, \"segments\": {}}}",
        num(o.value),
        num(o.median),
        num(o.iqr_over_median),
        list(o.segments.iter().copied())
    )
}

/// `"name": value` pairs, comma-separated, for a JSON object body.
fn fields<'a>(pairs: impl Iterator<Item = (&'a &'static str, &'a f64)>) -> String {
    let v: Vec<String> = pairs
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    v.join(", ")
}

/// The host fields every output line carries.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load1 = load.split_whitespace().next().unwrap_or("0");
    format!("\"nproc\": {nproc}, \"loadavg_1m\": {load1}")
}

/// The untraced pass: set-up several times, one discarded warm-up
/// segment, then the measured segments with tracing off.
pub fn untraced(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let mut w: Option<Box<dyn Workload>> = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // The previous instance goes first: peak memory is one
        // workload's, not two.
        drop(w.take());
        let t0 = Instant::now();
        w = Some(build(args, false)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("built at least once");

    let seg_ns = (args.seconds * 1e9 / SEGMENTS as f64) as u64;
    // Smoke mode measures a fifth of the run.
    let run_ns = (args.seconds * 1e9 * if args.quick { 0.2 } else { 1.0 }) as u64;
    let mut t = Tracer::off();
    let mut lat = Vec::with_capacity(1 << 20);
    w.segment(Until::Elapsed(4 * seg_ns), &mut t, &mut lat);
    lat.clear();
    let mut segments = Vec::with_capacity(SEGMENTS);
    let started = Instant::now();
    while segments.len() < 2 || (started.elapsed().as_nanos() as u64) < run_ns {
        segments.push(w.segment(Until::Elapsed(seg_ns), &mut t, &mut lat));
    }
    let n = segments.len();
    let all = total(&segments);
    let lateness = w.generator_lateness();
    let gauges = fields(w.gauges().iter().map(|(k, v)| (k, v)));

    let e = end_to_end(&segments, &lat);
    let peak_rss_mb = proc_status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0;
    let values = [
        e.goodput_gbps.value,
        e.latency_p50_us.value,
        e.latency_p90_us.value,
        peak_rss_mb,
        // Read like every other time: where the host was quietest.
        best_tenth(&setups, Better::Lower),
    ];
    let detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": 0, \"quick\": {}, {}, \
         \"segments\": {n}, \"segment_seconds\": {}, \"offered\": {}, \"delivered\": {}, \
         \"failed\": {}, \"failed_ratio\": {}, \"latency_samples\": {}, {}, {}, {}, \
         \"setup_samples_s\": {}, \"generator_late_samples\": {}, \"gauges\": {{{gauges}}}}}",
        args.workload,
        args.seed,
        args.quick,
        host_json(),
        num(seg_ns as f64 / 1e9),
        all.offered,
        all.delivered,
        all.failed,
        num(all.failed as f64 / all.offered.max(1) as f64),
        e.samples,
        over_segments_json("goodput_gbps", &e.goodput_gbps),
        over_segments_json("latency_p50_us", &e.latency_p50_us),
        over_segments_json("latency_p90_us", &e.latency_p90_us),
        list(setups.iter().copied()),
        lateness.len(),
    );
    Ok(Outcome {
        attempted: all.offered,
        failed: all.failed,
        metrics: END_TO_END.iter().zip(values).collect(),
        detail,
    })
}

fn counter_map(w: &mut dyn Workload) -> BTreeMap<&'static str, f64> {
    w.counters().into_iter().collect()
}

/// The traced pass: a fixed-work allocation probe, then untraced and
/// traced segments alternating (their ratio is the tracing overhead),
/// then the kernel replays and reference loops on the same corpus.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let is_tcp = spec::is_tcp(name);
    let is_fleet = name == "fleet_4k";
    let rss0 = proc_status_kb("VmRSS").unwrap_or(0);
    let mut w = build(args, true)?;
    let rss_kb_per_link = if is_fleet {
        proc_status_kb("VmRSS").unwrap_or(0).saturating_sub(rss0) as f64
            / crate::fleet::LINKS as f64
    } else {
        0.0
    };

    // The allocation probe comes first, fixed work after a fixed-work
    // warm-up: the same windows of the corpus through the same pool
    // state every run, so the counts repeat exactly where the code is
    // deterministic.  About 4096 frames, at least two windows.
    let mut t = Tracer::on(SPAN_CAPACITY);
    t.set_enabled(false);
    let mut lat = Vec::with_capacity(1 << 20);
    let probe_windows = (4096 / w.window_frames()).max(2) as u64;
    w.segment(Until::Windows(probe_windows), &mut t, &mut lat);
    alloc::set_counting(true);
    let (calls0, bytes0) = alloc::counts();
    let probe = w.segment(Until::Windows(probe_windows), &mut t, &mut lat);
    let (calls1, bytes1) = alloc::counts();
    alloc::set_counting(false);

    let seg_ns = (args.seconds * 1e9 * TRACED_SEGMENT_SHARE) as u64;
    w.segment(Until::Elapsed(seg_ns), &mut t, &mut lat);
    lat.clear();
    w.generator_lateness();

    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut deltas: BTreeMap<&'static str, f64> = BTreeMap::new();
    for _ in 0..2 {
        plain.push(w.segment(Until::Elapsed(seg_ns), &mut t, &mut lat));
        let before = counter_map(w.as_mut());
        w.set_cycle_probe(true);
        t.set_enabled(true);
        spanned.push(w.segment(Until::Elapsed(seg_ns), &mut t, &mut lat));
        t.set_enabled(false);
        w.set_cycle_probe(false);
        for (k, v) in counter_map(w.as_mut()) {
            *deltas.entry(k).or_default() += v - before.get(k).copied().unwrap_or(0.0);
        }
    }
    let gauges: BTreeMap<&'static str, f64> = w.gauges().into_iter().collect();
    let lateness = w.generator_lateness();
    let stats_ms = w.stats_ms();

    let mut all = total(&plain);
    all.add(&total(&spanned));
    all.add(&total(std::slice::from_ref(&probe)));

    // Kernel replays and reference loops, each for 3% of the run.
    let budget = (args.seconds * 0.03 * 1e9) as u64;
    let corpus = w.corpus();
    let kernels = layer_kernels(corpus, budget);
    // The engine-pair loops run the workload's own window on the socket
    // workloads and tcp_bulk's everywhere else.
    let window = if is_tcp {
        w.window_frames().min(256)
    } else {
        32
    };
    let mut refs = References {
        pipe_gbps: pair_goodput(corpus, Wire::Pipe, true, window, budget),
        ..References::default()
    };
    if is_tcp || is_fleet || name == "sonet_stm16_imix" {
        refs.link_gbps = link_goodput(corpus, budget);
    }
    if is_tcp {
        refs.bulk_gbps = pair_goodput(corpus, Wire::Tcp, true, 32, budget);
        refs.deep_gbps = pair_goodput(corpus, Wire::Tcp, true, 256, budget);
        // Session against transparent carriage at the workload's own
        // depth (tcp_paced, which has none, at tcp_bulk's).
        let (depth, session) = if window == 256 {
            (256, refs.deep_gbps)
        } else {
            (32, refs.bulk_gbps)
        };
        refs.session_gbps = session;
        refs.transparent_gbps = pair_goodput(corpus, Wire::Tcp, false, depth, budget);
    }

    let m = per_layer(&Traced {
        untraced: &plain,
        traced: &spanned,
        lat: &lat,
        tracer: &t,
        deltas: &deltas,
        gauges: &gauges,
        kernels: &kernels,
        refs,
        setup: w.setup_info(),
        alloc_probe: (calls1 - calls0, bytes1 - bytes0, probe.counts.delivered),
        lateness: &lateness,
        stats_ms,
        rss_kb_per_link,
        is_tcp,
        is_fleet,
    });

    std::fs::create_dir_all(&args.results)
        .map_err(|e| format!("{}: {e}", args.results.display()))?;
    let span_file = args.results.join(format!("trace-{name}.json"));
    std::fs::write(&span_file, t.to_json(name, args.seed))
        .map_err(|e| format!("{}: {e}", span_file.display()))?;

    let counters = fields(deltas.iter());
    let detail = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": 1, {}, \"segment_seconds\": {}, \
         \"offered\": {}, \"delivered\": {}, \"failed\": {}, \"latency_samples\": {}, \
         \"untraced_goodput_gbps\": {}, \"traced_goodput_gbps\": {}, \"spans_stored\": {}, \
         \"spans_dropped\": {}, \"span_file\": \"{}\", \"alloc_probe_frames\": {}, \
         \"counter_deltas\": {{{counters}}}}}",
        args.seed,
        host_json(),
        num(seg_ns as f64 / 1e9),
        all.offered,
        all.delivered,
        all.failed,
        lat.len(),
        list(plain.iter().map(Segment::goodput_gbps)),
        list(spanned.iter().map(Segment::goodput_gbps)),
        t.spans().len(),
        t.dropped(),
        span_file.display(),
        probe.counts.delivered,
    );
    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            (
                spec,
                *m.get(spec.name)
                    .expect("every per-layer metric is computed"),
            )
        })
        .collect();
    Ok(Outcome {
        attempted: all.offered,
        failed: all.failed,
        metrics,
        detail,
    })
}
