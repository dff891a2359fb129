//! From what a run recorded to the metrics it prints: the end-to-end
//! values of an untraced run, and the per-layer values of a traced one.

use std::collections::BTreeMap;

use crate::kernels::{Kernels, Rate};
use crate::span::{Name, Tracer};
use crate::stats::{best_tenth, iqr_over_median, median, percentile, tail_percentile, Better};
use crate::workload::{Segment, SetupInfo};

/// `numerator / denominator`, `0` when the denominator is: a metric
/// whose layer did no work on this workload reads 0, never NaN.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The p50 and p90 of one segment's latency samples, in µs.
fn segment_percentiles_us(seg: &Segment, lat: &[u64]) -> (f64, f64) {
    let mut s = lat[seg.lat_from..seg.lat_to].to_vec();
    if s.is_empty() {
        return (0.0, 0.0);
    }
    s.sort_unstable();
    (
        percentile(&s, 0.5) as f64 / 1e3,
        percentile(&s, 0.9) as f64 / 1e3,
    )
}

/// One wall-clock metric over a run's segments: the value reported
/// (the edge of the best tenth) with the segment median and spread
/// beside it.
#[derive(Debug, Clone)]
pub struct OverSegments {
    pub value: f64,
    pub median: f64,
    pub iqr_over_median: f64,
    /// The per-segment values, in run order.
    pub segments: Vec<f64>,
}

fn over_segments(values: Vec<f64>, better: Better) -> OverSegments {
    OverSegments {
        value: best_tenth(&values, better),
        median: median(&values),
        iqr_over_median: iqr_over_median(&values),
        segments: values,
    }
}

/// The wall-clock end-to-end metrics of an untraced run.
pub struct EndToEnd {
    pub goodput_gbps: OverSegments,
    pub latency_p50_us: OverSegments,
    pub latency_p90_us: OverSegments,
    /// Latency samples behind the percentiles, all segments.
    pub samples: usize,
}

pub fn end_to_end(segments: &[Segment], lat: &[u64]) -> EndToEnd {
    let (p50, p90): (Vec<f64>, Vec<f64>) = segments
        .iter()
        .map(|s| segment_percentiles_us(s, lat))
        .unzip();
    let goodput = segments.iter().map(Segment::goodput_gbps).collect();
    EndToEnd {
        goodput_gbps: over_segments(goodput, Better::Higher),
        latency_p50_us: over_segments(p50, Better::Lower),
        latency_p90_us: over_segments(p90, Better::Lower),
        samples: segments.iter().map(|s| s.lat_to - s.lat_from).sum(),
    }
}

/// Goodputs of the reference loops a traced pass ran beside the
/// workload (0 where the loop does not apply to the workload).
#[derive(Debug, Clone, Copy, Default)]
pub struct References {
    /// In-memory link, 64-frame windows, this corpus.
    pub link_gbps: f64,
    /// Session engines over `PipeTransport`, the workload's window.
    pub pipe_gbps: f64,
    /// Session engines over TCP, the workload's window (tcp only).
    pub session_gbps: f64,
    /// Transparent engines over TCP, same loop (tcp only).
    pub transparent_gbps: f64,
    /// Session engines over TCP, 32 in flight (tcp only).
    pub bulk_gbps: f64,
    /// Session engines over TCP, 256 in flight (tcp only).
    pub deep_gbps: f64,
}

/// Everything a traced pass gathered.
pub struct Traced<'a> {
    pub untraced: &'a [Segment],
    pub traced: &'a [Segment],
    pub lat: &'a [u64],
    pub tracer: &'a Tracer,
    /// Counter differences across the traced segments.
    pub deltas: &'a BTreeMap<&'static str, f64>,
    pub gauges: &'a BTreeMap<&'static str, f64>,
    pub kernels: &'a Kernels,
    pub refs: References,
    pub setup: SetupInfo,
    /// `(allocation events, bytes, frames)` of the fixed-work probe.
    pub alloc_probe: (u64, u64, u64),
    pub lateness: &'a [u64],
    pub stats_ms: f64,
    pub rss_kb_per_link: f64,
    /// Which family the workload belongs to.
    pub is_tcp: bool,
    pub is_fleet: bool,
}

pub fn per_layer(r: &Traced) -> BTreeMap<&'static str, f64> {
    let k = r.kernels;
    let d = |name: &str| r.deltas.get(name).copied().unwrap_or(0.0);
    let g = |name: &str| r.gauges.get(name).copied().unwrap_or(0.0);
    let span = |n: Name| r.tracer.total(n);
    let is_link = r.deltas.contains_key("stack_steps");
    let sum = |segs: &[Segment], f: &dyn Fn(&Segment) -> u64| -> f64 {
        segs.iter().map(f).sum::<u64>() as f64
    };

    // What the traced segments moved.
    let frames = sum(r.traced, &|s| s.counts.delivered);
    let offered = sum(r.traced, &|s| s.counts.offered);
    let bytes = sum(r.traced, &|s| s.counts.bytes);
    let wall = sum(r.traced, &|s| s.wall_ns);
    let windows = sum(r.traced, &|s| s.windows);
    let traced_gbps = ratio(bytes * 8.0, wall);
    let untraced_gbps = ratio(
        sum(r.untraced, &|s| s.counts.bytes) * 8.0,
        sum(r.untraced, &|s| s.wall_ns),
    );
    // Two workers share the fleet's wall time; every other workload is
    // one thread.
    let cpu_ns = wall * if r.is_fleet { 2.0 } else { 1.0 };
    let body_bytes = bytes + 4.0 * frames;

    let mut m = BTreeMap::new();

    // crc: computed once by the transmitter and once by the receiver.
    m.insert("crc.fcs32_ns_per_byte", k.crc.ns_per_byte());
    let crc_share = ratio(2.0 * k.crc.ns_per_byte() * body_bytes, cpu_ns);
    m.insert("crc.share", crc_share);

    // hdlc: the golden codec (the ladder's codec row; not on the path).
    m.insert("hdlc.stuff_ns_per_byte", k.stuff.ns_per_byte());
    m.insert("hdlc.destuff_ns_per_byte", k.destuff.ns_per_byte());
    m.insert("hdlc.expansion_ratio", k.expansion_ratio);

    // core.  Cycles say how much of the traffic left the fused path:
    // the cycle model moves `model_bytes_per_cycle`, so the cycles a
    // direction burned account for that many wire octets staged.
    let bytes_per_cycle = ratio(k.staged.bytes as f64, k.staged_cycles as f64);
    let probe_frames = if r.deltas.contains_key("probe_frames") {
        d("probe_frames")
    } else {
        frames
    };
    let payload_per_frame = ratio(bytes, frames);
    let wire_per_frame = (payload_per_frame + 8.0) * k.expansion_ratio + 1.0;
    let direction_ns_per_frame = |cycles: f64, staged: &Rate, staged_cycles: u64, fused: &Rate| {
        let per_frame = ratio(cycles, probe_frames);
        let staged_share = ratio(per_frame * bytes_per_cycle, wire_per_frame).min(1.0);
        (1.0 - staged_share) * fused.ns_per_byte() * payload_per_frame
            + per_frame * ratio(staged.ns as f64, staged_cycles as f64)
    };
    let core_ns = frames
        * (direction_ns_per_frame(d("tx_cycles"), &k.staged, k.staged_cycles, &k.fused_tx)
            + direction_ns_per_frame(
                d("rx_cycles"),
                &k.staged_rx,
                k.staged_rx_cycles,
                &k.fused_rx,
            ));
    let core_share = (ratio(core_ns, cpu_ns) - crc_share).max(0.0);
    m.insert("core.fused_tx_ns_per_byte", k.fused_tx.ns_per_byte());
    m.insert("core.fused_rx_ns_per_byte", k.fused_rx.ns_per_byte());
    m.insert("core.fused_ns_per_frame", k.fused_small.ns_per_frame());
    m.insert(
        "core.staged_cycles_per_frame",
        ratio(d("tx_cycles") + d("rx_cycles"), probe_frames),
    );
    m.insert("core.model_bytes_per_cycle", bytes_per_cycle);
    m.insert("core.staged_sim_gbps", k.staged.gbps());
    m.insert("core.share", core_share);

    // stream: a frame crosses the stack's input and its output buffer.
    let stream_share = if is_link {
        ratio(2.0 * k.wirebuf.ns_per_frame() * frames, cpu_ns)
    } else {
        0.0
    };
    m.insert("stream.wirebuf_ns_per_frame", k.wirebuf.ns_per_frame());
    m.insert(
        "stream.stack_steps_per_window",
        ratio(d("stack_steps"), windows),
    );
    m.insert(
        "stream.boundary_stall_ratio",
        ratio(d("boundary_blocked"), d("boundary_offered")),
    );
    m.insert("stream.share", stream_share);

    // sonet: line frames the path ran, at the path replay's cost each.
    let spe_octets = d("sonet_frames") * g("spe_bytes_per_frame");
    let sonet_share = ratio(
        d("sonet_frames") * k.path_per_line_frame.ns_per_byte(),
        cpu_ns,
    );
    m.insert("sonet.scramble_ns_per_byte", k.scramble.ns_per_byte());
    m.insert("sonet.bip8_ns_per_byte", k.bip8.ns_per_byte());
    m.insert("sonet.emit_ns_per_spe_byte", k.emit.ns_per_byte());
    m.insert("sonet.receive_ns_per_spe_byte", k.receive.ns_per_byte());
    m.insert("sonet.path_ns_per_payload_byte", k.path.ns_per_byte());
    m.insert(
        "sonet.fill_ratio",
        if spe_octets > 0.0 {
            1.0 - bytes / spe_octets
        } else {
            0.0
        },
    );
    m.insert(
        "sonet.flush_truncated_ratio",
        ratio(g("guards_lost"), g("link_windows")),
    );
    m.insert("sonet.share", sonet_share);

    // link: the three calls of the paved road, and what no replay
    // explains.
    let verify_share = ratio(span(Name::Verify).total_ns as f64, wall);
    let link_ns = |n: Name| {
        if is_link {
            ratio(span(n).total_ns as f64, frames)
        } else {
            0.0
        }
    };
    m.insert("link.send_ns_per_frame", link_ns(Name::Offer));
    m.insert("link.run_ns_per_frame", link_ns(Name::Drive));
    m.insert("link.pop_ns_per_frame", link_ns(Name::Collect));
    m.insert(
        "link.residual_share",
        1.0 - crc_share - core_share - stream_share - sonet_share - verify_share,
    );

    // runtime (fleet only).
    let fleet = |v: f64| if r.is_fleet { v } else { 0.0 };
    m.insert(
        "runtime.tick_ns_per_link",
        fleet(ratio(
            span(Name::Drive).total_ns as f64,
            d("fleet_ticks") * g("fleet_links"),
        )),
    );
    m.insert(
        "runtime.busy_tick_ratio",
        ratio(d("busy_ticks"), d("claims") * g("ticks_per_window")),
    );
    m.insert(
        "runtime.idle_claim_ratio",
        ratio(d("idle_claims"), d("claims")),
    );
    m.insert(
        "runtime.steals_per_call",
        ratio(d("steals"), d("fleet_calls")),
    );
    m.insert("runtime.load_skew_milli", g("load_skew_milli"));
    m.insert("runtime.p99_latency_ticks", g("p99_latency_ticks"));
    m.insert("runtime.stats_ms", r.stats_ms);
    m.insert("runtime.construct_ms", fleet(r.setup.construct_ms));
    m.insert("runtime.rss_kb_per_link", r.rss_kb_per_link);

    // xport (socket workloads only; the ring and pipe replays run on
    // every corpus).
    let tcp = |v: f64| if r.is_tcp { v } else { 0.0 };
    let passes = d("passes_a");
    let per_pass_us = |n: Name| tcp(ratio(span(n).total_ns as f64, span(n).count as f64) / 1e3);
    m.insert(
        "xport.offer_ns_per_frame",
        tcp(ratio(span(Name::Offer).total_ns as f64, offered)),
    );
    m.insert("xport.service_tx_us_per_pass", per_pass_us(Name::ServiceTx));
    m.insert("xport.service_rx_us_per_pass", per_pass_us(Name::ServiceRx));
    m.insert(
        "xport.take_ns_per_frame",
        tcp(ratio(span(Name::Collect).total_ns as f64, frames)),
    );
    m.insert("xport.frames_per_pass", tcp(ratio(frames, passes)));
    m.insert("xport.bytes_per_pass", ratio(d("bytes_out"), passes));
    m.insert(
        "xport.fruitless_pass_ratio",
        ratio(d("fruitless"), passes + d("passes_b")),
    );
    m.insert("xport.short_write_ratio", ratio(d("short_writes"), passes));
    m.insert(
        "xport.idle_fill_byte_ratio",
        ratio(d("idle_fill_bytes"), d("bytes_out")),
    );
    m.insert("xport.ring_ns_per_byte", k.ring.ns_per_byte());
    m.insert("xport.pipe_goodput_gbps", r.refs.pipe_gbps);
    let mut all: Vec<u64> = r
        .untraced
        .iter()
        .chain(r.traced.iter())
        .flat_map(|s| r.lat[s.lat_from..s.lat_to].iter().copied())
        .collect();
    all.sort_unstable();
    let tail_us = |p: f64| {
        if r.is_tcp && !all.is_empty() {
            tail_percentile(&all, p).0 as f64 / 1e3
        } else {
            0.0
        }
    };
    m.insert("xport.latency_p99_us", tail_us(0.99));
    m.insert("xport.latency_p999_us", tail_us(0.999));

    // ppp.
    m.insert("ppp.bringup_ms", r.setup.bringup_ms);
    m.insert(
        "ppp.session_overhead_ratio",
        if r.refs.transparent_gbps > 0.0 {
            1.0 - r.refs.session_gbps / r.refs.transparent_gbps
        } else {
            0.0
        },
    );

    // alloc.
    let (calls, alloc_bytes, alloc_frames) = r.alloc_probe;
    m.insert(
        "alloc.allocs_per_frame",
        ratio(calls as f64, alloc_frames as f64),
    );
    m.insert(
        "alloc.bytes_per_frame",
        ratio(alloc_bytes as f64, alloc_frames as f64),
    );

    // harness.
    let mut late = r.lateness.to_vec();
    late.sort_unstable();
    m.insert(
        "gen.late_p99_us",
        if late.is_empty() {
            0.0
        } else {
            tail_percentile(&late, 0.99).0 as f64 / 1e3
        },
    );
    let goodputs: Vec<f64> = r
        .untraced
        .iter()
        .chain(r.traced.iter())
        .map(Segment::goodput_gbps)
        .collect();
    m.insert("gen.segment_spread", iqr_over_median(&goodputs));
    m.insert("trace.overhead_ratio", ratio(traced_gbps, untraced_gbps));
    m.insert("trace.verify_share", verify_share);

    // ladder: each row over the row below it, same corpus, same host.
    let codec_gbps = ratio(8.0, k.stuff.ns_per_byte() + k.destuff.ns_per_byte());
    let fused_gbps = ratio(8.0, k.fused_tx.ns_per_byte() + k.fused_rx.ns_per_byte());
    let link_gbps = if is_link && g("spe_bytes_per_frame") == 0.0 {
        untraced_gbps
    } else {
        r.refs.link_gbps
    };
    let own = |applies: bool| if applies { untraced_gbps } else { 0.0 };
    m.insert("ladder.codec_gbps", codec_gbps);
    m.insert("ladder.link_ref_gbps", link_gbps);
    m.insert("ladder.fused_over_codec", ratio(fused_gbps, codec_gbps));
    m.insert("ladder.link_over_fused", ratio(link_gbps, fused_gbps));
    m.insert(
        "ladder.sonet_over_link",
        ratio(own(g("spe_bytes_per_frame") > 0.0), link_gbps),
    );
    m.insert("ladder.fleet_over_link", ratio(own(r.is_fleet), link_gbps));
    m.insert("ladder.tcp_over_link", ratio(own(r.is_tcp), link_gbps));
    m.insert(
        "ladder.tcp_over_pipe",
        ratio(own(r.is_tcp), r.refs.pipe_gbps),
    );
    m.insert(
        "ladder.deep_over_bulk",
        ratio(r.refs.deep_gbps, r.refs.bulk_gbps),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Counts;

    fn seg(wall_ns: u64, bytes: u64, lat_from: usize, lat_to: usize) -> Segment {
        Segment {
            wall_ns,
            windows: (lat_to - lat_from) as u64,
            counts: Counts {
                offered: 10,
                delivered: 10,
                failed: 0,
                bytes,
            },
            lat_from,
            lat_to,
        }
    }

    #[test]
    fn end_to_end_reads_the_edge_of_the_best_tenth() {
        // Goodputs 8, 4, 2 Gbit/s; p50s 2, 20, 200 µs.
        let lat = [
            1_000, 2_000, 3_000, 10_000, 20_000, 30_000, 100_000, 200_000, 300_000,
        ];
        let segs = [
            seg(1_000, 1_000, 0, 3),
            seg(1_000, 500, 3, 6),
            seg(1_000, 250, 6, 9),
        ];
        let e = end_to_end(&segs, &lat);
        assert_eq!(e.goodput_gbps.value, 4.0);
        assert_eq!(e.goodput_gbps.median, 4.0);
        assert_eq!(e.latency_p50_us.value, 20.0);
        assert_eq!(e.latency_p90_us.value, 30.0);
        assert_eq!(e.samples, 9);
    }

    /// A run that recorded nothing still prints every per-layer metric
    /// by name, as a finite number — what the driver's contract asks of
    /// every workload.
    #[test]
    fn every_per_layer_metric_is_computed_even_from_nothing() {
        let m = per_layer(&Traced {
            untraced: &[],
            traced: &[],
            lat: &[],
            tracer: &Tracer::off(),
            deltas: &BTreeMap::new(),
            gauges: &BTreeMap::new(),
            kernels: &Kernels::default(),
            refs: References::default(),
            setup: SetupInfo::default(),
            alloc_probe: (0, 0, 0),
            lateness: &[],
            stats_ms: 0.0,
            rss_kb_per_link: 0.0,
            is_tcp: true,
            is_fleet: false,
        });
        let want: Vec<&str> = {
            let mut v: Vec<&str> = crate::spec::PER_LAYER.iter().map(|s| s.name).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), want);
        assert!(m.values().all(|v| v.is_finite()));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
