//! `fleet_4k`: 4096 raw links sharded over two workers, each link
//! generating its own traffic — the only workload with more than one
//! thread, and the only one whose working set is far beyond any cache.

use std::time::Instant;

use p5_runtime::{Fleet, FleetConfig, FleetStats, TrafficSpec};

use crate::corpus::{Corpus, Mix};
use crate::span::{Name, Tracer};
use crate::workload::{closed_loop, Counts, Segment, SetupInfo, Until, Workload, IPV4};

pub const LINKS: usize = 4096;
/// Fixed, not "one per core": the numbers must mean the same thing on
/// every host that can run them at all.
pub const WORKERS: usize = 2;
const FRAMES_PER_TICK: u32 = 4;
const PAYLOAD_LEN: usize = 576;
const TICKS_PER_WINDOW: u64 = 8;

pub struct FleetWorkload {
    fleet: Fleet,
    /// The fleet generates its own frames; this corpus (same frame
    /// size) only feeds the kernel replays.
    corpus: Corpus,
    calls: u64,
    /// Fleet totals when the current segment began.
    before: FleetStats,
    setup: SetupInfo,
}

/// Receive-side error total of a fleet reading.
fn rx_errors(s: &FleetStats) -> u64 {
    let r = &s.rx;
    r.fcs_errors + r.aborts + r.runts + r.giants + r.address_mismatches + r.header_errors
}

impl FleetWorkload {
    /// `probe` attaches the flight-recorder tap to link 0 so the traced
    /// pass can read its device cycle counters (1 link in 4096).
    pub fn new(seed: u64, probe: bool) -> Self {
        let corpus = Corpus::generate(Mix::Mid576, seed);
        let t0 = Instant::now();
        let fleet = Fleet::new(FleetConfig {
            links: LINKS,
            workers: WORKERS,
            seed,
            traffic: Some(TrafficSpec {
                frames_per_tick: FRAMES_PER_TICK,
                payload_len: PAYLOAD_LEN,
                protocol: IPV4,
                duplex: false,
                // Load for as long as the run lasts.
                ticks: u64::MAX,
            }),
            trace_links: if probe { vec![0] } else { Vec::new() },
            ..FleetConfig::default()
        })
        .expect("a clean raw fleet always builds");
        let construct_ms = t0.elapsed().as_secs_f64() * 1e3;
        let before = fleet.stats();
        FleetWorkload {
            fleet,
            corpus,
            calls: 0,
            before,
            setup: SetupInfo {
                construct_ms,
                bringup_ms: 0.0,
            },
        }
    }
}

impl Workload for FleetWorkload {
    /// The fleet keeps every delivered payload to itself (it recycles
    /// the buffer), so the check here is the strongest the public
    /// surface allows: each device verified the FCS of what it
    /// delivered, no receive-side error of any class was counted,
    /// delivered octets are exactly frames × 576, and the flow
    /// counters conserve.
    fn segment(&mut self, until: Until, t: &mut Tracer, lat: &mut Vec<u64>) -> Segment {
        let fleet = &mut self.fleet;
        let calls = &mut self.calls;
        let mut seg = closed_loop(until, t, lat, |t| {
            t.open(Name::Drive);
            fleet.run_ticks(TICKS_PER_WINDOW);
            t.close();
            *calls += 1;
            Counts::default()
        });
        let after = self.fleet.stats();
        let (b, a) = (&self.before.flow, &after.flow);
        let delivered = a.delivered - b.delivered;
        let bytes = a.delivered_bytes - b.delivered_bytes;
        let mut failed = (a.shed - b.shed)
            + (a.rejected - b.rejected)
            + (rx_errors(&after) - rx_errors(&self.before));
        // Frames still queued or on the wire when the window closed are
        // neither delivered nor failed; on this load every tick drains
        // within itself, so more than two ticks' worth in flight means
        // frames went missing.
        let in_flight = (a.offered - a.delivered).saturating_sub(a.shed + a.rejected);
        if in_flight > 2 * LINKS as u64 * u64::from(FRAMES_PER_TICK) {
            failed += in_flight;
        }
        if bytes != delivered * PAYLOAD_LEN as u64 {
            failed += 1;
        }
        seg.counts = Counts {
            offered: delivered + failed,
            delivered,
            failed,
            bytes,
        };
        self.before = after;
        seg
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn window_frames(&self) -> usize {
        LINKS * FRAMES_PER_TICK as usize * TICKS_PER_WINDOW as usize
    }

    fn setup_info(&self) -> SetupInfo {
        self.setup
    }

    fn counters(&mut self) -> Vec<(&'static str, f64)> {
        let w = self.fleet.stats().worker_totals();
        let mut out = vec![
            ("fleet_calls", self.calls as f64),
            ("fleet_ticks", self.fleet.ticks_run() as f64),
            ("claims", w.claims as f64),
            ("busy_ticks", w.busy_ticks as f64),
            ("idle_claims", w.idle_claims as f64),
            ("steals", w.steals as f64),
            // Frames link 0 has carried: what its cycle probe divides by.
            (
                "probe_frames",
                (self.fleet.ticks_run() * u64::from(FRAMES_PER_TICK)) as f64,
            ),
        ];
        if let Some((_, a, b)) = self.fleet.recorders().first() {
            let last_cycle =
                |r: &p5_stream::SharedRecorder| r.events().last().map_or(0, |e| e.cycle) as f64;
            out.push(("tx_cycles", last_cycle(a)));
            out.push(("rx_cycles", last_cycle(b)));
        }
        out
    }

    fn stats_ms(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.fleet.stats());
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn gauges(&mut self) -> Vec<(&'static str, f64)> {
        let s = self.fleet.stats();
        vec![
            ("load_skew_milli", s.load_skew_milli as f64),
            (
                "p99_latency_ticks",
                s.p99_latency_ticks().unwrap_or(0) as f64,
            ),
            ("fleet_links", LINKS as f64),
            ("ticks_per_window", TICKS_PER_WINDOW as f64),
        ]
    }
}
