//! The in-memory workloads: one `p5_link::Link` (transmit device →
//! optional STM-N path → receive device as one `Stack`), driven closed
//! loop from this thread.

use std::time::Instant;

use p5_link::{Link, LinkBuilder};
use p5_sonet::StmLevel;

use crate::corpus::{Corpus, Mix};
use crate::span::{Name, Tracer};
use crate::workload::{closed_loop, Checker, Counts, Segment, SetupInfo, Until, Workload, IPV4};

/// Sweeps `Link::run` may spend on one window before the workload calls
/// it stalled: far above any healthy window, so it only ends a hang.
const MAX_STEPS: usize = 10_000_000;

/// The datagram a SONET window ends with (see `one_window`): never a
/// corpus frame, so it cannot be mistaken for one.
const GUARD: [u8; 40] = [0x55; 40];

pub struct LinkWorkload {
    link: Link,
    corpus: Corpus,
    window: usize,
    level: Option<StmLevel>,
    check: Checker,
    setup: SetupInfo,
    /// Windows whose flush cut the guard datagram short.
    guards_lost: u64,
    windows: u64,
}

impl LinkWorkload {
    pub fn new(mix: Mix, window: usize, level: Option<StmLevel>, seed: u64) -> Self {
        Self::with_corpus(Corpus::generate(mix, seed), window, level)
    }

    /// A link workload over frames generated elsewhere (the reference
    /// loop other workloads' ladders divide by).
    pub fn with_corpus(corpus: Corpus, window: usize, level: Option<StmLevel>) -> Self {
        let t0 = Instant::now();
        let mut b = LinkBuilder::new();
        if let Some(level) = level {
            b = b.sonet(level);
        }
        let link = b.build().expect("a clean link always builds");
        LinkWorkload {
            link,
            corpus,
            window,
            level,
            check: Checker::default(),
            setup: SetupInfo {
                construct_ms: t0.elapsed().as_secs_f64() * 1e3,
                bringup_ms: 0.0,
            },
            guards_lost: 0,
            windows: 0,
        }
    }

    fn one_window(&mut self, t: &mut Tracer) -> Counts {
        let mut c = Counts {
            offered: self.window as u64,
            ..Counts::default()
        };
        t.open(Name::Offer);
        for _ in 0..self.window {
            self.link
                .send(IPV4, self.corpus.frame(self.check.next_offer));
            self.check.next_offer += 1;
        }
        // Over SONET, `Link::run`'s flush can cut the tail of the last
        // frame in flight: the idle-fill transmitter stage reports idle
        // while the escape unit's delay line still holds a few octets,
        // and the path flush then pads the SPE behind them (about one
        // window in a thousand).  That is a defect of the link, found by
        // this check and not this benchmark's to fix; a 40-octet guard
        // datagram rides last so that the tail at risk is never a corpus
        // frame, and how often it is lost is reported
        // (`sonet.flush_truncated_ratio`) instead of failing the run.
        if self.level.is_some() {
            self.link.send(IPV4, &GUARD);
        }
        t.close();

        t.open(Name::Drive);
        // A stalled stack shows as missing deliveries below.
        let _ = self.link.run(MAX_STEPS);
        t.close();

        t.open(Name::Collect);
        let mut got = self.link.deliveries();
        t.close();

        t.open(Name::Verify);
        self.windows += 1;
        if self.level.is_some() {
            if got.last().is_some_and(|(_, p)| p[..] == GUARD) {
                got.pop();
            } else {
                self.guards_lost += 1;
            }
        }
        for (protocol, payload) in &got {
            if self.check.check(&self.corpus, *protocol, payload) {
                c.delivered += 1;
                c.bytes += payload.len() as u64;
            }
        }
        t.close();
        // Whatever did not arrive intact and in place failed — lost in
        // the link, dropped by the receiver's checks, or still stuck in
        // a stalled stack.
        c.failed = c.offered - c.delivered;
        if c.failed > 0 {
            self.check.resync();
        }
        c
    }
}

impl Workload for LinkWorkload {
    fn segment(&mut self, until: Until, t: &mut Tracer, lat: &mut Vec<u64>) -> Segment {
        // `closed_loop` borrows the closure mutably for the whole
        // segment; the workload is the only state it needs.
        closed_loop(until, t, lat, |t| self.one_window(t))
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn window_frames(&self) -> usize {
        self.window
    }

    fn setup_info(&self) -> SetupInfo {
        self.setup
    }

    fn counters(&mut self) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("stack_steps", self.link.stack().steps() as f64),
            ("rx_errors", self.link.rx_errors() as f64),
        ];
        for (name, s) in self.link.stage_stats() {
            match name {
                "p5-tx" => out.push(("tx_cycles", s.cycles as f64)),
                "p5-rx" => out.push(("rx_cycles", s.cycles as f64)),
                // The path stage counts line frames as its cycles.
                "oc-path" => out.push(("sonet_frames", s.cycles as f64)),
                _ => {}
            }
        }
        let (mut offered, mut blocked) = (0u64, 0u64);
        for b in self.link.stack().boundary_stats() {
            offered += b.offered;
            blocked += b.blocked;
        }
        out.push(("boundary_offered", offered as f64));
        out.push(("boundary_blocked", blocked as f64));
        out
    }

    fn gauges(&mut self) -> Vec<(&'static str, f64)> {
        let spe = self.level.map_or(0, |l| l.payload_per_frame());
        vec![
            ("spe_bytes_per_frame", spe as f64),
            // Over every window this process ran, not only the traced
            // ones: the event is rare.
            ("guards_lost", self.guards_lost as f64),
            ("link_windows", self.windows as f64),
        ]
    }
}
