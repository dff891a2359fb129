//! The socket workloads: two `LinkEngine`s joined by one real TCP
//! loopback connection, both `service()`d from this thread — one
//! process, one connection, one thread, so what is measured is the
//! engine's passes, ring copies and syscalls, not a scheduler.
//!
//! The same loops run over a `PipeTransport` pair and over transparent
//! (session-less) engines for the kernel replays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p5_core::DatapathWidth;
use p5_ppp::NegotiationProfile;
use p5_stream::{Event, NullSink, TraceSink};
use p5_xport::{LinkEngine, PipeTransport, TcpTransport, Transport};

use crate::corpus::{Corpus, Mix};
use crate::pace::Schedule;
use crate::span::{Name, Tracer};
use crate::workload::{closed_loop, Checker, Counts, Segment, SetupInfo, Until, Workload, IPV4};

/// A window (or a bring-up) that makes no progress for this long is
/// declared failed instead of hanging the run.
const STALL: Duration = Duration::from_secs(5);

/// The first and last device cycle stamps a trace sink saw: the only
/// outside view of an engine's device cycle counter.  A sink sees
/// nothing while detached, so the cycles a device burned are counted
/// per attachment, first stamp to last.
#[derive(Default)]
struct CycleSpan {
    /// `u64::MAX` until the first event of this attachment.
    first: AtomicU64,
    last: AtomicU64,
}

struct CycleProbe(Arc<CycleSpan>);

impl TraceSink for CycleProbe {
    fn record(&mut self, event: Event) {
        // Statistics read after the run; they publish nothing else.
        let _ = self.0.first.compare_exchange(
            u64::MAX,
            event.cycle,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.0.last.store(event.cycle, Ordering::Relaxed);
    }
}

/// One engine's probe and the cycles its earlier attachments counted.
#[derive(Default)]
struct CycleCount {
    span: Arc<CycleSpan>,
    counted: u64,
}

impl CycleCount {
    fn attach(&self, engine: &mut LinkEngine) {
        self.span.first.store(u64::MAX, Ordering::Relaxed);
        engine.set_trace(Box::new(CycleProbe(self.span.clone())));
    }

    fn detach(&mut self, engine: &mut LinkEngine) {
        engine.set_trace(Box::new(NullSink));
        let first = self.span.first.load(Ordering::Relaxed);
        if first != u64::MAX {
            self.counted += self.span.last.load(Ordering::Relaxed) - first;
        }
    }
}

/// What carries the wire between the two engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// One real TCP connection over the loopback interface.
    Tcp,
    /// The deterministic in-process pipe.
    Pipe,
}

/// Two engines and the wire between them; `a` sends, `b` receives.
pub struct Pair {
    pub a: LinkEngine,
    pub b: LinkEngine,
    /// Transport creation (TCP: bind, connect, accept) plus, in session
    /// mode, LCP/IPCP until both network phases are open.
    pub bringup_ms: f64,
    /// `service()` calls that reported no progress, both engines.
    pub fruitless: u64,
    a_cycles: CycleCount,
    b_cycles: CycleCount,
}

impl Pair {
    /// Build and bring up a pair.  `session` selects PPP session mode
    /// (LCP + IPCP negotiated first) over transparent carriage;
    /// `depth` is the ingress queue depth — the frames a window may
    /// have admitted but not yet in the device.
    pub fn new(wire: Wire, session: bool, depth: usize) -> Pair {
        let t0 = Instant::now();
        let (ta, tb): (Box<dyn Transport>, Box<dyn Transport>) = match wire {
            Wire::Tcp => {
                let server = TcpTransport::listen("127.0.0.1:0").expect("bind loopback");
                let addr = server.local_addr().expect("bound address");
                let client = TcpTransport::connect(addr).expect("dial loopback");
                (Box::new(client), Box::new(server))
            }
            Wire::Pipe => {
                let (a, b) = PipeTransport::pair();
                (Box::new(a), Box::new(b))
            }
        };
        let engine = |t: Box<dyn Transport>, magic: u32, ip: [u8; 4]| {
            let mut e = if session {
                let profile = NegotiationProfile::new().magic(magic).ip(ip);
                LinkEngine::new(DatapathWidth::W32, &profile, t)
            } else {
                LinkEngine::transparent(DatapathWidth::W32, t)
            };
            e.set_ingress_depth(depth);
            e
        };
        let mut a = engine(ta, 0xBE9C_0001, [10, 99, 0, 1]);
        let mut b = engine(tb, 0xBE9C_0002, [10, 99, 0, 2]);
        while !(a.is_network_up() && b.is_network_up()) {
            a.service();
            b.service();
            assert!(t0.elapsed() < STALL, "bring-up never completed");
        }
        // Negotiation events are not the workload's business.
        a.poll_events();
        b.poll_events();
        Pair {
            a,
            b,
            bringup_ms: t0.elapsed().as_secs_f64() * 1e3,
            fruitless: 0,
            a_cycles: CycleCount::default(),
            b_cycles: CycleCount::default(),
        }
    }

    /// One pass of each engine, sender first.
    fn service(&mut self, t: &mut Tracer) {
        t.open(Name::ServiceTx);
        let pa = self.a.service();
        t.close();
        t.open(Name::ServiceRx);
        let pb = self.b.service();
        t.close();
        self.fruitless += u64::from(!pa) + u64::from(!pb);
    }

    /// Offer `window` frames, then service both engines until every one
    /// is delivered and checked.
    pub fn closed_window(
        &mut self,
        corpus: &Corpus,
        check: &mut Checker,
        window: usize,
        t: &mut Tracer,
    ) -> Counts {
        let mut c = Counts {
            offered: window as u64,
            ..Counts::default()
        };
        t.open(Name::Offer);
        let mut admitted = 0u64;
        for _ in 0..window {
            if self
                .a
                .offer(IPV4, corpus.frame(check.next_offer))
                .is_admitted()
            {
                admitted += 1;
            }
            check.next_offer += 1;
        }
        t.close();
        let mut arrived = 0u64;
        let mut last_progress = Instant::now();
        while arrived < admitted {
            self.service(t);
            t.open(Name::Collect);
            let got = self.b.take_deliveries();
            t.close();
            if got.is_empty() {
                if last_progress.elapsed() > STALL {
                    break;
                }
                continue;
            }
            last_progress = Instant::now();
            t.open(Name::Verify);
            for (protocol, payload) in &got {
                arrived += 1;
                if check.check(corpus, *protocol, payload) {
                    c.delivered += 1;
                    c.bytes += payload.len() as u64;
                }
            }
            t.close();
        }
        c.failed = c.offered - c.delivered;
        if c.failed > 0 {
            check.resync();
        }
        c
    }

    fn set_cycle_probe(&mut self, on: bool) {
        if on {
            self.a_cycles.attach(&mut self.a);
            self.b_cycles.attach(&mut self.b);
        } else {
            self.a_cycles.detach(&mut self.a);
            self.b_cycles.detach(&mut self.b);
        }
    }
}

/// How a TCP workload offers its frames.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Closed loop: this many frames in flight per window.
    Closed { window: usize },
    /// Open loop: frames fall due at this rate whatever the system
    /// does.
    Paced { rate_hz: u64 },
}

/// Frames a paced "window" stands for where one is needed (the
/// fixed-work allocation probe).
const PACED_WINDOW: usize = 64;
/// Ingress depth of the paced sender: an open loop's queue may grow, so
/// it gets room for a 200 ms stall at 20 000 frames/s before an offer
/// is shed (and counted as failed).
const PACED_DEPTH: usize = 4096;

pub struct TcpWorkload {
    pair: Pair,
    corpus: Corpus,
    load: Load,
    check: Checker,
    setup: SetupInfo,
    lateness: Vec<u64>,
}

impl TcpWorkload {
    pub fn new(mix: Mix, load: Load, seed: u64) -> Self {
        let corpus = Corpus::generate(mix, seed);
        let depth = match load {
            Load::Closed { window } => window,
            Load::Paced { .. } => PACED_DEPTH,
        };
        let pair = Pair::new(Wire::Tcp, true, depth);
        let setup = SetupInfo {
            construct_ms: 0.0,
            bringup_ms: pair.bringup_ms,
        };
        TcpWorkload {
            pair,
            corpus,
            load,
            check: Checker::default(),
            setup,
            // Room for a whole run's samples up front (untouched pages
            // cost nothing): growing it mid-run would copy it, and the
            // copy would show in `peak_rss_mb`.
            lateness: Vec::with_capacity(1 << 19),
        }
    }

    /// The open-loop segment: every frame is offered when the schedule
    /// says so (or as soon after as this thread gets there, which is
    /// recorded), and timed from its due instant to its checked
    /// delivery.
    fn paced_segment(
        &mut self,
        rate_hz: u64,
        duration_ns: u64,
        t: &mut Tracer,
        lat: &mut Vec<u64>,
    ) -> Segment {
        let sched = Schedule::new(rate_hz, duration_ns);
        // One sample per frame: grown before the clock starts.
        lat.reserve(sched.total() as usize);
        self.lateness.reserve(sched.total() as usize);
        let lat_from = lat.len();
        let mut c = Counts::default();
        let first = self.check.next_offer;
        let (mut sent, mut arrived, mut admitted) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        let mut last_progress = start;
        t.open(Name::Window);
        while sent < sched.total() || arrived < admitted {
            let now = start.elapsed().as_nanos() as u64;
            let due = sched.due_by(now);
            if sent < due {
                t.open(Name::Offer);
                while sent < due {
                    self.lateness.push(now - sched.due_ns(sent));
                    let frame = self.corpus.frame(self.check.next_offer);
                    if self.pair.a.offer(IPV4, frame).is_admitted() {
                        admitted += 1;
                    }
                    self.check.next_offer += 1;
                    sent += 1;
                }
                t.close();
            }
            self.pair.service(t);
            t.open(Name::Collect);
            let got = self.pair.b.take_deliveries();
            t.close();
            if got.is_empty() {
                if last_progress.elapsed() > STALL && arrived < admitted {
                    break;
                }
                continue;
            }
            last_progress = Instant::now();
            t.open(Name::Verify);
            let now = start.elapsed().as_nanos() as u64;
            for (protocol, payload) in &got {
                // Deliveries are in offer order, so the k-th arrival is
                // the k-th frame admitted; with nothing shed that is
                // also the k-th frame of the schedule.
                let index = (self.check.next_delivery - first) as u64;
                arrived += 1;
                if self.check.check(&self.corpus, *protocol, payload) {
                    c.delivered += 1;
                    c.bytes += payload.len() as u64;
                    lat.push(now.saturating_sub(sched.due_ns(index)));
                }
            }
            t.close();
        }
        t.close();
        c.offered = sent;
        c.failed = c.offered - c.delivered;
        if c.failed > 0 {
            self.check.resync();
        }
        Segment {
            wall_ns: start.elapsed().as_nanos() as u64,
            windows: 1,
            counts: c,
            lat_from,
            lat_to: lat.len(),
        }
    }
}

impl Workload for TcpWorkload {
    fn segment(&mut self, until: Until, t: &mut Tracer, lat: &mut Vec<u64>) -> Segment {
        match self.load {
            Load::Closed { window } => {
                let (pair, corpus, check) = (&mut self.pair, &self.corpus, &mut self.check);
                closed_loop(until, t, lat, |t| {
                    pair.closed_window(corpus, check, window, t)
                })
            }
            Load::Paced { rate_hz } => {
                let duration_ns = match until {
                    Until::Elapsed(ns) => ns,
                    Until::Windows(n) => n * PACED_WINDOW as u64 * 1_000_000_000 / rate_hz,
                };
                self.paced_segment(rate_hz, duration_ns, t, lat)
            }
        }
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn window_frames(&self) -> usize {
        match self.load {
            Load::Closed { window } => window,
            Load::Paced { .. } => PACED_WINDOW,
        }
    }

    fn setup_info(&self) -> SetupInfo {
        self.setup
    }

    fn counters(&mut self) -> Vec<(&'static str, f64)> {
        let (a, b) = (&self.pair.a, &self.pair.b);
        vec![
            ("passes_a", a.passes() as f64),
            ("passes_b", b.passes() as f64),
            ("fruitless", self.pair.fruitless as f64),
            ("bytes_out", a.counters.bytes_out as f64),
            ("short_writes", a.counters.short_writes as f64),
            ("idle_fill_bytes", a.counters.idle_fill_bytes as f64),
            (
                "io_errors",
                (a.counters.io_errors + b.counters.io_errors) as f64,
            ),
            ("tx_cycles", self.pair.a_cycles.counted as f64),
            ("rx_cycles", self.pair.b_cycles.counted as f64),
        ]
    }

    fn set_cycle_probe(&mut self, on: bool) {
        self.pair.set_cycle_probe(on);
    }

    fn generator_lateness(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.lateness)
    }
}
