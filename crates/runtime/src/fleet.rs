//! The fleet: thousands of independent duplex links sharded across a
//! fixed worker pool.
//!
//! Scheduling model (DESIGN.md §16): links are grouped into *cohorts*
//! (one self-carried link, or one channel group sharing an STM-N
//! envelope).  `run_ticks(n)` hands each cohort to exactly one worker,
//! which runs the cohort's entire n-tick batch before claiming the
//! next — so no per-tick barrier exists, idle cohorts are skipped via
//! the `has_work` check, and per-link results are independent of the
//! worker count, the sharding mode and the claim order.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use p5_core::link::{LinkCounters, DEFAULT_INGRESS_DEPTH};
use p5_core::rx::RxCounters;
use p5_core::DatapathWidth;
use p5_fault::{FaultError, FaultSpec, FaultStats};
use p5_sonet::StmLevel;
use p5_stream::{to_prometheus, Histogram, SharedRecorder, Snapshot};

use crate::link::{Cohort, Dir, ShardLink};
use crate::traffic::TrafficSpec;
use p5_stream::Offer;

/// Lock a cohort, recovering the guard if a worker panicked while
/// holding it: one panicking link must not wedge every later tick.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What carries each link's wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carrier {
    /// Bare wire: the line-rate mode (fused fast paths end to end).
    Raw,
    /// Each link rides its own STM-N path pair (scramble → frame →
    /// channel → delineate → descramble per direction).
    Sonet(StmLevel),
    /// Channelized: groups of `level.n()` links share one STM-N
    /// envelope pair, column-interleaved per G.707 — tributaries of a
    /// single fibre, advanced in lockstep as one cohort.
    Channelized(StmLevel),
}

/// How cohorts are assigned to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharding {
    /// Workers claim the next unclaimed cohort from a shared cursor —
    /// long-running cohorts don't stall the rest of a stride.
    WorkStealing,
    /// Worker `w` owns cohorts `w, w + W, w + 2W, …` — zero contention
    /// on the claim path, at the cost of load imbalance.
    Static,
}

/// Fleet construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of duplex links.
    pub links: usize,
    /// Worker threads; `0` = one per available core.
    pub workers: usize,
    pub width: DatapathWidth,
    pub carrier: Carrier,
    pub sharding: Sharding,
    /// Chaos: forked per link/direction via `FaultPlan::fork_link`, so
    /// per-link fault streams replay independent of scheduling.
    pub fault: Option<FaultSpec>,
    pub seed: u64,
    /// Bounded per-link, per-direction ingress queue depth.
    pub ingress_depth: usize,
    /// Per-direction line-rate cap: wire octets delivered into the
    /// sink device per tick.  `None` = uncapped (maximum host speed);
    /// `Some(cap)` over-subscribes the line and exercises shedding.
    pub wire_bytes_per_tick: Option<usize>,
    /// Open-loop generated load (see [`TrafficSpec`]); `None` = only
    /// externally offered frames.
    pub traffic: Option<TrafficSpec>,
    /// Restrict the fault spec to these link ids (`None` = every link).
    /// A seeded burst on one link of a large fleet — the
    /// health-detection scenario — is `fault: Some(..)`,
    /// `fault_links: Some(vec![id])`.
    pub fault_links: Option<Vec<usize>>,
    /// Links whose devices get frame-lifecycle tracing attached (a
    /// bounded [`SharedRecorder`] ring per device) — the flight-recorder
    /// tap.  Empty by default: tracing everything at fleet scale is
    /// exactly what the flight recorder exists to avoid.
    pub trace_links: Vec<usize>,
}

/// Events retained per traced device (two rings per traced link).
const TRACE_RING_CAP: usize = 512;

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            links: 1,
            workers: 0,
            width: DatapathWidth::W32,
            carrier: Carrier::Raw,
            sharding: Sharding::WorkStealing,
            fault: None,
            seed: 1,
            ingress_depth: DEFAULT_INGRESS_DEPTH,
            wire_bytes_per_tick: None,
            traffic: None,
            fault_links: None,
            trace_links: Vec::new(),
        }
    }
}

/// Fleet construction failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A fleet needs at least one link.
    NoLinks,
    /// Channelized carriage needs an STM-4 or STM-16 envelope.
    InvalidEnvelope(StmLevel),
    /// The fault spec failed validation.
    Fault(FaultError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoLinks => write!(f, "fleet needs at least one link"),
            RuntimeError::InvalidEnvelope(l) => write!(
                f,
                "channelized carriage needs an STM-4/STM-16 envelope, got STM-{}",
                l.n()
            ),
            RuntimeError::Fault(e) => write!(f, "invalid fault spec: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

/// Staged-pipeline cycles granted per busy device per tick (only a
/// device in cycle-model duty spends any).
pub(crate) const CYCLES_PER_TICK: u64 = 512;

/// Per-tick parameters threaded into every cohort.
#[derive(Debug, Clone)]
pub(crate) struct TickParams {
    pub wire_budget: usize,
    pub traffic: Option<TrafficSpec>,
}

/// One worker thread's scheduling profile across every `run_ticks`
/// batch so far — the busy/idle/steal accounting dynamic rebalancing
/// (ROADMAP item 1) needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Cohorts this worker claimed.
    pub claims: u64,
    /// Ticks actually executed across those claims (idle-skipped ticks
    /// don't count).
    pub busy_ticks: u64,
    /// Claims that turned out to be fully idle (zero ticks executed).
    pub idle_claims: u64,
    /// Work-stealing claims of a cohort that static striding would
    /// have given to a different worker.
    pub steals: u64,
}

impl WorkerStats {
    fn add(&mut self, o: &WorkerStats) {
        self.claims += o.claims;
        self.busy_ticks += o.busy_ticks;
        self.idle_claims += o.idle_claims;
        self.steals += o.steals;
    }
}

/// Aggregate fleet reading: flow conservation counters, merged frame
/// latency, merged receiver/fault statistics.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    pub links: usize,
    pub workers: usize,
    /// Ticks granted via `run_ticks` (idle-skipped cohorts still count
    /// — this is wall time in ticks, not work done).
    pub ticks: u64,
    /// Fleet-scope flow counters; see [`LinkCounters`] for the
    /// conservation law.
    pub flow: LinkCounters,
    /// Staged TX-queue refusals as the devices count them
    /// (`submit_rejects`) — must equal `flow.rejected`, and like it
    /// reads 0: the runtime admits through `P5::offer_frame`, which
    /// never submits to a full staged queue.
    pub device_tx_rejects: u64,
    /// The same refusals as the OAM `TX_REJECTS` registers mirror them.
    pub oam_tx_rejects: u64,
    /// Frames the transmitters actually streamed.
    pub tx_frames_sent: u64,
    /// Merged receive counters across every device.
    pub rx: RxCounters,
    /// Submit → delivery latency in ticks (fault-free links only).
    pub latency: Histogram,
    /// Injected-fault totals across every link/direction plan.
    pub fault: FaultStats,
    /// Receiver resynchronisation cost: octets skipped hunting for a
    /// flag after losing delineation, summed across every device.
    pub resync_bytes: u64,
    /// Per-worker scheduling profile (claims/busy/idle/steals).
    pub worker: Vec<WorkerStats>,
    /// Cohort load skew in thousandths: the busiest cohort's executed
    /// ticks over the mean, `1000` = perfectly balanced.  The signal a
    /// dynamic rebalancer would act on.
    pub load_skew_milli: u64,
}

impl FleetStats {
    /// Frames admitted but neither in the device, shed nor rejected —
    /// still waiting in ingress queues.  Zero after a full drain.
    pub fn queued(&self) -> u64 {
        self.flow
            .offered
            .saturating_sub(self.flow.accepted + self.flow.shed + self.flow.rejected)
    }

    /// Conservative p99 frame latency bound, in ticks.
    pub fn p99_latency_ticks(&self) -> Option<u64> {
        self.latency.quantile_bound(0.99)
    }

    /// Summed worker profile (claims/busy/idle/steals across the pool).
    pub fn worker_totals(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for w in &self.worker {
            t.add(w);
        }
        t
    }
}

/// One link's contribution to a fleet report — the health scorer's
/// per-link inputs (FCS errors, resync cost, shed/reject rates) ride
/// here alongside flow and latency.
#[derive(Debug, Clone)]
pub struct LinkReport {
    pub link: usize,
    pub flow: LinkCounters,
    pub fault: FaultStats,
    pub p99_latency_ticks: Option<u64>,
    /// Merged receive counters, both ends.
    pub rx: RxCounters,
    /// Octets skipped resynchronising after lost delineation.
    pub resync_bytes: u64,
    /// Device TX-queue refusals, both ends.
    pub tx_rejects: u64,
    /// The link's private clock (ticks it actually executed).
    pub ticks: u64,
}

/// The multi-link runtime.
pub struct Fleet {
    cfg: FleetConfig,
    cohorts: Vec<Mutex<Cohort>>,
    /// Links per cohort (1, or the channel-group width).
    group: usize,
    workers: usize,
    ticks_run: u64,
    worker_stats: Vec<WorkerStats>,
    /// `(link id, end-a recorder, end-b recorder)` for every traced
    /// link, in `cfg.trace_links` order.
    recorders: Vec<(usize, SharedRecorder, SharedRecorder)>,
}

impl Fleet {
    pub fn new(cfg: FleetConfig) -> Result<Self, RuntimeError> {
        if cfg.links == 0 {
            return Err(RuntimeError::NoLinks);
        }
        let base_fault = match &cfg.fault {
            None => None,
            Some(spec) => Some(
                spec.clone()
                    .compile(cfg.seed)
                    .map_err(RuntimeError::Fault)?,
            ),
        };
        let payload_len = cfg.traffic.map(|t| t.payload_len).unwrap_or(256);
        let make_link = |id: usize, sonet: Option<StmLevel>| {
            // Fault restricted to the targeted links; the rest stay
            // clean (and keep latency tracking — only faulted links
            // can lose accepted frames).
            let faulted = cfg
                .fault_links
                .as_ref()
                .is_none_or(|targets| targets.contains(&id));
            ShardLink::new(
                id,
                cfg.width,
                sonet,
                if faulted { base_fault.as_ref() } else { None },
                cfg.seed,
                payload_len,
                cfg.ingress_depth,
            )
        };
        let (cohorts, group) = match cfg.carrier {
            Carrier::Raw => (
                (0..cfg.links)
                    .map(|id| Mutex::new(Cohort::single(make_link(id, None))))
                    .collect::<Vec<_>>(),
                1,
            ),
            Carrier::Sonet(level) => (
                (0..cfg.links)
                    .map(|id| Mutex::new(Cohort::single(make_link(id, Some(level)))))
                    .collect::<Vec<_>>(),
                1,
            ),
            Carrier::Channelized(level) => {
                let n = level.n();
                if n < 2 {
                    return Err(RuntimeError::InvalidEnvelope(level));
                }
                let mut cohorts = Vec::with_capacity(cfg.links.div_ceil(n));
                let mut id = 0;
                while id < cfg.links {
                    let span = n.min(cfg.links - id);
                    let links = (id..id + span).map(|i| make_link(i, None)).collect();
                    cohorts.push(Mutex::new(Cohort::channel_group(links, level)));
                    id += span;
                }
                (cohorts, n)
            }
        };
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let mut fleet = Fleet {
            cfg,
            cohorts,
            group,
            workers,
            ticks_run: 0,
            worker_stats: vec![WorkerStats::default(); workers],
            recorders: Vec::new(),
        };
        for i in 0..fleet.cfg.trace_links.len() {
            let id = fleet.cfg.trace_links[i];
            if id >= fleet.cfg.links || fleet.recorders.iter().any(|(l, _, _)| *l == id) {
                continue;
            }
            let (c, slot) = fleet.locate(id);
            let (ra, rb) = lock(&fleet.cohorts[c]).links[slot].attach_recorders(TRACE_RING_CAP);
            fleet.recorders.push((id, ra, rb));
        }
        Ok(fleet)
    }

    pub fn links(&self) -> usize {
        self.cfg.links
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn ticks_run(&self) -> u64 {
        self.ticks_run
    }

    /// Per-worker scheduling profile accumulated across every
    /// `run_ticks` batch so far.
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.worker_stats
    }

    /// Trace recorders for every traced link, as
    /// `(link id, end-a, end-b)` — see [`FleetConfig::trace_links`].
    pub fn recorders(&self) -> &[(usize, SharedRecorder, SharedRecorder)] {
        &self.recorders
    }

    fn params(&self) -> TickParams {
        TickParams {
            wire_budget: self.cfg.wire_bytes_per_tick.unwrap_or(usize::MAX),
            traffic: self.cfg.traffic,
        }
    }

    fn locate(&self, link: usize) -> (usize, usize) {
        assert!(link < self.cfg.links, "link {link} out of range");
        (link / self.group, link % self.group)
    }

    /// Offer one a → b frame to `link`'s bounded ingress queue.
    pub fn offer(&mut self, link: usize, protocol: u16, payload: &[u8]) -> Offer {
        self.offer_dir(link, Dir::AtoB, protocol, payload)
    }

    /// Offer a frame in an explicit direction.
    pub fn offer_dir(&mut self, link: usize, dir: Dir, protocol: u16, payload: &[u8]) -> Offer {
        let (c, slot) = self.locate(link);
        lock(&self.cohorts[c]).links[slot].offer(dir, protocol, payload)
    }

    /// Advance every cohort by up to `n` ticks, sharded across the
    /// worker pool.  Cohorts with no pending ingress, egress or staged
    /// state are skipped (the `is_idle` machinery, lifted to fleet
    /// scope).  Returns the busy ticks actually executed, summed over
    /// cohorts — `0` means the fleet was already drained, letting
    /// callers detect idleness without a separate full-fleet scan.
    pub fn run_ticks(&mut self, n: u64) -> u64 {
        let params = self.params();
        let w = self.workers.min(self.cohorts.len()).max(1);
        let mut tallies = vec![WorkerStats::default(); w];
        if w <= 1 {
            let t = &mut tallies[0];
            for c in &self.cohorts {
                let ran = lock(c).drive(&params, n);
                t.claims += 1;
                t.busy_ticks += ran;
                t.idle_claims += (ran == 0) as u64;
            }
        } else {
            match self.cfg.sharding {
                Sharding::WorkStealing => {
                    let cursor = AtomicUsize::new(0);
                    let cursor = &cursor;
                    let cohorts = &self.cohorts;
                    let params = &params;
                    std::thread::scope(|s| {
                        for (wi, t) in tallies.iter_mut().enumerate() {
                            s.spawn(move || loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(c) = cohorts.get(i) else { break };
                                let ran = lock(c).drive(params, n);
                                t.claims += 1;
                                t.busy_ticks += ran;
                                t.idle_claims += (ran == 0) as u64;
                                // A claim static striding would have
                                // handed to a different worker.
                                t.steals += (i % w != wi) as u64;
                            });
                        }
                    });
                }
                Sharding::Static => {
                    let cohorts = &self.cohorts;
                    let params = &params;
                    std::thread::scope(|s| {
                        for (wi, t) in tallies.iter_mut().enumerate() {
                            s.spawn(move || {
                                let mut i = wi;
                                while let Some(c) = cohorts.get(i) {
                                    let ran = lock(c).drive(params, n);
                                    t.claims += 1;
                                    t.busy_ticks += ran;
                                    t.idle_claims += (ran == 0) as u64;
                                    i += w;
                                }
                            });
                        }
                    });
                }
            }
        }
        let busy: u64 = tallies.iter().map(|t| t.busy_ticks).sum();
        for (acc, t) in self.worker_stats.iter_mut().zip(tallies.iter()) {
            acc.add(t);
        }
        self.ticks_run += n;
        busy
    }

    /// Advance the fleet like [`Fleet::run_ticks`], but in batches of
    /// `every` ticks, invoking `sample` on the quiesced fleet after
    /// each batch — the collector's hook: no worker holds a cohort
    /// while `sample` runs, so it can read stats, link reports and
    /// trace rings without contending with the data path.  Stops early
    /// once idle; returns the ticks actually granted.
    pub fn run_sampled(
        &mut self,
        max_ticks: u64,
        every: u64,
        mut sample: impl FnMut(&Fleet),
    ) -> u64 {
        let every = every.max(1);
        let mut spent = 0u64;
        while spent < max_ticks {
            let batch = every.min(max_ticks - spent);
            // Idleness falls out of the batch itself (every cohort's
            // `drive` early-exits on no work), so the no-collector
            // fast path pays no extra full-fleet `is_idle` scan.
            if self.run_ticks(batch) == 0 {
                break;
            }
            spent += batch;
            sample(self);
        }
        spent
    }

    /// Every cohort fully quiesced: no generated load pending, ingress
    /// and wire empty, both devices drained.
    pub fn is_idle(&self) -> bool {
        let params = self.params();
        self.cohorts.iter().all(|c| !lock(c).has_work(&params))
    }

    /// Run until idle, in batches, spending at most `max_ticks`.
    /// Returns whether the fleet drained.
    pub fn run_until_drained(&mut self, max_ticks: u64) -> bool {
        let mut spent = 0u64;
        while spent < max_ticks {
            if self.is_idle() {
                return true;
            }
            let batch = 64.min(max_ticks - spent);
            self.run_ticks(batch);
            spent += batch;
        }
        self.is_idle()
    }

    /// Aggregate reading across every link (exact merge — counter sums
    /// and histogram bucket adds, never export-side concatenation).
    pub fn stats(&self) -> FleetStats {
        let mut st = FleetStats {
            links: self.cfg.links,
            workers: self.workers,
            ticks: self.ticks_run,
            ..FleetStats::default()
        };
        st.worker = self.worker_stats.clone();
        let mut max_work = 0u64;
        let mut total_work = 0u64;
        for c in &self.cohorts {
            let c = lock(c);
            max_work = max_work.max(c.work_ticks);
            total_work += c.work_ticks;
            for l in &c.links {
                st.flow.add(&l.counters());
                st.latency.merge(&l.latency);
                st.fault.absorb(&l.fault_stats());
                st.device_tx_rejects += l.device_tx_rejects();
                st.oam_tx_rejects += l.oam_tx_rejects();
                st.tx_frames_sent += l.tx_frames_sent();
                st.resync_bytes += l.resync_bytes();
                st.rx.add(&l.rx_totals());
            }
        }
        let mean = total_work as f64 / self.cohorts.len() as f64;
        st.load_skew_milli = if mean > 0.0 {
            (max_work as f64 / mean * 1000.0).round() as u64
        } else {
            1000
        };
        st
    }

    /// Per-link flow/fault/latency rows, in link order.
    pub fn link_reports(&self) -> Vec<LinkReport> {
        let mut rows = Vec::with_capacity(self.cfg.links);
        for (i, c) in self.cohorts.iter().enumerate() {
            let c = lock(c);
            for (slot, l) in c.links.iter().enumerate() {
                rows.push(LinkReport {
                    link: i * self.group + slot,
                    flow: l.counters(),
                    fault: l.fault_stats(),
                    p99_latency_ticks: l.latency.quantile_bound(0.99),
                    rx: l.rx_totals(),
                    resync_bytes: l.resync_bytes(),
                    tx_rejects: l.device_tx_rejects(),
                    ticks: l.ticks(),
                });
            }
        }
        rows
    }

    /// Fleet-level snapshot set: flow + latency under scope `fleet`,
    /// merged receiver counters under `fleet-rx`, merged fault
    /// injection under `fleet-fault`.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        let st = self.stats();
        let fleet = Snapshot::new("fleet")
            .counter("links", st.links as u64)
            .counter("workers", st.workers as u64)
            .counter("ticks", st.ticks)
            .counter("offered", st.flow.offered)
            .counter("accepted", st.flow.accepted)
            .counter("shed", st.flow.shed)
            .counter("rejected", st.flow.rejected)
            .counter("queued", st.queued())
            .counter("delivered", st.flow.delivered)
            .counter("delivered_bytes", st.flow.delivered_bytes)
            .counter("tx_frames_sent", st.tx_frames_sent)
            .histogram("frame_latency_ticks", st.latency.clone());
        let wt = st.worker_totals();
        let sched = Snapshot::new("fleet-sched")
            .counter("claims", wt.claims)
            .counter("busy_ticks", wt.busy_ticks)
            .counter("idle_claims", wt.idle_claims)
            .counter("steals", wt.steals)
            .counter("load_skew_milli", st.load_skew_milli);
        let rx = Snapshot::new("fleet-rx")
            .counter("frames_ok", st.rx.frames_ok)
            .counter("fcs_errors", st.rx.fcs_errors)
            .counter("aborts", st.rx.aborts)
            .counter("runts", st.rx.runts)
            .counter("giants", st.rx.giants)
            .counter("address_mismatches", st.rx.address_mismatches)
            .counter("header_errors", st.rx.header_errors)
            .counter("resync_bytes", st.resync_bytes);
        let mut fault = st.fault.snapshot();
        fault.scope = "fleet-fault".to_string();
        vec![fleet, sched, rx, fault]
    }

    /// Prometheus text exposition of [`Fleet::snapshots`] — the scrape
    /// payload for a carrier-scale deployment.
    pub fn prometheus(&self) -> String {
        to_prometheus(&self.snapshots())
    }
}
