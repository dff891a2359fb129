//! One sharded duplex link and the cohort (schedulable unit) that owns
//! it.  Everything here is *single-threaded per cohort*: a worker that
//! claims a cohort runs its whole tick batch, so no state is shared
//! between links and per-link results are a pure function of
//! `(fleet config, link id)` — independent of worker count, sharding
//! mode and claim order.

use std::collections::VecDeque;

use p5_core::p5::FUSED_WIRE_HIGH_WATER;
use p5_core::P5;
use p5_fault::{FaultPlan, FaultStats};
use p5_sonet::{BitErrorChannel, OcPath, StmLevel, TributaryGroup};
use p5_stream::{Histogram, Offer, SharedRecorder, WireBuf};
use p5_xport::LinkEngine;

use crate::fleet::TickParams;
use crate::traffic::template_payload;

/// Per-link flow accounting.  The fleet-scope conservation law (the
/// `StageStats` invariant lifted to the runtime boundary) is
/// `offered == accepted + shed + rejected + queued`, where `queued`
/// is whatever still sits in the ingress queues; after a drain,
/// `queued == 0` and on clean links `delivered == accepted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Frames offered to the link (external `offer` + generated load).
    pub offered: u64,
    /// Frames the device took ([`P5::offer_frame`]).
    pub accepted: u64,
    /// Frames refused at the bounded ingress queue.
    pub shed: u64,
    /// Frames dropped at a device's bounded staged TX queue (counted in
    /// `TX_REJECTS`).  Reads 0: [`P5::offer_frame`] answers *not now*
    /// in either duty and the frame stays in `ingress`, held.  Kept as
    /// the conservation law's named drop-at-device leg.
    pub rejected: u64,
    /// Frames delivered out of the peer device.
    pub delivered: u64,
    /// Payload octets delivered.
    pub delivered_bytes: u64,
}

impl LinkCounters {
    /// Accumulate another link's counters (fleet aggregation).
    pub fn add(&mut self, o: &LinkCounters) {
        self.offered += o.offered;
        self.accepted += o.accepted;
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.delivered += o.delivered;
        self.delivered_bytes += o.delivered_bytes;
    }
}

/// Direction of travel on a duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    AtoB,
    BtoA,
}

/// One direction's carriage: wire bytes pending delivery to the sink
/// device, plus the latency stamps of every accepted-but-undelivered
/// frame and this direction's fault plan.
struct DirState {
    /// Bounded ingress queue (frames admitted but not yet in the
    /// device).
    ingress: VecDeque<(u16, Vec<u8>)>,
    /// Submit-tick of each in-flight accepted frame (FIFO — PPP links
    /// preserve order), popped at delivery.  Only maintained on
    /// fault-free links, where no accepted frame can vanish.
    stamps: VecDeque<u64>,
    /// Post-carrier, post-fault wire bytes awaiting the sink device.
    wire: WireBuf,
    /// Optional STM-N transmission convergence for this direction
    /// (boxed: an `OcPath` holds whole-frame buffers).
    path: Option<Box<OcPath>>,
    plan: Option<FaultPlan>,
    /// What the path recovered from the current transfer.
    carried: Vec<u8>,
    scratch: Vec<u8>,
}

impl DirState {
    fn new(path: Option<Box<OcPath>>, plan: Option<FaultPlan>) -> Self {
        DirState {
            ingress: VecDeque::new(),
            stamps: VecDeque::new(),
            wire: WireBuf::new(),
            path,
            plan,
            carried: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Land one transfer's octets on the line towards the sink device,
    /// through this direction's fault model: whole-transfer loss, then
    /// the full corruption pipeline.
    fn land(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let Some(plan) = &mut self.plan else {
            self.wire.push_slice(bytes);
            return;
        };
        if plan.lose_transfer() {
            return;
        }
        self.scratch.clear();
        plan.corrupt_into(bytes, &mut self.scratch);
        self.wire.push_slice(&self.scratch);
    }
}

/// Offer one frame to a direction: straight into the device when
/// nothing is queued ahead and the line is clear, the bounded ingress
/// queue otherwise, shed when that queue is full.  `stamp` is the
/// submit tick when this link tracks latency, `None` otherwise.
fn offer_into(
    dev: &mut P5,
    dir: &mut DirState,
    counters: &mut LinkCounters,
    protocol: u16,
    payload: &[u8],
    stamp: Option<u64>,
    ingress_depth: usize,
) -> Offer {
    counters.offered += 1;
    if dir.ingress.is_empty()
        && dir.wire.len() < FUSED_WIRE_HIGH_WATER
        && dev.offer_frame(protocol, payload, 0)
    {
        counters.accepted += 1;
        dir.stamps.extend(stamp);
        return Offer::Accepted;
    }
    if dir.ingress.len() >= ingress_depth {
        counters.shed += 1;
        return Offer::Shed;
    }
    let mut buf = dev.lease_tx_buf();
    buf.extend_from_slice(payload);
    dir.ingress.push_back((protocol, buf));
    Offer::Queued
}

/// Move queued ingress frames into the device while the line is clear
/// and the device takes them ([`P5::offer_frame`]).  Frames left queued
/// are the "blocked" leg of the conservation law — held, not dropped —
/// and are retried next tick.
fn drain_ingress(
    dev: &mut P5,
    dir: &mut DirState,
    counters: &mut LinkCounters,
    stamp: Option<u64>,
) {
    while let Some((protocol, payload)) = dir.ingress.front() {
        if dir.wire.len() >= FUSED_WIRE_HIGH_WATER || !dev.offer_frame(*protocol, payload, 0) {
            return;
        }
        if let Some((_, payload)) = dir.ingress.pop_front() {
            dev.buf_pool().recycle_vec(payload);
        }
        counters.accepted += 1;
        dir.stamps.extend(stamp);
    }
}

/// Carry the source device's produced wire bytes towards the sink:
/// optionally through this direction's STM-N path, then through the
/// fault plan, into `dir.wire`.
fn ferry(src: &mut P5, dir: &mut DirState) {
    if dir.path.is_none() && dir.plan.is_none() {
        src.drain_wire_into(&mut dir.wire);
        return;
    }
    let bytes = src.take_wire_out();
    match &mut dir.path {
        // Fleet devices put whole frames on the wire, so every
        // transfer may pad out its last SPE.
        Some(path) => {
            let mut carried = std::mem::take(&mut dir.carried);
            carried.clear();
            path.carry_into(&bytes, true, &mut carried);
            dir.land(&carried);
            dir.carried = carried;
        }
        None => dir.land(&bytes),
    }
    src.recycle_wire_vec(bytes);
}

/// Collect delivered frames from the sink device, closing latency
/// stamps and recycling payload storage.
fn collect(
    dst: &mut P5,
    dir: &mut DirState,
    counters: &mut LinkCounters,
    latency: &mut Histogram,
    now: u64,
    track_latency: bool,
) {
    while let Some(f) = dst.pop_received() {
        counters.delivered += 1;
        counters.delivered_bytes += f.payload.len() as u64;
        if track_latency {
            if let Some(t0) = dir.stamps.pop_front() {
                latency.observe(now.saturating_sub(t0));
            }
        }
        dst.recycle_rx_payload(f.payload);
    }
}

/// One duplex link in the fleet: two devices, two directions of
/// carriage, flow accounting and a frame-latency histogram.
pub(crate) struct ShardLink {
    pub id: usize,
    a: P5,
    b: P5,
    ab: DirState,
    ba: DirState,
    pub counters: LinkCounters,
    pub latency: Histogram,
    track_latency: bool,
    template: Vec<u8>,
    /// This link's private clock, in ticks.  Advanced only by
    /// [`ShardLink::finish_tick`], never by the fleet — the per-link
    /// schedule is what worker interleavings cannot touch.
    tick: u64,
}

impl ShardLink {
    pub fn new(
        id: usize,
        width: p5_core::DatapathWidth,
        sonet: Option<StmLevel>,
        base_fault: Option<&FaultPlan>,
        seed: u64,
        payload_len: usize,
    ) -> Self {
        let a = P5::new(width);
        let b = P5::new(width);
        let make_path = |level: StmLevel| Box::new(OcPath::new(level, BitErrorChannel::clean()));
        let link_id = id as u64;
        ShardLink {
            id,
            a,
            b,
            ab: DirState::new(
                sonet.map(make_path),
                base_fault.map(|p| p.fork_link(link_id, 0)),
            ),
            ba: DirState::new(
                sonet.map(make_path),
                base_fault.map(|p| p.fork_link(link_id, 1)),
            ),
            counters: LinkCounters::default(),
            latency: Histogram::new(),
            track_latency: base_fault.is_none(),
            template: template_payload(payload_len, seed, link_id),
            tick: 0,
        }
    }

    pub fn fault_stats(&self) -> FaultStats {
        let mut s = FaultStats::default();
        if let Some(p) = &self.ab.plan {
            s.absorb(&p.stats());
        }
        if let Some(p) = &self.ba.plan {
            s.absorb(&p.stats());
        }
        s
    }

    /// Device-truth TX-queue refusals, both ends (mirrored to the OAM
    /// `TX_REJECTS` registers by `sync_oam`).
    pub fn device_tx_rejects(&self) -> u64 {
        self.a.tx.control.submit_rejects + self.b.tx.control.submit_rejects
    }

    /// Both ends' OAM handles (register-bus views for tests/telemetry).
    pub fn oam_handles(&self) -> (p5_core::OamHandle, p5_core::OamHandle) {
        (self.a.oam.clone(), self.b.oam.clone())
    }

    /// The same refusals as the OAM `TX_REJECTS` registers mirror them
    /// (`sync_oam` runs on the next staged clock after the reject, so
    /// this matches [`ShardLink::device_tx_rejects`] once drained).
    pub fn oam_tx_rejects(&self) -> u64 {
        use p5_core::oam::regs;
        use p5_core::{MmioBus, Oam};
        let (a, b) = self.oam_handles();
        Oam::new(a).read(regs::TX_REJECTS) as u64 + Oam::new(b).read(regs::TX_REJECTS) as u64
    }

    pub fn rx_totals(&self) -> (p5_core::rx::RxCounters, p5_core::rx::RxCounters) {
        (*self.a.rx_counters(), *self.b.rx_counters())
    }

    /// Receiver resynchronisation cost, both ends: octets skipped while
    /// hunting for a flag after losing delineation — the health
    /// scorer's "resync events" input.
    pub fn resync_bytes(&self) -> u64 {
        self.a.rx.control.resync_bytes_skipped + self.b.rx.control.resync_bytes_skipped
    }

    /// This link's private clock (ticks it has actually executed).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Attach frame-lifecycle tracing to both devices, returning the
    /// `(a, b)` recorders.  Each is a shared ring of `cap` events —
    /// the flight-recorder tap for a link picked out of the fleet.
    pub fn attach_recorders(&mut self, cap: usize) -> (SharedRecorder, SharedRecorder) {
        let ra = SharedRecorder::with_capacity(cap);
        let rb = SharedRecorder::with_capacity(cap);
        self.a.set_trace(Box::new(ra.clone()));
        self.b.set_trace(Box::new(rb.clone()));
        (ra, rb)
    }

    pub fn tx_frames_sent(&self) -> u64 {
        self.a.tx.control.frames_sent + self.b.tx.control.frames_sent
    }

    /// Offer one frame in `dir`; the external ingress API.
    pub fn offer(
        &mut self,
        dir: Dir,
        protocol: u16,
        payload: &[u8],
        ingress_depth: usize,
    ) -> Offer {
        let stamp = self.track_latency.then_some(self.tick);
        let (dev, d) = match dir {
            Dir::AtoB => (&mut self.a, &mut self.ab),
            Dir::BtoA => (&mut self.b, &mut self.ba),
        };
        offer_into(
            dev,
            d,
            &mut self.counters,
            protocol,
            payload,
            stamp,
            ingress_depth,
        )
    }

    /// Tick phase 1 — everything up to the device producing wire bytes:
    /// generated load, ingress drain, staged clocking.
    pub fn begin_tick(&mut self, p: &TickParams) {
        let stamp = self.track_latency.then_some(self.tick);
        if let Some(t) = &p.traffic {
            if self.tick < t.ticks {
                for _ in 0..t.frames_per_tick {
                    offer_into(
                        &mut self.a,
                        &mut self.ab,
                        &mut self.counters,
                        t.protocol,
                        &self.template,
                        stamp,
                        p.ingress_depth,
                    );
                    if t.duplex {
                        offer_into(
                            &mut self.b,
                            &mut self.ba,
                            &mut self.counters,
                            t.protocol,
                            &self.template,
                            stamp,
                            p.ingress_depth,
                        );
                    }
                }
            }
        }
        drain_ingress(&mut self.a, &mut self.ab, &mut self.counters, stamp);
        drain_ingress(&mut self.b, &mut self.ba, &mut self.counters, stamp);
        if self.a.needs_clock() {
            self.a.run(p.cycles_per_tick);
        }
        if self.b.needs_clock() {
            self.b.run(p.cycles_per_tick);
        }
    }

    /// Tick phase 2 for self-carried links (Raw wire or per-link
    /// STM-N): ferry both directions.  Channelized cohorts do this leg
    /// through their shared envelope instead.
    pub fn carry_own_wire(&mut self) {
        ferry(&mut self.a, &mut self.ab);
        ferry(&mut self.b, &mut self.ba);
    }

    /// Channelized egress: hand one direction's produced wire bytes to
    /// the shared envelope (tributary `slot`).
    pub fn egress_to_envelope(&mut self, dir: Dir, env: &mut TributaryGroup, slot: usize) {
        let dev = match dir {
            Dir::AtoB => &mut self.a,
            Dir::BtoA => &mut self.b,
        };
        if dev.has_wire_out() {
            let bytes = dev.take_wire_out();
            env.send(slot, &bytes);
            dev.recycle_wire_vec(bytes);
        }
    }

    /// Channelized ingress: accept one direction's bytes recovered from
    /// the shared envelope (fault plan applied here, per link).
    pub fn ingress_from_envelope(&mut self, dir: Dir, bytes: &[u8]) {
        match dir {
            Dir::AtoB => self.ab.land(bytes),
            Dir::BtoA => self.ba.land(bytes),
        }
    }

    /// Tick phase 3 — deliver wire into the sink devices (budgeted),
    /// collect received frames, advance the link clock.
    pub fn finish_tick(&mut self, p: &TickParams) {
        self.b.ingest_wire(&mut self.ab.wire, p.wire_budget);
        self.a.ingest_wire(&mut self.ba.wire, p.wire_budget);
        collect(
            &mut self.b,
            &mut self.ab,
            &mut self.counters,
            &mut self.latency,
            self.tick,
            self.track_latency,
        );
        collect(
            &mut self.a,
            &mut self.ba,
            &mut self.counters,
            &mut self.latency,
            self.tick,
            self.track_latency,
        );
        self.tick += 1;
    }

    /// Anything left for this link to do?  (Generated load pending,
    /// ingress queued, staged state in flight, or wire in transit.)
    pub fn has_work(&self, p: &TickParams) -> bool {
        if let Some(t) = &p.traffic {
            if self.tick < t.ticks {
                return true;
            }
        }
        !self.ab.ingress.is_empty()
            || !self.ba.ingress.is_empty()
            || !self.ab.wire.is_empty()
            || !self.ba.wire.is_empty()
            || self.a.has_wire_out()
            || self.b.has_wire_out()
            || self.a.needs_clock()
            || self.b.needs_clock()
            || !self.a.fused_rx_idle()
            || !self.b.fused_rx_idle()
    }
}

/// The schedulable unit a worker claims: one self-carried link, a
/// channel group — up to N tributary links sharing an STM-N envelope
/// pair, which must advance in lockstep (one envelope frame carries a
/// column of every tributary) — or one *remote* endpoint (a
/// [`LinkEngine`] bound to a real OS transport, pumped by fleet
/// workers instead of a dedicated `SessionDriver` thread).
pub(crate) struct Cohort {
    pub links: Vec<ShardLink>,
    envelope: Option<Box<(TributaryGroup, TributaryGroup)>>,
    /// A transport-backed endpoint riding the worker pool.  Mutually
    /// exclusive with `links` — a remote cohort's "ticks" are engine
    /// service passes.
    pub remote: Option<Box<LinkEngine>>,
    /// Non-idle ticks this cohort has actually executed — the load-skew
    /// signal dynamic rebalancing needs (idle-skipped ticks don't
    /// count).
    pub work_ticks: u64,
}

impl Cohort {
    pub fn single(link: ShardLink) -> Self {
        Cohort {
            links: vec![link],
            envelope: None,
            remote: None,
            work_ticks: 0,
        }
    }

    pub fn channel_group(links: Vec<ShardLink>, level: StmLevel) -> Self {
        debug_assert!(links.len() <= level.n());
        Cohort {
            links,
            envelope: Some(Box::new((
                TributaryGroup::new(level, BitErrorChannel::clean()),
                TributaryGroup::new(level, BitErrorChannel::clean()),
            ))),
            remote: None,
            work_ticks: 0,
        }
    }

    pub fn remote(engine: LinkEngine) -> Self {
        Cohort {
            links: Vec::new(),
            envelope: None,
            remote: Some(Box::new(engine)),
            work_ticks: 0,
        }
    }

    pub fn has_work(&self, p: &TickParams) -> bool {
        self.links.iter().any(|l| l.has_work(p))
            || self
                .envelope
                .as_ref()
                .is_some_and(|e| e.0.frames_to_drain() > 0 || e.1.frames_to_drain() > 0)
            || self.remote.as_ref().is_some_and(|e| e.has_local_work())
    }

    /// One tick for every link in the cohort.
    pub fn tick(&mut self, p: &TickParams) {
        for l in &mut self.links {
            l.begin_tick(p);
        }
        match &mut self.envelope {
            None => {
                for l in &mut self.links {
                    l.carry_own_wire();
                }
            }
            Some(env) => {
                let (ab, ba) = &mut **env;
                for (slot, l) in self.links.iter_mut().enumerate() {
                    l.egress_to_envelope(Dir::AtoB, ab, slot);
                    l.egress_to_envelope(Dir::BtoA, ba, slot);
                }
                let k = ab.frames_to_drain().max(ba.frames_to_drain());
                if k > 0 {
                    // +2: tributary delineation hunts across a boundary.
                    ab.run_frames(k + 2);
                    ba.run_frames(k + 2);
                }
                for (slot, l) in self.links.iter_mut().enumerate() {
                    let bytes = ab.recv(slot);
                    l.ingress_from_envelope(Dir::AtoB, &bytes);
                    let bytes = ba.recv(slot);
                    l.ingress_from_envelope(Dir::BtoA, &bytes);
                }
            }
        }
        for l in &mut self.links {
            l.finish_tick(p);
        }
    }

    /// Run up to `n` ticks, stopping early once idle.  Returns the
    /// ticks actually executed (the worker's busy time on this claim).
    pub fn drive(&mut self, p: &TickParams, n: u64) -> u64 {
        if let Some(engine) = &mut self.remote {
            // A remote cohort's tick is one engine service pass; stop
            // as soon as the pass moves nothing (the socket decides
            // when more work exists, not the tick budget).
            let mut done = 0;
            while done < n && engine.service() {
                done += 1;
            }
            self.work_ticks += done;
            return done;
        }
        for done in 0..n {
            if !self.has_work(p) {
                self.work_ticks += done;
                return done;
            }
            self.tick(p);
        }
        self.work_ticks += n;
        n
    }
}

// The whole point of the runtime is moving cohorts across threads.
fn _assert_cohort_is_send() {
    fn is_send<T: Send>() {}
    is_send::<Cohort>();
}
