//! One sharded duplex link and the cohort (schedulable unit) that owns
//! it.  Everything here is *single-threaded per cohort*: a worker that
//! claims a cohort runs its whole tick batch, so no state is shared
//! between links and per-link results are a pure function of
//! `(fleet config, link id)` — independent of worker count and claim
//! order.

use std::collections::VecDeque;

use p5_core::link::{Carriage, LinkCore, LinkCounters};
use p5_core::rx::RxCounters;
use p5_core::P5;
use p5_fault::{FaultPlan, FaultStats};
use p5_sonet::{BitErrorChannel, OcPath, StmLevel, TributaryGroup};
use p5_stream::{Histogram, Offer, SharedRecorder};

use crate::fleet::{TickParams, CYCLES_PER_TICK};
use crate::traffic::template_payload;

/// Direction of travel on a duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    AtoB,
    BtoA,
}

/// One direction of a fleet link: the source endpoint, its outgoing
/// line, and the submit tick of every accepted-but-undelivered frame on
/// it (FIFO — PPP links preserve order), popped at delivery.  Stamps
/// are only kept on fault-free links, where no accepted frame can
/// vanish.
struct Lane {
    src: LinkCore,
    line: Carriage,
    stamps: VecDeque<u64>,
}

impl Lane {
    fn offer(&mut self, protocol: u16, payload: &[u8], stamp: Option<u64>) -> Offer {
        let verdict = self.src.offer(protocol, payload, self.line.is_clear());
        if verdict == Offer::Accepted {
            self.stamps.extend(stamp);
        }
        verdict
    }

    /// Move queued frames into the device while the line is clear;
    /// frames left queued are retried next tick.
    fn admit_queued(&mut self, stamp: Option<u64>) {
        let admitted = self.src.admit_queued(self.line.is_clear());
        if let Some(t) = stamp {
            self.stamps.extend((0..admitted).map(|_| t));
        }
    }

    fn has_work(&self) -> bool {
        self.src.queued() > 0
            || !self.line.wire.is_empty()
            || self.src.dev.has_wire_out()
            || self.src.dev.needs_clock()
    }
}

/// Collect delivered frames from the sink endpoint, closing `stamps`
/// (the lane that carried them) and recycling payload storage.
fn collect(sink: &mut LinkCore, stamps: &mut VecDeque<u64>, latency: &mut Histogram, now: u64) {
    while let Some(f) = sink.dev.pop_received() {
        sink.counters.record_delivery(f.payload.len());
        if let Some(t0) = stamps.pop_front() {
            latency.observe(now.saturating_sub(t0));
        }
        sink.dev.recycle_rx_payload(f.payload);
    }
}

/// One duplex link in the fleet: two endpoint cores, each with its
/// outgoing carriage, and a frame-latency histogram.
pub(crate) struct ShardLink {
    /// Device a and the a → b line.
    ab: Lane,
    /// Device b and the b → a line.
    ba: Lane,
    pub latency: Histogram,
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
        ingress_depth: usize,
    ) -> Self {
        let link_id = id as u64;
        let lane = |lane_id: u64| Lane {
            src: LinkCore::new(P5::new(width), ingress_depth),
            line: Carriage::new(
                sonet.map(|level| Box::new(OcPath::new(level, BitErrorChannel::clean()))),
                base_fault.map(|p| p.fork_link(link_id, lane_id)),
            ),
            stamps: VecDeque::new(),
        };
        ShardLink {
            ab: lane(0),
            ba: lane(1),
            latency: Histogram::new(),
            template: template_payload(payload_len, seed, link_id),
            tick: 0,
        }
    }

    fn lane(&mut self, dir: Dir) -> &mut Lane {
        match dir {
            Dir::AtoB => &mut self.ab,
            Dir::BtoA => &mut self.ba,
        }
    }

    /// The submit tick to stamp a frame with — on fault-free links only
    /// (no carriage plan), where no accepted frame can vanish and every
    /// stamp meets its delivery.
    fn stamp(&self) -> Option<u64> {
        self.ab.line.plan.is_none().then_some(self.tick)
    }

    fn devices(&self) -> [&P5; 2] {
        [&self.ab.src.dev, &self.ba.src.dev]
    }

    /// Flow counters, both ends.
    pub fn counters(&self) -> LinkCounters {
        let mut c = self.ab.src.counters;
        c.add(&self.ba.src.counters);
        c
    }

    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.ab.line.stats();
        s.absorb(&self.ba.line.stats());
        s
    }

    /// Device-truth TX-queue refusals, both ends (mirrored to the OAM
    /// `TX_REJECTS` registers by `sync_oam`).
    pub fn device_tx_rejects(&self) -> u64 {
        self.devices()
            .iter()
            .map(|d| d.tx.control.submit_rejects)
            .sum()
    }

    /// The same refusals as the OAM `TX_REJECTS` registers mirror them
    /// (`sync_oam` runs on the next staged clock after the reject, so
    /// this matches [`ShardLink::device_tx_rejects`] once drained).
    pub fn oam_tx_rejects(&self) -> u64 {
        use p5_core::oam::regs;
        use p5_core::{MmioBus, Oam};
        self.devices()
            .iter()
            .map(|d| u64::from(Oam::new(d.oam.clone()).read(regs::TX_REJECTS)))
            .sum()
    }

    /// Merged receive counters, both ends.
    pub fn rx_totals(&self) -> RxCounters {
        let mut rx = *self.ab.src.dev.rx_counters();
        rx.add(self.ba.src.dev.rx_counters());
        rx
    }

    /// Receiver resynchronisation cost, both ends: octets skipped while
    /// hunting for a flag after losing delineation — the health
    /// scorer's "resync events" input.
    pub fn resync_bytes(&self) -> u64 {
        self.devices()
            .iter()
            .map(|d| d.rx.control.resync_bytes_skipped)
            .sum()
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
        self.ab.src.dev.set_trace(Box::new(ra.clone()));
        self.ba.src.dev.set_trace(Box::new(rb.clone()));
        (ra, rb)
    }

    pub fn tx_frames_sent(&self) -> u64 {
        self.devices()
            .iter()
            .map(|d| d.tx.control.frames_sent)
            .sum()
    }

    /// Offer one frame in `dir`; the external ingress API.
    pub fn offer(&mut self, dir: Dir, protocol: u16, payload: &[u8]) -> Offer {
        let stamp = self.stamp();
        self.lane(dir).offer(protocol, payload, stamp)
    }

    /// Tick phase 1 — everything up to the device producing wire bytes:
    /// generated load, ingress admission, staged clocking.
    pub fn begin_tick(&mut self, p: &TickParams) {
        let stamp = self.stamp();
        if let Some(t) = &p.traffic {
            if self.tick < t.ticks {
                for _ in 0..t.frames_per_tick {
                    self.ab.offer(t.protocol, &self.template, stamp);
                    if t.duplex {
                        self.ba.offer(t.protocol, &self.template, stamp);
                    }
                }
            }
        }
        for lane in [&mut self.ab, &mut self.ba] {
            lane.admit_queued(stamp);
        }
        for lane in [&mut self.ab, &mut self.ba] {
            if lane.src.dev.needs_clock() {
                lane.src.dev.run(CYCLES_PER_TICK);
            }
        }
    }

    /// Tick phase 2 for self-carried links (Raw wire or per-link
    /// STM-N): carry both directions.  Channelized cohorts do this leg
    /// through their shared envelope instead.  Fleet devices put whole
    /// frames on the wire, so every transfer may pad out its last SPE.
    pub fn carry_own_wire(&mut self) {
        for lane in [&mut self.ab, &mut self.ba] {
            lane.line.carry(&mut lane.src.dev, true);
        }
    }

    /// Channelized egress: hand one direction's produced wire bytes to
    /// the shared envelope (tributary `slot`).
    pub fn egress_to_envelope(&mut self, dir: Dir, env: &mut TributaryGroup, slot: usize) {
        let dev = &mut self.lane(dir).src.dev;
        if dev.has_wire_out() {
            let bytes = dev.take_wire_out();
            env.send(slot, &bytes);
            dev.recycle_wire_vec(bytes);
        }
    }

    /// Channelized ingress: accept one direction's bytes recovered from
    /// the shared envelope (fault plan applied here, per link).
    pub fn ingress_from_envelope(&mut self, dir: Dir, bytes: &[u8]) {
        self.lane(dir).line.land(bytes);
    }

    /// Tick phase 3 — deliver wire into the sink devices (budgeted),
    /// collect received frames, advance the link clock.
    pub fn finish_tick(&mut self, p: &TickParams) {
        let (ab, ba) = (&mut self.ab, &mut self.ba);
        ba.src.dev.ingest_wire(&mut ab.line.wire, p.wire_budget);
        ab.src.dev.ingest_wire(&mut ba.line.wire, p.wire_budget);
        collect(&mut ba.src, &mut ab.stamps, &mut self.latency, self.tick);
        collect(&mut ab.src, &mut ba.stamps, &mut self.latency, self.tick);
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
        self.ab.has_work() || self.ba.has_work()
    }
}

/// The schedulable unit a worker claims: one self-carried link, or a
/// channel group — up to N tributary links sharing an STM-N envelope
/// pair, which must advance in lockstep (one envelope frame carries a
/// column of every tributary).
pub(crate) struct Cohort {
    pub links: Vec<ShardLink>,
    /// Boxed: two tributary groups hold whole-frame buffers.
    envelope: Option<Box<Envelope>>,
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
            work_ticks: 0,
        }
    }

    pub fn channel_group(links: Vec<ShardLink>, level: StmLevel) -> Self {
        debug_assert!(links.len() <= level.n());
        Cohort {
            links,
            envelope: Some(Box::new(Envelope {
                ab: TributaryGroup::new(level, BitErrorChannel::clean()),
                ba: TributaryGroup::new(level, BitErrorChannel::clean()),
                landed: Vec::new(),
            })),
            work_ticks: 0,
        }
    }

    pub fn has_work(&self, p: &TickParams) -> bool {
        self.links.iter().any(|l| l.has_work(p))
            || self
                .envelope
                .as_ref()
                .is_some_and(|e| e.ab.frames_to_drain() > 0 || e.ba.frames_to_drain() > 0)
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
                let Envelope { ab, ba, landed } = &mut **env;
                for (slot, l) in self.links.iter_mut().enumerate() {
                    l.egress_to_envelope(Dir::AtoB, ab, slot);
                    l.egress_to_envelope(Dir::BtoA, ba, slot);
                }
                let k = ab.frames_to_drain().max(ba.frames_to_drain());
                if k > 0 {
                    // +2 only while a tributary hunts: an in-frame
                    // receiver delivers each frame as it arrives.
                    let hunt = if ab.is_aligned() && ba.is_aligned() {
                        0
                    } else {
                        2
                    };
                    ab.run_frames(k + hunt);
                    ba.run_frames(k + hunt);
                }
                for (slot, l) in self.links.iter_mut().enumerate() {
                    landed.clear();
                    ab.recv_into(slot, landed);
                    l.ingress_from_envelope(Dir::AtoB, landed);
                    landed.clear();
                    ba.recv_into(slot, landed);
                    l.ingress_from_envelope(Dir::BtoA, landed);
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

/// A channel group's envelope pair, one tributary group per direction,
/// and the buffer every tributary's recovered bytes land from.
struct Envelope {
    ab: TributaryGroup,
    ba: TributaryGroup,
    landed: Vec<u8>,
}

// The whole point of the runtime is moving cohorts across threads.
fn _assert_cohort_is_send() {
    fn is_send<T: Send>() {}
    is_send::<Cohort>();
}
