//! The endpoint core every link wrapper is built from (DESIGN.md §19).
//!
//! Whatever carries its wire, a P⁵ endpoint does the same four things:
//! the owner offers a frame; [`LinkCore`] hands it to the device now
//! ([`P5::offer_frame`]) or holds it in a bounded queue; the device
//! turns it into wire bytes; [`Carriage`] moves those bytes —
//! optionally over an STM-N path and through a seeded fault plan — and
//! lands them for the peer's [`P5::ingest_wire`].  The fleet link
//! (`p5-runtime`), the simplex and duplex links (`p5-link`) and the
//! transport endpoint (`p5-xport`) differ only in what moves the bytes,
//! the way lwIP keeps one PPP core under PPPoS, PPPoE and L2TP.

use std::collections::VecDeque;

use p5_fault::{FaultPlan, FaultStats};
use p5_sonet::OcPath;
use p5_stream::{Offer, WireBuf};

use crate::p5::{FUSED_WIRE_HIGH_WATER, P5};

/// Ingress queue depth of a link end nobody sized.
pub const DEFAULT_INGRESS_DEPTH: usize = 64;

/// Per-endpoint flow accounting.  The conservation law (the
/// `StageStats` invariant lifted to the link boundary) is
/// `offered == accepted + shed + rejected + queued`, where `queued` is
/// whatever still sits in the ingress queue; after a drain,
/// `queued == 0` and on clean links `delivered == accepted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Frames offered at the admission boundary.
    pub offered: u64,
    /// Frames the device took ([`P5::offer_frame`]).
    pub accepted: u64,
    /// Frames refused at the bounded ingress queue (or by a session
    /// whose network phase is down).
    pub shed: u64,
    /// Frames refused outright ([`Offer::Rejected`]: a protocol the
    /// session's network phase does not carry).  Reads 0 on
    /// fleet and duplex links — *not now* holds a frame in the queue,
    /// it never drops one — and stays the law's named drop leg.
    pub rejected: u64,
    /// Frames delivered out of the device to the endpoint's owner.
    pub delivered: u64,
    /// Payload octets delivered.
    pub delivered_bytes: u64,
}

impl LinkCounters {
    /// Accumulate another endpoint's counters (fleet aggregation).
    pub fn add(&mut self, o: &LinkCounters) {
        self.offered += o.offered;
        self.accepted += o.accepted;
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.delivered += o.delivered;
        self.delivered_bytes += o.delivered_bytes;
    }

    /// Count one frame of `payload_len` octets handed to the owner.
    pub fn record_delivery(&mut self, payload_len: usize) {
        self.delivered += 1;
        self.delivered_bytes += payload_len as u64;
    }
}

/// A device, the bounded ingress queue in front of it, and the flow
/// counters of both.
pub struct LinkCore {
    pub dev: P5,
    /// Frames admitted but not yet in the device, in offer order.
    ingress: VecDeque<(u16, Vec<u8>)>,
    /// Frames `ingress` holds before [`LinkCore::offer`] sheds.
    pub depth: usize,
    pub counters: LinkCounters,
}

impl LinkCore {
    pub fn new(dev: P5, depth: usize) -> Self {
        LinkCore {
            dev,
            ingress: VecDeque::new(),
            depth,
            counters: LinkCounters::default(),
        }
    }

    /// Offer one frame: straight into the device when nothing is queued
    /// ahead, `line_clear` holds and the device takes it
    /// ([`Offer::Accepted`]); into the queue otherwise
    /// ([`Offer::Queued`]); refused when the queue is at its depth
    /// ([`Offer::Shed`]).  `line_clear` is the owner's egress
    /// backpressure — its carriage or socket ring still has room; while
    /// it is false a frame queues even if the device would take it.
    pub fn offer(&mut self, protocol: u16, payload: &[u8], line_clear: bool) -> Offer {
        if line_clear && self.offer_direct(protocol, payload) {
            return Offer::Accepted;
        }
        self.counters.offered += 1;
        if self.ingress.len() >= self.depth {
            self.counters.shed += 1;
            return Offer::Shed;
        }
        let mut buf = self.dev.tx.control.pool.lease_vec();
        buf.extend_from_slice(payload);
        self.ingress.push_back((protocol, buf));
        Offer::Queued
    }

    /// The fast leg of [`LinkCore::offer`] alone: the device takes the
    /// frame now, nothing queued ahead of it, and it is counted offered
    /// and accepted; otherwise `false`, nothing counted, nothing copied —
    /// the owner decides what *not now* costs.
    pub fn offer_direct(&mut self, protocol: u16, payload: &[u8]) -> bool {
        if !self.ingress.is_empty() || !self.dev.offer_frame(protocol, payload, 0) {
            return false;
        }
        self.counters.offered += 1;
        self.counters.accepted += 1;
        true
    }

    /// Move queued frames into the device, in order, while `line_clear`
    /// and the device takes them.  A frame the device answers *not now*
    /// stays queued — held, never dropped — for the next call.  Returns
    /// the frames admitted.
    pub fn admit_queued(&mut self, line_clear: bool) -> u64 {
        let admitted = admit(&mut self.dev, &mut self.ingress, line_clear);
        self.counters.accepted += admitted;
        admitted
    }

    /// [`LinkCore::admit_queued`] over a queue the owner keeps outside
    /// the flow counters: a session's control frames, which are never
    /// shed and are not the owner's traffic.
    pub fn admit_from(&mut self, queue: &mut VecDeque<(u16, Vec<u8>)>, line_clear: bool) -> u64 {
        admit(&mut self.dev, queue, line_clear)
    }

    /// Count a frame the owner refused before it reached the queue (a
    /// session's wrong protocol, or its closed network phase) and hand
    /// the verdict back.
    pub fn refuse(&mut self, verdict: Offer) -> Offer {
        debug_assert!(verdict.is_dropped(), "{verdict:?} is not a refusal");
        self.counters.offered += 1;
        match verdict {
            Offer::Rejected => self.counters.rejected += 1,
            _ => self.counters.shed += 1,
        }
        verdict
    }

    /// Frames waiting in the ingress queue.
    pub fn queued(&self) -> usize {
        self.ingress.len()
    }
}

/// Move frames from the front of `queue` into `dev`, in order, while
/// `line_clear` and the device takes them; returns the frames moved.
fn admit(dev: &mut P5, queue: &mut VecDeque<(u16, Vec<u8>)>, line_clear: bool) -> u64 {
    if !line_clear {
        return 0;
    }
    let mut admitted = 0;
    while let Some((protocol, payload)) = queue.front() {
        if !dev.offer_frame(*protocol, payload, 0) {
            break;
        }
        if let Some((_, payload)) = queue.pop_front() {
            dev.tx.control.pool.recycle_vec(payload);
        }
        admitted += 1;
    }
    admitted
}

/// One direction of wire between two devices: an optional STM-N path,
/// an optional fault plan (stall storms included), and the octets
/// landed for the sink device.
pub struct Carriage {
    /// Boxed: an `OcPath` holds whole-frame buffers.
    path: Option<Box<OcPath>>,
    /// Whole-transfer loss, then the full corruption pipeline, on every
    /// transfer this direction lands.
    pub plan: Option<FaultPlan>,
    /// Landed octets awaiting the sink's [`P5::ingest_wire`].
    pub wire: WireBuf,
    /// What the path recovered from the current transfer, on its way
    /// through the plan.
    carried: Vec<u8>,
}

impl Carriage {
    pub fn new(path: Option<Box<OcPath>>, plan: Option<FaultPlan>) -> Self {
        Carriage {
            path,
            plan,
            wire: WireBuf::new(),
            carried: Vec::new(),
        }
    }

    /// Carry `src`'s produced wire bytes: through the STM-N path, if
    /// any, then [`Carriage::land`].  `flush`: the source is between
    /// frames, so the path may pad out its last SPE (see
    /// [`OcPath::carry`]: two hunt frames follow only while the path's
    /// receiver is out of frame).  Returns the octets taken from `src`.
    /// With no plan, the path lands what it recovers straight into
    /// [`Carriage::wire`].
    ///
    /// A plan's stall storm is one [`FaultPlan::stall_gate`] per call: a
    /// stalled call takes nothing, so the bytes back up in `src` and its
    /// [`P5::offer_frame`] answers *not now* at the high-water mark.
    /// Plans without a stall spec draw nothing for it.
    pub fn carry(&mut self, src: &mut P5, flush: bool) -> usize {
        if let Some(plan) = &mut self.plan {
            if plan.stall_gate() {
                return 0;
            }
        } else if self.path.is_none() {
            return src.drain_wire_into(&mut self.wire);
        }
        let bytes = src.take_wire_out();
        let taken = bytes.len();
        match &mut self.path {
            // Nothing between the path and the sink: land in place.
            Some(path) if self.plan.is_none() => {
                self.wire
                    .extend_untagged_with(|out| path.carry_into(&bytes, flush, out));
            }
            Some(path) => {
                let mut carried = std::mem::take(&mut self.carried);
                carried.clear();
                path.carry_into(&bytes, flush, &mut carried);
                self.land(&carried);
                self.carried = carried;
            }
            None => self.land(&bytes),
        }
        src.recycle_wire_vec(bytes);
        taken
    }

    /// End any stall storm in progress, and let the next carry take the
    /// line if the last one was held ([`FaultPlan::release_stall`]): a
    /// draining owner calls it before each carry, so chaos cannot hold
    /// the line to the end, even at `p_start` = 1.
    pub fn release_stall(&mut self) {
        if let Some(plan) = &mut self.plan {
            plan.release_stall();
        }
    }

    /// The STM-N path, if this direction runs over one.
    pub fn path(&self) -> Option<&OcPath> {
        self.path.as_deref()
    }

    /// Land one transfer's octets towards the sink device, through the
    /// fault plan: whole-transfer loss, then the corruption pipeline.
    pub fn land(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        match &mut self.plan {
            None => self.wire.push_slice(bytes),
            Some(plan) => {
                if !plan.lose_transfer() {
                    self.wire
                        .extend_untagged_with(|out| plan.corrupt_into(bytes, out));
                }
            }
        }
    }

    /// Landed octets are below the fused high-water mark: the source may
    /// put more on this line.
    pub fn is_clear(&self) -> bool {
        self.wire.len() < FUSED_WIRE_HIGH_WATER
    }

    /// Injected-fault counters: the plan's plus the path channel's.
    pub fn stats(&self) -> FaultStats {
        let mut s = self.plan.as_ref().map(|p| p.stats()).unwrap_or_default();
        if let Some(path) = &self.path {
            s.absorb(&path.channel().plan().stats());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p5::DatapathWidth;
    use p5_fault::FaultSpec;
    use p5_sonet::{BitErrorChannel, StmLevel};

    fn payload(i: u32) -> Vec<u8> {
        (0..40 + i * 37 % 1400).map(|j| (i * 7 + j) as u8).collect()
    }

    /// Hold the conservation law after every call.
    fn assert_conserved(core: &LinkCore) {
        let c = core.counters;
        assert_eq!(
            c.offered,
            c.accepted + c.shed + c.rejected + core.queued() as u64,
            "{c:?} with {} queued",
            core.queued()
        );
    }

    /// Offer frames, some with the line blocked, and admit the queue
    /// now and then: every admitted frame reaches the peer, in order.
    #[test]
    fn order_holds_across_the_fast_path_and_the_queue() {
        let mut core = LinkCore::new(P5::new(DatapathWidth::W32), 256);
        let mut peer = P5::new(DatapathWidth::W32);
        let mut wire = WireBuf::new();
        let mut admitted = Vec::new();
        for i in 0..240u32 {
            if i < 200 && core.offer(0x0021, &payload(i), i % 5 != 0).is_admitted() {
                admitted.push(payload(i));
            }
            assert_conserved(&core);
            if i % 7 == 0 || i >= 200 {
                core.admit_queued(true);
                assert_conserved(&core);
            }
            core.dev.drain_wire_into(&mut wire);
            peer.ingest_wire(&mut wire, usize::MAX);
        }
        let got: Vec<Vec<u8>> = peer
            .take_received()
            .into_iter()
            .map(|f| f.payload)
            .collect();
        assert_eq!(got, admitted);
        assert_eq!((core.counters.accepted, core.queued()), (200, 0));
    }

    #[test]
    fn not_now_never_drops_a_frame() {
        let mut core = LinkCore::new(P5::new(DatapathWidth::W32), 8);
        // Nobody drains the device: past the wire high-water mark it
        // answers *not now*, and frames pile up in the queue instead.
        let big = vec![0x42u8; 1500];
        let mut verdicts = Vec::new();
        for _ in 0..64 {
            verdicts.push(core.offer(0x0021, &big, true));
            assert_conserved(&core);
        }
        assert!(verdicts.contains(&Offer::Queued));
        assert_eq!(core.queued(), 8);
        let held = core.counters;
        assert_eq!(core.admit_queued(true), 0, "device still says not now");
        assert_eq!(core.counters, held);
        assert_eq!(core.queued(), 8, "held, not dropped");
        // Shedding happened only at the queue's depth.
        assert_eq!(held.shed, 64 - held.accepted - 8);
        assert_eq!(held.rejected, 0);
        // Drain the line: every held frame goes in.
        core.dev.take_wire_out();
        assert_eq!(core.admit_queued(true), 8);
        assert_conserved(&core);
    }

    #[test]
    fn a_blocked_line_queues_a_frame_the_device_would_take() {
        let mut core = LinkCore::new(P5::new(DatapathWidth::W32), 4);
        assert_eq!(core.offer(0x0021, b"held", false), Offer::Queued);
        assert!(!core.dev.has_wire_out(), "the device never saw it");
        assert_eq!(core.admit_queued(false), 0);
        assert_eq!(core.queued(), 1);
        assert_eq!(core.admit_queued(true), 1);
        assert!(core.dev.has_wire_out());
        assert_eq!(core.refuse(Offer::Rejected), Offer::Rejected);
        assert_eq!(core.refuse(Offer::Shed), Offer::Shed);
        assert_conserved(&core);
    }

    /// The seeded outcome is the one `p5-link`'s old `Ferry` produced
    /// from the same forked plan: path, then whole-transfer loss, then
    /// the corruption pipeline, once per non-empty transfer.
    #[test]
    fn carriage_lands_what_the_ferry_recipe_landed() {
        let plan = FaultSpec::clean()
            .ber(1e-4)
            .slip(1e-3)
            .transfer_loss(0.2)
            .compile(9)
            .unwrap();
        for level in [None, Some(StmLevel::Stm1)] {
            let path = || level.map(|l| Box::new(OcPath::new(l, BitErrorChannel::clean())));
            let mut carriage = Carriage::new(path(), Some(plan.fork(1)));
            let (mut oracle_path, mut oracle_plan) = (path(), plan.fork(1));
            let mut landed = Vec::new();
            let mut src = P5::new(DatapathWidth::W32);
            let mut twin = P5::new(DatapathWidth::W32);
            for i in 0..64u32 {
                assert!(src.offer_frame(0x0021, &payload(i), 0));
                assert!(twin.offer_frame(0x0021, &payload(i), 0));
                carriage.carry(&mut src, true);
                let wire = twin.take_wire_out();
                let bytes = match &mut oracle_path {
                    Some(p) => p.carry(&wire, true),
                    None => wire,
                };
                if !bytes.is_empty() && !oracle_plan.lose_transfer() {
                    oracle_plan.corrupt_into(&bytes, &mut landed);
                }
            }
            assert_eq!(carriage.wire.as_slice(), &landed[..], "{level:?}");
            let mut want = oracle_plan.stats();
            if let Some(p) = &oracle_path {
                want.absorb(&p.channel().plan().stats());
            }
            assert_eq!(carriage.stats(), want, "{level:?}");
            assert!(want.transfers_lost > 0 && want.slips > 0, "{want:?}");
        }
    }
}
