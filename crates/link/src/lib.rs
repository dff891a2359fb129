//! p5-link — the one way to assemble a P⁵ link.
//!
//! Every example, integration test and bench binary used to hand-wire
//! its own stack: pick stage constructors, split the fault plan between
//! channel and stage, clone the OAM handle before the device moves into
//! the stack.  [`LinkBuilder`] owns that recipe once:
//!
//! ```
//! use p5_link::LinkBuilder;
//! use p5_core::DatapathWidth;
//! use p5_sonet::StmLevel;
//! use p5_fault::FaultSpec;
//!
//! let plan = FaultSpec::clean().ber(1e-6).compile(42).unwrap();
//! let mut link = LinkBuilder::new()
//!     .width(DatapathWidth::W32)
//!     .sonet(StmLevel::Stm16)     // OC-48
//!     .fault(plan)
//!     .build()
//!     .unwrap();
//! link.send(0x0021, &[0x45, 0x00, 0x00, 0x14]);
//! link.run(10_000).unwrap();
//! let got = link.deliveries();
//! assert_eq!(got.len() as u64 + link.rx_errors(), 1);
//! ```
//!
//! [`LinkBuilder::build`] yields a simplex [`Link`] (one `Stack`:
//! `TxStage → [OcPathStage] → [FaultStage] → RxStage`);
//! [`LinkBuilder::build_duplex`] yields a [`DuplexLink`] — two
//! [`LinkCore`] ends and a seeded, optionally-impaired [`Carriage`]
//! each way — for the control-plane (LCP/IPCP) scenarios that need
//! traffic both ways.
//!
//! The raw `stack!` macro remains the supported low-level escape hatch
//! for custom topologies; this crate is the paved road.

use p5_core::link::{Carriage, LinkCore, DEFAULT_INGRESS_DEPTH};
use p5_core::oam::{rx_errors, Oam, OamHandle};
use p5_core::{decap, encap, DatapathWidth, RxStage, TxStage, P5};
use p5_fault::{FaultError, FaultPlan, FaultSpec, FaultStage, FaultStats};
use p5_ppp::NegotiationProfile;
use p5_sonet::{BitErrorChannel, OcPath, OcPathStage, StmLevel};
use p5_stream::{SharedRecorder, Snapshot, Stack, StageStats, StreamStage};
use p5_xport::{LinkEngine, SessionDriver, Transport};
use std::error::Error;
use std::fmt;

pub use p5_core::oam::HealthCounters;

/// Why a link could not be built or run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinkError {
    /// The fault spec attached to the builder failed to compile.
    Fault(FaultError),
    /// The stack did not drain within the step budget.
    Stalled { steps: usize },
    /// [`LinkBuilder::build_remote`] needs a transport
    /// ([`LinkBuilder::transport`]).
    MissingTransport,
    /// The requested option combination isn't available on this
    /// topology (e.g. SONET carriage or fault injection on a remote
    /// endpoint — the OS pipe *is* the wire there).
    Unsupported(&'static str),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Fault(e) => write!(f, "link fault plan: {e}"),
            LinkError::Stalled { steps } => {
                write!(f, "link did not drain within {steps} steps")
            }
            LinkError::MissingTransport => {
                write!(f, "build_remote requires LinkBuilder::transport(...)")
            }
            LinkError::Unsupported(what) => write!(f, "unsupported on this topology: {what}"),
        }
    }
}

impl Error for LinkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LinkError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultError> for LinkError {
    fn from(e: FaultError) -> Self {
        LinkError::Fault(e)
    }
}

/// Fluent description of a link, turned into a running assembly by
/// [`LinkBuilder::build`] (simplex) or [`LinkBuilder::build_duplex`].
#[derive(Default)]
pub struct LinkBuilder {
    width: Option<DatapathWidth>,
    sonet: Option<StmLevel>,
    fault: Option<FaultPlan>,
    trace: Option<SharedRecorder>,
    profile: Option<NegotiationProfile>,
    transport: Option<Box<dyn Transport>>,
}

impl LinkBuilder {
    pub fn new() -> Self {
        LinkBuilder::default()
    }

    /// Datapath width of both devices (default [`DatapathWidth::W32`]).
    pub fn width(mut self, width: DatapathWidth) -> Self {
        self.width = Some(width);
        self
    }

    /// Carry the wire over an STM-N path (scramble → frame → channel →
    /// delineate → descramble).  The devices stay in plain duty, the
    /// same carriage the fleet uses: frames enter the path whole and the
    /// path pads an SPE with flag octets only between them.
    pub fn sonet(mut self, level: StmLevel) -> Self {
        self.sonet = Some(level);
        self
    }

    /// Impair the wire with a compiled fault plan.  The length-
    /// preserving faults (BER, bursts) apply inside the transmission
    /// channel; structural faults and stall storms get a [`FaultStage`]
    /// on the delineated byte stream.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Record frame-lifecycle and fault events into `rec`.
    pub fn trace(mut self, rec: SharedRecorder) -> Self {
        self.trace = Some(rec);
        self
    }

    /// PPP negotiation posture for [`LinkBuilder::build_remote`]
    /// (magic number, IP address, auth policy, restart budgets).
    pub fn profile(mut self, profile: NegotiationProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Carry the wire over a real OS byte pipe
    /// ([`p5_xport::TcpTransport`]) or a deterministic in-process
    /// [`p5_xport::PipeTransport`].  Required by
    /// [`LinkBuilder::build_remote`].
    pub fn transport(mut self, transport: impl Transport + 'static) -> Self {
        self.transport = Some(Box::new(transport));
        self
    }

    fn width_or_default(&self) -> DatapathWidth {
        self.width.unwrap_or(DatapathWidth::W32)
    }

    /// Split the configured plan into its channel (bit-level) and stage
    /// (structural + stall) halves, each compiled from the plan's own
    /// seed on a distinct lane.
    fn split_fault(&self) -> Result<(Option<FaultPlan>, Option<FaultPlan>), LinkError> {
        let Some(plan) = &self.fault else {
            return Ok((None, None));
        };
        let spec = plan.spec().clone();
        let bit = if spec.ber > 0.0 || spec.burst.is_some() {
            let bit_spec = FaultSpec {
                ber: spec.ber,
                burst: spec.burst,
                ..FaultSpec::default()
            };
            Some(bit_spec.compile(plan.seed())?)
        } else {
            None
        };
        let structural = if spec.is_structural() || spec.stall.is_some() || spec.transfer_loss > 0.0
        {
            let st_spec = FaultSpec {
                ber: 0.0,
                burst: None,
                ..spec
            };
            Some(st_spec.compile(plan.seed().wrapping_add(1))?)
        } else {
            None
        };
        Ok((bit, structural))
    }

    /// The configured plan as the wire applies it: `(channel, stage)`.
    /// Over a SONET path the bit half corrupts inside the path's channel
    /// and the structural half acts on the delineated byte stream; with
    /// no path, both halves act on the stuffed byte stream as one plan
    /// carrying the full spec.  Both builders impair the wire through
    /// this one split.
    fn wire_plans(&self) -> Result<(Option<FaultPlan>, Option<FaultPlan>), LinkError> {
        let (bit, structural) = self.split_fault()?;
        if self.sonet.is_some() {
            return Ok((bit, structural));
        }
        let Some(bit) = bit else {
            return Ok((None, structural));
        };
        let mut spec = structural.map_or_else(FaultSpec::clean, |p| p.spec().clone());
        spec.ber = bit.spec().ber;
        spec.burst = bit.spec().burst;
        let seed = self.fault.as_ref().map_or(0, |p| p.seed());
        Ok((None, Some(spec.compile(seed)?)))
    }

    fn new_device(&self) -> P5 {
        let mut dev = P5::new(self.width_or_default());
        if let Some(rec) = &self.trace {
            dev.set_trace(Box::new(rec.clone()));
        }
        dev
    }

    /// One transmit device, one receive device, one `Stack` between
    /// them.
    pub fn build(self) -> Result<Link, LinkError> {
        let (channel, stage) = self.wire_plans()?;
        let (tx, rx) = (self.new_device(), self.new_device());
        let (tx_oam, rx_oam) = (tx.oam.clone(), rx.oam.clone());
        let mut stages: Vec<Box<dyn StreamStage>> = vec![Box::new(TxStage::new(tx))];
        if let Some(level) = self.sonet {
            let channel = match channel {
                Some(plan) => BitErrorChannel::from_plan(plan),
                None => BitErrorChannel::clean(),
            };
            stages.push(Box::new(OcPathStage::new(OcPath::new(level, channel))));
        }
        if let Some(plan) = stage {
            stages.push(Box::new(self.faulted_stage(plan)));
        }
        stages.push(Box::new(RxStage::new(rx)));
        Ok(Link {
            stack: Stack::compose(stages),
            tx_oam,
            rx_oam,
        })
    }

    fn faulted_stage(&self, plan: FaultPlan) -> FaultStage {
        let mut stage = FaultStage::new(plan);
        if let Some(rec) = &self.trace {
            stage.set_trace(Box::new(rec.clone()));
        }
        stage
    }

    /// Two devices and a seeded carriage each way, for control-plane
    /// scenarios (LCP/IPCP) where traffic flows both ways.  The fault
    /// plan, if any, is forked per direction; with [`LinkBuilder::sonet`]
    /// each direction carries its own STM-N path.
    pub fn build_duplex(self) -> Result<DuplexLink, LinkError> {
        let (channel, stage) = self.wire_plans()?;
        let end = || LinkCore::new(self.new_device(), DEFAULT_INGRESS_DEPTH);
        let carriage = |lane: u64| {
            let path = self.sonet.map(|level| {
                let channel = match &channel {
                    Some(plan) => BitErrorChannel::from_plan(plan.fork(lane)),
                    None => BitErrorChannel::clean(),
                };
                Box::new(OcPath::new(level, channel))
            });
            Carriage::new(path, stage.as_ref().map(|p| p.fork(lane)))
        };
        Ok(DuplexLink {
            a: end(),
            b: end(),
            ab: carriage(0),
            ba: carriage(1),
        })
    }

    /// One *real* endpoint: a device plus a PPP session bound to the
    /// configured [`LinkBuilder::transport`], pumped by a dedicated
    /// thread.  The peer is whatever answers on the other end of the
    /// byte pipe — another thread, another process, another machine.
    ///
    /// SONET carriage and fault plans don't compose here (the OS pipe
    /// *is* the wire, and it misbehaves on its own schedule); asking
    /// for them is [`LinkError::Unsupported`] rather than silently
    /// ignored.
    pub fn build_remote(self) -> Result<SessionDriver, LinkError> {
        if self.sonet.is_some() {
            return Err(LinkError::Unsupported(
                "SONET carriage on a remote endpoint",
            ));
        }
        if self.fault.is_some() {
            return Err(LinkError::Unsupported(
                "fault injection on a remote endpoint",
            ));
        }
        let transport = self.transport.ok_or(LinkError::MissingTransport)?;
        let profile = self.profile.unwrap_or_default();
        let mut engine = LinkEngine::new(
            self.width.unwrap_or(DatapathWidth::W32),
            &profile,
            transport,
        );
        if let Some(rec) = self.trace {
            engine.set_trace(Box::new(rec));
        }
        Ok(SessionDriver::spawn(engine))
    }
}

/// A simplex link: transmit device → (optional SONET path, optional
/// fault stage) → receive device, as one composed [`Stack`].
pub struct Link {
    stack: Stack,
    tx_oam: OamHandle,
    rx_oam: OamHandle,
}

impl Link {
    /// Queue one datagram for transmission.
    pub fn send(&mut self, protocol: u16, payload: &[u8]) {
        encap(protocol, payload, self.stack.input());
    }

    /// Sweep the stack until it drains, then flush (SPE backlog plus
    /// flag fill).  Delivered frames wait in [`Link::deliveries`].
    pub fn run(&mut self, max_steps: usize) -> Result<(), LinkError> {
        if !self.stack.run_until_idle(max_steps) {
            return Err(LinkError::Stalled { steps: max_steps });
        }
        self.stack.finish();
        Ok(())
    }

    /// Everything delivered so far, decapsulated to `(protocol,
    /// payload)` in arrival order.
    pub fn deliveries(&mut self) -> Vec<(u16, Vec<u8>)> {
        let output = self.stack.output();
        let mut out = Vec::with_capacity(output.frames_ready());
        while let Some((frame, meta)) = output.peek_frame() {
            if let Some((proto, payload)) = decap(frame) {
                out.push((proto, payload.to_vec()));
            }
            output.consume(meta.len);
        }
        out
    }

    /// Register-bus view of the transmit device's OAM block.
    pub fn tx_oam(&self) -> Oam {
        Oam::new(self.tx_oam.clone())
    }

    /// Register-bus view of the receive device's OAM block.
    pub fn rx_oam(&self) -> Oam {
        Oam::new(self.rx_oam.clone())
    }

    /// Total receive-side error count, summed over the OAM error
    /// registers ([`p5_core::oam::rx_errors`]).
    pub fn rx_errors(&self) -> u64 {
        rx_errors(&self.rx_oam())
    }

    /// The health-relevant OAM counters in one read.  Reads both ends'
    /// register buses; monotone.
    pub fn health_counters(&self) -> HealthCounters {
        HealthCounters::read(&self.rx_oam(), &self.tx_oam())
    }

    /// Per-stage flow counters (name, stats) in pipeline order.
    pub fn stage_stats(&self) -> Vec<(&'static str, StageStats)> {
        self.stack.stage_stats()
    }

    /// Metrics snapshot of every stage.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.stack.snapshots()
    }

    /// The stall-attribution table (DESIGN.md §13).
    pub fn stall_table(&self) -> String {
        self.stack.stall_table()
    }

    /// The stage topology of this link, for link-level static analysis
    /// (p5-lint composes per-stage handshake contracts over it).
    pub fn topology(&self) -> p5_stream::Topology {
        let mut t = self.stack.topology();
        t.name = "simplex link".into();
        t
    }

    pub fn stack(&self) -> &Stack {
        &self.stack
    }
}

/// Two devices and the (optionally impaired) wire between them.  The
/// ends are public so control-plane drivers can pump their own
/// endpoints (the device is `end.dev`); [`DuplexLink::exchange`] moves
/// the wire both ways.
pub struct DuplexLink {
    pub a: LinkCore,
    pub b: LinkCore,
    ab: Carriage,
    ba: Carriage,
}

impl DuplexLink {
    /// Admit each end's queued frames, then carry pending wire bytes
    /// a → b and b → a through each direction's fault plan into the
    /// far device ([`P5::ingest_wire`]).
    pub fn exchange(&mut self) {
        self.a.admit_queued(self.ab.is_clear());
        self.b.admit_queued(self.ba.is_clear());
        let flush = self.a.dev.tx.idle();
        self.ab.carry(&mut self.a.dev, flush);
        self.b.dev.ingest_wire(&mut self.ab.wire, usize::MAX);
        let flush = self.b.dev.tx.idle();
        self.ba.carry(&mut self.b.dev, flush);
        self.a.dev.ingest_wire(&mut self.ba.wire, usize::MAX);
    }

    /// Impair both directions with forks of `plan` (deterministic per
    /// direction).  Replaces any existing plan — `clear_fault` heals the
    /// link mid-run, the "outage then recovery" scenario.
    pub fn set_fault(&mut self, plan: &FaultPlan) {
        self.ab.plan = Some(plan.fork(2));
        self.ba.plan = Some(plan.fork(3));
    }

    pub fn clear_fault(&mut self) {
        self.ab.plan = None;
        self.ba.plan = None;
    }

    /// Injected-fault counters summed over both directions (carriage
    /// plans plus the per-direction channel plans).
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.ab.stats();
        s.absorb(&self.ba.stats());
        s
    }

    /// The duplex stage topology: both devices and both carriages as a
    /// ring (`a → wire → b → wire → a`), for link-level static
    /// analysis.  The carriages hold whole transfers, so analysis treats
    /// them as buffered stages.
    pub fn topology(&self) -> p5_stream::Topology {
        let mut t = p5_stream::Topology::new("duplex link");
        let a = t.push_stage("device a");
        let ab = t.push_stage("wire a->b");
        let b = t.push_stage("device b");
        let ba = t.push_stage("wire b->a");
        t.connect(a, ab);
        t.connect(ab, b);
        t.connect(b, ba);
        t.connect(ba, a);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_core::oam::{regs, MmioBus};
    use p5_stream::Offer;

    #[test]
    fn build_remote_negotiates_over_a_pipe_pair() {
        use p5_xport::PipeTransport;
        let (ta, tb) = PipeTransport::pair();
        let a = LinkBuilder::new()
            .profile(NegotiationProfile::new().magic(0xA11CE).ip([10, 0, 0, 1]))
            .transport(ta)
            .build_remote()
            .unwrap();
        let b = LinkBuilder::new()
            .profile(NegotiationProfile::new().magic(0xB0B).ip([10, 0, 0, 2]))
            .transport(tb)
            .build_remote()
            .unwrap();
        assert!(a.await_network_up(std::time::Duration::from_secs(10)));
        assert!(b.await_network_up(std::time::Duration::from_secs(10)));
        let payload = vec![0x42u8; 128];
        assert!(a.offer(0x0021, &payload).is_admitted());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut got = Vec::new();
        while got.is_empty() && std::time::Instant::now() < deadline {
            got = b.take_deliveries();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, vec![(0x0021, payload)]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn build_remote_rejects_incoherent_topologies() {
        let (ta, _tb) = p5_xport::PipeTransport::pair();
        assert!(matches!(
            LinkBuilder::new().build_remote().err(),
            Some(LinkError::MissingTransport)
        ));
        assert!(matches!(
            LinkBuilder::new()
                .sonet(StmLevel::Stm1)
                .transport(ta)
                .build_remote()
                .err(),
            Some(LinkError::Unsupported(_))
        ));
    }

    #[test]
    fn simplex_clean_link_round_trips() {
        let mut link = LinkBuilder::new().build().unwrap();
        link.send(0x0021, &[0x31, 0x33, 0x7E, 0x96, 0x7D, 0x00, 0x42]);
        link.run(2_000).unwrap();
        let got = link.deliveries();
        assert_eq!(
            got,
            vec![(0x0021, vec![0x31, 0x33, 0x7E, 0x96, 0x7D, 0x00, 0x42])]
        );
        assert_eq!(link.rx_errors(), 0);
        assert_eq!(link.rx_oam().read(regs::RX_FRAMES), 1);
        assert_eq!(link.tx_oam().read(regs::TX_FRAMES), 1);
        let hc = link.health_counters();
        assert_eq!(
            hc,
            HealthCounters {
                rx_frames: 1,
                rx_errors: 0,
                tx_frames: 1,
                tx_rejects: 0,
            }
        );
    }

    #[test]
    fn faulted_link_counts_every_drop() {
        let plan = FaultSpec::clean().ber(5e-5).compile(11).unwrap();
        let mut link = LinkBuilder::new()
            .sonet(StmLevel::Stm4)
            .fault(plan)
            .build()
            .unwrap();
        let sent = 60u64;
        for i in 0..sent {
            link.send(0x0021, &[i as u8; 120]);
        }
        link.run(10_000).unwrap();
        let delivered = link.deliveries();
        let errors = link.rx_errors();
        assert!(errors > 0, "5e-5 BER over the line must break frames");
        // Corrupted idle fill adds spurious runts, so the error count can
        // exceed the shortfall — the contract is one-sided: nothing
        // vanishes unaccounted, and nothing corrupt is delivered.
        assert!(delivered.len() as u64 + errors >= sent - 4);
        for (_, p) in &delivered {
            assert!(p.iter().all(|&b| b == p[0]), "silent corruption");
        }
    }

    #[test]
    fn structural_faults_get_a_stage() {
        // Most line octets are flag fill (slipping a flag is harmless),
        // so the rate is set to hit payload bytes a handful of times.
        let plan = FaultSpec::clean().slip(2e-3).compile(3).unwrap();
        let mut link = LinkBuilder::new()
            .sonet(StmLevel::Stm4)
            .fault(plan)
            .build()
            .unwrap();
        for i in 0..40u8 {
            link.send(0x0021, &[i; 100]);
        }
        link.run(10_000).unwrap();
        let snaps = link.snapshots();
        let fault = snaps
            .iter()
            .find(|s| s.scope == "fault")
            .expect("fault stage present");
        assert!(fault.get("fault_slip").unwrap() > 0, "slips injected");
        assert!(link.rx_errors() > 0, "slips break frames");
    }

    #[test]
    fn duplex_link_carries_traffic_both_ways() {
        let mut link = LinkBuilder::new().build_duplex().unwrap();
        link.a.dev.submit(0x0021, vec![1, 2, 3]).unwrap();
        // Queued behind a blocked line, admitted by the exchange.
        assert_eq!(link.b.offer(0x0021, &[9, 8, 7], false), Offer::Queued);
        for _ in 0..50 {
            link.a.dev.run(64);
            link.b.dev.run(64);
            link.exchange();
        }
        let at_b = link.b.dev.take_received();
        let at_a = link.a.dev.take_received();
        assert_eq!(at_b.len(), 1);
        assert_eq!(at_b[0].payload, vec![1, 2, 3]);
        assert_eq!(at_a[0].payload, vec![9, 8, 7]);
    }

    #[test]
    fn duplex_over_sonet_carries_frames_longer_than_one_burst() {
        let payload: Vec<u8> = (0..1500u32).map(|i| (i * 7) as u8).collect();
        for level in [StmLevel::Stm1, StmLevel::Stm4, StmLevel::Stm16] {
            let mut link = LinkBuilder::new().sonet(level).build_duplex().unwrap();
            // Staged: 1500 B take six 64-clock bursts to leave the
            // transmitter, and the carriage must not pad the SPE meanwhile.
            link.a.dev.submit(0x0021, payload.clone()).unwrap();
            for _ in 0..20 {
                link.a.dev.run(64);
                link.b.dev.run(64);
                link.exchange();
            }
            // Through the admission rule the frame is wire bytes at once:
            // it crosses without another clock on either device.
            assert_eq!(link.a.offer(0x0021, &payload, true), Offer::Accepted);
            link.exchange();
            let got = link.b.dev.take_received();
            assert_eq!(link.b.dev.rx_counters().errors(), 0, "{level:?}");
            assert_eq!(got.len(), 2, "{level:?}: frames lost");
            assert!(got.iter().all(|f| f.payload == payload), "{level:?}");
        }
    }

    /// Send `payloads` as one window and require the paved road: every
    /// frame delivered in order and byte-exact, no receive error, frame
    /// counts conserved, and not one cycle-model clock on either device.
    fn assert_window_never_staged(mut link: Link, payloads: &[Vec<u8>], what: &str) {
        for p in payloads {
            link.send(0x0021, p);
        }
        link.run(100_000).unwrap();
        let got: Vec<Vec<u8>> = link.deliveries().into_iter().map(|(_, p)| p).collect();
        assert_eq!(got.len(), payloads.len(), "{what}: frames lost");
        assert!(got.iter().eq(payloads), "{what}: reordered or corrupted");
        let (n, hc) = (payloads.len() as u64, link.health_counters());
        assert_eq!((hc.tx_frames, hc.rx_frames), (n, n), "{what}");
        assert_eq!((hc.tx_rejects, hc.rx_errors), (0, 0), "{what}");
        for (stage, stats) in link.stage_stats() {
            // The path stage counts line frames as its cycles.
            if stage != "oc-path" {
                assert_eq!(stats.cycles, 0, "{what}: {stage} clocked");
            }
        }
    }

    #[test]
    fn window_past_the_wire_high_water_mark_is_never_staged() {
        // 256 x 1500 B is ~385 KB of wire against the 64 KiB mark.
        let payloads: Vec<Vec<u8>> = (0..256u32)
            .map(|i| (0..1500u32).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        assert_window_never_staged(LinkBuilder::new().build().unwrap(), &payloads, "plain");
    }

    #[test]
    fn sonet_link_uses_the_canonical_recipe() {
        // 40 B to 1500 B, flag and escape octets included.
        let payloads: Vec<Vec<u8>> = (0..1024u32)
            .map(|i| {
                (0..40 + i * 211 % 1461)
                    .map(|j| (i * 13 + j * 7) as u8)
                    .collect()
            })
            .collect();
        for level in [StmLevel::Stm1, StmLevel::Stm4, StmLevel::Stm16] {
            for width in [DatapathWidth::W8, DatapathWidth::W32] {
                let b = LinkBuilder::new().width(width).sonet(level);
                assert_window_never_staged(
                    b.build().unwrap(),
                    &payloads,
                    &format!("{level:?} {width:?}"),
                );
            }
        }
    }

    #[test]
    fn duplex_transfer_loss_is_counted_and_healable() {
        let plan = FaultSpec::clean().transfer_loss(1.0).compile(4).unwrap();
        let mut link = LinkBuilder::new().fault(plan).build_duplex().unwrap();
        link.a.dev.submit(0x0021, vec![5; 10]).unwrap();
        for _ in 0..20 {
            link.a.dev.run(64);
            link.b.dev.run(64);
            link.exchange();
        }
        assert!(link.b.dev.take_received().is_empty(), "all transfers lost");
        assert!(link.fault_stats().transfers_lost > 0);
        link.clear_fault();
        link.a.dev.submit(0x0021, vec![6; 10]).unwrap();
        for _ in 0..20 {
            link.a.dev.run(64);
            link.b.dev.run(64);
            link.exchange();
        }
        let got = link.b.dev.take_received();
        assert_eq!(got.len(), 1, "healed link delivers");
        assert_eq!(got[0].payload, vec![6; 10]);
    }

    #[test]
    fn duplex_link_without_a_path_applies_the_bit_errors_of_its_plan() {
        // 1 % BER over 1000 B frames: hardly a frame survives, and every
        // loss must show as a receive error, never as a clean delivery.
        let plan = FaultSpec::clean().ber(0.01).compile(42).unwrap();
        let mut link = LinkBuilder::new().fault(plan).build_duplex().unwrap();
        let sent = 50;
        for i in 0..sent {
            assert_eq!(
                link.a.offer(0x0021, &[i as u8; 1000], true),
                Offer::Accepted
            );
            link.exchange();
        }
        let got = link.b.dev.take_received();
        let rx = *link.b.dev.rx_counters();
        assert!(rx.fcs_errors > 0, "BER dropped: {rx:?}");
        assert!(
            got.len() < sent / 2,
            "{} of {sent} frames crossed 1 % BER",
            got.len()
        );
        assert!(got
            .iter()
            .all(|f| f.payload.iter().all(|&b| b == f.payload[0])));
        assert!(link.fault_stats().bit_errors > 0);
    }

    #[test]
    fn faulted_link_drains_when_its_last_flag_is_hit() {
        let stalled: Vec<u64> = (0..200)
            .filter(|&seed| {
                let plan = FaultSpec::clean().ber(5e-3).compile(seed).unwrap();
                let mut link = LinkBuilder::new().fault(plan).build().unwrap();
                link.send(0x0021, &[0x5A; 200]);
                link.send(0x0021, &[0xA5; 200]);
                link.run(10_000).is_err()
            })
            .collect();
        assert!(stalled.is_empty(), "stalled at seeds {stalled:?}");
    }
}
