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
//! Every link here is built from the same parts (DESIGN.md §19): a
//! [`LinkCore`] end, and a seeded, optionally impaired [`Carriage`] —
//! optional STM-N path, optional fault plan — per direction.
//! [`LinkBuilder::build`] yields a simplex [`Link`]: a transmit end, one
//! carriage and a receive device, driven by [`Link::send`] and
//! [`Link::run`] from one thread.  [`LinkBuilder::build_duplex`] yields
//! a [`DuplexLink`] — two ends and a carriage each way — for the
//! control-plane (LCP/IPCP) scenarios that need traffic both ways.
//!
//! Below the builder, a link is those parts and nothing else: a custom
//! topology is a loop over [`LinkCore`], [`Carriage`] and
//! [`P5::ingest_wire`], the way [`Link`] and the fleet drive them.

use p5_core::link::{Carriage, LinkCore, DEFAULT_INGRESS_DEPTH};
use p5_core::oam::{rx_errors, Oam};
use p5_core::{DatapathWidth, P5};
use p5_fault::{FaultError, FaultPlan, FaultSpec, FaultStats};
use p5_ppp::NegotiationProfile;
use p5_sonet::{BitErrorChannel, OcPath, StmLevel};
use p5_stream::{Observable, SharedRecorder, Snapshot, StageStats};
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
    /// The link did not drain within its pump-pass budget.
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

    /// Impair the wire with a compiled fault plan.  Over a SONET path
    /// the length-preserving faults (BER, bursts) apply inside the
    /// transmission channel; structural faults, transfer loss and stall
    /// storms act in the [`Carriage`], on the delineated byte stream.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Record both devices' frame-lifecycle events into `rec`.
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

    /// One direction of wire: the configured path and the `(channel,
    /// stage)` plans of [`LinkBuilder::wire_plans`], forked for `lane`.
    fn carriage(
        &self,
        channel: Option<&FaultPlan>,
        stage: Option<&FaultPlan>,
        lane: u64,
    ) -> Carriage {
        let path = self.sonet.map(|level| {
            let channel = channel.map_or_else(BitErrorChannel::clean, |plan| {
                BitErrorChannel::from_plan(plan.fork(lane))
            });
            Box::new(OcPath::new(level, channel))
        });
        Carriage::new(path, stage.map(|plan| plan.fork(lane)))
    }

    /// A transmit end, one carriage — the a → b direction of
    /// [`LinkBuilder::build_duplex`]'s recipe — and a receive device.
    /// The transmit queue is unbounded: [`Link::send`] never sheds.
    pub fn build(self) -> Result<Link, LinkError> {
        let (channel, stage) = self.wire_plans()?;
        Ok(Link {
            tx: LinkCore::new(self.new_device(), usize::MAX),
            line: self.carriage(channel.as_ref(), stage.as_ref(), 0),
            rx: self.new_device(),
            passes: PassStats::default(),
        })
    }

    /// Two devices and a seeded carriage each way, for control-plane
    /// scenarios (LCP/IPCP) where traffic flows both ways.  The fault
    /// plan, if any, is forked per direction; with [`LinkBuilder::sonet`]
    /// each direction carries its own STM-N path.
    pub fn build_duplex(self) -> Result<DuplexLink, LinkError> {
        let (channel, stage) = self.wire_plans()?;
        let end = || LinkCore::new(self.new_device(), DEFAULT_INGRESS_DEPTH);
        let carriage = |lane| self.carriage(channel.as_ref(), stage.as_ref(), lane);
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

/// Device clocks one pump pass may spend on each device — only a device
/// in cycle-model duty ([`P5::needs_clock`]) spends any.  Transmit gets
/// one burst, receive two: it chews what a whole burst put on the line.
const TX_CLOCKS: usize = 256;
const RX_CLOCKS: usize = 2 * TX_CLOCKS;

/// A simplex link: a transmit [`LinkCore`], one [`Carriage`] (optional
/// STM-N path, optional fault plan) and a receive [`P5`] — the same
/// parts as each direction of a [`DuplexLink`], pumped from one thread.
pub struct Link {
    tx: LinkCore,
    line: Carriage,
    rx: P5,
    passes: PassStats,
}

/// The link's own pump-pass and boundary counters (what
/// [`Link::stack`] returns).
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    steps: u64,
    /// `[admission, line]`.  Admission: one `offered` per
    /// [`Link::send`], `blocked` when the device first answered *not
    /// now*.  Line: one `offered` per pass that found wire bytes on the
    /// transmitter, `blocked` when a stall storm held them there;
    /// `bytes_out` counts the octets carried.
    boundary: [StageStats; 2],
}

impl PassStats {
    /// Pump passes run so far, by [`Link::send`] and [`Link::run`].
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The admission and line boundaries, in that order.
    pub fn boundary_stats(&self) -> &[StageStats] {
        &self.boundary
    }

    /// [`PassStats::boundary_stats`] with each boundary's name:
    /// `"admission"`, then `"line"`.
    pub fn named_boundaries(&self) -> impl Iterator<Item = (&'static str, &StageStats)> {
        ["admission", "line"].into_iter().zip(&self.boundary)
    }
}

impl Link {
    /// Hand one datagram to the transmitter.  The device takes it now
    /// (in plain duty it is wire bytes on return); on *not now* the
    /// line is pumped once and the frame offered again, and only a frame
    /// the device still refuses — cycle-model duty, or a stall storm
    /// holding the line — is copied into the queue.  Never sheds.
    pub fn send(&mut self, protocol: u16, payload: &[u8]) {
        let admission = &mut self.passes.boundary[0];
        admission.offered += 1;
        if self.tx.offer_direct(protocol, payload) {
            admission.accepted += 1;
            return;
        }
        admission.blocked += 1;
        self.pump(false);
        self.tx.offer(protocol, payload, true);
    }

    /// Pump until everything sent has crossed the line and the receiver
    /// holds no work, the last pass padding out the line (SPE backlog
    /// plus flag fill).  Delivered frames wait in [`Link::deliveries`].
    pub fn run(&mut self, max_steps: usize) -> Result<(), LinkError> {
        for _ in 0..max_steps {
            self.pump(true);
            if self.is_idle() {
                return Ok(());
            }
        }
        Err(LinkError::Stalled { steps: max_steps })
    }

    /// One pass: admit queued frames, clock a transmitter in
    /// cycle-model duty, carry its wire, and ingest the landed octets
    /// (clocking a receiver in cycle-model duty).  While draining, any
    /// stall storm is released before the carry — a storm never holds
    /// the line two passes running — and a transmitter between frames
    /// with nothing queued also pads out the path's last SPE.
    fn pump(&mut self, drain: bool) {
        self.passes.steps += 1;
        self.tx.admit_queued(true);
        clock(&mut self.tx.dev, TX_CLOCKS);
        if drain {
            self.line.release_stall();
        }
        let flush = drain && self.tx.queued() == 0 && self.tx.dev.tx.idle();
        let pending = self.tx.dev.has_wire_out();
        let carried = self.line.carry(&mut self.tx.dev, flush);
        if pending {
            let line = &mut self.passes.boundary[1];
            line.offered += 1;
            line.bytes_out += carried as u64;
            if carried > 0 {
                line.accepted += 1;
            } else {
                line.blocked += 1;
            }
        }
        self.rx.ingest_wire(&mut self.line.wire, usize::MAX);
        clock(&mut self.rx, RX_CLOCKS);
    }

    fn is_idle(&self) -> bool {
        self.tx.queued() == 0
            && !self.tx.dev.needs_clock()
            && !self.tx.dev.has_wire_out()
            && self.line.path().is_none_or(|p| p.frames_to_drain() == 0)
            && self.line.wire.is_empty()
            && !self.rx.needs_clock()
    }

    /// Everything delivered so far, as `(protocol, payload)` in arrival
    /// order.  The payloads are the receiver's own buffers, moved out.
    pub fn deliveries(&mut self) -> Vec<(u16, Vec<u8>)> {
        let mut out = Vec::with_capacity(self.rx.rx.control.queued_frames().len());
        while let Some(f) = self.rx.pop_received() {
            out.push((f.protocol, f.payload));
        }
        out
    }

    /// Hand everything delivered so far to `visit(protocol, payload)`,
    /// in arrival order, then give each payload's storage back to the
    /// receiver ([`P5::recycle_rx_payload`]): a steady-state link
    /// drained this way allocates nothing per frame.  Returns the
    /// frames visited.
    pub fn drain_deliveries(&mut self, mut visit: impl FnMut(u16, &[u8])) -> usize {
        let mut n = 0;
        while let Some(f) = self.rx.pop_received() {
            visit(f.protocol, &f.payload);
            self.rx.recycle_rx_payload(f.payload);
            n += 1;
        }
        n
    }

    /// Register-bus view of the transmit device's OAM block.
    pub fn tx_oam(&self) -> Oam {
        Oam::new(self.tx.dev.oam.clone())
    }

    /// Register-bus view of the receive device's OAM block.
    pub fn rx_oam(&self) -> Oam {
        Oam::new(self.rx.oam.clone())
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

    /// Per-part flow counters `(name, stats)` in line order: `"p5-tx"`
    /// and `"p5-rx"` count device clocks as cycles (0 in plain duty),
    /// `"oc-path"` the line frames the path ran, `"fault"` the plan's
    /// stall storms.
    pub fn stage_stats(&self) -> Vec<(&'static str, StageStats)> {
        let [admission, line] = self.passes.boundary;
        let mut out = vec![(
            "p5-tx",
            StageStats {
                cycles: self.tx.dev.cycles,
                stall_cycles: admission.blocked,
                words_in: self.tx.counters.accepted,
                bytes_out: line.bytes_out,
                rejects: self.tx.dev.tx.control.submit_rejects,
                ..StageStats::default()
            },
        )];
        if let Some(path) = self.line.path() {
            let stats = StageStats {
                cycles: path.transmitter().frames_emitted(),
                ..StageStats::default()
            };
            out.push(("oc-path", stats));
        }
        if let Some(plan) = &self.line.plan {
            let stats = StageStats {
                stall_cycles: plan.stats().stall_cycles,
                ..StageStats::default()
            };
            out.push(("fault", stats));
        }
        out.push((
            "p5-rx",
            StageStats {
                cycles: self.rx.cycles,
                words_out: self.rx.rx_counters().frames_ok,
                ..StageStats::default()
            },
        ));
        out
    }

    /// Metrics snapshot of every part, in [`Link::stage_stats`] order:
    /// each row's flow counters, plus the transmitter's and receiver's
    /// pipeline tallies, the path's section and channel counters, and
    /// the fault plan's injection counters.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.stage_stats()
            .into_iter()
            .map(|(name, stats)| {
                let mut s = stats.snapshot(name);
                match (name, self.line.path(), &self.line.plan) {
                    ("p5-tx", ..) => push_tallies(&mut s, self.tx.dev.tx.snapshot()),
                    ("p5-rx", ..) => push_tallies(&mut s, self.rx.rx.snapshot()),
                    ("oc-path", Some(path), _) => {
                        s.absorb(&path.section_stats().snapshot());
                        s.absorb(&path.channel().stats().snapshot());
                    }
                    (_, _, Some(plan)) => s.absorb(&plan.snapshot()),
                    _ => {}
                }
                s
            })
            .collect()
    }

    /// The link's pump-pass and boundary counters ([`PassStats`]).
    pub fn stack(&self) -> &PassStats {
        &self.passes
    }
}

/// Append a device pipeline's tallies to its row, all but `cycles`:
/// the row already reports the device clock.
fn push_tallies(row: &mut Snapshot, pipeline: Snapshot) {
    for (name, value) in pipeline.counters {
        if name != "cycles" {
            row.push_counter(name, value);
        }
    }
}

/// Clock `dev` while it holds cycle-model work, at most `budget` times.
fn clock(dev: &mut P5, budget: usize) {
    for _ in 0..budget {
        if !dev.needs_clock() {
            return;
        }
        dev.clock();
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
    /// frame taken by the device as it is sent (never copied into the
    /// queue), delivered in order and byte-exact, no receive error,
    /// frame counts conserved, and not one cycle-model clock on either
    /// device.  Returns the link's pass counters.
    fn assert_window_never_staged(mut link: Link, payloads: &[Vec<u8>], what: &str) -> PassStats {
        for p in payloads {
            link.send(0x0021, p);
            let c = link.tx.counters;
            assert_eq!(c.accepted, c.offered, "{what}: a frame was queued");
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
        link.passes
    }

    #[test]
    fn window_past_the_wire_high_water_mark_is_never_staged() {
        // 256 x 1500 B is ~385 KB of wire against the 64 KiB mark.
        let payloads: Vec<Vec<u8>> = (0..256u32)
            .map(|i| (0..1500u32).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        let link = LinkBuilder::new().build().unwrap();
        let passes = assert_window_never_staged(link, &payloads, "plain");
        let admission = passes.boundary_stats()[0];
        assert!(admission.blocked > 0, "the window never met the mark");
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
    fn an_in_frame_sonet_link_runs_no_hunt_frames_after_its_first_window() {
        for level in [StmLevel::Stm1, StmLevel::Stm4, StmLevel::Stm16] {
            let spe = level.payload_per_frame() as u64;
            for width in [DatapathWidth::W8, DatapathWidth::W32] {
                let what = format!("{level:?} {width:?}");
                let mut link = LinkBuilder::new()
                    .width(width)
                    .sonet(level)
                    .build()
                    .unwrap();
                let (mut frames, mut drained) = (0, 0);
                for w in 0..50u32 {
                    // 1 to 24 frames of 40 to 1500 B: under the wire
                    // high-water mark, so the window crosses in the one
                    // flushing pass of `run`.
                    let window: Vec<Vec<u8>> = (0..1 + w * 7 % 24)
                        .map(|i| {
                            let len = 40 + (w * 331 + i * 577) % 1461;
                            (0..len).map(|j| (w + i * 3 + j * 11) as u8).collect()
                        })
                        .collect();
                    for p in &window {
                        link.send(0x0021, p);
                    }
                    let (steps, carried) = (link.stack().steps(), link.stack().boundary[1]);
                    link.run(100).unwrap();
                    assert_eq!(link.stack().steps(), steps + 1, "{what}: one flush");
                    let octets = link.stack().boundary[1].bytes_out - carried.bytes_out;
                    // That flush found the path's backlog empty, so it
                    // ran `frames_to_drain()` = ⌈octets / SPE⌉ frames,
                    // plus two while the receiver still hunted.
                    drained += octets.div_ceil(spe) + if w == 0 { 2 } else { 0 };
                    let got: Vec<Vec<u8>> = link.deliveries().into_iter().map(|(_, p)| p).collect();
                    assert!(
                        got == window,
                        "{what}: window {w} lost, reordered or corrupted"
                    );
                    // The `oc-path` row: line frames run so far.
                    frames = link.stage_stats()[1].1.cycles;
                    assert_eq!(frames, drained, "{what}: window {w}");
                }
                assert_eq!(link.rx_errors(), 0, "{what}");
                assert_eq!(link.line.path().unwrap().section_stats().hunts, 1, "{what}");
                assert!(frames > 50, "{what}");
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

    #[test]
    fn simplex_link_is_the_a_to_b_direction_of_the_duplex_recipe() {
        let plan = FaultSpec::clean()
            .ber(2e-4)
            .slip(1e-3)
            .spurious_flag(1e-3)
            .compile(21)
            .unwrap();
        let payloads: Vec<Vec<u8>> = (0..40u32)
            .map(|i| (0..40 + i * 53 % 300).map(|j| (i * 11 + j) as u8).collect())
            .collect();
        for level in [None, Some(StmLevel::Stm1), Some(StmLevel::Stm4)] {
            let builder = || {
                let b = LinkBuilder::new().fault(plan.clone());
                match level {
                    Some(level) => b.sonet(level),
                    None => b,
                }
            };
            let mut simplex = builder().build().unwrap();
            let mut duplex = builder().build_duplex().unwrap();
            for p in &payloads {
                simplex.send(0x0021, p);
                assert_eq!(duplex.a.offer(0x0021, p, true), Offer::Accepted);
            }
            duplex.exchange();
            let frames: Vec<(u16, Vec<u8>)> = duplex
                .b
                .dev
                .take_received()
                .into_iter()
                .map(|f| (f.protocol, f.payload))
                .collect();
            let rx = *duplex.b.dev.rx_counters();
            assert!(rx.errors() > 0, "{level:?}: the plan broke nothing");
            simplex.run(10_000).unwrap();
            let got = (simplex.deliveries(), *simplex.rx.rx_counters());
            assert_eq!(got, (frames, rx), "{level:?}");
        }
    }

    #[test]
    fn cycle_model_duty_delivers_every_frame_in_order_through_the_queue() {
        let payloads: Vec<Vec<u8>> = (0..40u32)
            .map(|i| (0..100 + i * 7).map(|j| (i ^ j) as u8).collect())
            .collect();
        let mut link = LinkBuilder::new().width(DatapathWidth::W8).build().unwrap();
        // A continuous idle-fill line is cycle-model duty; a four-frame
        // staged queue fills after the fourth send.
        link.tx.dev.tx.escape.idle_fill = true;
        link.tx.dev.tx.control.queue_depth = 4;
        for p in &payloads {
            link.send(0x0021, p);
        }
        assert!(link.tx.queued() > 0, "the queue path was never taken");
        link.run(100_000).unwrap();
        let got: Vec<Vec<u8>> = link.deliveries().into_iter().map(|(_, p)| p).collect();
        assert_eq!(got, payloads);
        let c = link.tx.counters;
        assert_eq!((c.offered, c.accepted, c.shed), (40, 40, 0));
        assert_eq!(link.rx_errors(), 0);
        let tx = link.stage_stats()[0].1;
        assert!(tx.cycles > 0, "the transmitter was never clocked");
    }

    #[test]
    fn a_simplex_stall_storm_queues_frames_and_the_flush_drains_them() {
        // 300 KB of wire against the 64 KiB mark: sends pump the line,
        // and a storm holding it sends frames to the queue.
        let plan = FaultSpec::clean().stall(0.9, 8).compile(6).unwrap();
        let mut link = LinkBuilder::new().fault(plan).build().unwrap();
        let payloads: Vec<Vec<u8>> = (0..300u32).map(|i| vec![i as u8; 1000]).collect();
        let mut most_queued = 0;
        for p in &payloads {
            link.send(0x0021, p);
            most_queued = most_queued.max(link.tx.queued());
        }
        assert!(most_queued > 0, "no storm held the line");
        link.run(10_000).unwrap();
        let got: Vec<Vec<u8>> = link.deliveries().into_iter().map(|(_, p)| p).collect();
        assert_eq!(got, payloads);
        assert!(link.stage_stats()[1].1.stall_cycles > 0);
        assert!(link.stack().boundary_stats()[1].blocked > 0);
    }

    #[test]
    fn a_certain_stall_storm_releases_for_the_flush_and_drains() {
        // p_start = 1: every decision a release does not waive stalls.
        // The first pass's carry is held; the next pass releases the
        // storm, and its carry takes the line.
        let plan = FaultSpec::clean().stall(1.0, 4).compile(5).unwrap();
        let mut link = LinkBuilder::new().fault(plan).build().unwrap();
        link.send(0x0021, &[7; 100]);
        link.run(100).unwrap();
        assert_eq!(link.deliveries(), vec![(0x0021, vec![7; 100])]);
        let line = link.stack().boundary_stats()[1];
        let taken = (line.offered, line.accepted, line.blocked);
        assert_eq!(taken, (2, 1, 1), "{line:?}");
    }

    #[test]
    fn drain_deliveries_visits_what_deliveries_returns() {
        let plan = FaultSpec::clean()
            .ber(2e-4)
            .slip(1e-3)
            .stall(0.3, 6)
            .compile(17)
            .unwrap();
        let payloads: Vec<Vec<u8>> = (0..120u32)
            .map(|i| (0..40 + i * 97 % 1460).map(|j| (i * 5 + j) as u8).collect())
            .collect();
        let mut links = [(); 2].map(|_| LinkBuilder::new().fault(plan.clone()).build().unwrap());
        for link in &mut links {
            for (i, p) in payloads.iter().enumerate() {
                link.send(0x0021 + (i % 3) as u16, p);
            }
            link.run(100_000).unwrap();
        }
        let [moved, visited] = &mut links;
        let want = moved.deliveries();
        let mut got = Vec::new();
        let n =
            visited.drain_deliveries(|protocol, payload| got.push((protocol, payload.to_vec())));
        assert_eq!(n, got.len());
        assert_eq!(got, want);
        assert!(
            !want.is_empty() && moved.rx_errors() > 0,
            "the plan broke nothing"
        );
        assert_eq!(visited.drain_deliveries(|_, _| panic!("drained twice")), 0);
    }

    #[test]
    fn duplex_stall_storm_holds_the_line_then_drains() {
        // p_start = 1: every carry call stalls, in both directions.
        let plan = FaultSpec::clean().stall(1.0, 4).compile(5).unwrap();
        let mut link = LinkBuilder::new().fault(plan).build_duplex().unwrap();
        assert_eq!(link.a.offer(0x0021, &[7; 100], true), Offer::Accepted);
        for _ in 0..10 {
            link.exchange();
        }
        assert!(
            link.b.dev.take_received().is_empty(),
            "a storm lands nothing"
        );
        assert!(link.a.dev.has_wire_out(), "held in the source device");
        let stats = link.fault_stats();
        assert_eq!(stats.stall_cycles, 20, "{stats:?}");
        assert!(stats.stalls > 0);
        link.clear_fault();
        link.exchange();
        let got = link.b.dev.take_received();
        assert_eq!(got.len(), 1, "released, the held frame crosses");
        assert_eq!(got[0].payload, vec![7; 100]);
    }
}
