//! [`LinkEngine`]: one P⁵ device, one PPP session and one
//! [`Transport`], pumped as a unit.
//!
//! The engine is the single-threaded heart of a real endpoint.  Each
//! [`LinkEngine::service_at`] call makes one pass over the whole path —
//!
//! ```text
//!   offer() ─→ LinkCore ─────────────→ device ─→ wire out
//!              session ─→ ctl ───────↗                │
//!            deliveries ←─ session ←─ device ←─ wire in   ▼
//!                 ▲                       ▲           ByteRing
//!                 │                       │               │
//!            take_deliveries()        WireBuf ←──── Transport (socket)
//! ```
//!
//! — and reports whether anything moved, so a driver can spin while
//! productive and sleep when the link is quiet.  All socket pathology
//! is absorbed here: short writes stage into the bounded [`ByteRing`],
//! short reads accumulate in a [`WireBuf`], `EWOULDBLOCK` just ends
//! the pass, and peer loss runs the session's `lower_down` so the next
//! successful [`Transport::establish`] renegotiates from scratch
//! (RFC 1661 Down → Up).
//!
//! User frames cross the same bounded queue as every other link end
//! ([`LinkCore`]); the session contributes only control frames (`ctl`)
//! and, in session mode, the rule that datagrams wait for IPCP.
//!
//! Session time is an argument: `service_at(tick)` runs the RFC 1661
//! timers at `tick`, so a test stepping two engines in one thread
//! decides exactly when a restart timer fires.  [`LinkEngine::service`]
//! is the wall-clock form a pump thread calls, and the only place the
//! engine reads a clock.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use p5_core::link::{LinkCore, LinkCounters, DEFAULT_INGRESS_DEPTH};
use p5_core::p5::FUSED_WIRE_HIGH_WATER;
use p5_core::{DatapathWidth, P5};
use p5_ppp::{NegotiationProfile, Protocol, Session, SessionEvent};
use p5_stream::{Observable, Offer, Snapshot, WireBuf};

use crate::ring::ByteRing;
use crate::transport::{IoOp, Transport};

/// Bytes staged toward a stalled peer before egress backpressure
/// reaches the device (and from there the `offer` boundary).
const TX_RING_CAPACITY: usize = 64 * 1024;
/// Read granularity per transport recv.
const RECV_CHUNK: usize = 4096;
/// Cycle-model clock budget per service pass.
const CLOCK_BUDGET: u64 = 256 * 1024;
/// Flag octets pushed per idle-fill burst in session mode, keeping the
/// peer's delineation hunting and the pipe demonstrably alive.
const IDLE_FILL_BURST: usize = 4;
/// Minimum service passes between idle-fill bursts.  Filling every
/// starved pass floods the socket with flags (more fill than payload at
/// spin rates) and — worse — every burst arrives at the peer as
/// readable bytes, i.e. "progress", so a pair of spinning drivers keep
/// each other awake forever.  On a single-CPU host that feedback loop
/// convoys the driver threads against the offering thread and collapses
/// throughput two orders of magnitude.  A periodic burst preserves the
/// keep-alive semantic at a bandwidth that rounds to zero.
const IDLE_FILL_INTERVAL: u64 = 64;
/// Wall time per session-clock tick in [`LinkEngine::service`].  RFC
/// 1661 restart timers assume the restart period dwarfs the round-trip;
/// with driver threads the round-trip is *scheduling latency*, so that
/// tick must be wall-time, not pass-count — a pass-rate clock
/// retransmits Configure-Requests faster than the peer thread can
/// answer, and each late duplicate arriving after Opened renegotiates
/// the link forever.  20 ms per tick puts the default 3-tick restart
/// period at 60 ms, comfortably above any scheduler hiccup while keeping
/// reconnect budgets snappy.
const TICK_LEN: Duration = Duration::from_millis(20);
/// Session events held for an owner that has not polled.  A peer
/// flapping the link, or sending protocols we reject, adds events on
/// every cycle; past the cap the oldest go, counted in
/// [`XportCounters::events_dropped`].
const EVENTS_CAP: usize = 128;

/// Transport accounting for one engine, all monotonic (flow counters
/// live in the shared [`LinkCounters`], [`LinkEngine::flow`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XportCounters {
    /// Octets handed to the transport.
    pub bytes_out: u64,
    /// Octets taken from the transport.
    pub bytes_in: u64,
    /// Sends where the kernel took fewer bytes than offered.
    pub short_writes: u64,
    /// Recvs that returned fewer bytes than the chunk asked for.
    pub short_reads: u64,
    /// Times the pipe was re-established after a loss.
    pub reconnects: u64,
    /// Times the pipe was observed lost.
    pub disconnects: u64,
    /// Flag octets injected on transmit starvation.
    pub idle_fill_bytes: u64,
    /// Hard I/O errors (not would-block, not peer loss).
    pub io_errors: u64,
    /// Session events discarded unpolled, oldest first, once 128 wait
    /// for [`LinkEngine::poll_events`].
    pub events_dropped: u64,
}

/// One real endpoint: device + optional PPP session + transport.
pub struct LinkEngine {
    /// The device, its bounded user-frame queue and the flow counters.
    core: LinkCore,
    /// `None` is *transparent* mode: raw frames in, raw frames out, no
    /// control plane — the determinism harness and protocol-agnostic
    /// carriage.
    session: Option<Session>,
    transport: Box<dyn Transport>,
    /// Session/control frames awaiting a device slot.
    ctl: VecDeque<(u16, Vec<u8>)>,
    /// Device wire-out bytes that did not fit the ring this pass.
    tx_stage: WireBuf,
    tx_ring: ByteRing,
    wire_in: WireBuf,
    deliveries: VecDeque<(u16, Vec<u8>)>,
    /// At most [`EVENTS_CAP`] events.
    events: VecDeque<SessionEvent>,
    pub counters: XportCounters,
    /// Service passes executed (the fine clock).
    passes: u64,
    /// Pass stamp of the last idle-fill burst.
    last_fill_pass: u64,
    /// Session-clock ticks: the largest tick any pass was given.
    now: u64,
    /// Wall-clock origin of [`LinkEngine::service`]'s ticks, taken on
    /// its first call.
    epoch: Option<Instant>,
    ever_established: bool,
    /// Our last knowledge of the pipe: lets a silent loss (the
    /// transport noticing on its own, or a scripted sever) run the
    /// Down transition exactly once before any re-establishment.
    pipe_open: bool,
}

impl LinkEngine {
    /// A session-mode endpoint negotiating `profile` over `transport`.
    pub fn new(
        width: DatapathWidth,
        profile: &NegotiationProfile,
        transport: Box<dyn Transport>,
    ) -> Self {
        Self::build(width, Some(Session::with_profile(profile)), transport)
    }

    /// A transparent endpoint: no PPP control plane, frames carried
    /// verbatim.  Deterministic by construction — what goes in one end
    /// comes out the other, byte-identical to an in-memory link.
    pub fn transparent(width: DatapathWidth, transport: Box<dyn Transport>) -> Self {
        Self::build(width, None, transport)
    }

    fn build(
        width: DatapathWidth,
        session: Option<Session>,
        transport: Box<dyn Transport>,
    ) -> Self {
        LinkEngine {
            core: LinkCore::new(P5::new(width), DEFAULT_INGRESS_DEPTH),
            session,
            transport,
            ctl: VecDeque::new(),
            tx_stage: WireBuf::new(),
            tx_ring: ByteRing::with_capacity(TX_RING_CAPACITY),
            wire_in: WireBuf::new(),
            deliveries: VecDeque::new(),
            events: VecDeque::new(),
            counters: XportCounters::default(),
            passes: 0,
            last_fill_pass: 0,
            now: 0,
            epoch: None,
            ever_established: false,
            pipe_open: false,
        }
    }

    /// Cap on frames admitted-but-unsent before `offer` sheds.
    pub fn set_ingress_depth(&mut self, depth: usize) {
        self.core.depth = depth.max(1);
    }

    /// Record this endpoint's frame-lifecycle events into `sink`.
    pub fn set_trace(&mut self, sink: Box<dyn p5_stream::TraceSink + Send>) {
        self.core.dev.set_trace(sink);
    }

    /// Flow counters: offered, accepted, shed, rejected, delivered.
    pub fn flow(&self) -> &LinkCounters {
        &self.core.counters
    }

    /// Where this endpoint's bytes go (transport description).
    pub fn describe(&self) -> String {
        self.transport.describe()
    }

    /// IPCP is open (session mode) / the pipe exists (transparent).
    pub fn is_network_up(&self) -> bool {
        match &self.session {
            Some(s) => s.is_network_up(),
            None => self.transport.established(),
        }
    }

    /// Session-clock ticks elapsed (the unit restart budgets are
    /// denominated in).
    pub fn ticks(&self) -> u64 {
        self.now
    }

    /// Service passes executed (the fine pump clock).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Offer one frame at the admission boundary.
    ///
    /// Session mode accepts only [`Protocol::Ipv4`] payloads
    /// ([`Offer::Rejected`] otherwise) and sheds while the network
    /// phase is down — PPP does not carry user traffic before IPCP
    /// opens.  Transparent mode carries any protocol.
    pub fn offer(&mut self, protocol: u16, payload: &[u8]) -> Offer {
        if self.session.is_some() {
            if protocol != Protocol::Ipv4.number() {
                return self.core.refuse(Offer::Rejected);
            }
            if !self.is_network_up() {
                return self.core.refuse(Offer::Shed);
            }
        }
        let line_clear = self.ctl.is_empty() && self.tx_stage.is_empty();
        self.core.offer(protocol, payload, line_clear)
    }

    /// Frames delivered to this endpoint since the last call — IPv4
    /// datagrams in session mode, raw `(protocol, payload)` frames in
    /// transparent mode.
    pub fn take_deliveries(&mut self) -> Vec<(u16, Vec<u8>)> {
        self.deliveries.drain(..).collect()
    }

    /// Session events (link up/down, network up, auth, rejects) since
    /// the last call.  Always empty in transparent mode.
    pub fn poll_events(&mut self) -> Vec<SessionEvent> {
        self.events.drain(..).collect()
    }

    /// Administrative close: terminate the session (the Terminate
    /// exchange flushes on subsequent service passes).
    pub fn stop(&mut self) {
        if let Some(s) = &mut self.session {
            s.stop();
        }
    }

    /// [`LinkEngine::service_at`] on the wall clock: one session tick
    /// per 20 ms since the first call.  What a pump thread calls.
    pub fn service(&mut self) -> bool {
        let epoch = *self.epoch.get_or_insert_with(Instant::now);
        self.service_at((epoch.elapsed().as_millis() / TICK_LEN.as_millis()) as u64)
    }

    /// One full pump pass at session tick `now_tick` (a tick earlier
    /// than one already seen counts as that one: session time never
    /// runs backwards).  Returns `true` if anything moved — the
    /// driver's spin/sleep signal.  Idle-fill injection deliberately
    /// does not count as progress.
    pub fn service_at(&mut self, now_tick: u64) -> bool {
        let mut progress = false;
        self.passes += 1;
        self.now = self.now.max(now_tick);

        if self.transport.established() {
            if !self.pipe_open {
                // Transport was born connected (dialled client,
                // in-process pipe): this pass discovers it.
                self.on_established();
                progress = true;
            }
        } else {
            if self.pipe_open {
                // The pipe died without us touching it (peer vanished,
                // scripted sever): run the Down transition first.
                self.on_closed();
            }
            match self.transport.establish() {
                Ok(true) => {
                    self.on_established();
                    progress = true;
                }
                Ok(false) => {}
                Err(_) => self.counters.io_errors += 1,
            }
        }

        // Control plane: advance timers, collect output and events.
        if let Some(session) = &mut self.session {
            session.tick(self.now);
        }
        self.drain_session();

        // Control frames first; queued user frames follow while the
        // network phase is open (always, in transparent mode).  A frame
        // the device will not take now stays queued until the egress
        // side drains.
        let room = self.egress_room();
        progress |= self.core.admit_from(&mut self.ctl, room) > 0;
        let open = self.session.as_ref().is_none_or(|s| s.is_network_up());
        progress |= self.core.admit_queued(open && room && self.ctl.is_empty()) > 0;

        if self.core.dev.needs_clock() {
            progress |= self.core.dev.run_until_idle(CLOCK_BUDGET) > 0;
        }

        progress |= self.stage_wire_out();
        self.idle_fill();
        progress |= self.pump_socket_out();
        progress |= self.pump_socket_in();
        progress |= self.core.dev.ingest_wire(&mut self.wire_in, usize::MAX) > 0;

        if self.core.dev.needs_clock() {
            progress |= self.core.dev.run_until_idle(CLOCK_BUDGET) > 0;
        }

        progress |= self.collect_received();
        progress
    }

    /// Pipe (re)created.  First time starts the session; later times
    /// are reconnects and renegotiate via Down → Up.
    fn on_established(&mut self) {
        self.pipe_open = true;
        self.tx_ring.clear();
        self.tx_stage.clear();
        self.wire_in.clear();
        let reconnect = self.ever_established;
        if reconnect {
            self.counters.reconnects += 1;
        }
        self.ever_established = true;
        if let Some(session) = &mut self.session {
            if reconnect {
                session.lower_up();
            } else {
                session.start();
            }
        }
    }

    /// Pipe lost mid-flight: drop in-flight wire state (the peer will
    /// resync on flags anyway) and run the session's Down transition.
    fn on_closed(&mut self) {
        self.pipe_open = false;
        self.counters.disconnects += 1;
        self.tx_ring.clear();
        self.tx_stage.clear();
        self.wire_in.clear();
        if let Some(session) = &mut self.session {
            session.lower_down();
        }
    }

    /// The egress side (staging overflow plus ring) is below capacity;
    /// at capacity backpressure stands and queued frames stay queued.
    fn egress_room(&self) -> bool {
        self.tx_stage.len() + self.tx_ring.len() < TX_RING_CAPACITY
    }

    /// Move the session's output into `ctl` and its events out to the
    /// owner (datagrams to `deliveries`, the rest to `events`).
    fn drain_session(&mut self) {
        let Some(session) = &mut self.session else {
            return;
        };
        self.ctl.extend(session.poll_output());
        for ev in session.poll_events() {
            match ev {
                SessionEvent::Datagram(data) => {
                    self.core.counters.record_delivery(data.len());
                    self.deliveries.push_back((Protocol::Ipv4.number(), data));
                }
                other => {
                    if self.events.len() == EVENTS_CAP {
                        self.events.pop_front();
                        self.counters.events_dropped += 1;
                    }
                    self.events.push_back(other);
                }
            }
        }
    }

    /// Device wire-out → ring (staging the overflow).
    fn stage_wire_out(&mut self) -> bool {
        let mut progress = false;
        // Stage backlog first: ring order must match wire order.
        let taken = self.tx_ring.push(self.tx_stage.as_slice());
        if taken > 0 {
            self.tx_stage.consume(taken);
            progress = true;
        }
        while self.core.dev.has_wire_out() {
            if !self.tx_stage.is_empty() || self.tx_ring.free() == 0 {
                break; // keep the backlog bounded at device side
            }
            let bytes = self.core.dev.take_wire_out();
            let taken = self.tx_ring.push(&bytes);
            if taken < bytes.len() {
                self.tx_stage.push_slice(&bytes[taken..]);
            }
            self.core.dev.recycle_wire_vec(bytes);
            progress = true;
        }
        progress
    }

    /// Transmit starvation in session mode: keep the line scrambling
    /// with inter-frame flags, like the hardware's idle-fill escape —
    /// but throttled to [`IDLE_FILL_INTERVAL`] (see there for why a
    /// per-pass fill is actively harmful over a real socket).
    fn idle_fill(&mut self) {
        if self.session.is_none()
            || !self.ever_established
            || !self.transport.established()
            || !self.tx_ring.is_empty()
            || !self.tx_stage.is_empty()
            || self.core.dev.has_wire_out()
            || self.passes.wrapping_sub(self.last_fill_pass) < IDLE_FILL_INTERVAL
        {
            return;
        }
        self.last_fill_pass = self.passes;
        let fill = [p5_hdlc::FLAG; IDLE_FILL_BURST];
        let n = self.tx_ring.push(&fill);
        self.counters.idle_fill_bytes += n as u64;
    }

    /// Ring → socket, consuming exactly what the kernel took.
    fn pump_socket_out(&mut self) -> bool {
        let mut progress = false;
        loop {
            let (first, _) = self.tx_ring.as_slices();
            if first.is_empty() {
                break;
            }
            let offered = first.len();
            match self.transport.send(first) {
                Ok(IoOp::Did(n)) => {
                    self.tx_ring.consume(n);
                    self.counters.bytes_out += n as u64;
                    progress = true;
                    if n < offered {
                        self.counters.short_writes += 1;
                        break;
                    }
                }
                Ok(IoOp::WouldBlock) => break,
                Ok(IoOp::Closed) => {
                    self.on_closed();
                    break;
                }
                Err(_) => {
                    self.counters.io_errors += 1;
                    break;
                }
            }
        }
        progress
    }

    /// Socket → wire-in buffer, bounded by the fused high-water mark.
    fn pump_socket_in(&mut self) -> bool {
        let mut progress = false;
        let mut chunk = [0u8; RECV_CHUNK];
        while self.wire_in.len() < FUSED_WIRE_HIGH_WATER && self.transport.established() {
            match self.transport.recv(&mut chunk) {
                Ok(IoOp::Did(n)) => {
                    self.wire_in.push_slice(&chunk[..n]);
                    self.counters.bytes_in += n as u64;
                    progress = true;
                    if n < chunk.len() {
                        self.counters.short_reads += 1;
                        break;
                    }
                }
                Ok(IoOp::WouldBlock) => break,
                Ok(IoOp::Closed) => {
                    self.on_closed();
                    break;
                }
                Err(_) => {
                    self.counters.io_errors += 1;
                    break;
                }
            }
        }
        progress
    }

    /// Device deliveries → session (or straight out, transparent).
    fn collect_received(&mut self) -> bool {
        let mut progress = false;
        while let Some(frame) = self.core.dev.pop_received() {
            progress = true;
            match &mut self.session {
                Some(session) => {
                    session.receive(frame.protocol, &frame.payload);
                    self.core.dev.recycle_rx_payload(frame.payload);
                }
                None => {
                    self.core.counters.record_delivery(frame.payload.len());
                    self.deliveries.push_back((frame.protocol, frame.payload));
                }
            }
        }
        // Surface what the receives produced without waiting for the
        // next pass.
        self.drain_session();
        progress
    }
}

impl Observable for LinkEngine {
    fn snapshot(&self) -> Snapshot {
        let (c, f) = (&self.counters, &self.core.counters);
        Snapshot::new("xport")
            .counter("bytes_out", c.bytes_out)
            .counter("bytes_in", c.bytes_in)
            .counter("short_writes", c.short_writes)
            .counter("short_reads", c.short_reads)
            .counter("reconnects", c.reconnects)
            .counter("disconnects", c.disconnects)
            .counter("idle_fill_bytes", c.idle_fill_bytes)
            .counter("io_errors", c.io_errors)
            .counter("events_dropped", c.events_dropped)
            .counter("offered", f.offered)
            .counter("accepted", f.accepted)
            .counter("shed", f.shed)
            .counter("rejected", f.rejected)
            .counter("delivered", f.delivered)
            .counter("delivered_bytes", f.delivered_bytes)
            // Clocks the cycle model has run: 0 for as long as every
            // frame rides the fused paths.
            .counter("device_cycles", self.core.dev.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{PipeControl, PipeTransport};

    /// Service both ends once at session tick `tick`; `true` if either
    /// moved.
    fn step(a: &mut LinkEngine, b: &mut LinkEngine, tick: u64) -> bool {
        let pa = a.service_at(tick);
        let pb = b.service_at(tick);
        pa || pb
    }

    /// One session tick: service both ends at `tick` until a pass moves
    /// nothing.  A tick is long against a pass (20 ms against
    /// microseconds on the wall clock), so the pipe settles inside it.
    fn run_tick(a: &mut LinkEngine, b: &mut LinkEngine, tick: u64) {
        for _ in 0..1024 {
            if !step(a, b, tick) {
                return;
            }
        }
        panic!("tick {tick} never settled");
    }

    fn session_pair() -> (LinkEngine, LinkEngine, PipeControl) {
        let (ta, tb) = PipeTransport::pair();
        let ctl = ta.control();
        let prof_a = NegotiationProfile::new().magic(0x1111).ip([10, 0, 0, 1]);
        let prof_b = NegotiationProfile::new().magic(0x2222).ip([10, 0, 0, 2]);
        let a = LinkEngine::new(DatapathWidth::W32, &prof_a, Box::new(ta));
        let b = LinkEngine::new(DatapathWidth::W32, &prof_b, Box::new(tb));
        (a, b, ctl)
    }

    /// Step both ends a tick at a time from `*tick` until both network
    /// phases are open, failing past two restart budgets (LCP, then
    /// IPCP).
    fn open_within_budget(a: &mut LinkEngine, b: &mut LinkEngine, tick: &mut u64) {
        let budget = 2 * NegotiationProfile::new().restart_budget_ticks();
        let start = *tick;
        while !(a.is_network_up() && b.is_network_up()) {
            assert!(*tick - start <= budget, "not open within {budget} ticks");
            run_tick(a, b, *tick);
            *tick += 1;
        }
    }

    /// Sever the pipe, let the next tick observe it, and renegotiate.
    fn flap(a: &mut LinkEngine, b: &mut LinkEngine, ctl: &PipeControl, tick: &mut u64) {
        let seen = a.counters.disconnects + b.counters.disconnects;
        ctl.sever();
        run_tick(a, b, *tick);
        *tick += 1;
        assert_eq!(a.counters.disconnects + b.counters.disconnects, seen + 1);
        open_within_budget(a, b, tick);
    }

    #[test]
    fn transparent_engines_carry_frames_both_ways() {
        let (ta, tb) = PipeTransport::pair();
        let mut a = LinkEngine::transparent(DatapathWidth::W32, Box::new(ta));
        let mut b = LinkEngine::transparent(DatapathWidth::W32, Box::new(tb));
        assert_eq!(a.offer(0x0021, b"one small datagram"), Offer::Accepted);
        assert_eq!(b.offer(0x0057, b"and back again"), Offer::Accepted);
        run_tick(&mut a, &mut b, 0);
        let got_b = b.take_deliveries();
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0].0, 0x0021);
        assert_eq!(got_b[0].1, b"one small datagram");
        let got_a = a.take_deliveries();
        assert_eq!(got_a.len(), 1);
        assert_eq!(got_a[0].0, 0x0057);
        assert_eq!(got_a[0].1, b"and back again");
        assert_eq!(a.flow().delivered, 1);
        assert_eq!(b.flow().delivered, 1);
    }

    #[test]
    fn deep_window_offered_before_the_first_pass_is_never_staged() {
        use p5_stream::SharedRecorder;
        let (ta, tb) = PipeTransport::pair();
        let mut a = LinkEngine::transparent(DatapathWidth::W32, Box::new(ta));
        let mut b = LinkEngine::transparent(DatapathWidth::W32, Box::new(tb));
        a.set_ingress_depth(256);
        let rec = SharedRecorder::with_capacity(1 << 12);
        b.set_trace(Box::new(rec.clone()));
        // ~385 KB of wire against the 64 KiB high-water mark.
        let frames: Vec<Vec<u8>> = (0..256u32)
            .map(|i| (0..1500u32).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        for f in &frames {
            assert!(a.offer(0x0021, f).is_admitted());
        }
        let mut got = Vec::new();
        while step(&mut a, &mut b, 0) {
            got.extend(b.take_deliveries());
        }
        assert_eq!(got.len(), frames.len(), "frames lost");
        assert!(
            got.iter().map(|(_, p)| p).eq(&frames),
            "reordered or corrupted"
        );
        let (ca, cb) = (*a.flow(), *b.flow());
        assert_eq!(
            (ca.offered, ca.accepted, ca.shed, ca.rejected),
            (256, 256, 0, 0)
        );
        assert_eq!(cb.delivered, ca.accepted);
        // Every receive error class begins as a delineated frame.
        let delineated = |e: &&p5_stream::Event| e.kind.name() == "delineated";
        assert_eq!(rec.events().iter().filter(delineated).count(), 256);
        // The live twin of the benchmark's `core.staged_cycles_per_frame`.
        assert_eq!(a.snapshot().get("device_cycles"), Some(0));
        assert_eq!(b.snapshot().get("device_cycles"), Some(0));
    }

    #[test]
    fn sessions_negotiate_and_exchange_over_a_pipe() {
        let (mut a, mut b, _) = session_pair();
        let mut tick = 0;
        open_within_budget(&mut a, &mut b, &mut tick);
        assert!(a
            .poll_events()
            .iter()
            .any(|e| matches!(e, SessionEvent::NetworkUp(..))));

        assert_eq!(a.offer(0xBEEF, b"not ip"), Offer::Rejected);
        let datagram = vec![0x45u8; 96];
        assert!(a.offer(0x0021, &datagram).is_admitted());
        run_tick(&mut a, &mut b, tick);
        let got = b.take_deliveries();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, datagram);
    }

    #[test]
    fn sever_renegotiates_within_the_restart_budget() {
        let (mut a, mut b, ctl) = session_pair();
        let mut tick = 0;
        open_within_budget(&mut a, &mut b, &mut tick);
        a.poll_events();
        b.poll_events();

        // The scripted disconnect closes both lanes.  `a` is serviced
        // first, observes the loss and reopens the lanes before `b`
        // looks, so `b` renegotiates through LCP alone.
        flap(&mut a, &mut b, &ctl, &mut tick);
        assert_eq!((a.counters.disconnects, a.counters.reconnects), (1, 1));
        assert_eq!((b.counters.disconnects, b.counters.reconnects), (0, 0));
        let events = a.poll_events();
        assert_eq!(events[..2], [SessionEvent::LinkDown, SessionEvent::LinkUp]);
        assert!(matches!(events[2..], [SessionEvent::NetworkUp(..)]));
    }

    #[test]
    fn unpolled_events_stay_within_their_cap_under_link_flaps() {
        // Two identical pairs stepped at the same ticks: the twin's
        // events are drained every cycle (the full trace), the
        // subject's never are.
        let (mut a, mut b, ctl) = session_pair();
        let (mut twin_a, mut twin_b, twin_ctl) = session_pair();
        let (mut tick, mut twin_tick) = (0, 0);
        open_within_budget(&mut a, &mut b, &mut tick);
        open_within_budget(&mut twin_a, &mut twin_b, &mut twin_tick);
        let mut trace = twin_a.poll_events();
        while trace.len() < 10 * EVENTS_CAP {
            flap(&mut a, &mut b, &ctl, &mut tick);
            flap(&mut twin_a, &mut twin_b, &twin_ctl, &mut twin_tick);
            trace.extend(twin_a.poll_events());
        }
        assert_eq!(tick, twin_tick);
        assert_eq!(a.events.len(), EVENTS_CAP);
        assert!(b.events.len() <= EVENTS_CAP);
        let overflow = (trace.len() - EVENTS_CAP) as u64;
        assert_eq!(a.counters.events_dropped, overflow);
        assert_eq!(a.snapshot().get("events_dropped"), Some(overflow));
        // The oldest went: what is held is the trace's tail.
        assert!(a.events.iter().eq(&trace[trace.len() - EVENTS_CAP..]));
    }
}
