//! The top-level P⁵ device: transmitter, receiver and OAM glued to a
//! PHY byte interface (Figure 2), with a cycle-accurate `clock()`.

use crate::oam::{ctrl, Interrupt, OamHandle};
use crate::rx::{RxCounters, RxPipeline};
use crate::tx::{fcs_params, TxDescriptor, TxPipeline, TxQueueFull};
use crate::word::Word;
use p5_crc::{fcs16_wire_bytes, fcs32_wire_bytes, CrcEngine, EngineKind, FcsEngine};
use p5_hdlc::sorter::{destuff_run, flag_run};
use p5_hdlc::{stuff_into, Accm, FcsMode, FLAG};
use p5_stream::{Event, EventKind, FrameId, NullSink, TraceSink, WireBuf};
use std::collections::VecDeque;

pub use crate::rx::ReceivedFrame;

/// The two datapath widths the paper implements and compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatapathWidth {
    /// 8-bit datapath: "commercial PPP packet processors are 8-bit
    /// systems" — the 625 Mbps baseline.
    W8,
    /// 32-bit datapath: the 2.5 Gbps P⁵.
    W32,
}

impl DatapathWidth {
    /// Lanes (bytes per clock).
    pub const fn bytes(self) -> usize {
        match self {
            DatapathWidth::W8 => 1,
            DatapathWidth::W32 => 4,
        }
    }

    /// Line rate class served at the required clock.
    pub const fn line_rate_bps(self) -> u64 {
        match self {
            DatapathWidth::W8 => 625_000_000,
            DatapathWidth::W32 => 2_500_000_000,
        }
    }

    /// The clock frequency needed to sustain the line rate: both widths
    /// need ≥ 78.125 MHz (625 Mbps / 8 = 2.5 Gbps / 32).
    pub const fn required_clock_hz(self) -> u64 {
        self.line_rate_bps() / (8 * self.bytes() as u64)
    }
}

/// The datapath's cached view of the OAM configuration registers,
/// refreshed only when the register file's version counter moves —
/// registers stay live without a lock acquisition per clock.
#[derive(Debug, Clone, Copy)]
struct OamConfigCache {
    version: u64,
    tx_en: bool,
    rx_en: bool,
    promiscuous: bool,
    loopback: bool,
    address: u8,
    max_body: u32,
}

/// The status/counter image last published to the OAM, so `sync_oam`
/// can skip the stores on the (vast majority of) cycles where nothing
/// changed, and find interrupt edges by comparing against it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct OamSyncedImage {
    tx_busy: bool,
    rx_in_frame: bool,
    counters: RxCounters,
    tx_frames: u64,
    tx_rejects: u64,
}

/// Frame-lifecycle bookkeeping for trace-event emission: FIFO id queues
/// matching the pipeline's in-order frame flow, plus the last-seen value
/// of each unit counter so `clock()` can turn counter deltas into events.
/// Only touched when a real sink is installed.
#[derive(Debug, Default)]
struct TraceState {
    next_id: FrameId,
    /// Submitted, awaiting `Framed`.
    tx_ids: VecDeque<FrameId>,
    /// Framed, awaiting `Stuffed`.
    framed_ids: VecDeque<FrameId>,
    /// Stuffed, awaiting the closing flag on the wire.
    stuffed_ids: VecDeque<FrameId>,
    /// Delineated on receive, awaiting a verdict.
    rx_pending: VecDeque<FrameId>,
    rx_seq: FrameId,
    /// Wire-scan state: inside a frame (non-flag bytes seen).
    wire_in_frame: bool,
    last_frames_sent: u64,
    last_frames_stuffed: u64,
    last_frames_delineated: u64,
    last_rx: RxCounters,
}

/// Above this many pending wire-out bytes the transmitter deasserts
/// ready: [`P5::offer_frame`] answers *not now* and the frame waits in
/// the caller's queue until the PHY side drains.  A link's
/// [`crate::Carriage`] uses the same mark as its line-clear test.
pub const FUSED_WIRE_HIGH_WATER: usize = 64 * 1024;

/// State of the fused (stage-hop-skipping) fast paths: persistent FCS
/// engines plus the Rx delineation machine that replaces the
/// EscapeDetect → RxCrc → RxControl word march when the cycle model is
/// not being exercised.
struct Fused {
    fcs: FcsMode,
    tx_engine: Option<FcsEngine>,
    rx_engine: Option<FcsEngine>,
    /// Destuffed bytes of the frame currently being delineated.
    rx_acc: Vec<u8>,
    rx_in_frame: bool,
    rx_esc_pending: bool,
    rx_overrun: bool,
}

impl Fused {
    fn new(width: usize, fcs: FcsMode) -> Self {
        let make = || fcs_params(fcs).map(|p| FcsEngine::new(EngineKind::default(), p, width));
        Self {
            fcs,
            tx_engine: make(),
            rx_engine: make(),
            rx_acc: Vec::new(),
            rx_in_frame: false,
            rx_esc_pending: false,
            rx_overrun: false,
        }
    }
}

/// The P⁵ device.
pub struct P5 {
    width: DatapathWidth,
    pub tx: TxPipeline,
    pub rx: RxPipeline,
    pub oam: OamHandle,
    /// Wire bytes produced, awaiting the PHY (batched, tag-free).
    wire_out: WireBuf,
    /// Wire bytes delivered by the PHY, awaiting the receiver.
    wire_in: WireBuf,
    pub cycles: u64,
    cfg: OamConfigCache,
    synced: OamSyncedImage,
    fused: Fused,
    /// Master enable for the fused fast paths (on by default).  Turn
    /// off to force every frame through the cycle-accurate staged
    /// pipeline — the reference behaviour for equivalence tests.
    pub fused_enabled: bool,
    sink: Box<dyn TraceSink + Send>,
    /// Cached `sink.enabled()` so the disabled path costs one branch.
    trace_enabled: bool,
    trace: TraceState,
}

impl P5 {
    pub fn new(width: DatapathWidth) -> Self {
        Self::with_oam(width, OamHandle::new())
    }

    pub fn with_oam(width: DatapathWidth, oam: OamHandle) -> Self {
        let version = oam.version();
        let (cfg, fcs16, max_body) = oam.read_state(|s| {
            (
                OamConfigCache {
                    version,
                    tx_en: s.ctrl & ctrl::TX_ENABLE != 0,
                    rx_en: s.ctrl & ctrl::RX_ENABLE != 0,
                    promiscuous: s.ctrl & ctrl::PROMISCUOUS != 0,
                    loopback: s.ctrl & ctrl::LOOPBACK != 0,
                    address: s.address,
                    max_body: s.max_body,
                },
                s.ctrl & ctrl::FCS16 != 0,
                s.max_body as usize,
            )
        });
        let fcs = if fcs16 {
            FcsMode::Fcs16
        } else {
            FcsMode::Fcs32
        };
        let w = width.bytes();
        let tx = TxPipeline::new(w, cfg.address, fcs);
        let mut rx = RxPipeline::new(w, cfg.address, fcs, max_body);
        rx.control.promiscuous = cfg.promiscuous;
        Self {
            width,
            tx,
            rx,
            oam,
            wire_out: WireBuf::new(),
            wire_in: WireBuf::new(),
            cycles: 0,
            cfg,
            synced: OamSyncedImage::default(),
            fused: Fused::new(w, fcs),
            fused_enabled: true,
            sink: Box::new(NullSink),
            trace_enabled: false,
            trace: TraceState::default(),
        }
    }

    /// Hand a delivered payload's storage back to the receiver's shelf.
    pub fn recycle_rx_payload(&mut self, payload: Vec<u8>) {
        self.rx.control.pool.recycle_vec(payload);
    }

    /// Install a trace sink.  The frame lifecycle (submit → framed →
    /// stuffed → wire → delineated → CRC verdict → delivered), stamped
    /// with the device cycle counter, plus OAM register writes flow into
    /// it.  Install [`NullSink`] (the default) to disable tracing; the
    /// instrumented paths then cost one predicted branch per clock.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.trace_enabled = sink.enabled();
        self.sink = sink;
    }

    pub fn width(&self) -> DatapathWidth {
        self.width
    }

    /// Queue a datagram for transmission (shared-memory write).  Refused
    /// with the descriptor handed back when the bounded transmit queue is
    /// full (see [`crate::tx::TxControl::queue_depth`]); the refusal is
    /// counted in `StageStats::rejects` and the OAM `TX_REJECTS` register.
    pub fn submit(&mut self, protocol: u16, payload: Vec<u8>) -> Result<(), TxQueueFull> {
        self.submit_tagged(protocol, payload, 0)
    }

    /// [`P5::submit`] with a caller-chosen frame id for trace correlation
    /// (`0` = assign the next internal id).  The id rides the FIFO frame
    /// flow through every lifecycle event.
    pub(crate) fn submit_tagged(
        &mut self,
        protocol: u16,
        payload: Vec<u8>,
        id: FrameId,
    ) -> Result<(), TxQueueFull> {
        let len = payload.len() as u32;
        let res = self.tx.submit(TxDescriptor { protocol, payload });
        if res.is_ok() && self.trace_enabled {
            self.trace_submit(id, len);
        }
        res
    }

    /// Open a frame's traced lifecycle on either transmit path
    /// (`id == 0` = assign the next internal id).
    fn trace_submit(&mut self, id: FrameId, len: u32) {
        let id = if id != 0 {
            id
        } else {
            self.trace.next_id += 1;
            self.trace.next_id
        };
        self.trace.tx_ids.push_back(id);
        self.sink.record(Event {
            cycle: self.cycles,
            kind: EventKind::Submit { id, len },
        });
    }

    /// Wire bytes the transmitter has produced since the last call.
    /// Returns without allocating when nothing is pending; pass the `Vec`
    /// back through [`P5::recycle_wire_vec`] to reuse its storage.
    pub fn take_wire_out(&mut self) -> Vec<u8> {
        self.wire_out.take_vec()
    }

    /// Hand a spent `take_wire_out` buffer back for reuse.
    pub fn recycle_wire_vec(&mut self, v: Vec<u8>) {
        self.wire_out.recycle(v);
    }

    /// Deliver wire bytes from the PHY to the receiver (one batched copy).
    pub fn put_wire_in(&mut self, bytes: &[u8]) {
        self.wire_in.push_slice(bytes);
    }

    /// Move the transmitter's pending wire bytes into `out` without
    /// re-allocating. Returns bytes moved.
    pub fn drain_wire_into(&mut self, out: &mut WireBuf) -> usize {
        out.move_from(&mut self.wire_out, usize::MAX)
    }

    pub fn has_wire_out(&self) -> bool {
        !self.wire_out.is_empty()
    }

    /// Frames delivered to receive shared memory since the last call.
    pub fn take_received(&mut self) -> Vec<ReceivedFrame> {
        self.rx.take_frames()
    }

    /// The oldest undelivered frame, if any: [`P5::take_received`] for a
    /// caller that consumes frames one by one and wants no `Vec` for it.
    pub fn pop_received(&mut self) -> Option<ReceivedFrame> {
        self.rx.control.pop_frame()
    }

    pub fn rx_counters(&self) -> &RxCounters {
        self.rx.counters()
    }

    /// Refresh programmable parameters when (and only when) a register
    /// changed — registers stay live, but the steady-state cost is one
    /// atomic load instead of several lock round trips.  Shared by the
    /// cycle-accurate `clock()` and the fused fast paths.
    fn refresh_cfg(&mut self) {
        let version = self.oam.version();
        if version == self.cfg.version {
            return;
        }
        self.cfg = self.oam.read_state(|s| OamConfigCache {
            version,
            tx_en: s.ctrl & ctrl::TX_ENABLE != 0,
            rx_en: s.ctrl & ctrl::RX_ENABLE != 0,
            promiscuous: s.ctrl & ctrl::PROMISCUOUS != 0,
            loopback: s.ctrl & ctrl::LOOPBACK != 0,
            address: s.address,
            max_body: s.max_body,
        });
        self.tx.control.address = self.cfg.address;
        self.rx.control.address = self.cfg.address;
        self.rx.control.promiscuous = self.cfg.promiscuous;
        // MAX_BODY (§13.4) is live like the other programmable
        // registers: a host write takes effect at the next frame
        // boundary the accumulator checks, so the giant filter
        // follows the negotiated MRU.
        self.rx.control.max_body = self.cfg.max_body as usize;
        // Host writes are the only version bumps, so the (rare)
        // refresh path is where they become trace events.
        if self.trace_enabled {
            for (addr, value) in self.oam.take_writes() {
                self.sink.record(Event {
                    cycle: self.cycles,
                    kind: EventKind::OamWrite { addr, value },
                });
            }
        }
    }

    /// Advance the device by one clock.
    pub fn clock(&mut self) {
        self.cycles += 1;
        self.refresh_cfg();

        let (tx_en, rx_en, loopback) = (self.cfg.tx_en, self.cfg.rx_en, self.cfg.loopback);
        let mut wire_word = None;
        if tx_en {
            if let Some(w) = self.tx.clock(true) {
                if loopback {
                    // Diagnostic loopback: the PHY pins never see the
                    // data; it re-enters the receiver directly.
                    self.wire_in.push_slice(w.lanes());
                } else {
                    self.wire_out.push_slice(w.lanes());
                }
                wire_word = Some(w);
            }
        }
        if rx_en {
            let input = if self.rx.ready() && !self.wire_in.is_empty() {
                // Slice-batched ingest: peek the next word's lanes in
                // place, then bump the cursor — no per-byte dequeue.
                let avail = self.wire_in.as_slice();
                let n = self.width.bytes().min(avail.len());
                let w = Word::data(&avail[..n]);
                self.wire_in.consume(n);
                Some(w)
            } else {
                None
            };
            self.rx.clock(input);
        }
        if self.trace_enabled {
            self.trace_tick(wire_word);
        }
        self.sync_oam();
    }

    /// Cycle-model duty on transmit: the fused path is switched off
    /// (`fused_enabled = false`, the reference mode of the equivalence
    /// suites) or cannot stand in for the staged transmitter — Tx
    /// disabled, diagnostic loopback, or a continuous idle-fill line.
    fn staged_tx_duty(&self) -> bool {
        !self.fused_enabled || !self.cfg.tx_en || self.cfg.loopback || self.tx.escape.idle_fill
    }

    /// Can [`P5::fused_submit_wire`] take the next frame?  True in plain
    /// duty when the staged transmitter is drained (nothing to reorder
    /// around) and the wire-out buffer is below its backpressure
    /// high-water mark.
    fn fused_tx_ready(&self) -> bool {
        !self.staged_tx_duty() && self.tx.idle() && self.wire_out.len() < FUSED_WIRE_HIGH_WATER
    }

    /// The one transmit admission rule (ready/valid, DESIGN.md §15.3):
    /// `true` — the device took the frame; `false` — *not now*: nothing
    /// happened or was counted, and the caller keeps the frame in the
    /// bounded queue it already owns.
    ///
    /// In plain duty the frame becomes wire bytes within this call
    /// ([`P5::fused_submit_wire`]).  Only a device in cycle-model duty
    /// copies it into the staged transmit queue, for [`P5::clock`] to
    /// move ([`P5::needs_clock`]); there *not now* means queue full.
    pub fn offer_frame(&mut self, protocol: u16, payload: &[u8], id: FrameId) -> bool {
        if self.fused_submit_wire(protocol, payload, id) {
            return true;
        }
        if !self.staged_tx_duty() || self.tx.control.queue_free() == 0 {
            return false;
        }
        let mut buf = self.tx.control.pool.lease_vec();
        buf.extend_from_slice(payload);
        self.submit_tagged(protocol, buf, id).is_ok()
    }

    /// Fused header → FCS → stuff → wire fast path: one call takes a
    /// payload from shared memory to complete wire bytes, skipping the
    /// per-word stage hops of the cycle model.  Byte-for-byte identical
    /// wire output (flag sharing included), same lifecycle trace events,
    /// same flow counters; per-cycle occupancy/latency statistics remain
    /// cycle-model-only, and `cycles` does not advance.
    ///
    /// Returns `false` without side effects when the fast path cannot
    /// take the frame now (cycle-model duty, staged frames still in
    /// flight, or wire-out at its high-water mark).  Callers that must
    /// work in either duty use [`P5::offer_frame`].
    pub fn fused_submit_wire(&mut self, protocol: u16, payload: &[u8], id: FrameId) -> bool {
        self.refresh_cfg();
        if !self.fused_tx_ready() {
            return false;
        }
        let header = [
            self.cfg.address,
            0x03,
            (protocol >> 8) as u8,
            protocol as u8,
        ];
        let fcs_len = self.fused.fcs.len();
        let mut fcs_bytes = [0u8; 4];
        if let Some(e) = &mut self.fused.tx_engine {
            e.reset();
            e.update(&header);
            e.update(payload);
            match self.fused.fcs {
                FcsMode::Fcs16 => {
                    fcs_bytes[..2].copy_from_slice(&fcs16_wire_bytes(e.value() as u16));
                }
                _ => fcs_bytes.copy_from_slice(&fcs32_wire_bytes(e.value())),
            }
        }
        // Flag sharing continues seamlessly across fused and staged
        // frames: open with a flag only if the previous wire octet was
        // not already one.
        let open_flag = !self.tx.escape.last_was_flag();
        let mut escapes = 0usize;
        self.wire_out.extend_untagged_with(|out| {
            if open_flag {
                out.push(FLAG);
            }
            escapes += stuff_into(&header, Accm::SONET, out);
            escapes += stuff_into(payload, Accm::SONET, out);
            escapes += stuff_into(&fcs_bytes[..fcs_len], Accm::SONET, out);
            out.push(FLAG);
        });
        self.tx.escape.set_last_was_flag(true);
        // Flow-counter parity with the staged pipeline.
        let body_len = header.len() + payload.len();
        self.tx.control.frames_sent += 1;
        self.tx.control.stats.words_out += body_len.div_ceil(self.width.bytes()) as u64;
        self.tx.control.stats.bytes_out += body_len as u64;
        self.tx.escape.frames_stuffed += 1;
        self.tx.escape.escapes_inserted += escapes as u64;
        if self.trace_enabled {
            self.trace_submit(id, payload.len() as u32);
            // The counter bumps above turn into Framed/Stuffed events
            // through the same delta bookkeeping the staged path uses.
            self.trace_tick(None);
            let id = self.trace.stuffed_ids.pop_front().unwrap_or(0);
            self.sink.record(Event {
                cycle: self.cycles,
                kind: EventKind::Wire { id },
            });
        }
        self.sync_oam();
        // The frame completed within this call: that is the staged
        // pipeline's busy→idle edge, compressed to a point.
        self.oam.raise(Interrupt::TxDone);
        true
    }

    /// Can [`P5::fused_ingest_wire`] process wire bytes right now?  True
    /// when the staged receiver is drained and has nothing queued (a
    /// fused frame in progress keeps the staged pipeline idle, so the
    /// fast path stays engaged across partial deliveries).
    fn fused_rx_ready(&self) -> bool {
        self.fused_enabled
            && self.cfg.rx_en
            && !self.cfg.loopback
            && self.wire_in.is_empty()
            && self.rx.idle()
    }

    /// Receive twin of [`P5::offer_frame`]: take up to `max_bytes` wire
    /// octets from `input`, delineated in bulk in plain duty
    /// ([`P5::fused_ingest_wire`]) and queued for the staged receiver's
    /// clock in cycle-model duty.  Returns the octets taken.
    pub fn ingest_wire(&mut self, input: &mut WireBuf, max_bytes: usize) -> usize {
        if input.is_empty() {
            return 0;
        }
        match self.fused_ingest_wire(input, max_bytes) {
            Some(n) => n,
            None => self.wire_in.move_from(input, max_bytes),
        }
    }

    /// Does the cycle model hold work that only [`P5::clock`] moves —
    /// staged frames in either pipeline, or wire octets waiting for the
    /// staged receiver?  Never true in plain duty for a device fed
    /// through [`P5::offer_frame`] and [`P5::ingest_wire`].
    pub fn needs_clock(&self) -> bool {
        !self.tx.idle() || !self.rx.idle() || !self.wire_in.is_empty()
    }

    /// Fused delineate → destuff → FCS-check → deliver fast path: scans
    /// up to `max_bytes` wire octets from `input` in one pass (the byte
    /// sorter, [`destuff_run`], destuffs each run eight octets per step
    /// and stops at the flag that ends it), validates complete frames with
    /// the persistent slicing engine and delivers them through the same
    /// classification tail — counters, OAM mirror, interrupts and trace
    /// events — as the staged receiver.
    ///
    /// Returns `None` without consuming anything when the fast path is
    /// not eligible (cycle-model duty, or the staged receiver still
    /// holds work).  Callers that must work in either duty use
    /// [`P5::ingest_wire`].
    pub fn fused_ingest_wire(&mut self, input: &mut WireBuf, max_bytes: usize) -> Option<usize> {
        self.refresh_cfg();
        if !self.fused_rx_ready() {
            return None;
        }
        let budget = input.len().min(max_bytes);
        let bytes = &input.as_slice()[..budget];
        let cap = self.rx.control.max_body + self.fused.fcs.len();
        let mut frames_closed = 0u64;
        let mut i = 0;
        while i < budget {
            if bytes[i] == FLAG {
                i += 1;
                if std::mem::take(&mut self.fused.rx_esc_pending) {
                    // RFC 1662 abort sequence: 7D 7E.
                    self.close_fused_frame(true);
                    frames_closed += 1;
                } else if self.fused.rx_in_frame {
                    self.close_fused_frame(false);
                    frames_closed += 1;
                } else {
                    // Idle fill: this flag and the rest of its run,
                    // counted a word at a time.  A flag that closes a
                    // frame never gets here, so two frames sharing one
                    // flag pay nothing for it.
                    let run = flag_run(&bytes[i..]);
                    self.rx.escape.idle_flags += 1 + run as u64;
                    i += run;
                }
                continue;
            }
            // Everything up to the next flag, destuffed by the byte
            // sorter in one pass, capped at the giant limit.
            self.fused.rx_in_frame = true;
            let run = destuff_run(
                &bytes[i..],
                &mut self.fused.rx_esc_pending,
                &mut self.fused.rx_acc,
                cap,
            );
            self.fused.rx_overrun |= run.overrun;
            self.rx.escape.escapes_removed += run.escapes as u64;
            i += run.consumed;
        }
        input.consume(i);
        self.rx.escape.frames_delineated += frames_closed;
        if self.trace_enabled && (frames_closed > 0 || i > 0) {
            self.trace_tick(None);
        }
        self.sync_oam();
        Some(i)
    }

    /// A closing flag (or abort sequence) ended the fused frame: run the
    /// FCS check over the accumulated body and hand it to the shared
    /// classification tail.
    fn close_fused_frame(&mut self, abort: bool) {
        self.fused.rx_in_frame = false;
        let overrun = std::mem::take(&mut self.fused.rx_overrun);
        let verdict = if abort || overrun {
            // The verdict is never consulted on these paths (and the
            // staged CRC unit's would be over different truncated
            // bytes), so skip the computation entirely.
            None
        } else {
            self.fused.rx_engine.as_mut().map(|e| {
                e.reset();
                e.update(&self.fused.rx_acc);
                e.residue() == e.params().good_residue
            })
        };
        self.rx
            .control
            .classify(&self.fused.rx_acc, abort, overrun, verdict);
        self.fused.rx_acc.clear();
    }

    /// Turn this cycle's unit-counter deltas into lifecycle events.  The
    /// pipeline is strictly in order per direction, so FIFO id queues
    /// carry each frame's identity from stage to stage.
    fn trace_tick(&mut self, wire: Option<Word>) {
        let cycle = self.cycles;
        while self.trace.last_frames_sent < self.tx.control.frames_sent {
            self.trace.last_frames_sent += 1;
            let id = self.trace.tx_ids.pop_front().unwrap_or(0);
            self.trace.framed_ids.push_back(id);
            self.sink.record(Event {
                cycle,
                kind: EventKind::Framed { id },
            });
        }
        while self.trace.last_frames_stuffed < self.tx.escape.frames_stuffed {
            self.trace.last_frames_stuffed += 1;
            let id = self.trace.framed_ids.pop_front().unwrap_or(0);
            self.trace.stuffed_ids.push_back(id);
            self.sink.record(Event {
                cycle,
                kind: EventKind::Stuffed { id },
            });
        }
        // The wire leaves word-at-a-time; a flag closing a frame (any
        // flag after non-flag bytes — stuffing guarantees no payload
        // flags) marks the frame's last byte on the wire.
        if let Some(w) = wire {
            for &b in w.lanes() {
                if b != FLAG {
                    self.trace.wire_in_frame = true;
                } else if self.trace.wire_in_frame {
                    self.trace.wire_in_frame = false;
                    let id = self.trace.stuffed_ids.pop_front().unwrap_or(0);
                    self.sink.record(Event {
                        cycle,
                        kind: EventKind::Wire { id },
                    });
                }
            }
        }
        while self.trace.last_frames_delineated < self.rx.escape.frames_delineated {
            self.trace.last_frames_delineated += 1;
            self.trace.rx_seq += 1;
            let id = self.trace.rx_seq;
            self.trace.rx_pending.push_back(id);
            self.sink.record(Event {
                cycle,
                kind: EventKind::Delineated { id },
            });
        }
        let c = *self.rx.counters();
        let prev = self.trace.last_rx;
        if c == prev {
            return;
        }
        let new_ok = (c.frames_ok - prev.frames_ok) as usize;
        if new_ok > 0 {
            let queued = self.rx.control.queued_frames();
            let lens: Vec<u32> = queued
                .iter()
                .skip(queued.len().saturating_sub(new_ok))
                .map(|f| f.payload.len() as u32)
                .collect();
            for len in lens {
                let id = self.trace.rx_pending.pop_front().unwrap_or(0);
                self.sink.record(Event {
                    cycle,
                    kind: EventKind::CrcVerdict { id, ok: true },
                });
                self.sink.record(Event {
                    cycle,
                    kind: EventKind::Delivered { id, len },
                });
            }
        }
        for _ in prev.fcs_errors..c.fcs_errors {
            let id = self.trace.rx_pending.pop_front().unwrap_or(0);
            self.sink.record(Event {
                cycle,
                kind: EventKind::CrcVerdict { id, ok: false },
            });
        }
        // Non-CRC defect classes consume the pending id silently so the
        // FIFO stays aligned with the wire.
        for _ in 0..(c.errors() - prev.errors()).saturating_sub(c.fcs_errors - prev.fcs_errors) {
            self.trace.rx_pending.pop_front();
        }
        self.trace.last_rx = c;
    }

    /// Run `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.clock();
        }
    }

    /// Clock until both directions drain (or the cycle budget runs out).
    /// Returns cycles consumed.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycles;
        while self.needs_clock() {
            self.clock();
            assert!(
                self.cycles - start < max_cycles,
                "P5 failed to drain within {max_cycles} cycles"
            );
        }
        self.cycles - start
    }

    /// Mirror datapath state into the OAM registers and fire interrupts.
    fn sync_oam(&mut self) {
        let image = OamSyncedImage {
            tx_busy: !self.tx.idle(),
            rx_in_frame: self.rx.escape.occupancy() > 0 || !self.rx.control.idle(),
            counters: *self.rx.counters(),
            tx_frames: self.tx.control.frames_sent,
            tx_rejects: self.tx.control.submit_rejects,
        };
        // Steady-state early-out: when none of the mirrored signals
        // moved there is nothing to store and no interrupt edge.
        let prev = std::mem::replace(&mut self.synced, image);
        if image == prev {
            return;
        }
        let c = image.counters;
        self.oam.publish(
            u32::from(image.tx_busy) | u32::from(image.rx_in_frame) << 1,
            [
                image.tx_frames as u32,
                c.frames_ok as u32,
                c.fcs_errors as u32,
                c.aborts as u32,
                c.runts as u32,
                c.giants as u32,
                c.address_mismatches as u32,
                c.header_errors as u32,
                image.tx_rejects as u32,
            ],
        );
        if c.frames_ok > prev.counters.frames_ok {
            self.oam.raise(Interrupt::RxFrame);
        }
        if c.errors() > prev.counters.errors() {
            self.oam.raise(Interrupt::RxError);
        }
        if prev.tx_busy && !image.tx_busy {
            self.oam.raise(Interrupt::TxDone);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oam::{regs, rx_errors, MmioBus, Oam};

    // A fleet link holds two devices inline; what a device owns beyond
    // this is heap it grows into, and none of it is a lookup table
    // (measured 2592 B).
    const _: () = assert!(std::mem::size_of::<P5>() <= 3072);

    /// Two P⁵s wired back-to-back over a perfect wire.
    fn link_pair(width: DatapathWidth) -> (P5, P5) {
        (P5::new(width), P5::new(width))
    }

    fn shuttle(a: &mut P5, b: &mut P5, cycles: u64) {
        for _ in 0..cycles {
            a.clock();
            b.clock();
            let w = a.take_wire_out();
            b.put_wire_in(&w);
            let w = b.take_wire_out();
            a.put_wire_in(&w);
        }
    }

    #[test]
    fn loopback_delivers_datagrams_w32() {
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 50 + i as usize]).collect();
        for p in &payloads {
            a.submit(0x0021, p.clone()).unwrap();
        }
        shuttle(&mut a, &mut b, 2000);
        let got = b.take_received();
        assert_eq!(got.len(), 5);
        for (f, p) in got.iter().zip(&payloads) {
            assert_eq!(&f.payload, p);
            assert_eq!(f.protocol, 0x0021);
        }
        assert_eq!(b.rx_counters().fcs_errors, 0);
    }

    #[test]
    fn loopback_delivers_datagrams_w8() {
        let (mut a, mut b) = link_pair(DatapathWidth::W8);
        a.submit(0x0057, b"ipv6 over the byte pipe".to_vec())
            .unwrap();
        shuttle(&mut a, &mut b, 2000);
        let got = b.take_received();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].protocol, 0x0057);
    }

    #[test]
    fn fused_tx_wire_bytes_match_staged() {
        for width in [DatapathWidth::W8, DatapathWidth::W32] {
            let payloads: Vec<Vec<u8>> = vec![
                b"plain".to_vec(),
                vec![0x7E, 0x7D, 0x20, 0x00, 0x7E],
                (0..=255).collect(),
            ];
            let mut staged = P5::new(width);
            staged.fused_enabled = false;
            for p in &payloads {
                staged.submit(0x0021, p.clone()).unwrap();
            }
            staged.run_until_idle(100_000);
            let mut fused = P5::new(width);
            for p in &payloads {
                assert!(fused.fused_submit_wire(0x0021, p, 0), "fast path eligible");
            }
            assert_eq!(fused.take_wire_out(), staged.take_wire_out());
            assert_eq!(fused.tx.control.frames_sent, 3);
            assert_eq!(fused.tx.escape.frames_stuffed, 3);
            assert_eq!(
                fused.tx.escape.escapes_inserted,
                staged.tx.escape.escapes_inserted
            );
        }
    }

    #[test]
    fn fused_rx_delivers_what_fused_tx_sends() {
        for width in [DatapathWidth::W8, DatapathWidth::W32] {
            let payloads: Vec<Vec<u8>> = vec![
                b"datagram one".to_vec(),
                vec![0x7E, 0x7D, 0x20, 0x00],
                (0..=255).collect(),
            ];
            let mut tx = P5::new(width);
            let mut rx = P5::new(width);
            for p in &payloads {
                assert!(tx.fused_submit_wire(0x0021, p, 0));
            }
            let mut wire = WireBuf::new();
            tx.drain_wire_into(&mut wire);
            let n = wire.len();
            assert_eq!(rx.fused_ingest_wire(&mut wire, usize::MAX), Some(n));
            let got = rx.take_received();
            assert_eq!(
                got.len(),
                payloads.len(),
                "counters: {:?}",
                rx.rx_counters()
            );
            for (f, p) in got.iter().zip(&payloads) {
                assert_eq!(f.protocol, 0x0021);
                assert_eq!(&f.payload, p);
            }
            assert_eq!(rx.rx_counters().fcs_errors, 0);
        }
    }

    #[test]
    fn fused_rx_agrees_with_staged_rx_on_the_same_wire() {
        let mut tx = P5::new(DatapathWidth::W32);
        for i in 0..8u8 {
            tx.submit(0x8021, vec![i ^ 0x7E; 3 + i as usize]).unwrap();
        }
        tx.run_until_idle(100_000);
        let wire = tx.take_wire_out();

        let mut staged = P5::new(DatapathWidth::W32);
        staged.fused_enabled = false;
        staged.put_wire_in(&wire);
        staged.run_until_idle(100_000);
        let mut fused = P5::new(DatapathWidth::W32);
        let mut buf = WireBuf::new();
        buf.push_slice(&wire);
        fused.fused_ingest_wire(&mut buf, usize::MAX);

        let s = staged.take_received();
        let f = fused.take_received();
        assert_eq!(s.len(), 8);
        assert_eq!(s.len(), f.len());
        for (a, b) in s.iter().zip(&f) {
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.payload, b.payload);
        }
        assert_eq!(staged.rx_counters(), fused.rx_counters());
        assert_eq!(
            staged.rx.escape.frames_delineated,
            fused.rx.escape.frames_delineated
        );
        assert_eq!(
            staged.rx.escape.escapes_removed,
            fused.rx.escape.escapes_removed
        );
    }

    #[test]
    fn widths_produce_identical_wire_bytes() {
        let mut w8 = P5::new(DatapathWidth::W8);
        let mut w32 = P5::new(DatapathWidth::W32);
        for p in [&b"alpha"[..], &[0x7E, 0x7D, 0x00, 0x7E][..], &b"omega"[..]] {
            w8.submit(0x0021, p.to_vec()).unwrap();
            w32.submit(0x0021, p.to_vec()).unwrap();
        }
        w8.run_until_idle(100_000);
        w32.run_until_idle(100_000);
        assert_eq!(w8.take_wire_out(), w32.take_wire_out());
    }

    #[test]
    fn required_clock_is_78_mhz_for_both() {
        assert_eq!(DatapathWidth::W8.required_clock_hz(), 78_125_000);
        assert_eq!(DatapathWidth::W32.required_clock_hz(), 78_125_000);
    }

    #[test]
    fn interrupts_fire_on_rx_frame_and_error() {
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        let mut bus = Oam::new(b.oam.clone());
        bus.write(
            regs::INT_ENABLE,
            Interrupt::RxFrame as u32 | Interrupt::RxError as u32,
        );
        a.submit(0x0021, b"ding".to_vec()).unwrap();
        shuttle(&mut a, &mut b, 500);
        let pending = bus.read(regs::INT_PENDING);
        assert_eq!(pending, Interrupt::RxFrame as u32, "{pending:#x}");
        assert!(b.oam.irq_asserted());
        assert_eq!(bus.read(regs::RX_FRAMES), 1);
        bus.write(regs::INT_PENDING, pending);
        assert_eq!(bus.read(regs::INT_PENDING), 0, "acknowledged");
        assert!(!b.oam.irq_asserted());

        // Now a corrupted frame.
        a.submit(0x0021, b"to be broken".to_vec()).unwrap();
        a.run_until_idle(10_000);
        let mut wire = a.take_wire_out();
        wire[5] ^= 0x10;
        b.put_wire_in(&wire);
        b.run(500);
        assert_eq!(bus.read(regs::FCS_ERRORS), 1);
        assert!(b.oam.irq_asserted());
    }

    #[test]
    fn diagnostic_loopback_delivers_locally_and_isolates_the_phy() {
        // Flags and escapes exercise the stuffing units on the way round.
        let pattern: Vec<u8> = (0u16..256)
            .map(|i| match i % 5 {
                0 => 0x7E,
                1 => 0x7D,
                _ => (i * 7) as u8,
            })
            .collect();
        for width in [DatapathWidth::W8, DatapathWidth::W32] {
            let mut dev = P5::new(width);
            let mut bus = Oam::new(dev.oam.clone());
            bus.write(regs::CTRL, bus.read(regs::CTRL) | ctrl::LOOPBACK);
            dev.submit(0x0021, pattern.clone()).unwrap();
            dev.run_until_idle(1_000_000);
            dev.clock();
            assert!(dev.take_wire_out().is_empty(), "nothing may reach the PHY");
            let got = dev.take_received();
            assert_eq!(got.len(), 1, "width {width:?}");
            assert_eq!(got[0].payload, pattern, "width {width:?}");
            assert_eq!(bus.read(regs::TX_FRAMES), 1, "width {width:?}");
            assert_eq!(bus.read(regs::RX_FRAMES), 1, "width {width:?}");
            assert_eq!(rx_errors(&bus), 0, "width {width:?}");
        }
    }

    #[test]
    fn reprogramming_address_takes_effect() {
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        let mut a_bus = Oam::new(a.oam.clone());
        let mut b_bus = Oam::new(b.oam.clone());
        // Switch both stations to MAPOS address 0x05.
        a_bus.write(regs::ADDRESS, 0x05);
        b_bus.write(regs::ADDRESS, 0x05);
        a.submit(0x0021, b"mapos frame".to_vec()).unwrap();
        shuttle(&mut a, &mut b, 500);
        let got = b.take_received();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].address, 0x05);
        assert_eq!(b.rx_counters().address_mismatches, 0);
    }

    #[test]
    fn disabled_receiver_ignores_wire() {
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        let mut bus = Oam::new(b.oam.clone());
        bus.write(regs::CTRL, ctrl::TX_ENABLE); // rx disabled
        a.submit(0x0021, b"unheard".to_vec()).unwrap();
        shuttle(&mut a, &mut b, 500);
        assert!(b.take_received().is_empty());
    }

    #[test]
    fn tx_done_interrupt_on_drain() {
        let mut a = P5::new(DatapathWidth::W32);
        let mut bus = Oam::new(a.oam.clone());
        bus.write(regs::INT_ENABLE, Interrupt::TxDone as u32);
        a.submit(0x0021, vec![0u8; 64]).unwrap();
        a.run_until_idle(10_000);
        a.clock();
        assert!(a.oam.irq_asserted());
    }

    #[test]
    fn throughput_approaches_width_bytes_per_cycle() {
        // The headline claim: the 32-bit system processes 32 bits every
        // clock cycle (escape-free traffic).
        let mut p = P5::new(DatapathWidth::W32);
        let payload = vec![0x55u8; 1500];
        for _ in 0..20 {
            p.submit(0x0021, payload.clone()).unwrap();
        }
        let cycles = p.run_until_idle(200_000);
        let wire = p.take_wire_out();
        let bpc = wire.len() as f64 / cycles as f64;
        assert!(bpc > 3.5, "bytes/cycle {bpc} too far below 4");
    }

    #[test]
    fn bounded_submit_backpressures_and_counts_rejects() {
        let mut a = P5::new(DatapathWidth::W32);
        a.tx.control.queue_depth = 4;
        for i in 0..4u8 {
            a.submit(0x0021, vec![i; 8]).unwrap();
        }
        let err = a.submit(0x0021, vec![9; 8]).unwrap_err();
        assert_eq!(err.0.payload, vec![9; 8], "descriptor handed back");
        assert_eq!(a.tx.control.submit_rejects, 1);
        assert_eq!(a.tx.control.stats.rejects, 1);
        a.clock();
        let bus = Oam::new(a.oam.clone());
        assert_eq!(bus.read(regs::TX_REJECTS), 1);
        // Once the queue drains, submissions are accepted again.
        a.run_until_idle(10_000);
        a.submit(0x0021, vec![1]).unwrap();
    }

    #[test]
    fn take_wire_out_reuses_recycled_capacity() {
        let mut a = P5::new(DatapathWidth::W32);
        assert!(
            a.take_wire_out().capacity() == 0,
            "empty take allocates nothing"
        );
        a.submit(0x0021, vec![0x42; 256]).unwrap();
        a.run_until_idle(10_000);
        let wire = a.take_wire_out();
        let cap = wire.capacity();
        assert!(cap >= 256);
        a.recycle_wire_vec(wire);
        a.submit(0x0021, vec![0x43; 256]).unwrap();
        a.run_until_idle(10_000);
        assert!(
            a.take_wire_out().capacity() >= cap,
            "recycled storage reused"
        );
    }

    #[test]
    fn trace_events_cover_the_frame_lifecycle() {
        use p5_stream::SharedRecorder;
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        let rec_a = SharedRecorder::with_capacity(256);
        let rec_b = SharedRecorder::with_capacity(256);
        a.set_trace(Box::new(rec_a.clone()));
        b.set_trace(Box::new(rec_b.clone()));
        a.submit(0x0021, vec![0x11; 40]).unwrap();
        shuttle(&mut a, &mut b, 500);

        let names = |evs: &[Event]| evs.iter().map(|e| e.kind.name()).collect::<Vec<_>>();
        let evs_a = rec_a.events();
        assert_eq!(names(&evs_a), ["submit", "framed", "stuffed", "wire"]);
        assert!(evs_a.iter().all(|e| e.kind.frame_id() == Some(1)));
        assert!(
            evs_a.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "lifecycle cycles must be monotone: {evs_a:?}"
        );

        let evs_b = rec_b.events();
        assert_eq!(names(&evs_b), ["delineated", "crc_verdict", "delivered"]);
        match evs_b.last().unwrap().kind {
            EventKind::Delivered { id, len } => {
                assert_eq!(id, 1);
                assert_eq!(len, 40);
            }
            other => panic!("expected Delivered, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_frame_traces_a_failed_crc_verdict() {
        use p5_stream::SharedRecorder;
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        let rec = SharedRecorder::with_capacity(64);
        b.set_trace(Box::new(rec.clone()));
        a.submit(0x0021, b"to be broken".to_vec()).unwrap();
        a.run_until_idle(10_000);
        let mut wire = a.take_wire_out();
        wire[5] ^= 0x10;
        b.put_wire_in(&wire);
        b.run(500);
        let evs = rec.events();
        assert!(evs
            .iter()
            .any(|e| matches!(e.kind, EventKind::CrcVerdict { ok: false, .. })));
        assert!(!evs
            .iter()
            .any(|e| matches!(e.kind, EventKind::Delivered { .. })));
    }

    #[test]
    fn oam_bus_writes_become_trace_events() {
        use p5_stream::SharedRecorder;
        let mut a = P5::new(DatapathWidth::W32);
        let rec = SharedRecorder::with_capacity(16);
        a.set_trace(Box::new(rec.clone()));
        let mut bus = Oam::new(a.oam.clone());
        bus.write(regs::ADDRESS, 0x05);
        a.clock();
        assert!(rec.events().iter().any(|e| matches!(
            e.kind,
            EventKind::OamWrite {
                addr: regs::ADDRESS,
                value: 0x05
            }
        )));
    }

    #[test]
    fn tracing_is_off_by_default_and_null_sink_records_nothing() {
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        assert!(!a.trace_enabled);
        a.set_trace(Box::new(NullSink));
        assert!(!a.trace_enabled);
        a.submit(0x0021, vec![0x22; 16]).unwrap();
        shuttle(&mut a, &mut b, 500);
        assert_eq!(b.take_received().len(), 1);
    }

    #[test]
    fn duplex_traffic_both_directions() {
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        a.submit(0x0021, b"a to b".to_vec()).unwrap();
        b.submit(0x0021, b"b to a".to_vec()).unwrap();
        shuttle(&mut a, &mut b, 1000);
        assert_eq!(b.take_received()[0].payload, b"a to b");
        assert_eq!(a.take_received()[0].payload, b"b to a");
    }

    #[test]
    fn pop_received_hands_frames_over_oldest_first() {
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        for tag in 1..=3u8 {
            a.submit(0x0021, vec![tag; 8]).unwrap();
        }
        shuttle(&mut a, &mut b, 1000);
        assert_eq!(b.pop_received().map(|f| f.payload), Some(vec![1; 8]));
        assert_eq!(b.pop_received().map(|f| f.payload), Some(vec![2; 8]));
        // The batch form sees exactly what the single form left behind.
        let rest = b.take_received();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].payload, vec![3; 8]);
        assert!(b.pop_received().is_none());
    }

    #[test]
    fn max_body_register_is_live() {
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        let mut bus = Oam::new(b.oam.clone());
        // Default MAX_BODY (1504) passes a 64-byte body.
        a.submit(0x0021, vec![1; 64]).unwrap();
        shuttle(&mut a, &mut b, 1000);
        assert_eq!(b.take_received().len(), 1);
        assert_eq!(bus.read(regs::GIANTS), 0);
        // Shrink the MRU over the bus: the next 64-byte frame must be
        // discarded as a giant (§13.4 — the register is live, not a
        // construction-time constant).
        bus.write(regs::MAX_BODY, 32);
        a.submit(0x0021, vec![2; 64]).unwrap();
        shuttle(&mut a, &mut b, 1000);
        assert!(b.take_received().is_empty(), "frame above MRU delivered");
        assert_eq!(bus.read(regs::GIANTS), 1);
        // Restore: traffic flows again.
        bus.write(regs::MAX_BODY, 1504);
        a.submit(0x0021, vec![3; 64]).unwrap();
        shuttle(&mut a, &mut b, 1000);
        assert_eq!(b.take_received().len(), 1);
    }

    #[test]
    fn oam_error_registers_mirror_the_snapshot_counters() {
        use p5_stream::Observable;
        let (mut a, mut b) = link_pair(DatapathWidth::W32);
        for i in 0..20u8 {
            a.submit(0x0021, vec![i; 40]).unwrap();
        }
        a.run_until_idle(1_000_000);
        let mut wire = a.take_wire_out();
        // Flip a bit every 50 wire bytes: several frames arrive broken
        // (some flips hit flags and produce runts/aborts instead — the
        // mirror must hold for the whole error family).
        for i in (25..wire.len()).step_by(50) {
            wire[i] ^= 0x04;
        }
        b.put_wire_in(&wire);
        b.run_until_idle(1_000_000);
        let bus = Oam::new(b.oam.clone());
        assert!(bus.read(regs::FCS_ERRORS) > 0, "corruption must be counted");
        let snap = Observable::snapshot(&b.rx);
        for (reg, name) in [
            (regs::FCS_ERRORS, "fcs_errors"),
            (regs::ABORTS, "aborts"),
            (regs::RUNTS, "runts"),
            (regs::GIANTS, "giants"),
            (regs::RX_FRAMES, "frames_ok"),
        ] {
            assert_eq!(
                snap.get(name),
                Some(u64::from(bus.read(reg))),
                "OAM and Snapshot views of `{name}` diverged"
            );
        }
    }
}
