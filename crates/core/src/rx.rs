//! The P⁵ receiver (Figure 4): Escape Detect → CRC → Control, the mirror
//! image of the transmitter, including the Figure 6 "bubble" compaction
//! performed by the byte sorter.

use crate::delay::DelayLine;
use crate::stager::ByteStager;
use crate::word::Word;
use p5_crc::{CrcEngine, EngineKind, FcsEngine};
use p5_hdlc::{FcsMode, ESCAPE, ESCAPE_XOR, FLAG};
use p5_stream::{BufPool, StageStats};
use std::collections::VecDeque;

/// A frame delivered to shared memory by the receive control unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedFrame {
    pub address: u8,
    pub control: u8,
    pub protocol: u16,
    pub payload: Vec<u8>,
}

/// Receive-side error tallies (OAM counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxCounters {
    pub frames_ok: u64,
    pub fcs_errors: u64,
    pub aborts: u64,
    pub runts: u64,
    pub giants: u64,
    pub address_mismatches: u64,
    pub header_errors: u64,
}

impl RxCounters {
    /// Total defective frames across every error class.
    pub fn errors(&self) -> u64 {
        self.fcs_errors
            + self.aborts
            + self.runts
            + self.giants
            + self.address_mismatches
            + self.header_errors
    }

    /// Accumulate another receiver's counters (link and fleet merges).
    pub fn add(&mut self, o: &RxCounters) {
        self.frames_ok += o.frames_ok;
        self.fcs_errors += o.fcs_errors;
        self.aborts += o.aborts;
        self.runts += o.runts;
        self.giants += o.giants;
        self.address_mismatches += o.address_mismatches;
        self.header_errors += o.header_errors;
    }
}

impl p5_stream::Observable for RxCounters {
    fn snapshot(&self) -> p5_stream::Snapshot {
        p5_stream::Snapshot::new("rx-counters")
            .counter("frames_ok", self.frames_ok)
            .counter("fcs_errors", self.fcs_errors)
            .counter("aborts", self.aborts)
            .counter("runts", self.runts)
            .counter("giants", self.giants)
            .counter("address_mismatches", self.address_mismatches)
            .counter("header_errors", self.header_errors)
    }
}

/// The Escape Detect unit — the paper's Figure 6 problem.
///
/// Wire words arrive at full rate; escape octets are deleted and the
/// following byte XORed, which opens "bubbles" in the stream.  Deleted
/// bytes are compacted through the staging store so downstream sees
/// dense frame words again.  Flags delineate frames; `0x7D 0x7E` aborts.
#[derive(Debug)]
pub struct EscapeDetect {
    width: usize,
    stager: ByteStager,
    in_frame: bool,
    esc_pending: bool,
    sof_pending: bool,
    delay: DelayLine,
    pub stats: StageStats,
    /// Escape sequences removed.
    pub escapes_removed: u64,
    /// Idle flag octets discarded between frames.
    pub idle_flags: u64,
    /// Frames delineated (closing flag or abort seen on the wire).
    pub frames_delineated: u64,
}

impl EscapeDetect {
    pub fn pipe_stages(width: usize) -> usize {
        if width >= 4 {
            4
        } else {
            1
        }
    }

    pub fn new(width: usize, buffer_capacity: usize) -> Self {
        assert!(buffer_capacity >= width + 2);
        let stages = Self::pipe_stages(width);
        Self {
            width,
            stager: ByteStager::new(buffer_capacity),
            in_frame: false,
            esc_pending: false,
            sof_pending: false,
            delay: DelayLine::new(stages - 1),
            stats: StageStats::default(),
            escapes_removed: 0,
            idle_flags: 0,
            frames_delineated: 0,
        }
    }

    pub fn default_capacity(width: usize) -> usize {
        4 * width + 4
    }

    /// Can absorb one more wire word (≤ width bytes + an End strobe).
    pub fn ready(&self) -> bool {
        self.stager.free() > self.width
    }

    pub fn occupancy(&self) -> usize {
        self.stager.occupancy()
    }

    pub fn idle(&self) -> bool {
        self.stager.is_empty() && self.delay.is_clear()
    }

    pub fn clock(&mut self, input: Option<Word>, out_ready: bool) -> Option<Word> {
        self.stats.cycles += 1;
        if let Some(w) = input {
            self.stats.words_in += 1;
            for &b in w.lanes() {
                if b == FLAG {
                    if self.esc_pending {
                        // Escape then flag: transmitter abort.
                        self.stager.push_end(true);
                        self.esc_pending = false;
                        self.in_frame = false;
                        self.frames_delineated += 1;
                    } else if self.in_frame {
                        self.stager.push_end(false);
                        self.in_frame = false;
                        self.frames_delineated += 1;
                    } else {
                        self.idle_flags += 1;
                    }
                } else {
                    if !self.in_frame {
                        self.in_frame = true;
                        self.sof_pending = true;
                    }
                    if self.esc_pending {
                        self.esc_pending = false;
                        self.escapes_removed += 1;
                        self.stager
                            .push_byte(b ^ ESCAPE_XOR, self.sof_pending, false);
                        self.sof_pending = false;
                    } else if b == ESCAPE {
                        self.esc_pending = true;
                    } else {
                        self.stager.push_byte(b, self.sof_pending, false);
                        self.sof_pending = false;
                    }
                }
            }
            self.stats.note_occupancy(self.stager.occupancy());
        }
        if !out_ready {
            return None;
        }
        let fresh = self.stager.pop_word(self.width, false);
        if fresh.is_none() {
            self.stats.bubble_cycles += 1;
        }
        let out = self.delay.shift(fresh);
        if let Some(w) = &out {
            self.stats.words_out += 1;
            self.stats.bytes_out += w.len as u64;
        }
        out
    }
}

/// Receive CRC unit: recomputes the FCS over everything between the
/// flags (body + received FCS) and annotates the `eof` word with the
/// magic-residue verdict.
#[derive(Debug)]
pub struct RxCrc {
    fcs: FcsMode,
    engine: Option<FcsEngine>,
    /// Two-deep register (decouples input acceptance from output
    /// readiness).
    regs: VecDeque<Word>,
    pub stats: StageStats,
}

impl RxCrc {
    pub fn new(width: usize, fcs: FcsMode) -> Self {
        let engine =
            crate::tx::fcs_params(fcs).map(|p| FcsEngine::new(EngineKind::default(), p, width));
        Self {
            fcs,
            engine,
            regs: VecDeque::with_capacity(2),
            stats: StageStats::default(),
        }
    }

    pub fn ready(&self) -> bool {
        self.regs.len() < 2
    }

    pub fn idle(&self) -> bool {
        self.regs.is_empty()
    }

    pub fn clock(&mut self, input: Option<Word>, out_ready: bool) -> Option<Word> {
        self.stats.cycles += 1;
        let out = if out_ready {
            self.regs.pop_front()
        } else {
            None
        };
        if let Some(mut w) = input {
            self.stats.words_in += 1;
            if w.sof {
                if let Some(e) = &mut self.engine {
                    e.reset();
                }
            }
            if let Some(e) = &mut self.engine {
                e.update_word(w.lanes());
            }
            if w.eof && !w.abort {
                w.crc_ok = Some(match (&self.engine, self.fcs) {
                    (Some(e), _) => e.residue() == e.params().good_residue,
                    (None, _) => true,
                });
            }
            self.regs.push_back(w);
        }
        if let Some(w) = &out {
            self.stats.words_out += 1;
            self.stats.bytes_out += w.len as u64;
        }
        out
    }
}

/// Receive control unit: accumulates frame words, strips and validates
/// the header against the programmable address register, bounds frame
/// length, and delivers good payloads to shared memory while tallying
/// every defect class.
#[derive(Debug)]
pub struct RxControl {
    fcs: FcsMode,
    /// Programmable station address.
    pub address: u8,
    /// Accept any address (MAPOS switch port / diagnostics).
    pub promiscuous: bool,
    /// Maximum body length (header + payload, before FCS).
    pub max_body: usize,
    acc: Vec<u8>,
    overrun: bool,
    crc_verdict: Option<bool>,
    /// A SOF has been seen and the frame it opened has not finished:
    /// words arriving without it are post-reset/post-error stragglers
    /// and must not be reassembled into a phantom frame.
    in_frame: bool,
    /// Bytes discarded while hunting for the next SOF.
    pub resync_bytes_skipped: u64,
    out: VecDeque<ReceivedFrame>,
    /// Recycled storage for delivered payloads: this unit leases from
    /// it, so it owns it.
    pub(crate) pool: BufPool,
    pub counters: RxCounters,
    pub stats: StageStats,
}

impl RxControl {
    pub fn new(fcs: FcsMode, address: u8, max_body: usize) -> Self {
        Self {
            fcs,
            address,
            promiscuous: false,
            max_body,
            acc: Vec::new(),
            overrun: false,
            crc_verdict: None,
            in_frame: false,
            resync_bytes_skipped: 0,
            out: VecDeque::new(),
            pool: BufPool::new(),
            counters: RxCounters::default(),
            stats: StageStats::default(),
        }
    }

    pub fn ready(&self) -> bool {
        true // shared memory sink
    }

    pub fn idle(&self) -> bool {
        self.acc.is_empty()
    }

    /// Drain frames delivered to shared memory.
    pub fn take_frames(&mut self) -> Vec<ReceivedFrame> {
        self.out.drain(..).collect()
    }

    /// The oldest delivered frame, if any — [`RxControl::take_frames`]
    /// one frame at a time, without the `Vec`.
    pub fn pop_frame(&mut self) -> Option<ReceivedFrame> {
        self.out.pop_front()
    }

    /// Frames delivered but not yet drained by [`RxControl::take_frames`]
    /// (newest at the back) — lets a tracer stamp `Delivered` events with
    /// the frame length without consuming the queue.
    pub fn queued_frames(&self) -> &VecDeque<ReceivedFrame> {
        &self.out
    }

    pub fn clock(&mut self, input: Option<Word>) {
        self.stats.cycles += 1;
        let Some(w) = input else { return };
        self.stats.words_in += 1;
        if w.sof {
            self.acc.clear();
            self.overrun = false;
            self.in_frame = true;
        }
        if !self.in_frame {
            // Out of sync: the receiver is hunting for the next frame
            // start, so these lanes are discarded rather than copied
            // into the accumulator (they could only ever assemble into
            // a phantom frame).  An EOF still closes the hunt window so
            // the error is observable as a runt.
            self.resync_bytes_skipped += w.len as u64;
            if w.eof {
                self.crc_verdict = w.crc_ok;
                self.finish(w.abort);
            }
            return;
        }
        if self.acc.len() + w.len as usize > self.max_body + self.fcs.len() {
            self.overrun = true;
        } else {
            self.acc.extend_from_slice(w.lanes());
        }
        if w.eof {
            self.crc_verdict = w.crc_ok;
            self.finish(w.abort);
        }
    }

    fn finish(&mut self, abort: bool) {
        self.in_frame = false;
        let body = std::mem::take(&mut self.acc);
        let overrun = std::mem::take(&mut self.overrun);
        let verdict = self.crc_verdict.take();
        self.classify(&body, abort, overrun, verdict);
        // Keep the accumulator's capacity for the next frame instead of
        // reallocating from zero.
        self.acc = body;
        self.acc.clear();
    }

    /// Sort one delineated body into a delivery or an error counter —
    /// the validation tail of the Control unit, shared verbatim by the
    /// staged pipeline and the fused fast path.
    pub(crate) fn classify(
        &mut self,
        body: &[u8],
        abort: bool,
        overrun: bool,
        verdict: Option<bool>,
    ) {
        if abort {
            self.counters.aborts += 1;
            return;
        }
        if overrun {
            self.counters.giants += 1;
            return;
        }
        let fcs_len = self.fcs.len();
        if body.len() < fcs_len.max(1) {
            self.counters.runts += 1;
            return;
        }
        if verdict == Some(false) {
            self.counters.fcs_errors += 1;
            return;
        }
        let body = &body[..body.len() - fcs_len];
        // Header: address, control, protocol (2-byte form — the datapath
        // leaves PFC to the host, as the paper's datapath does).
        if body.len() < 4 {
            self.counters.runts += 1;
            return;
        }
        let (addr, ctrl) = (body[0], body[1]);
        // The all-stations address 0xFF is always accepted (PPP default
        // and MAPOS broadcast), alongside the programmed station address.
        if addr != self.address && addr != 0xFF && !self.promiscuous {
            self.counters.address_mismatches += 1;
            return;
        }
        if ctrl != 0x03 {
            self.counters.header_errors += 1;
            return;
        }
        let protocol = u16::from_be_bytes([body[2], body[3]]);
        if protocol & 1 == 0 {
            self.counters.header_errors += 1;
            return;
        }
        self.counters.frames_ok += 1;
        self.stats.bytes_out += (body.len() - 4) as u64;
        self.stats.words_out += 1;
        let mut payload = self.pool.lease_vec();
        payload.extend_from_slice(&body[4..]);
        self.out.push_back(ReceivedFrame {
            address: addr,
            control: ctrl,
            protocol,
            payload,
        });
    }
}

/// The complete receiver: three stages plus inter-stage registers.
#[derive(Debug)]
pub struct RxPipeline {
    pub escape: EscapeDetect,
    pub crc: RxCrc,
    pub control: RxControl,
    latch_esc_crc: Option<Word>,
    latch_crc_ctl: Option<Word>,
    pub cycles: u64,
}

impl RxPipeline {
    pub fn new(width: usize, address: u8, fcs: FcsMode, max_body: usize) -> Self {
        Self {
            escape: EscapeDetect::new(width, EscapeDetect::default_capacity(width)),
            crc: RxCrc::new(width, fcs),
            control: RxControl::new(fcs, address, max_body),
            latch_esc_crc: None,
            latch_crc_ctl: None,
            cycles: 0,
        }
    }

    /// Can the receiver absorb one more wire word this cycle?
    pub fn ready(&self) -> bool {
        self.escape.ready()
    }

    pub fn idle(&self) -> bool {
        self.escape.idle()
            && self.crc.idle()
            && self.control.idle()
            && self.latch_esc_crc.is_none()
            && self.latch_crc_ctl.is_none()
    }

    pub fn take_frames(&mut self) -> Vec<ReceivedFrame> {
        self.control.take_frames()
    }

    pub fn counters(&self) -> &RxCounters {
        &self.control.counters
    }

    /// One clock with an optional incoming wire word.
    pub fn clock(&mut self, wire: Option<Word>) {
        self.cycles += 1;
        // Idle fast path: no wire word and nothing in flight anywhere.
        // Bumps exactly the counters the full sweep below would (each
        // stage's cycle count, plus the escape unit's bubble — its
        // stager pops nothing) and touches nothing else.
        if wire.is_none()
            && self.latch_esc_crc.is_none()
            && self.latch_crc_ctl.is_none()
            && self.escape.idle()
            && self.crc.idle()
        {
            self.control.stats.cycles += 1;
            self.crc.stats.cycles += 1;
            self.escape.stats.cycles += 1;
            self.escape.stats.bubble_cycles += 1;
            return;
        }
        // Sink → source.
        self.control.clock(self.latch_crc_ctl.take());
        let crc_out_ready = self.latch_crc_ctl.is_none();
        let crc_in = if self.crc.ready() {
            self.latch_esc_crc.take()
        } else {
            if self.latch_esc_crc.is_some() {
                self.crc.stats.stall_cycles += 1;
            }
            None
        };
        if let Some(w) = self.crc.clock(crc_in, crc_out_ready) {
            self.latch_crc_ctl = Some(w);
        }
        let esc_out_ready = self.latch_esc_crc.is_none();
        if !self.escape.ready() && wire.is_some() {
            self.escape.stats.stall_cycles += 1;
        }
        if let Some(w) = self.escape.clock(wire, esc_out_ready) {
            self.latch_esc_crc = Some(w);
        }
    }
}

impl p5_stream::Observable for RxPipeline {
    /// Whole-receiver view: delivery/defect counters, the destuffer's
    /// wire-level tallies, and per-unit flow stats under prefixed names.
    fn snapshot(&self) -> p5_stream::Snapshot {
        let mut s = p5_stream::Snapshot::new("rx-pipeline")
            .counter("cycles", self.cycles)
            .counter("frames_delineated", self.escape.frames_delineated)
            .counter("escapes_removed", self.escape.escapes_removed)
            .counter("idle_flags", self.escape.idle_flags);
        s.absorb(&self.control.counters.snapshot());
        for (prefix, stats) in [
            ("escape", &self.escape.stats),
            ("crc", &self.crc.stats),
            ("control", &self.control.stats),
        ] {
            for (name, value) in &stats.snapshot(prefix).counters {
                s.push_counter(format!("{prefix}_{name}"), *value);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed wire bytes into the receiver width bytes per cycle; drain.
    fn receive(width: usize, wire: &[u8]) -> (Vec<ReceivedFrame>, RxCounters) {
        let mut rx = RxPipeline::new(width, 0xFF, FcsMode::Fcs32, 4096);
        let mut frames = Vec::new();
        let mut chunks = wire.chunks(width);
        let mut budget = 10 * wire.len() + 100;
        loop {
            let input = if rx.ready() { chunks.next() } else { None };
            let done_feeding = input.is_none() && chunks.len() == 0;
            rx.clock(input.map(Word::data));
            frames.extend(rx.take_frames());
            budget -= 1;
            assert!(budget > 0, "receiver did not drain");
            if done_feeding && rx.idle() {
                break;
            }
        }
        (frames, rx.control.counters)
    }

    fn wire_for(payloads: &[&[u8]]) -> Vec<u8> {
        let mut framer = p5_hdlc::Framer::new(p5_hdlc::FramerConfig::default());
        let mut wire = Vec::new();
        for p in payloads {
            let mut body = vec![0xFF, 0x03, 0x00, 0x21];
            body.extend_from_slice(p);
            framer.encode_into(&body, &mut wire);
        }
        wire
    }

    #[test]
    fn receives_a_simple_frame_w32() {
        let wire = wire_for(&[b"hello receiver"]);
        let (frames, c) = receive(4, &wire);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"hello receiver");
        assert_eq!(frames[0].protocol, 0x0021);
        assert_eq!(c.frames_ok, 1);
    }

    #[test]
    fn receives_a_simple_frame_w8() {
        let wire = wire_for(&[b"byte wide"]);
        let (frames, _) = receive(1, &wire);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"byte wide");
    }

    #[test]
    fn figure6_case_escape_spanning_words() {
        // Escapes everywhere, including straddling word boundaries.
        let payload: Vec<u8> = vec![0x7E, 0x11, 0x7D, 0x22, 0x7E, 0x7E, 0x7D, 0x33];
        let wire = wire_for(&[&payload]);
        let (frames, c) = receive(4, &wire);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, payload);
        assert_eq!(c.fcs_errors, 0);
    }

    #[test]
    fn multiple_frames_with_idle_fill() {
        let mut wire = vec![0x7E; 10];
        wire.extend(wire_for(&[b"one", b"two", b"three"]));
        wire.extend(vec![0x7E; 7]);
        let (frames, c) = receive(4, &wire);
        assert_eq!(frames.len(), 3);
        assert_eq!(c.frames_ok, 3);
        assert_eq!(frames[2].payload, b"three");
    }

    #[test]
    fn corrupted_byte_counts_fcs_error() {
        let mut wire = wire_for(&[b"will be corrupted"]);
        wire[6] ^= 0x04;
        let (frames, c) = receive(4, &wire);
        assert!(frames.is_empty());
        assert_eq!(c.fcs_errors, 1);
    }

    #[test]
    fn abort_sequence_counts_abort() {
        let wire = vec![FLAG, 0x41, 0x42, 0x43, ESCAPE, FLAG];
        let (frames, c) = receive(4, &wire);
        assert!(frames.is_empty());
        assert_eq!(c.aborts, 1);
    }

    #[test]
    fn runt_counts() {
        let wire = vec![FLAG, 0x41, 0x42, FLAG];
        let (_, c) = receive(4, &wire);
        assert_eq!(c.runts, 1);
    }

    #[test]
    fn giant_counts_and_is_bounded() {
        let big = vec![0xAB; 3000];
        let wire = wire_for(&[&big]);
        let mut rx = RxPipeline::new(4, 0xFF, FcsMode::Fcs32, 1504);
        for chunk in wire.chunks(4) {
            while !rx.ready() {
                rx.clock(None);
            }
            rx.clock(Some(Word::data(chunk)));
        }
        for _ in 0..100 {
            rx.clock(None);
        }
        assert_eq!(rx.counters().giants, 1);
    }

    #[test]
    fn address_filtering_and_promiscuous() {
        // Frame addressed to MAPOS station 0x03.
        let mut framer = p5_hdlc::Framer::new(p5_hdlc::FramerConfig::default());
        let mut wire = Vec::new();
        framer.encode_into(&[0x03, 0x03, 0x00, 0x21, 0xAA], &mut wire);

        let (frames, c) = receive(4, &wire); // we are 0xFF
        assert!(frames.is_empty());
        assert_eq!(c.address_mismatches, 1);

        let mut rx = RxPipeline::new(4, 0xFF, FcsMode::Fcs32, 4096);
        rx.control.promiscuous = true;
        for chunk in wire.chunks(4) {
            rx.clock(Some(Word::data(chunk)));
        }
        for _ in 0..50 {
            rx.clock(None);
        }
        let frames = rx.take_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].address, 0x03);
    }

    #[test]
    fn bad_control_and_bad_protocol_count_header_errors() {
        let mut framer = p5_hdlc::Framer::new(p5_hdlc::FramerConfig::default());
        let mut wire = Vec::new();
        framer.encode_into(&[0xFF, 0x13, 0x00, 0x21, 0xAA], &mut wire); // bad ctrl
        framer.encode_into(&[0xFF, 0x03, 0x00, 0x20, 0xAA], &mut wire); // even proto
        let (frames, c) = receive(4, &wire);
        assert!(frames.is_empty());
        assert_eq!(c.header_errors, 2);
    }

    #[test]
    fn recovery_after_abort() {
        let mut wire = vec![FLAG, 0x11, 0x22, ESCAPE, FLAG];
        wire.extend(wire_for(&[b"good"]));
        let (frames, c) = receive(4, &wire);
        assert_eq!(c.aborts, 1);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"good");
    }

    #[test]
    fn detect_fill_latency_is_4_cycles_at_w32() {
        let mut esc = EscapeDetect::new(4, EscapeDetect::default_capacity(4));
        let w = Word::data(&[FLAG, 1, 2, 3]);
        let mut first = None;
        for cycle in 1..=10 {
            let input = if cycle == 1 {
                Some(w)
            } else if cycle == 2 {
                Some(Word::data(&[4, FLAG, FLAG, FLAG]))
            } else {
                None
            };
            if let Some(out) = esc.clock(input, true) {
                first = Some((cycle, out));
                break;
            }
        }
        let (cycle, out) = first.expect("no output");
        assert_eq!(cycle, 5, "4-stage pipe + 1 cycle to complete the word");
        assert_eq!(out.lanes(), &[1, 2, 3, 4]);
        assert!(out.sof && out.eof);
    }

    #[test]
    fn escapes_removed_counter() {
        let wire = wire_for(&[&[0x7E, 0x7D, 0x00][..]]);
        let mut rx = RxPipeline::new(4, 0xFF, FcsMode::Fcs32, 4096);
        for chunk in wire.chunks(4) {
            rx.clock(Some(Word::data(chunk)));
        }
        for _ in 0..50 {
            rx.clock(None);
        }
        assert_eq!(rx.escape.escapes_removed, 2);
        assert_eq!(rx.take_frames().len(), 1);
    }

    #[test]
    fn control_skips_accumulation_while_out_of_sync() {
        // Words that arrive without a SOF (receiver reset mid-frame,
        // upstream error recovery) must not be reassembled into a
        // phantom frame: the control unit hunts for the next SOF and
        // discards the stragglers.
        let mut ctl = RxControl::new(FcsMode::Fcs32, 0xFF, 4096);
        // A mid-frame tail with no SOF, closed by an EOF.
        ctl.clock(Some(Word::data(&[0xAA, 0xBB, 0xCC, 0xDD])));
        let mut tail = Word::data(&[0xEE, 0xFF]);
        tail.eof = true;
        tail.crc_ok = Some(true);
        ctl.clock(Some(tail));
        assert!(ctl.take_frames().is_empty(), "no phantom delivery");
        assert_eq!(ctl.resync_bytes_skipped, 6);
        assert_eq!(ctl.counters.runts, 1, "the hunt window closes as a runt");
        // The next properly-delineated frame is received normally.
        let mut body = vec![0xFF, 0x03, 0x00, 0x21, 0x42];
        let mut crc = p5_crc::Slice8Engine::new(p5_crc::FCS32);
        crc.update(&body);
        body.extend_from_slice(&p5_crc::fcs32_wire_bytes(crc.value()));
        let mut chunks = body.chunks(4).peekable();
        let mut first = true;
        while let Some(c) = chunks.next() {
            let mut w = Word::data(c);
            w.sof = first;
            first = false;
            if chunks.peek().is_none() {
                w.eof = true;
                w.crc_ok = Some(true);
            }
            ctl.clock(Some(w));
        }
        let got = ctl.take_frames();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, vec![0x42]);
        assert_eq!(ctl.counters.frames_ok, 1);
    }
}
