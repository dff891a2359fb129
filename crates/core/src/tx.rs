//! The P⁵ transmitter (Figure 3): Control/Data-path → CRC → Escape
//! Generate, each a registered pipeline stage with ready/valid
//! handshakes and the backpressure scheme of the paper.

use crate::delay::DelayLine;
use crate::stager::ByteStager;
use crate::word::Word;
use p5_crc::{CrcEngine, CrcParams, EngineKind, FcsEngine, FCS16, FCS32};
use p5_hdlc::{FcsMode, ESCAPE, ESCAPE_XOR, FLAG};
use p5_stream::{BufPool, StageStats};
use std::collections::VecDeque;

/// A frame awaiting transmission in shared memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxDescriptor {
    /// PPP protocol number (2-byte form).
    pub protocol: u16,
    /// The network-layer datagram.
    pub payload: Vec<u8>,
}

/// The shared-memory transmit queue was full; the descriptor is handed
/// back so the host can retry once the queue drains — this is the
/// host-facing face of the pipeline's backpressure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxQueueFull(pub TxDescriptor);

impl std::fmt::Display for TxQueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transmit queue full (frame of {} bytes refused)",
            self.0.payload.len()
        )
    }
}

impl std::error::Error for TxQueueFull {}

/// Transmit control unit: fetches descriptors from shared memory,
/// prepends the (programmable) address, control and protocol fields, and
/// streams the frame body one word per clock.
#[derive(Debug)]
pub struct TxControl {
    width: usize,
    /// Shared-memory transmit queue.
    queue: VecDeque<TxDescriptor>,
    /// Frame being streamed: (body bytes, next position).
    cur: Option<(Vec<u8>, usize)>,
    /// Programmable station address (OAM register; 0xFF default, other
    /// values for MAPOS).
    pub address: u8,
    /// Shared-memory queue bound: descriptors beyond this are refused
    /// (configurable; the hardware queue is a fixed BRAM).
    pub queue_depth: usize,
    /// Complete frames streamed out.
    pub frames_sent: u64,
    /// Descriptors refused because the queue was full.
    pub submit_rejects: u64,
    /// Recycled storage for host, staged and body buffers: this unit
    /// leases from it, so it owns it.
    pub(crate) pool: BufPool,
    pub stats: StageStats,
}

impl TxControl {
    /// Default shared-memory queue bound.
    pub const DEFAULT_QUEUE_DEPTH: usize = 512;

    pub fn new(width: usize, address: u8) -> Self {
        Self {
            width,
            queue: VecDeque::new(),
            cur: None,
            address,
            queue_depth: Self::DEFAULT_QUEUE_DEPTH,
            frames_sent: 0,
            submit_rejects: 0,
            pool: BufPool::new(),
            stats: StageStats::default(),
        }
    }

    /// Queue a descriptor, or refuse it (handing it back) when the
    /// shared-memory queue is at its configured depth.
    pub fn submit(&mut self, desc: TxDescriptor) -> Result<(), TxQueueFull> {
        if self.queue.len() >= self.queue_depth {
            self.submit_rejects += 1;
            self.stats.rejects += 1;
            return Err(TxQueueFull(desc));
        }
        self.queue.push_back(desc);
        Ok(())
    }

    /// Descriptor slots still free in the shared-memory queue.
    pub fn queue_free(&self) -> usize {
        self.queue_depth.saturating_sub(self.queue.len())
    }

    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.cur.is_none()
    }

    /// One clock: emit the next word of the current frame if the
    /// downstream latch is free.
    pub fn clock(&mut self, out_ready: bool) -> Option<Word> {
        self.stats.cycles += 1;
        if !out_ready {
            return None;
        }
        let (body, pos) = match &mut self.cur {
            Some(cur) => cur,
            cur @ None => {
                let desc = self.queue.pop_front()?;
                let mut body = self.pool.lease_vec();
                body.reserve(desc.payload.len() + 4);
                body.push(self.address);
                body.push(0x03); // UI control field
                body.extend_from_slice(&desc.protocol.to_be_bytes());
                body.extend_from_slice(&desc.payload);
                self.pool.recycle_vec(desc.payload);
                cur.insert((body, 0))
            }
        };
        let take = self.width.min(body.len() - *pos);
        let mut w = Word::data(&body[*pos..*pos + take]);
        w.sof = *pos == 0;
        *pos += take;
        if *pos == body.len() {
            w.eof = true;
            if let Some((storage, _)) = self.cur.take() {
                self.pool.recycle_vec(storage);
            }
            self.frames_sent += 1;
        }
        self.stats.words_out += 1;
        self.stats.bytes_out += take as u64;
        Some(w)
    }
}

/// CRC unit: computes the FCS with the parallel matrix engine
/// (8×32 for the 8-bit P⁵, 32×32 for the 32-bit one) while the frame
/// streams through, then appends the complemented FCS after the last
/// body word — repacking across word boundaries via a small stager.
#[derive(Debug)]
pub struct TxCrc {
    width: usize,
    fcs: FcsMode,
    engine: Option<FcsEngine>,
    stager: ByteStager,
    pub stats: StageStats,
}

/// The FCS parameter set a [`FcsMode`] selects (`None` for no FCS).
pub(crate) fn fcs_params(fcs: FcsMode) -> Option<CrcParams> {
    match fcs {
        FcsMode::None => None,
        FcsMode::Fcs16 => Some(FCS16),
        FcsMode::Fcs32 => Some(FCS32),
    }
}

impl TxCrc {
    pub fn new(width: usize, fcs: FcsMode) -> Self {
        let engine = fcs_params(fcs).map(|p| FcsEngine::new(EngineKind::default(), p, width));
        Self {
            width,
            fcs,
            engine,
            // Must hold a word in flight plus a full FCS appended at eof.
            stager: ByteStager::new(4 * width + 8),
            stats: StageStats::default(),
        }
    }

    /// Can accept one input word next clock (worst case it stages
    /// `width` body bytes plus the whole FCS).
    pub fn ready(&self) -> bool {
        self.stager.free() >= self.width + self.fcs.len()
    }

    pub fn idle(&self) -> bool {
        self.stager.is_empty()
    }

    pub fn clock(&mut self, input: Option<Word>, out_ready: bool) -> Option<Word> {
        self.stats.cycles += 1;
        if let Some(w) = input {
            self.stats.words_in += 1;
            if w.sof {
                if let Some(e) = &mut self.engine {
                    e.reset();
                }
            }
            if let Some(e) = &mut self.engine {
                e.update_word(w.lanes());
            }
            // Steady-state fast path: a full mid-frame word entering an
            // empty stager leaves it again this very cycle, so skip the
            // stage-and-repack round trip.  Cycle- and byte-exact: the
            // slow path below would push `width` bytes (occupancy
            // `width`) and pop the identical word.
            if out_ready
                && w.len as usize == self.width
                && !w.eof
                && !w.abort
                && w.crc_ok.is_none()
                && self.stager.is_empty()
            {
                self.stats.note_occupancy(self.width);
                self.stats.words_out += 1;
                self.stats.bytes_out += w.len as u64;
                return Some(w);
            }
            for (i, &b) in w.lanes().iter().enumerate() {
                let last = i + 1 == w.len as usize;
                // eof moves to the final FCS byte below.
                let eof_here = w.eof && last && self.fcs.is_none();
                self.stager.push_byte(b, w.sof && i == 0, eof_here);
            }
            if w.eof {
                match (&self.engine, self.fcs) {
                    (Some(e), FcsMode::Fcs32) => {
                        let fcs = p5_crc::fcs32_wire_bytes(e.value());
                        for (i, &b) in fcs.iter().enumerate() {
                            self.stager.push_byte(b, false, i == 3);
                        }
                    }
                    (Some(e), FcsMode::Fcs16) => {
                        let fcs = p5_crc::fcs16_wire_bytes(e.value() as u16);
                        for (i, &b) in fcs.iter().enumerate() {
                            self.stager.push_byte(b, false, i == 1);
                        }
                    }
                    _ => {}
                }
            }
            self.stats.note_occupancy(self.stager.occupancy());
        }
        if !out_ready {
            return None;
        }
        let out = self.stager.pop_word(self.width, false);
        if let Some(w) = &out {
            self.stats.words_out += 1;
            self.stats.bytes_out += w.len as u64;
        }
        out
    }
}

/// The Escape Generate unit — the paper's Figure 5 problem.
///
/// Each input word is scanned for flag/escape characters; matches expand
/// to two bytes, so a 4-byte word can become 8 wire bytes.  The expanded
/// bytes land in the resynchronisation buffer (the byte sorter), from
/// which full wire words are re-launched.  When the buffer cannot absorb
/// a worst-case word, `ready()` deasserts — that is the backpressure
/// scheme.  Output passes through a delay line modelling the 4-stage
/// pipelining of the 32-bit unit ("the first data transmitted is
/// therefore delayed by 4 clock cycles").
#[derive(Debug)]
pub struct EscapeGen {
    width: usize,
    staging: VecDeque<u8>,
    capacity: usize,
    /// Last byte pushed was a flag — enables flag sharing between
    /// back-to-back frames.
    last_was_flag: bool,
    /// Pipeline delay line (length = stages − 1).
    delay: DelayLine,
    /// Transmit idle flags when the buffer runs dry (continuous wire).
    pub idle_fill: bool,
    /// Abort requested: emit `7D 7E` and drop the frame in flight.
    abort_requested: bool,
    pub stats: StageStats,
    /// Cycles with backpressure asserted.
    pub backpressure_cycles: u64,
    /// Escape characters inserted.
    pub escapes_inserted: u64,
    /// Frames fully stuffed (closing flag pushed into the buffer).
    pub frames_stuffed: u64,
}

impl EscapeGen {
    /// Pipeline depth by datapath width: the 8-bit unit processes in one
    /// stage; the 32-bit unit is "divided up into 4 pipelined stages".
    pub fn pipe_stages(width: usize) -> usize {
        if width >= 4 {
            4
        } else {
            1
        }
    }

    pub fn new(width: usize, buffer_capacity: usize) -> Self {
        // Minimum: a worst-case expansion (2·width) plus opening flag,
        // on top of up to width−1 residue bytes that can sit in the
        // buffer mid-frame (found by the buffer-depth ablation: anything
        // smaller deadlocks the ready/valid handshake).
        assert!(
            buffer_capacity > 3 * width,
            "resynchronisation buffer below the 3w+1 minimum"
        );
        let stages = Self::pipe_stages(width);
        Self {
            width,
            staging: VecDeque::with_capacity(buffer_capacity),
            capacity: buffer_capacity,
            last_was_flag: false,
            delay: DelayLine::new(stages - 1),
            idle_fill: false,
            abort_requested: false,
            stats: StageStats::default(),
            backpressure_cycles: 0,
            escapes_inserted: 0,
            frames_stuffed: 0,
        }
    }

    /// Default resynchronisation-buffer capacity ("extremely low").
    pub fn default_capacity(width: usize) -> usize {
        4 * width
    }

    pub fn occupancy(&self) -> usize {
        self.staging.len()
    }

    /// Backpressure: can the buffer absorb a worst-case expansion of one
    /// more word (all lanes escaped, plus an opening flag)?
    pub fn ready(&self) -> bool {
        self.capacity - self.staging.len() >= 2 * self.width + 2
    }

    pub fn idle(&self) -> bool {
        self.staging.is_empty() && self.delay.is_clear()
    }

    /// Was the last octet that left this unit a flag?  The fused fast
    /// path reads this to decide whether its frame shares the previous
    /// closing flag, and writes it back after emitting its own.
    pub(crate) fn last_was_flag(&self) -> bool {
        self.last_was_flag
    }

    pub(crate) fn set_last_was_flag(&mut self, v: bool) {
        self.last_was_flag = v;
    }

    fn push(&mut self, b: u8, is_flag: bool) {
        debug_assert!(self.staging.len() < self.capacity, "staging overflow");
        self.staging.push_back(b);
        self.last_was_flag = is_flag;
    }

    /// Request a transmit abort: the bytes still staged are dropped and
    /// the RFC 1662 abort sequence `7D 7E` goes on the wire, telling the
    /// far end to discard the frame in progress (underrun / host cancel).
    pub fn abort_frame(&mut self) {
        self.abort_requested = true;
    }

    /// One clock.  `drain` signals that upstream is idle, permitting a
    /// final partial word (and is what lets simulations terminate — the
    /// real wire never stops).
    pub fn clock(&mut self, input: Option<Word>, out_ready: bool, drain: bool) -> Option<Word> {
        self.stats.cycles += 1;
        if !self.ready() {
            self.backpressure_cycles += 1;
        }
        if std::mem::take(&mut self.abort_requested) {
            self.staging.clear();
            self.push(ESCAPE, false);
            self.push(FLAG, true);
        }
        let mut fast = None;
        if let Some(w) = input {
            self.stats.words_in += 1;
            if w.sof && !self.last_was_flag {
                self.push(FLAG, true);
            }
            // One scan decides the common case: a word with nothing to
            // escape skips the branch-per-byte sorter entirely.
            let lanes = w.lanes();
            let clean = !lanes.is_empty() && lanes.iter().all(|&b| b != FLAG && b != ESCAPE);
            if clean && out_ready && lanes.len() == self.width && self.staging.len() < self.width {
                // Direct assembly: the k residue bytes head the output
                // word, the input fills the rest, and only the k
                // leftover input bytes touch the ring — byte- and
                // cycle-exact with staging everything and popping below.
                let k = self.staging.len();
                self.stats
                    .note_occupancy(k + self.width + usize::from(w.eof));
                let mut out_w = Word::default();
                for lane in 0..k {
                    out_w.bytes[lane] = self.staging.pop_front().unwrap();
                }
                out_w.bytes[k..self.width].copy_from_slice(&lanes[..self.width - k]);
                out_w.len = self.width as u8;
                self.staging.extend(lanes[self.width - k..].iter().copied());
                self.last_was_flag = false;
                if w.eof {
                    self.push(FLAG, true);
                    self.frames_stuffed += 1;
                }
                fast = Some(out_w);
            } else {
                if clean {
                    debug_assert!(self.staging.len() + lanes.len() <= self.capacity);
                    self.staging.extend(lanes.iter().copied());
                    self.last_was_flag = false;
                } else {
                    for &b in lanes {
                        if b == FLAG || b == ESCAPE {
                            self.push(ESCAPE, false);
                            self.push(b ^ ESCAPE_XOR, false);
                            self.escapes_inserted += 1;
                        } else {
                            self.push(b, false);
                        }
                    }
                }
                if w.eof {
                    self.push(FLAG, true);
                    self.frames_stuffed += 1;
                }
                self.stats.note_occupancy(self.staging.len());
            }
        }
        if !out_ready {
            // Clock-enable gating: downstream stall freezes the pipe.
            return None;
        }
        // Assemble the next wire word from the resynchronisation buffer.
        let fresh = if fast.is_some() {
            fast
        } else if self.staging.len() >= self.width {
            let mut w = Word::default();
            for (lane, b) in self.staging.drain(..self.width).enumerate() {
                w.bytes[lane] = b;
                w.len = (lane + 1) as u8;
            }
            Some(w)
        } else if self.idle_fill {
            // Pad to a full word with idle flags (continuous line).
            let mut w = Word::default();
            for lane in 0..self.width {
                w.bytes[lane] = self.staging.pop_front().unwrap_or(FLAG);
                w.len = (lane + 1) as u8;
            }
            self.last_was_flag = true;
            Some(w)
        } else if drain && !self.staging.is_empty() {
            let mut w = Word::default();
            for (lane, b) in self.staging.drain(..).enumerate() {
                w.bytes[lane] = b;
                w.len = (lane + 1) as u8;
            }
            Some(w)
        } else {
            self.stats.bubble_cycles += 1;
            None
        };
        // March through the pipeline delay line.
        let out = self.delay.shift(fresh);
        if let Some(w) = &out {
            self.stats.words_out += 1;
            self.stats.bytes_out += w.len as u64;
        }
        out
    }
}

/// The complete transmitter: the three stages plus the inter-stage
/// registers, clocked as one unit.
#[derive(Debug)]
pub struct TxPipeline {
    pub control: TxControl,
    pub crc: TxCrc,
    pub escape: EscapeGen,
    latch_ctl_crc: Option<Word>,
    latch_crc_esc: Option<Word>,
    pub cycles: u64,
}

impl TxPipeline {
    pub fn new(width: usize, address: u8, fcs: FcsMode) -> Self {
        Self {
            control: TxControl::new(width, address),
            crc: TxCrc::new(width, fcs),
            escape: EscapeGen::new(width, EscapeGen::default_capacity(width)),
            latch_ctl_crc: None,
            latch_crc_esc: None,
            cycles: 0,
        }
    }

    pub fn submit(&mut self, desc: TxDescriptor) -> Result<(), TxQueueFull> {
        self.control.submit(desc)
    }

    pub fn idle(&self) -> bool {
        self.control.idle()
            && self.crc.idle()
            && self.escape.idle()
            && self.latch_ctl_crc.is_none()
            && self.latch_crc_esc.is_none()
    }

    /// One clock of the whole transmitter; returns the wire word leaving
    /// the Escape Generate unit, if any.
    pub fn clock(&mut self, phy_ready: bool) -> Option<Word> {
        self.cycles += 1;
        // Evaluate sink → source so ready flows back combinationally.
        let upstream_idle = self.control.idle() && self.crc.idle() && self.latch_ctl_crc.is_none();
        let esc_in = if self.escape.ready() {
            self.latch_crc_esc.take()
        } else {
            if self.latch_crc_esc.is_some() {
                self.escape.stats.stall_cycles += 1;
            }
            None
        };
        let drain = upstream_idle && self.latch_crc_esc.is_none();
        let wire = self.escape.clock(esc_in, phy_ready, drain);

        let crc_out_ready = self.latch_crc_esc.is_none();
        let crc_in = if self.crc.ready() {
            self.latch_ctl_crc.take()
        } else {
            if self.latch_ctl_crc.is_some() {
                self.crc.stats.stall_cycles += 1;
            }
            None
        };
        if let Some(w) = self.crc.clock(crc_in, crc_out_ready) {
            debug_assert!(self.latch_crc_esc.is_none());
            self.latch_crc_esc = Some(w);
        }

        let ctl_out_ready = self.latch_ctl_crc.is_none();
        if let Some(w) = self.control.clock(ctl_out_ready) {
            self.latch_ctl_crc = Some(w);
        }
        wire
    }
}

impl p5_stream::Observable for TxPipeline {
    /// Whole-transmitter view: frame/stuffing tallies plus per-unit flow
    /// stats under prefixed names.
    fn snapshot(&self) -> p5_stream::Snapshot {
        let mut s = p5_stream::Snapshot::new("tx-pipeline")
            .counter("cycles", self.cycles)
            .counter("frames_sent", self.control.frames_sent)
            .counter("submit_rejects", self.control.submit_rejects)
            .counter("frames_stuffed", self.escape.frames_stuffed)
            .counter("escapes_inserted", self.escape.escapes_inserted)
            .counter("backpressure_cycles", self.escape.backpressure_cycles);
        for (prefix, stats) in [
            ("control", &self.control.stats),
            ("crc", &self.crc.stats),
            ("escape", &self.escape.stats),
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

    fn run_to_wire(width: usize, frames: &[TxDescriptor]) -> Vec<u8> {
        let mut tx = TxPipeline::new(width, 0xFF, FcsMode::Fcs32);
        for f in frames {
            tx.submit(f.clone()).unwrap();
        }
        let mut wire = Vec::new();
        for _ in 0..200_000 {
            if let Some(w) = tx.clock(true) {
                wire.extend_from_slice(w.lanes());
            }
            if tx.idle() {
                break;
            }
        }
        assert!(tx.idle(), "transmitter did not drain");
        wire
    }

    fn behavioral_wire(frames: &[TxDescriptor]) -> Vec<u8> {
        let mut framer = p5_hdlc::Framer::new(p5_hdlc::FramerConfig::default());
        let mut wire = Vec::new();
        for f in frames {
            let mut body = vec![0xFF, 0x03];
            body.extend_from_slice(&f.protocol.to_be_bytes());
            body.extend_from_slice(&f.payload);
            framer.encode_into(&body, &mut wire);
        }
        wire
    }

    #[test]
    fn single_frame_matches_golden_model_w32() {
        let frames = vec![TxDescriptor {
            protocol: 0x0021,
            payload: b"hello gigabit sonet world".to_vec(),
        }];
        assert_eq!(run_to_wire(4, &frames), behavioral_wire(&frames));
    }

    #[test]
    fn single_frame_matches_golden_model_w8() {
        let frames = vec![TxDescriptor {
            protocol: 0x0021,
            payload: b"625 megabit baseline".to_vec(),
        }];
        assert_eq!(run_to_wire(1, &frames), behavioral_wire(&frames));
    }

    #[test]
    fn flaggy_payload_matches_golden_model() {
        let frames = vec![TxDescriptor {
            protocol: 0x0021,
            payload: vec![0x7E, 0x7D, 0x7E, 0x7E, 0x31, 0x33, 0x7E, 0x96],
        }];
        assert_eq!(run_to_wire(4, &frames), behavioral_wire(&frames));
    }

    #[test]
    fn worst_case_all_flags_matches_and_backpressures() {
        let frames = vec![TxDescriptor {
            protocol: 0x0021,
            payload: vec![0x7E; 256],
        }];
        let mut tx = TxPipeline::new(4, 0xFF, FcsMode::Fcs32);
        tx.submit(frames[0].clone()).unwrap();
        let mut wire = Vec::new();
        while !tx.idle() {
            if let Some(w) = tx.clock(true) {
                wire.extend_from_slice(w.lanes());
            }
        }
        assert_eq!(wire, behavioral_wire(&frames));
        // Doubling payload must have exerted backpressure on the input.
        assert!(tx.escape.backpressure_cycles > 0);
        assert!(tx.escape.stats.stall_cycles > 0);
    }

    #[test]
    fn back_to_back_frames_share_flags() {
        let frames = vec![
            TxDescriptor {
                protocol: 0x0021,
                payload: b"frame one".to_vec(),
            },
            TxDescriptor {
                protocol: 0x0057,
                payload: b"frame two".to_vec(),
            },
        ];
        assert_eq!(run_to_wire(4, &frames), behavioral_wire(&frames));
    }

    #[test]
    fn escape_gen_fill_latency_is_4_cycles_at_w32() {
        let mut esc = EscapeGen::new(4, EscapeGen::default_capacity(4));
        let w = Word::data(&[1, 2, 3, 4]).with_sof();
        // Cycle 1: word enters (adds a leading flag, 5 staged bytes).
        let mut first_out = None;
        for cycle in 1..=10 {
            let input = if cycle == 1 { Some(w) } else { None };
            if let Some(out) = esc.clock(input, true, true) {
                first_out = Some((cycle, out));
                break;
            }
        }
        let (cycle, out) = first_out.expect("no output");
        assert_eq!(cycle, 4, "paper: first data delayed by 4 clock cycles");
        assert_eq!(out.lanes(), &[FLAG, 1, 2, 3]);
    }

    #[test]
    fn escape_gen_latency_is_1_cycle_at_w8() {
        let mut esc = EscapeGen::new(1, EscapeGen::default_capacity(1));
        let w = Word::data(&[0x42]).with_sof();
        let out = esc.clock(Some(w), true, true);
        assert_eq!(out.unwrap().lanes(), &[FLAG]);
    }

    #[test]
    fn idle_fill_emits_flag_words() {
        let mut esc = EscapeGen::new(4, EscapeGen::default_capacity(4));
        esc.idle_fill = true;
        // Prime the delay line.
        let mut saw_flags = false;
        for _ in 0..8 {
            if let Some(w) = esc.clock(None, true, false) {
                assert_eq!(w.lanes(), &[FLAG; 4]);
                saw_flags = true;
            }
        }
        assert!(saw_flags);
    }

    #[test]
    fn sustained_throughput_is_one_word_per_cycle_without_escapes() {
        // A long escape-free frame: once the pipe fills, the escape unit
        // must emit a full word every cycle.
        let mut tx = TxPipeline::new(4, 0xFF, FcsMode::Fcs32);
        tx.submit(TxDescriptor {
            protocol: 0x0021,
            payload: vec![0x11; 4000],
        })
        .unwrap();
        let mut out_words = 0u64;
        let mut cycles = 0u64;
        while !tx.idle() {
            cycles += 1;
            if tx.clock(true).is_some() {
                out_words += 1;
            }
            assert!(cycles < 10_000, "runaway");
        }
        let efficiency = out_words as f64 / cycles as f64;
        assert!(
            efficiency > 0.95,
            "escape-free stream must approach 1 word/cycle, got {efficiency}"
        );
    }

    #[test]
    fn fcs_bytes_are_escaped_when_needed() {
        // Find a payload whose FCS contains a flag byte, then check the
        // cycle model still matches the golden model.
        for seed in 0u32..30_000 {
            let payload = seed.to_le_bytes().to_vec();
            let mut body = vec![0xFF, 0x03, 0x00, 0x21];
            body.extend_from_slice(&payload);
            let fcs = p5_crc::fcs32_wire_bytes(p5_crc::fcs32(&body));
            if fcs.contains(&FLAG) || fcs.contains(&ESCAPE) {
                let frames = vec![TxDescriptor {
                    protocol: 0x0021,
                    payload,
                }];
                assert_eq!(run_to_wire(4, &frames), behavioral_wire(&frames));
                return;
            }
        }
        panic!("no payload with stuffable FCS found");
    }

    #[test]
    fn fcs16_mode_works() {
        let mut tx = TxPipeline::new(4, 0xFF, FcsMode::Fcs16);
        tx.submit(TxDescriptor {
            protocol: 0x0021,
            payload: b"short fcs".to_vec(),
        })
        .unwrap();
        let mut wire = Vec::new();
        while !tx.idle() {
            if let Some(w) = tx.clock(true) {
                wire.extend_from_slice(w.lanes());
            }
        }
        // flag + body(4+9) + fcs(2) + flag, nothing escaped
        assert_eq!(wire.len(), 1 + 13 + 2 + 1);
        assert!(p5_crc::check_fcs16(&wire[1..wire.len() - 1]));
    }

    #[test]
    fn phy_stall_freezes_output_without_loss() {
        let frames = vec![TxDescriptor {
            protocol: 0x0021,
            payload: (0..=255u8).collect(),
        }];
        let mut tx = TxPipeline::new(4, 0xFF, FcsMode::Fcs32);
        tx.submit(frames[0].clone()).unwrap();
        let mut wire = Vec::new();
        let mut i = 0u64;
        while !tx.idle() {
            // PHY accepts only every third cycle.
            let ready = i.is_multiple_of(3);
            if let Some(w) = tx.clock(ready) {
                assert!(ready);
                wire.extend_from_slice(w.lanes());
            }
            i += 1;
            assert!(i < 100_000, "runaway");
        }
        assert_eq!(wire, behavioral_wire(&frames));
    }
}

#[cfg(test)]
mod abort_tests {
    use super::*;
    use crate::rx::RxPipeline;
    use crate::word::Word;

    #[test]
    fn tx_abort_is_seen_as_abort_by_the_receiver() {
        let mut tx = TxPipeline::new(4, 0xFF, FcsMode::Fcs32);
        tx.submit(TxDescriptor {
            protocol: 0x0021,
            payload: vec![0x11; 400],
        })
        .unwrap();
        let mut wire = Vec::new();
        // Transmit part of the frame, then pull the plug.
        for i in 0..40 {
            if i == 30 {
                tx.escape.abort_frame();
                // Stop feeding the rest of the frame.
                tx.control = TxControl::new(4, 0xFF);
                tx.crc = TxCrc::new(4, FcsMode::Fcs32);
                // Hardware clears the inter-stage latches on the strobe.
                tx.latch_ctl_crc = None;
                tx.latch_crc_esc = None;
            }
            if let Some(w) = tx.clock(true) {
                wire.extend_from_slice(w.lanes());
            }
        }
        while !tx.idle() {
            if let Some(w) = tx.clock(true) {
                wire.extend_from_slice(w.lanes());
            }
        }
        // The wire must contain the abort sequence.
        assert!(
            wire.windows(2).any(|w| w == [ESCAPE, FLAG]),
            "abort sequence missing: {wire:02X?}"
        );
        // And the receiver counts exactly one abort, no deliveries.
        let mut rx = RxPipeline::new(4, 0xFF, FcsMode::Fcs32, 4096);
        for chunk in wire.chunks(4) {
            while !rx.ready() {
                rx.clock(None);
            }
            rx.clock(Some(Word::data(chunk)));
        }
        for _ in 0..100 {
            rx.clock(None);
        }
        assert_eq!(rx.counters().aborts, 1);
        assert_eq!(rx.counters().frames_ok, 0);
        assert!(rx.take_frames().is_empty());
    }
}
