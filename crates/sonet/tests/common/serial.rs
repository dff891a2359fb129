//! The named oracle of `wordwide_equiv.rs`: the bit-serial scramblers
//! and the per-octet framer exactly as `p5-sonet` shipped them before
//! the word-wide rewrite — one LFSR clock per bit, one `pop_front` per
//! payload octet, `r * row + c` indexed parity loops.  Nothing here is
//! fast and nothing here may be "tidied" towards the production code:
//! the point is that two independently written forms agree.

use p5_sonet::frame::{RxDefect, SectionStats, StmLevel, A1, A2, C2_PPP_SCRAMBLED, IDLE_FILL};
use std::collections::VecDeque;

/// ITU G.707 frame-synchronous scrambler (1 + x⁶ + x⁷), one LFSR clock
/// per bit.
pub struct SerialFrameScrambler {
    state: u8, // 7-bit LFSR state
}

impl SerialFrameScrambler {
    pub fn new() -> Self {
        Self { state: 0x7F }
    }

    /// Next keystream byte (MSB transmitted first).
    pub fn keystream_byte(&mut self) -> u8 {
        let mut key = 0u8;
        for _ in 0..8 {
            let out = (self.state >> 6) & 1; // x^7 tap output
            key = (key << 1) | out;
            let fb = ((self.state >> 6) ^ (self.state >> 5)) & 1; // x^7 ^ x^6
            self.state = ((self.state << 1) | fb) & 0x7F;
        }
        key
    }

    pub fn apply(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b ^= self.keystream_byte();
        }
    }
}

/// RFC 2615 x⁴³ + 1, one shift per bit.  Transmit: `out[n] = in[n] ^
/// out[n-43]`; receive: `out[n] = in[n] ^ in[n-43]`.
#[derive(Default)]
pub struct SerialPayloadScrambler {
    /// 43-bit delay line shifting left (bit 42 = oldest).
    history: u64,
}

impl SerialPayloadScrambler {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn scramble_byte(&mut self, byte: u8) -> u8 {
        let mut out = 0u8;
        for i in (0..8).rev() {
            let in_bit = (byte >> i) & 1;
            let delayed = ((self.history >> 42) & 1) as u8;
            let out_bit = in_bit ^ delayed;
            out = (out << 1) | out_bit;
            self.history = ((self.history << 1) | out_bit as u64) & ((1u64 << 43) - 1);
        }
        out
    }

    pub fn descramble_byte(&mut self, byte: u8) -> u8 {
        let mut out = 0u8;
        for i in (0..8).rev() {
            let in_bit = (byte >> i) & 1;
            let delayed = ((self.history >> 42) & 1) as u8;
            let out_bit = in_bit ^ delayed;
            out = (out << 1) | out_bit;
            // Self-synchronous: the *received* bit enters the delay line.
            self.history = ((self.history << 1) | in_bit as u64) & ((1u64 << 43) - 1);
        }
        out
    }

    pub fn scramble(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b = self.scramble_byte(*b);
        }
    }

    pub fn descramble(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b = self.descramble_byte(*b);
        }
    }
}

fn bip8(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0, |acc, &b| acc ^ b)
}

/// Per-octet frame builder: same fields, same line image as
/// `p5_sonet::FrameTransmitter`.
pub struct SerialTransmitter {
    level: StmLevel,
    queue: VecDeque<u8>,
    next_b1: u8,
    next_b2: u8,
    next_b3: u8,
    pub payload_bytes_sent: u64,
    pub fill_bytes_sent: u64,
    pub section_trace: u8,
    pub path_trace: u8,
    pub send_rdi: bool,
    rei_backlog: u64,
    ais_frames: u32,
}

impl SerialTransmitter {
    pub fn new(level: StmLevel) -> Self {
        Self {
            level,
            queue: VecDeque::new(),
            next_b1: 0,
            next_b2: 0,
            next_b3: 0,
            payload_bytes_sent: 0,
            fill_bytes_sent: 0,
            section_trace: 0x01,
            path_trace: 0x89,
            send_rdi: false,
            rei_backlog: 0,
            ais_frames: 0,
        }
    }

    pub fn report_remote_errors(&mut self, count: u64) {
        self.rei_backlog += count;
    }

    pub fn send_path_ais(&mut self, frames: u32) {
        self.ais_frames = frames;
    }

    pub fn offer_payload(&mut self, bytes: &[u8]) {
        self.queue.extend(bytes);
    }

    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    pub fn emit_frame_scrambled(
        &mut self,
        mut x43: Option<&mut SerialPayloadScrambler>,
    ) -> Vec<u8> {
        let n = self.level.n();
        let row = self.level.row_bytes();
        let soh = self.level.soh_bytes();
        let mut f = vec![0u8; self.level.frame_bytes()];

        // Row 0 SOH: A1 ×3N, A2 ×3N, J0, zero-fill.
        for i in 0..3 * n {
            f[i] = A1;
            f[3 * n + i] = A2;
        }
        f[6 * n] = self.section_trace;

        f[row] = self.next_b1;
        let ais = self.ais_frames > 0;
        if ais {
            self.ais_frames -= 1;
            f[3 * row] = 0xFF;
            f[3 * row + n] = 0xFF;
        } else {
            f[3 * row] = 0x62;
            f[3 * row + n] = 0x0A;
        }
        f[4 * row] = self.next_b2;

        let poh_col = soh;
        f[poh_col] = self.path_trace;
        f[row + poh_col] = self.next_b3;
        f[2 * row + poh_col] = C2_PPP_SCRAMBLED;
        let rei = self.rei_backlog.min(8) as u8;
        self.rei_backlog -= rei as u64;
        f[3 * row + poh_col] = (rei << 4) | (u8::from(self.send_rdi) << 3);

        for r in 0..9 {
            for c in (soh + 1)..row {
                let byte = match self.queue.pop_front() {
                    Some(b) => {
                        self.payload_bytes_sent += 1;
                        b
                    }
                    None => {
                        self.fill_bytes_sent += 1;
                        IDLE_FILL
                    }
                };
                f[r * row + c] = match x43.as_deref_mut() {
                    Some(scr) => scr.scramble_byte(byte),
                    None => byte,
                };
            }
        }

        // B3 for the next frame: this frame's SPE before line scrambling.
        let mut b3 = 0u8;
        for r in 0..9 {
            for c in soh..row {
                b3 ^= f[r * row + c];
            }
        }
        self.next_b3 = b3;

        // The scrambler clocks over the whole frame; row-0 SOH is sent
        // unscrambled.
        let mut scr = SerialFrameScrambler::new();
        for (i, b) in f.iter_mut().enumerate() {
            let key = scr.keystream_byte();
            if i >= soh {
                *b ^= key;
            }
        }

        self.next_b1 = bip8(&f);
        let mut b2 = 0u8;
        for r in 0..9 {
            for c in 0..row {
                // Exclude regenerator-section overhead (rows 0..3 of the
                // SOH columns).
                if r < 3 && c < soh {
                    continue;
                }
                b2 ^= f[r * row + c];
            }
        }
        self.next_b2 = b2;
        f
    }
}

enum RxState {
    Hunt,
    Aligned,
}

/// Per-octet delineator: same verdicts as `p5_sonet::FrameReceiver`,
/// with the defect log unbounded (compare totals through
/// [`SerialReceiver::stats`], and the log only on short runs).
pub struct SerialReceiver {
    level: StmLevel,
    state: RxState,
    window: VecDeque<u8>,
    buf: Vec<u8>,
    stats: SectionStats,
    expected_b1: Option<u8>,
    expected_b2: Option<u8>,
    expected_b3: Option<u8>,
    pub expected_section_trace: Option<u8>,
    pub expected_path_trace: Option<u8>,
    pub defects: Vec<RxDefect>,
    bad_framings: u32,
}

impl SerialReceiver {
    pub fn new(level: StmLevel) -> Self {
        Self {
            level,
            state: RxState::Hunt,
            window: VecDeque::new(),
            buf: Vec::new(),
            stats: SectionStats::default(),
            expected_b1: None,
            expected_b2: None,
            expected_b3: None,
            expected_section_trace: None,
            expected_path_trace: None,
            defects: Vec::new(),
            bad_framings: 0,
        }
    }

    pub fn stats(&self) -> &SectionStats {
        &self.stats
    }

    pub fn push(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        for &b in bytes {
            match self.state {
                RxState::Hunt => {
                    // A1 ×3N followed by one A2: the frame began 3N+1
                    // octets ago.
                    self.window.push_back(b);
                    let need = 3 * self.level.n() + 1;
                    if self.window.len() > need {
                        self.window.pop_front();
                    }
                    if self.window.len() == need
                        && self.window.iter().take(need - 1).all(|&x| x == A1)
                        && b == A2
                    {
                        self.buf.clear();
                        self.buf.extend(self.window.iter());
                        self.window.clear();
                        self.state = RxState::Aligned;
                        self.stats.hunts += 1;
                    }
                }
                RxState::Aligned => {
                    self.buf.push(b);
                    if self.buf.len() == self.level.frame_bytes() {
                        let frame = std::mem::take(&mut self.buf);
                        payload.extend(self.process_frame(&frame));
                    }
                }
            }
        }
        payload
    }

    fn process_frame(&mut self, line: &[u8]) -> Vec<u8> {
        let n = self.level.n();
        let row = self.level.row_bytes();
        let soh = self.level.soh_bytes();

        let a1_ok = line[..3 * n].iter().all(|&b| b == A1);
        let a2_ok = line[3 * n..6 * n].iter().all(|&b| b == A2);
        if !(a1_ok && a2_ok) {
            self.bad_framings += 1;
            if self.bad_framings >= 2 {
                self.state = RxState::Hunt;
                self.window.clear();
                self.stats.oof_events += 1;
                self.defects.push(RxDefect::OutOfFrame);
                self.expected_b1 = None;
                self.expected_b2 = None;
                self.expected_b3 = None;
                self.bad_framings = 0;
                return Vec::new();
            }
        } else {
            self.bad_framings = 0;
        }

        let this_b1 = bip8(line);
        let mut this_b2 = 0u8;
        for r in 0..9 {
            for c in 0..row {
                if r < 3 && c < soh {
                    continue;
                }
                this_b2 ^= line[r * row + c];
            }
        }

        let mut f = line.to_vec();
        let mut scr = SerialFrameScrambler::new();
        for (i, b) in f.iter_mut().enumerate() {
            let key = scr.keystream_byte();
            if i >= soh {
                *b ^= key;
            }
        }

        if let Some(exp) = self.expected_b1 {
            if f[row] != exp {
                self.stats.b1_errors += 1;
                self.defects.push(RxDefect::B1Error);
            }
        }
        if let Some(exp) = self.expected_b2 {
            if f[4 * row] != exp {
                self.stats.b2_errors += 1;
                self.defects.push(RxDefect::B2Error);
            }
        }
        self.expected_b1 = Some(this_b1);
        self.expected_b2 = Some(this_b2);

        let mut this_b3 = 0u8;
        for r in 0..9 {
            for c in soh..row {
                this_b3 ^= f[r * row + c];
            }
        }
        if let Some(exp) = self.expected_b3 {
            if f[row + soh] != exp {
                self.stats.b3_errors += 1;
                self.defects.push(RxDefect::B3Error);
            }
        }
        self.expected_b3 = Some(this_b3);

        if f[3 * row] == 0xFF && f[3 * row + n] == 0xFF {
            self.stats.path_ais_frames += 1;
            self.defects.push(RxDefect::PathAis);
        }

        let g1 = f[3 * row + soh];
        let rei = (g1 >> 4) as u64;
        if rei <= 8 {
            self.stats.remote_errors += rei;
        }
        if g1 & 0x08 != 0 {
            self.stats.remote_defect_frames += 1;
            self.defects.push(RxDefect::RemoteDefect);
        }

        if let Some(exp) = self.expected_section_trace {
            let j0 = line[6 * n];
            if j0 != exp {
                self.stats.section_trace_mismatches += 1;
                self.defects.push(RxDefect::SectionTraceMismatch(j0));
            }
        }
        if let Some(exp) = self.expected_path_trace {
            let j1 = f[soh];
            if j1 != exp {
                self.stats.path_trace_mismatches += 1;
                self.defects.push(RxDefect::PathTraceMismatch(j1));
            }
        }

        let c2 = f[2 * row + soh];
        if c2 != C2_PPP_SCRAMBLED {
            self.stats.label_mismatches += 1;
            self.defects.push(RxDefect::PayloadLabelMismatch(c2));
        }

        let mut payload = Vec::with_capacity(self.level.payload_per_frame());
        for r in 0..9 {
            payload.extend_from_slice(&f[r * row + soh + 1..(r + 1) * row]);
        }
        self.stats.frames_ok += 1;
        payload
    }
}

/// `interleave` in its index-formula form: output column `c` of row `r`
/// comes from tributary `c % n`, column `c / n`.
pub fn interleave(tributaries: &[Vec<u8>]) -> Vec<u8> {
    let n = tributaries.len();
    let trib_row = StmLevel::Stm1.row_bytes();
    let out_row = trib_row * n;
    let mut out = vec![0u8; out_row * 9];
    for r in 0..9 {
        for c in 0..out_row {
            out[r * out_row + c] = tributaries[c % n][r * trib_row + c / n];
        }
    }
    out
}

/// `deinterleave` in its index-formula form.
pub fn deinterleave(line: &[u8], n: usize) -> Vec<Vec<u8>> {
    let trib_row = StmLevel::Stm1.row_bytes();
    let out_row = trib_row * n;
    let mut tribs = vec![vec![0u8; trib_row * 9]; n];
    for r in 0..9 {
        for c in 0..out_row {
            tribs[c % n][r * trib_row + c / n] = line[r * out_row + c];
        }
    }
    tribs
}
