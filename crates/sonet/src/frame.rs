//! STM-N / OC-3N frame construction and delineation.
//!
//! Frame geometry: 9 rows × 270·N columns of bytes every 125 µs.  The
//! first 9·N columns are section overhead (SOH); the rest is the payload
//! area whose first column carries the path overhead (POH).  We use a
//! *locked* payload mapping (fixed AU pointer, SPE does not float) —
//! see DESIGN.md §2 for why this preserves the behaviour the P⁵ cares
//! about (a byte-synchronous octet pipe with parity supervision).
//!
//! Overhead implemented: A1/A2 framing, J0 section trace, B1 and B2
//! BIP-8 parity, H1/H2 fixed pointer, and the POH bytes J1, B3, C2
//! (0x16 = PPP with x⁴³+1 scrambling, RFC 2615), G1.

use crate::scramble::{frame_key, frame_key_parity, FrameScrambler, PayloadScrambler};
use std::collections::VecDeque;

/// A1 framing byte.
pub const A1: u8 = 0xF6;
/// A2 framing byte.
pub const A2: u8 = 0x28;
/// C2 path signal label for PPP with payload scrambling (RFC 2615).
pub const C2_PPP_SCRAMBLED: u8 = 0x16;
/// HDLC flag used as inter-frame fill when the transmit queue runs dry.
pub const IDLE_FILL: u8 = 0x7E;

/// A row's worth of idle fill, the source a payload row reads once the
/// queue is dry.
static FILL: [u8; StmLevel::Stm16.row_bytes()] = [IDLE_FILL; StmLevel::Stm16.row_bytes()];

/// SDH multiplexing level (with the SONET name and line rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StmLevel {
    /// STM-1 / OC-3, 155.52 Mbps.
    Stm1,
    /// STM-4 / OC-12, 622.08 Mbps — the 8-bit P⁵'s 625 Mbps class link.
    Stm4,
    /// STM-16 / OC-48, 2488.32 Mbps — the 32-bit P⁵'s 2.5 Gbps link.
    Stm16,
}

impl StmLevel {
    /// The interleave factor N.
    pub const fn n(self) -> usize {
        match self {
            StmLevel::Stm1 => 1,
            StmLevel::Stm4 => 4,
            StmLevel::Stm16 => 16,
        }
    }

    /// Bytes per row.
    pub const fn row_bytes(self) -> usize {
        270 * self.n()
    }

    /// Section overhead bytes per row.
    pub const fn soh_bytes(self) -> usize {
        9 * self.n()
    }

    /// Total frame size in bytes.
    pub const fn frame_bytes(self) -> usize {
        9 * self.row_bytes()
    }

    /// Payload capacity per frame (payload area minus the POH column).
    pub const fn payload_per_frame(self) -> usize {
        9 * (self.row_bytes() - self.soh_bytes()) - 9
    }

    /// Line rate in bits per second (8000 frames/s).
    pub const fn line_rate_bps(self) -> u64 {
        (self.frame_bytes() as u64) * 8 * 8000
    }

    /// Usable payload rate in bits per second.
    pub const fn payload_rate_bps(self) -> u64 {
        (self.payload_per_frame() as u64) * 8 * 8000
    }
}

/// Even-parity BIP-8 over a byte slice.
#[inline]
pub fn bip8(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0, |acc, &b| acc ^ b)
}

/// Builds transmit frames from a payload byte queue.
#[derive(Debug, Clone)]
pub struct FrameTransmitter {
    level: StmLevel,
    /// Payload octets awaiting a frame slot: `queue[head..]`.
    queue: Vec<u8>,
    head: usize,
    /// B1 value for the next frame = BIP-8 of the previous *scrambled*
    /// frame.
    next_b1: u8,
    /// B2 value = BIP-8 of the previous frame excluding the regenerator
    /// section overhead rows (rows 0–2 of the SOH columns).
    next_b2: u8,
    /// B3: path BIP-8 over the previous frame's SPE (payload area before
    /// line scrambling).
    next_b3: u8,
    frames_emitted: u64,
    payload_bytes_sent: u64,
    fill_bytes_sent: u64,
    /// Section trace byte (J0) — programmable, checked by the peer.
    pub section_trace: u8,
    /// Path trace byte (J1).
    pub path_trace: u8,
    /// Remote Defect Indication to signal in G1 bit 5.
    pub send_rdi: bool,
    /// Remote Error Indication count to signal in G1 bits 1-4 (0..=8),
    /// consumed one frame at a time.
    rei_backlog: u64,
    /// Transmit path AIS (all-ones pointer + payload) for this many
    /// frames.
    ais_frames: u32,
}

impl FrameTransmitter {
    pub fn new(level: StmLevel) -> Self {
        Self {
            level,
            queue: Vec::new(),
            head: 0,
            next_b1: 0,
            next_b2: 0,
            next_b3: 0,
            frames_emitted: 0,
            payload_bytes_sent: 0,
            fill_bytes_sent: 0,
            section_trace: 0x01,
            path_trace: 0x89,
            send_rdi: false,
            rei_backlog: 0,
            ais_frames: 0,
        }
    }

    /// Queue Remote Error Indications (the count of B3 errors our
    /// receive direction saw; G1 reports them to the far end).
    pub fn report_remote_errors(&mut self, count: u64) {
        self.rei_backlog += count;
    }

    /// Transmit path AIS (alarm indication signal) for `frames` frames —
    /// what a regenerator inserts downstream of a failure.
    pub fn send_path_ais(&mut self, frames: u32) {
        self.ais_frames = frames;
    }

    pub fn level(&self) -> StmLevel {
        self.level
    }

    /// Queue payload bytes (the P⁵ transmitter's wire output).
    pub fn offer_payload(&mut self, bytes: &[u8]) {
        // Reclaim the emitted prefix once it is at least as long as the
        // backlog behind it, so the move is amortised over the emits.
        if self.head >= self.queue.len() - self.head {
            self.queue.drain(..self.head);
            self.head = 0;
        }
        self.queue.extend_from_slice(bytes);
    }

    /// Bytes waiting for a frame slot.
    pub fn backlog(&self) -> usize {
        self.queue.len() - self.head
    }

    pub fn frames_emitted(&self) -> u64 {
        self.frames_emitted
    }

    pub fn payload_bytes_sent(&self) -> u64 {
        self.payload_bytes_sent
    }

    pub fn fill_bytes_sent(&self) -> u64 {
        self.fill_bytes_sent
    }

    /// Emit the next 125 µs frame as raw line bytes (scrambled).
    pub fn emit_frame(&mut self) -> Vec<u8> {
        self.emit_frame_scrambled(None)
    }

    /// [`FrameTransmitter::emit_frame_into`] into a fresh `Vec`.
    pub fn emit_frame_scrambled(&mut self, x43: Option<&mut PayloadScrambler>) -> Vec<u8> {
        let mut f = Vec::new();
        self.emit_frame_into(x43, &mut f);
        f
    }

    /// Emit a frame into `f` (overwritten; a caller that keeps one line
    /// image per path allocates it once), passing every payload byte
    /// (data *and* idle fill) through the self-synchronous x⁴³+1
    /// scrambler.  RFC 2615 requires the scrambler to run continuously
    /// over the SPE payload — fill octets included — or the receiver
    /// loses scrambler alignment across idle gaps.
    pub fn emit_frame_into(&mut self, x43: Option<&mut PayloadScrambler>, f: &mut Vec<u8>) {
        self.emit_frame_from(x43, &mut &[][..], f);
    }

    /// [`FrameTransmitter::emit_frame_into`], taking payload from the
    /// queue first and then from the front of `more`, which is advanced
    /// past what the frame took: a carrier that hands its octets over
    /// here queues only what does not fill a frame.
    ///
    /// Every line octet is written once.  The overhead columns are the
    /// frame key with the few overhead values XORed in; each payload row
    /// is one keyed pass (x⁴³+1, then the frame key, straight into the
    /// line image), which also yields its share of B3 and B1.
    pub(crate) fn emit_frame_from(
        &mut self,
        mut x43: Option<&mut PayloadScrambler>,
        more: &mut &[u8],
        f: &mut Vec<u8>,
    ) {
        let n = self.level.n();
        let row = self.level.row_bytes();
        let soh = self.level.soh_bytes();
        if f.len() != self.level.frame_bytes() {
            f.clear();
            f.resize(self.level.frame_bytes(), 0);
        }

        // Row 0 SOH goes out in the clear: A1 ×3N, A2 ×3N, J0, zero-fill.
        f[..3 * n].fill(A1);
        f[3 * n..6 * n].fill(A2);
        f[6 * n] = self.section_trace; // J0 section trace
        f[6 * n + 1..soh].fill(0);
        // Every other overhead octet is under the frame-synchronous
        // scrambler, whose keystream also advanced under row 0's SOH:
        // lay the key down, then XOR the non-zero values in.
        f[soh] = FrameScrambler::key_at(soh);
        for r in 1..9 {
            f[r * row..][..soh + 1].copy_from_slice(frame_key(r * row, soh + 1));
        }
        // Row 1 SOH: B1.  Row 3: H1/H2 fixed pointer (concatenation-style
        // constant), H3 = 0; path AIS replaces the pointer with all ones.
        // Row 4: B2.
        f[row] ^= self.next_b1;
        let ais = self.ais_frames > 0;
        let (h1, h2) = if ais {
            self.ais_frames -= 1;
            (0xFF, 0xFF)
        } else {
            // H1: NDF=0110, ss=10, pointer MSBs 0; H2: pointer LSBs.
            (0x62, 0x0A)
        };
        f[3 * row] ^= h1;
        f[3 * row + n] ^= h2;
        f[4 * row] ^= self.next_b2;

        // Path overhead column (first payload column), one byte per row:
        // J1 path trace, B3 path BIP-8 (previous SPE), C2, and G1 with
        // REI in bits 4-7 (0..=8 errors) and RDI in bit 3.
        let rei = self.rei_backlog.min(8) as u8;
        self.rei_backlog -= rei as u64;
        let poh = [
            self.path_trace,
            self.next_b3,
            C2_PPP_SCRAMBLED,
            (rei << 4) | (u8::from(self.send_rdi) << 3),
        ];
        for (r, &value) in poh.iter().enumerate() {
            f[r * row + soh] ^= value;
        }

        // The payload (everything right of the POH column) a row at a
        // time: queued octets, then `more`, then idle fill.  B3 for the
        // next frame is the path BIP-8 over this frame's SPE (POH column
        // included) before line scrambling.  B1 over the line image is
        // each row's overhead octets plus its payload's parity, which is
        // the scrambled payload's XOR the key's (parity is linear).
        let mut fill = 0usize;
        let mut payload_parity = 0u8;
        let mut b1 = 0u8;
        for r in 0..9 {
            let (overhead, payload) = f[r * row..(r + 1) * row].split_at_mut(soh + 1);
            let key = frame_key(r * row + soh + 1, payload.len());
            b1 ^= bip8(overhead) ^ frame_key_parity(r * row + soh + 1, payload.len());
            let mut done = 0;
            while done < payload.len() {
                let queued = self.queue.len() - self.head;
                let src: &[u8] = if queued > 0 {
                    &self.queue[self.head..]
                } else if !more.is_empty() {
                    more
                } else {
                    &FILL
                };
                let take = src.len().min(payload.len() - done);
                let (src, key) = (&src[..take], &key[done..][..take]);
                let dst = &mut payload[done..][..take];
                payload_parity ^= match x43.as_deref_mut() {
                    Some(scr) => scr.scramble_keyed(src, key, dst),
                    None => {
                        for ((d, s), k) in dst.iter_mut().zip(src).zip(key) {
                            *d = s ^ k;
                        }
                        bip8(src)
                    }
                };
                if queued > 0 {
                    self.head += take;
                } else if !more.is_empty() {
                    *more = &more[take..];
                } else {
                    fill += take;
                }
                done += take;
            }
        }
        self.next_b3 = bip8(&poh) ^ payload_parity;

        // Parity for the *next* frame.  B2 excludes the regenerator
        // section overhead (rows 0..3 of the SOH columns), and XOR
        // parity cancels: B2 = B1 ^ BIP-8(RSOH).
        self.next_b1 = b1 ^ payload_parity;
        self.next_b2 = self.next_b1 ^ rsoh_parity(f, row, soh);

        self.frames_emitted += 1;
        self.payload_bytes_sent += (self.level.payload_per_frame() - fill) as u64;
        self.fill_bytes_sent += fill as u64;
    }
}

/// BIP-8 over the regenerator section overhead of a line image: rows
/// 0–2 of the SOH columns.
fn rsoh_parity(line: &[u8], row: usize, soh: usize) -> u8 {
    line.chunks_exact(row)
        .take(3)
        .fold(0, |acc, r| acc ^ bip8(&r[..soh]))
}

/// Receive-side defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxDefect {
    /// Out of frame: framing bytes failed while aligned.
    OutOfFrame,
    /// B1 parity mismatch (regenerator section).
    B1Error,
    /// B2 parity mismatch (multiplex section).
    B2Error,
    /// B3 parity mismatch (path).
    B3Error,
    /// Unexpected path signal label.
    PayloadLabelMismatch(u8),
    /// All-ones pointer: path alarm indication signal.
    PathAis,
    /// Far end reports a defect (G1 RDI).
    RemoteDefect,
    /// Section trace (J0) did not match the provisioned value.
    SectionTraceMismatch(u8),
    /// Path trace (J1) did not match the provisioned value.
    PathTraceMismatch(u8),
}

/// Receive-side counters (what a SONET line card reports to management).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionStats {
    pub frames_ok: u64,
    pub oof_events: u64,
    pub b1_errors: u64,
    pub b2_errors: u64,
    /// Path BIP-8 (B3) mismatches.
    pub b3_errors: u64,
    pub label_mismatches: u64,
    pub hunts: u64,
    /// Frames received with the path-AIS all-ones pointer.
    pub path_ais_frames: u64,
    /// Remote Error Indications accumulated from G1.
    pub remote_errors: u64,
    /// Frames with the RDI bit set in G1.
    pub remote_defect_frames: u64,
    /// Section (J0) trace mismatches.
    pub section_trace_mismatches: u64,
    /// Path (J1) trace mismatches.
    pub path_trace_mismatches: u64,
}

impl p5_stream::Observable for SectionStats {
    fn snapshot(&self) -> p5_stream::Snapshot {
        p5_stream::Snapshot::new("sonet-section")
            .counter("frames_ok", self.frames_ok)
            .counter("oof_events", self.oof_events)
            .counter("b1_errors", self.b1_errors)
            .counter("b2_errors", self.b2_errors)
            .counter("b3_errors", self.b3_errors)
            .counter("label_mismatches", self.label_mismatches)
            .counter("hunts", self.hunts)
            .counter("path_ais_frames", self.path_ais_frames)
            .counter("remote_errors", self.remote_errors)
            .counter("remote_defect_frames", self.remote_defect_frames)
            .counter("section_trace_mismatches", self.section_trace_mismatches)
            .counter("path_trace_mismatches", self.path_trace_mismatches)
    }
}

enum RxState {
    /// Searching the byte stream for the A1/A2 signature.
    Hunt,
    /// Aligned; taking one frame worth of bytes at a time.
    Aligned,
}

/// Most recent defects a [`FrameReceiver`] keeps for
/// [`FrameReceiver::poll_defects`].  Nobody has to poll: older entries
/// fall off, and [`SectionStats`] carries the totals.
pub const DEFECT_WINDOW: usize = 64;

/// Delineates frames from a raw line-byte stream and recovers the payload.
pub struct FrameReceiver {
    level: StmLevel,
    state: RxState,
    /// Aligned: the head of a frame split across pushes.  Hunt: the
    /// last ≤ 3N octets seen, in case the signature straddles pushes.
    buf: Vec<u8>,
    stats: SectionStats,
    expected_b1: Option<u8>,
    expected_b2: Option<u8>,
    expected_b3: Option<u8>,
    /// Provisioned trace values to police (None = don't check).
    pub expected_section_trace: Option<u8>,
    pub expected_path_trace: Option<u8>,
    defects: VecDeque<RxDefect>,
    /// Consecutive bad framing patterns while aligned (≥ 2 ⇒ re-hunt,
    /// mirroring the M=... out-of-frame persistency check).
    bad_framings: u32,
}

impl FrameReceiver {
    pub fn new(level: StmLevel) -> Self {
        Self {
            level,
            state: RxState::Hunt,
            buf: Vec::new(),
            stats: SectionStats::default(),
            expected_b1: None,
            expected_b2: None,
            expected_b3: None,
            expected_section_trace: None,
            expected_path_trace: None,
            defects: VecDeque::new(),
            bad_framings: 0,
        }
    }

    pub fn stats(&self) -> &SectionStats {
        &self.stats
    }

    /// In frame with no frame split across pushes: the next whole frame
    /// pushed is delivered by that push.  False while hunting (after a
    /// loss of frame, or before the first lock), and while a lock taken
    /// mid-push holds the head of a frame.
    pub(crate) fn is_aligned(&self) -> bool {
        matches!(self.state, RxState::Aligned) && self.buf.is_empty()
    }

    /// Drain the defects observed since the last call — the most recent
    /// [`DEFECT_WINDOW`] of them, oldest first.
    pub fn poll_defects(&mut self) -> Vec<RxDefect> {
        self.defects.drain(..).collect()
    }

    fn note(&mut self, defect: RxDefect) {
        if self.defects.len() == DEFECT_WINDOW {
            self.defects.pop_front();
        }
        self.defects.push_back(defect);
    }

    /// Push line bytes; returns recovered payload bytes (in order).
    pub fn push(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        self.push_into(bytes, &mut payload);
        payload
    }

    /// Push line bytes, appending the recovered payload to `out`.  A
    /// whole frame at the expected offset is read straight from `bytes`;
    /// only a frame split across pushes is copied.
    pub fn push_into(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
        self.push_descrambled_into(bytes, None, out);
    }

    /// [`FrameReceiver::push_into`], with the recovered payload also
    /// x⁴³+1-descrambled by `x43` in the same pass (RFC 2615 mode).
    pub(crate) fn push_descrambled_into(
        &mut self,
        mut bytes: &[u8],
        mut x43: Option<&mut PayloadScrambler>,
        out: &mut Vec<u8>,
    ) {
        let frame_bytes = self.level.frame_bytes();
        while !bytes.is_empty() {
            match self.state {
                RxState::Hunt => bytes = self.hunt(bytes),
                RxState::Aligned if self.buf.is_empty() && bytes.len() >= frame_bytes => {
                    let (frame, rest) = bytes.split_at(frame_bytes);
                    self.process_frame(frame, x43.as_deref_mut(), out);
                    bytes = rest;
                }
                RxState::Aligned => {
                    let (head, rest) =
                        bytes.split_at(bytes.len().min(frame_bytes - self.buf.len()));
                    self.buf.extend_from_slice(head);
                    bytes = rest;
                    if self.buf.len() == frame_bytes {
                        let frame = std::mem::take(&mut self.buf);
                        self.process_frame(&frame, x43.as_deref_mut(), out);
                        self.buf = frame;
                        self.buf.clear();
                    }
                }
            }
        }
    }

    /// Search for the signature A1 ×3N followed by one A2 — the frame
    /// begins at the first A1 of that run — and return the bytes still
    /// to be taken.  On a hit the receiver is aligned, with whatever
    /// part of the new frame was already consumed in `buf`.
    fn hunt<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        let n = self.level.n();
        let overlap = 3 * n; // signature length - 1
        if !self.buf.is_empty() {
            // A signature that began in an earlier push ends within the
            // first 3N octets of this one.
            let (head, rest) = bytes.split_at(bytes.len().min(overlap));
            self.buf.extend_from_slice(head);
            if let Some(at) = find_signature(&self.buf, n) {
                self.buf.drain(..at);
                self.lock();
                return rest;
            }
            if rest.is_empty() {
                self.buf.drain(..self.buf.len().saturating_sub(overlap));
                return rest;
            }
            self.buf.clear();
        }
        match find_signature(bytes, n) {
            Some(at) => {
                self.lock();
                &bytes[at..]
            }
            None => {
                self.buf
                    .extend_from_slice(&bytes[bytes.len().saturating_sub(overlap)..]);
                &[]
            }
        }
    }

    fn lock(&mut self) {
        self.state = RxState::Aligned;
        self.stats.hunts += 1;
    }

    fn process_frame(
        &mut self,
        line: &[u8],
        mut x43: Option<&mut PayloadScrambler>,
        out: &mut Vec<u8>,
    ) {
        let n = self.level.n();
        let row = self.level.row_bytes();
        let soh = self.level.soh_bytes();

        // Framing check on the raw (unscrambled) row-0 bytes.
        let a1_ok = line[..3 * n].iter().all(|&b| b == A1);
        let a2_ok = line[3 * n..6 * n].iter().all(|&b| b == A2);
        if !(a1_ok && a2_ok) {
            self.bad_framings += 1;
            if self.bad_framings >= 2 {
                self.state = RxState::Hunt;
                self.stats.oof_events += 1;
                self.note(RxDefect::OutOfFrame);
                self.expected_b1 = None;
                self.expected_b2 = None;
                self.expected_b3 = None;
                self.bad_framings = 0;
                return;
            }
        } else {
            self.bad_framings = 0;
        }

        // Parity over the line image (B1 of frame k covers scrambled
        // frame k-1; B2 is the same less the regenerator section).
        let this_b1 = bip8(line);
        let this_b2 = this_b1 ^ rsoh_parity(line, row, soh);

        // One descrambled overhead octet (row-0 SOH is never scrambled
        // and never read through here).
        let clear = |at: usize| line[at] ^ FrameScrambler::key_at(at);

        // Check parity carried in this frame against the previous frame.
        if self.expected_b1.is_some_and(|exp| clear(row) != exp) {
            self.stats.b1_errors += 1;
            self.note(RxDefect::B1Error);
        }
        if self.expected_b2.is_some_and(|exp| clear(4 * row) != exp) {
            self.stats.b2_errors += 1;
            self.note(RxDefect::B2Error);
        }
        self.expected_b1 = Some(this_b1);
        self.expected_b2 = Some(this_b2);

        // Extract the payload (everything right of the POH column) a
        // row at a time in one keyed pass: the frame key off, then x⁴³+1
        // if on, each octet written once where it lands in `out`.  Path
        // BIP-8 runs over the SPE with the frame key off, POH column
        // included — the line's parity XOR the key's — and is checked
        // against the B3 carried in the *next* frame.
        let mut this_b3 = 0u8;
        for r in 0..9 {
            let poh = r * row + soh;
            let payload = &line[poh + 1..(r + 1) * row];
            let key = frame_key(poh + 1, payload.len());
            match x43.as_deref_mut() {
                Some(scr) => scr.descramble_keyed_into(payload, key, out),
                None => out.extend(payload.iter().zip(key).map(|(l, k)| l ^ k)),
            }
            this_b3 ^= clear(poh) ^ bip8(payload) ^ frame_key_parity(poh + 1, payload.len());
        }
        if self.expected_b3.is_some_and(|exp| clear(row + soh) != exp) {
            self.stats.b3_errors += 1;
            self.note(RxDefect::B3Error);
        }
        self.expected_b3 = Some(this_b3);

        // Pointer-borne alarms: all-ones H1/H2 is path AIS (H1/H2 are
        // under the frame-synchronous scrambler, so check descrambled).
        if clear(3 * row) == 0xFF && clear(3 * row + n) == 0xFF {
            self.stats.path_ais_frames += 1;
            self.note(RxDefect::PathAis);
        }

        // G1: remote error/defect indications from the far end.
        let g1 = clear(3 * row + soh);
        let rei = (g1 >> 4) as u64;
        if rei <= 8 {
            self.stats.remote_errors += rei;
        }
        if g1 & 0x08 != 0 {
            self.stats.remote_defect_frames += 1;
            self.note(RxDefect::RemoteDefect);
        }

        // Trace supervision.
        if let Some(exp) = self.expected_section_trace {
            let j0 = line[6 * n];
            if j0 != exp {
                self.stats.section_trace_mismatches += 1;
                self.note(RxDefect::SectionTraceMismatch(j0));
            }
        }
        if let Some(exp) = self.expected_path_trace {
            let j1 = clear(soh);
            if j1 != exp {
                self.stats.path_trace_mismatches += 1;
                self.note(RxDefect::PathTraceMismatch(j1));
            }
        }

        // Path signal label.
        let c2 = clear(2 * row + soh);
        if c2 != C2_PPP_SCRAMBLED {
            self.stats.label_mismatches += 1;
            self.note(RxDefect::PayloadLabelMismatch(c2));
        }
        self.stats.frames_ok += 1;
    }
}

/// Offset of the first A1 ×3N, A2 run in `hay`.
fn find_signature(hay: &[u8], n: usize) -> Option<usize> {
    hay.windows(3 * n + 1)
        .position(|w| w[3 * n] == A2 && w[..3 * n].iter().all(|&b| b == A1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_and_rates() {
        assert_eq!(StmLevel::Stm1.frame_bytes(), 2430);
        assert_eq!(StmLevel::Stm16.frame_bytes(), 38880);
        assert_eq!(StmLevel::Stm1.line_rate_bps(), 155_520_000);
        assert_eq!(StmLevel::Stm4.line_rate_bps(), 622_080_000);
        assert_eq!(StmLevel::Stm16.line_rate_bps(), 2_488_320_000);
        // Payload rate close to but below line rate.
        assert!(StmLevel::Stm16.payload_rate_bps() > 2_300_000_000);
        assert!(StmLevel::Stm16.payload_rate_bps() < StmLevel::Stm16.line_rate_bps());
    }

    #[test]
    fn frame_starts_with_framing_pattern() {
        let mut tx = FrameTransmitter::new(StmLevel::Stm4);
        let f = tx.emit_frame();
        let n = 4;
        assert!(f[..3 * n].iter().all(|&b| b == A1));
        assert!(f[3 * n..6 * n].iter().all(|&b| b == A2));
    }

    #[test]
    fn payload_round_trips_through_aligned_receiver() {
        let mut tx = FrameTransmitter::new(StmLevel::Stm1);
        let data: Vec<u8> = (0..200u8).collect();
        tx.offer_payload(&data);
        let mut rx = FrameReceiver::new(StmLevel::Stm1);
        let mut got = Vec::new();
        for _ in 0..2 {
            got.extend(rx.push(&tx.emit_frame()));
        }
        assert_eq!(&got[..200], &data[..]);
        // Remainder is idle fill.
        assert!(got[200..].iter().all(|&b| b == IDLE_FILL));
        assert_eq!(rx.stats().frames_ok, 2);
        assert_eq!(rx.stats().b1_errors, 0);
        assert_eq!(rx.stats().b2_errors, 0);
    }

    #[test]
    fn receiver_locks_on_mid_stream() {
        let mut tx = FrameTransmitter::new(StmLevel::Stm1);
        let mut line = Vec::new();
        for _ in 0..3 {
            line.extend(tx.emit_frame());
        }
        // Start 1000 bytes in: the receiver must hunt and then deliver the
        // later frames' payload.
        let mut rx = FrameReceiver::new(StmLevel::Stm1);
        let got = rx.push(&line[1000..]);
        assert!(rx.stats().frames_ok >= 1);
        assert!(!got.is_empty());
        assert_eq!(rx.stats().hunts, 1);
    }

    #[test]
    fn corrupted_payload_byte_trips_b1_and_b2() {
        let mut tx = FrameTransmitter::new(StmLevel::Stm1);
        let mut rx = FrameReceiver::new(StmLevel::Stm1);
        let f1 = tx.emit_frame();
        let mut f1 = f1;
        f1[1500] ^= 0xFF; // payload area corruption
        rx.push(&f1);
        // Parity for f1 is carried in f2.
        rx.push(&tx.emit_frame());
        rx.push(&tx.emit_frame());
        assert_eq!(rx.stats().b1_errors, 1);
        assert_eq!(rx.stats().b2_errors, 1);
    }

    #[test]
    fn corrupted_framing_causes_rehunt_and_recovery() {
        let mut tx = FrameTransmitter::new(StmLevel::Stm1);
        let mut rx = FrameReceiver::new(StmLevel::Stm1);
        rx.push(&tx.emit_frame());
        // Two consecutive frames with smashed A1s.
        for _ in 0..2 {
            let mut f = tx.emit_frame();
            f[0] = 0x00;
            f[1] = 0x00;
            rx.push(&f);
        }
        assert_eq!(rx.stats().oof_events, 1);
        // Clean frames afterwards: re-lock.
        let before = rx.stats().frames_ok;
        for _ in 0..3 {
            rx.push(&tx.emit_frame());
        }
        assert!(rx.stats().frames_ok > before);
        assert_eq!(rx.stats().hunts, 2);
    }

    #[test]
    fn single_bad_framing_is_tolerated() {
        let mut tx = FrameTransmitter::new(StmLevel::Stm1);
        let mut rx = FrameReceiver::new(StmLevel::Stm1);
        rx.push(&tx.emit_frame());
        let mut f = tx.emit_frame();
        f[0] = 0x00; // one bad A1
        rx.push(&f);
        rx.push(&tx.emit_frame());
        assert_eq!(rx.stats().oof_events, 0, "single hit must not lose lock");
    }

    #[test]
    fn backlog_accounting() {
        let mut tx = FrameTransmitter::new(StmLevel::Stm1);
        let cap = StmLevel::Stm1.payload_per_frame();
        tx.offer_payload(&vec![0xAA; cap + 100]);
        assert_eq!(tx.backlog(), cap + 100);
        tx.emit_frame();
        assert_eq!(tx.backlog(), 100);
        assert_eq!(tx.payload_bytes_sent(), cap as u64);
        tx.emit_frame();
        assert_eq!(tx.backlog(), 0);
        assert_eq!(tx.fill_bytes_sent(), (cap - 100) as u64);
    }
}
