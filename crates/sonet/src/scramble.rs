//! The two scramblers of PPP over SONET/SDH.
//!
//! 1. The ITU-T G.707 **frame-synchronous** scrambler, generator
//!    1 + x⁶ + x⁷, reset to all-ones at the first payload byte of every
//!    frame.  It whitens everything except the first row of the
//!    regenerator section overhead (so A1/A2 stay visible for alignment).
//! 2. The RFC 2615 **self-synchronous** x⁴³ + 1 payload scrambler, added
//!    for PPP because a malicious payload could otherwise mimic the
//!    frame-sync scrambler and kill clock recovery.  Self-synchronous:
//!    the descrambler realigns itself after any slip within 43 bits.
//!
//! Both run word- and slice-wide (DESIGN.md §2.1 has the derivations);
//! the bit-serial forms they must match octet for octet live in
//! `tests/common/serial.rs` as the oracle of `tests/wordwide_equiv.rs`.
//! The framer runs them together, one keyed pass per payload row and
//! side (`PayloadScrambler::scramble_keyed` on transmit,
//! `PayloadScrambler::descramble_keyed_into` on receive).

use crate::frame::StmLevel;

/// Octets in one keystream period: the LFSR repeats every 127 bits and
/// gcd(8, 127) = 1, so the octet stream repeats every 127 octets —
/// eight whole bit periods.
const PERIOD: usize = 127;

/// One period of the 1 + x⁶ + x⁷ keystream from the all-ones preset,
/// MSB transmitted first.
const KEYSTREAM: [u8; PERIOD] = keystream();

const fn keystream() -> [u8; PERIOD] {
    let mut table = [0u8; PERIOD];
    let mut state = 0x7Fu8; // 7-bit LFSR, all-ones preset
    let mut i = 0;
    while i < PERIOD {
        let mut bit = 0;
        while bit < 8 {
            table[i] = (table[i] << 1) | ((state >> 6) & 1); // x^7 tap output
            let fb = ((state >> 6) ^ (state >> 5)) & 1; // x^7 ^ x^6
            state = ((state << 1) | fb) & 0x7F;
            bit += 1;
        }
        i += 1;
    }
    table
}

/// The keystream from every phase on, for as long as the widest row:
/// `KEY_RUN[o % 127..][..len]` keys any `len ≤ 4320` line octets from
/// line offset `o` in one contiguous slice.
static KEY_RUN: [u8; KEY_RUN_LEN] = key_run();

/// Prefix parity of [`KEY_RUN`]: `KEY_PARITY[i]` is the XOR of its first
/// `i` octets.
static KEY_PARITY: [u8; KEY_RUN_LEN + 1] = key_parity();

const KEY_RUN_LEN: usize = PERIOD + StmLevel::Stm16.row_bytes();

const fn key_run() -> [u8; KEY_RUN_LEN] {
    let mut run = [0u8; KEY_RUN_LEN];
    let mut i = 0;
    while i < KEY_RUN_LEN {
        run[i] = KEYSTREAM[i % PERIOD];
        i += 1;
    }
    run
}

const fn key_parity() -> [u8; KEY_RUN_LEN + 1] {
    let run = key_run();
    let mut parity = [0u8; KEY_RUN_LEN + 1];
    let mut i = 0;
    while i < KEY_RUN_LEN {
        parity[i + 1] = parity[i] ^ run[i];
        i += 1;
    }
    parity
}

/// The frame keystream under line octets `offset..offset + len` of a
/// frame (`len` at most one STM-16 row).
#[inline]
pub(crate) fn frame_key(offset: usize, len: usize) -> &'static [u8] {
    &KEY_RUN[offset % PERIOD..][..len]
}

/// BIP-8 of [`frame_key`]`(offset, len)`, from the prefix table.
#[inline]
pub(crate) fn frame_key_parity(offset: usize, len: usize) -> u8 {
    let at = offset % PERIOD;
    KEY_PARITY[at] ^ KEY_PARITY[at + len]
}

#[inline]
fn xor_into(dst: &mut [u8], key: &[u8]) {
    for (d, k) in dst.iter_mut().zip(key) {
        *d ^= k;
    }
}

/// ITU G.707 frame-synchronous scrambler (1 + x⁶ + x⁷), byte-oriented:
/// a phase index into the 127-octet keystream table.
#[derive(Debug, Clone)]
pub struct FrameScrambler {
    phase: usize,
}

impl Default for FrameScrambler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameScrambler {
    pub fn new() -> Self {
        Self { phase: 0 }
    }

    /// Reset to the all-ones preset (done at the start of every frame's
    /// scrambled region).
    pub fn reset(&mut self) {
        self.phase = 0;
    }

    /// Advance the keystream by `octets` without applying it (the
    /// unscrambled row-0 section overhead still clocks the generator).
    pub fn skip(&mut self, octets: usize) {
        self.phase = (self.phase + octets) % PERIOD;
    }

    /// The keystream octet `offset` octets after the preset.
    #[inline]
    pub const fn key_at(offset: usize) -> u8 {
        KEYSTREAM[offset % PERIOD]
    }

    /// Next keystream byte (MSB transmitted first).
    #[inline]
    pub fn keystream_byte(&mut self) -> u8 {
        let key = KEYSTREAM[self.phase];
        self.skip(1);
        key
    }

    /// Scramble (or descramble — XOR is an involution) a buffer in place,
    /// a row's worth of keystream at a time.
    pub fn apply(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(KEY_RUN_LEN - PERIOD) {
            xor_into(chunk, frame_key(self.phase, chunk.len()));
            self.skip(chunk.len());
        }
    }
}

const MASK43: u64 = (1 << 43) - 1;

/// One 64-bit word of x⁴³+1 transmit: the output word, from history `h`
/// and input word `w` (big-endian, first bit transmitted at the top).
/// The next history is `out & MASK43`.
#[inline(always)]
fn word_step(h: u64, w: u64) -> u64 {
    // History aligned under the word's first 43 bits; the last 21 take
    // the word's own first 21 output bits.
    let t = w ^ (h << 21);
    t ^ (t >> 43)
}

/// Two words (128 bits) of x⁴³+1 transmit: both output words and the
/// next history.  128 = 3·43 − 1, so with no data the history comes
/// back as itself rotated right by one bit; the data adds a term that
/// needs no history.  The chain carried from step to step is that one
/// rotate and one XOR — the output words hang off it, not in it.
#[inline(always)]
fn pair_step(h: u64, w0: u64, w1: u64) -> (u64, u64, u64) {
    let o0 = word_step(h, w0);
    let o1 = word_step(o0 & MASK43, w1);
    let data = word_step(word_step(0, w0) & MASK43, w1) & MASK43;
    let rotated = (h >> 1) | ((h & 1) << 42);
    (o0, o1, rotated ^ data)
}

/// x⁴³+1 receive for one octet: `out[n] = in[n] ^ in[n-43]`, and bit
/// `n - 43` of octet `i` is bit `n + 5` of octet `i - 6` (its first
/// three bits) or of octet `i - 5` (its last five).
#[inline(always)]
fn lag_octet(six_back: u8, five_back: u8, octet: u8) -> u8 {
    octet ^ (six_back << 5) ^ (five_back >> 3)
}

/// RFC 2615 self-synchronous x⁴³ + 1 scrambler.
///
/// Transmit: `out[n] = in[n] ^ out[n-43]`; receive: `out[n] = in[n] ^
/// in[n-43]`.  The 43-bit history lives in a shift register; bits are
/// MSB-first to match serial transmission order.  Because the delay is
/// longer than an octet, an octet's eight bits depend only on the
/// history.  Transmit goes two 64-bit words a step, then one, then
/// octets; receive is an octet lag form with no carried dependency.
#[derive(Debug, Clone)]
pub struct PayloadScrambler {
    /// 43-bit delay line shifting left: bit 42 is the oldest bit (the
    /// next to come out of the delay), bit 0 the newest.
    history: u64,
}

impl Default for PayloadScrambler {
    fn default() -> Self {
        Self::new()
    }
}

impl PayloadScrambler {
    pub fn new() -> Self {
        Self { history: 0 }
    }

    /// Scramble one byte for transmission.
    #[inline]
    pub fn scramble_byte(&mut self, byte: u8) -> u8 {
        let out = byte ^ (self.history >> 35) as u8;
        self.shift_in(out);
        out
    }

    /// Descramble one received byte.
    #[inline]
    pub fn descramble_byte(&mut self, byte: u8) -> u8 {
        let out = byte ^ (self.history >> 35) as u8;
        // Self-synchronous: the *received* bits enter the delay line.
        self.shift_in(byte);
        out
    }

    /// One octet into the delay line.
    #[inline]
    fn shift_in(&mut self, octet: u8) {
        self.history = ((self.history << 8) | u64::from(octet)) & MASK43;
    }

    pub fn scramble(&mut self, buf: &mut [u8]) {
        let (pairs, tail) = buf.as_chunks_mut::<16>();
        let mut h = self.history;
        for pair in pairs {
            let (w0, w1) = split_pair(pair);
            let (o0, o1, next) = pair_step(h, w0, w1);
            *pair = join_pair(o0, o1);
            h = next;
        }
        self.history = h;
        self.scramble_tail(tail);
    }

    /// Fewer than 16 octets: one word step if there is a word, then
    /// octet steps.
    fn scramble_tail(&mut self, tail: &mut [u8]) {
        let (words, octets) = tail.as_chunks_mut::<8>();
        for word in words {
            let out = word_step(self.history, u64::from_be_bytes(*word));
            self.history = out & MASK43;
            *word = out.to_be_bytes();
        }
        for b in octets {
            *b = self.scramble_byte(*b);
        }
    }

    /// [`PayloadScrambler::scramble`] `src` and XOR `key` over it into
    /// `dst` (all three the same length) — transmit's one pass over a
    /// payload row, writing each line octet once.  Returns the BIP-8 of
    /// the scrambled octets before the key (their share of B3).
    pub(crate) fn scramble_keyed(&mut self, src: &[u8], key: &[u8], dst: &mut [u8]) -> u8 {
        let (pairs, tail) = src.as_chunks::<16>();
        let (dst_pairs, dst_tail) = dst.as_chunks_mut::<16>();
        let (key_pairs, key_tail) = key.as_chunks::<16>();
        let mut h = self.history;
        let mut parity = 0u64;
        for ((pair, out), key) in pairs.iter().zip(dst_pairs).zip(key_pairs) {
            let (w0, w1) = split_pair(pair);
            let (k0, k1) = split_pair(key);
            let (o0, o1, next) = pair_step(h, w0, w1);
            *out = join_pair(o0 ^ k0, o1 ^ k1);
            parity ^= o0 ^ o1;
            h = next;
        }
        self.history = h;
        dst_tail.copy_from_slice(tail);
        self.scramble_tail(dst_tail);
        let parity = fold_parity(parity) ^ crate::frame::bip8(dst_tail);
        xor_into(dst_tail, key_tail);
        parity
    }

    pub fn descramble(&mut self, buf: &mut [u8]) {
        // Received octets go through a block on the stack behind the six
        // before them, so the lags read what was received, not what was
        // written back.
        const BLOCK: usize = 256;
        let mut received = [0u8; 6 + BLOCK];
        received[..6].copy_from_slice(&self.octets_back());
        for block in buf.chunks_mut(BLOCK) {
            let n = block.len();
            received[6..6 + n].copy_from_slice(block);
            let lags = received.iter().zip(&received[1..]).zip(&received[6..6 + n]);
            for (b, ((&six_back, &five_back), &octet)) in block.iter_mut().zip(lags) {
                *b = lag_octet(six_back, five_back, octet);
            }
            received.copy_within(n..n + 6, 0);
        }
        for &b in &received[..6] {
            self.shift_in(b);
        }
    }

    /// Receive one payload row: `line ^ key` is the received x⁴³+1
    /// stream (the frame key comes off first); append it descrambled to
    /// `out` — each octet written once, where it lands.
    pub(crate) fn descramble_keyed_into(&mut self, line: &[u8], key: &[u8], out: &mut Vec<u8>) {
        let len = line.len();
        let head = len.min(6);
        // The six octets before the row, then the row's first six.
        let mut edge = [0u8; 12];
        edge[..6].copy_from_slice(&self.octets_back());
        for (e, (l, k)) in edge[6..].iter_mut().zip(line.iter().zip(key)) {
            *e = l ^ k;
        }
        out.extend((0..head).map(|i| lag_octet(edge[i], edge[i + 1], edge[i + 6])));
        if len > 6 {
            let (six_back, six_key) = (&line[..len - 6], &key[..len - 6]);
            let (five_back, five_key) = (&line[1..len - 5], &key[1..len - 5]);
            out.extend(
                line[6..]
                    .iter()
                    .zip(&key[6..])
                    .zip(six_back.iter().zip(six_key))
                    .zip(five_back.iter().zip(five_key))
                    .map(|(((l, k), (l6, k6)), (l5, k5))| lag_octet(l6 ^ k6, l5 ^ k5, l ^ k)),
            );
        }
        for (l, k) in line[len - head..].iter().zip(&key[len - head..]) {
            self.shift_in(l ^ k);
        }
    }

    /// The six received octets before the next one, as the history holds
    /// them (the oldest keeps only its last three bits — all the lag
    /// form reads of it).
    fn octets_back(&self) -> [u8; 6] {
        let h = self.history;
        [40, 32, 24, 16, 8, 0].map(|shift| (h >> shift) as u8)
    }
}

/// Sixteen octets as two big-endian words, and back.
#[inline(always)]
fn split_pair(pair: &[u8; 16]) -> (u64, u64) {
    let v = u128::from_be_bytes(*pair);
    ((v >> 64) as u64, v as u64)
}

#[inline(always)]
fn join_pair(w0: u64, w1: u64) -> [u8; 16] {
    ((u128::from(w0) << 64) | u128::from(w1)).to_be_bytes()
}

/// BIP-8 of the eight octets of `word`.
#[inline]
fn fold_parity(word: u64) -> u8 {
    let w = word ^ (word >> 32);
    let w = w ^ (w >> 16);
    (w ^ (w >> 8)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_scrambler_period_is_127() {
        let mut s = FrameScrambler::new();
        let first: Vec<u8> = (0..127).map(|_| s.keystream_byte()).collect();
        let second: Vec<u8> = (0..127).map(|_| s.keystream_byte()).collect();
        assert_eq!(first, second);
        // ...and it is not shorter.
        assert_ne!(first[..63], first[64..127]);
    }

    #[test]
    fn frame_scrambler_is_involution() {
        let mut a = FrameScrambler::new();
        let mut b = FrameScrambler::new();
        let mut buf = b"hello sonet frame".to_vec();
        let orig = buf.clone();
        a.apply(&mut buf);
        assert_ne!(buf, orig);
        b.apply(&mut buf);
        assert_eq!(buf, orig);
    }

    #[test]
    fn frame_scrambler_first_key_bits_are_ones() {
        // All-ones preset means the first keystream bit run is 1111111 0...
        let mut s = FrameScrambler::new();
        assert_eq!(s.keystream_byte() & 0xFE, 0xFE);
    }

    #[test]
    fn payload_scrambler_round_trip() {
        let mut tx = PayloadScrambler::new();
        let mut rx = PayloadScrambler::new();
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut wire = data.clone();
        tx.scramble(&mut wire);
        assert_ne!(wire, data);
        let mut out = wire;
        rx.descramble(&mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn payload_descrambler_self_synchronises() {
        // Start the descrambler mid-stream with garbage history: after 43
        // bits (6 bytes) it must lock on.
        let mut tx = PayloadScrambler::new();
        let data = [0xA5u8; 64];
        let wire: Vec<u8> = data.iter().map(|&b| tx.scramble_byte(b)).collect();
        let mut rx = PayloadScrambler {
            history: 0x7FF_FFFF_FFFF,
        };
        let out: Vec<u8> = wire.iter().map(|&b| rx.descramble_byte(b)).collect();
        assert_eq!(&out[6..], &data[6..], "must resync within 43 bits");
        assert_ne!(out[0], data[0], "garbage history corrupts the first bits");
    }

    #[test]
    fn single_wire_bit_error_corrupts_exactly_two_bits() {
        // x^43+1 error propagation: one wire error hits the current bit and
        // the bit 43 later, nothing else — which is why PPP's FCS still
        // catches it.
        let mut tx = PayloadScrambler::new();
        let data = vec![0u8; 32];
        let mut wire: Vec<u8> = data.iter().map(|&b| tx.scramble_byte(b)).collect();
        wire[4] ^= 0x80; // flip one bit
        let mut rx = PayloadScrambler::new();
        let out: Vec<u8> = wire.iter().map(|&b| rx.descramble_byte(b)).collect();
        let flipped: u32 = out
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 2);
    }

    /// splitmix64, for histories and octets.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every length 0..=4320 (one phase each, cycling), and every one
    /// of the 127 phases at the lengths around the lag and the steps.
    fn phases_and_lengths() -> impl Iterator<Item = (usize, usize)> {
        let max = StmLevel::Stm16.row_bytes();
        let every_length = (0..=max).map(|len| ((len * 53) % PERIOD, len));
        let every_phase = (0..PERIOD)
            .flat_map(move |p| [0, 1, 5, 6, 7, 15, 16, 17, 33, max - 1, max].map(|len| (p, len)));
        every_length.chain(every_phase)
    }

    #[test]
    fn pair_step_is_two_word_steps_and_a_rotation() {
        let mut rng = 3;
        for _ in 0..10_000 {
            let h = splitmix(&mut rng) & MASK43;
            let (w0, w1) = (splitmix(&mut rng), splitmix(&mut rng));
            let o0 = word_step(h, w0);
            let o1 = word_step(o0 & MASK43, w1);
            assert_eq!(pair_step(h, w0, w1), (o0, o1, o1 & MASK43));
        }
    }

    #[test]
    fn keyed_receive_is_the_frame_key_then_descramble() {
        let mut rng = 5;
        let line: Vec<u8> = (0..StmLevel::Stm16.row_bytes())
            .map(|_| splitmix(&mut rng) as u8)
            .collect();
        let mut out = Vec::new();
        for (phase, len) in phases_and_lengths() {
            let history = splitmix(&mut rng) & MASK43;
            let line = &line[..len];
            let key = frame_key(phase, len);
            assert_eq!(frame_key_parity(phase, len), crate::frame::bip8(key));
            let mut want: Vec<u8> = line.iter().zip(key).map(|(l, k)| l ^ k).collect();
            let mut by_octet = PayloadScrambler { history };
            let stepped: Vec<u8> = want.iter().map(|&b| by_octet.descramble_byte(b)).collect();
            let mut in_place = PayloadScrambler { history };
            in_place.descramble(&mut want);
            assert_eq!(want, stepped, "phase {phase}, {len} octets");
            let mut keyed = PayloadScrambler { history };
            out.clear();
            out.push(0xA5); // appended after what is there
            keyed.descramble_keyed_into(line, key, &mut out);
            assert_eq!(out[0], 0xA5);
            assert!(out[1..] == want[..], "phase {phase}, {len} octets");
            assert_eq!(keyed.history, by_octet.history, "phase {phase}, {len}");
            assert_eq!(in_place.history, by_octet.history, "phase {phase}, {len}");
        }
    }

    #[test]
    fn keyed_transmit_is_scramble_then_the_frame_key() {
        let mut rng = 7;
        let data: Vec<u8> = (0..StmLevel::Stm16.row_bytes())
            .map(|_| splitmix(&mut rng) as u8)
            .collect();
        let mut dst = vec![0u8; data.len()];
        for (phase, len) in phases_and_lengths() {
            let history = splitmix(&mut rng) & MASK43;
            let (src, key) = (&data[..len], frame_key(phase, len));
            let mut by_octet = PayloadScrambler { history };
            let stepped: Vec<u8> = src.iter().map(|&b| by_octet.scramble_byte(b)).collect();
            let mut want = src.to_vec();
            let mut in_place = PayloadScrambler { history };
            in_place.scramble(&mut want);
            assert_eq!(want, stepped, "phase {phase}, {len} octets");
            let mut keyed = PayloadScrambler { history };
            let parity = keyed.scramble_keyed(src, key, &mut dst[..len]);
            assert_eq!(parity, crate::frame::bip8(&want), "phase {phase}, {len}");
            xor_into(&mut want, key);
            assert!(dst[..len] == want[..], "phase {phase}, {len} octets");
            assert_eq!(keyed.history, by_octet.history, "phase {phase}, {len}");
            assert_eq!(in_place.history, by_octet.history, "phase {phase}, {len}");
        }
    }
}
