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

    /// Scramble (or descramble — XOR is an involution) a buffer in place:
    /// the rest of the current period, whole periods, then the tail.
    pub fn apply(&mut self, buf: &mut [u8]) {
        let len = buf.len();
        let (head, body) = buf.split_at_mut(len.min((PERIOD - self.phase) % PERIOD));
        xor_into(head, &KEYSTREAM[self.phase..]);
        let mut periods = body.chunks_exact_mut(PERIOD);
        for chunk in &mut periods {
            xor_into(chunk, &KEYSTREAM);
        }
        xor_into(periods.into_remainder(), &KEYSTREAM);
        self.skip(len);
    }
}

const MASK43: u64 = (1 << 43) - 1;

/// RFC 2615 self-synchronous x⁴³ + 1 scrambler.
///
/// Transmit: `out[n] = in[n] ^ out[n-43]`; receive: `out[n] = in[n] ^
/// in[n-43]`.  The 43-bit history lives in a shift register; bits are
/// MSB-first to match serial transmission order.  Because the delay is
/// longer than an octet, an octet's eight bits depend only on the
/// history; of a 64-bit word only the last 21 bits depend on its own
/// first 21 — so slices go eight octets a step, with an octet tail.
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
        self.history = ((self.history << 8) | u64::from(out)) & MASK43;
        out
    }

    /// Descramble one received byte.
    #[inline]
    pub fn descramble_byte(&mut self, byte: u8) -> u8 {
        let out = byte ^ (self.history >> 35) as u8;
        // Self-synchronous: the *received* bits enter the delay line.
        self.history = ((self.history << 8) | u64::from(byte)) & MASK43;
        out
    }

    pub fn scramble(&mut self, buf: &mut [u8]) {
        let (words, tail) = buf.as_chunks_mut::<8>();
        let mut h = self.history;
        for word in words {
            // History aligned under the word's first 43 bits; the last
            // 21 take the word's own first 21 output bits.
            let t = u64::from_be_bytes(*word) ^ (h << 21);
            let out = t ^ (t >> 43);
            h = out & MASK43;
            *word = out.to_be_bytes();
        }
        self.history = h;
        for b in tail {
            *b = self.scramble_byte(*b);
        }
    }

    pub fn descramble(&mut self, buf: &mut [u8]) {
        let (words, tail) = buf.as_chunks_mut::<8>();
        let mut h = self.history;
        for word in words {
            let w = u64::from_be_bytes(*word);
            *word = (w ^ (h << 21) ^ (w >> 43)).to_be_bytes();
            h = w & MASK43;
        }
        self.history = h;
        for b in tail {
            *b = self.descramble_byte(*b);
        }
    }
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
}
