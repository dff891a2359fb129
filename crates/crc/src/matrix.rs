//! The paper's parallel CRC formulation.
//!
//! Advancing an HDLC CRC register by W input bytes is a *linear* map over
//! GF(2): `state' = F·state ⊕ G·data`, where `F` is width×width and `G` is
//! width×(8·W).  The paper instantiates this as an "8 × 32-bit parallel
//! matrix (for the 8-bit P⁵) or ... a 32 × 32-bit parallel matrix (for the
//! 32-bit P⁵)" following Pei & Zukowski.  Each output bit of the next state
//! is the XOR (even parity) of a fixed subset of current-state bits and
//! input-data bits — in hardware, one XOR tree per register bit.
//!
//! [`StepMatrix`] derives those matrices for *any* byte width by probing the
//! bit-serial reference with basis vectors, and exposes the raw XOR term
//! lists so `p5-rtl` can emit the identical XOR trees as netlist logic.
//! [`MatrixEngine`] evaluates the matrix in software using per-byte-lane
//! lookup tables (the software analogue of evaluating all trees at once).

use crate::{BitwiseEngine, CrcEngine, CrcParams};

/// A source term of one output-bit XOR tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// Current-state register bit `i` (0 = LSB).
    State(usize),
    /// Input-data bit: `byte * 8 + bit`, bytes in transmission order,
    /// bits LSB-first within each byte.
    Data(usize),
}

/// The GF(2) matrices advancing a CRC register by a fixed number of bytes.
#[derive(Debug, Clone)]
pub struct StepMatrix {
    params: CrcParams,
    /// Bytes consumed per application.
    pub nbytes: usize,
    /// `state_cols[i]` = next-state contribution of current-state bit `i`.
    pub state_cols: Vec<u32>,
    /// `data_cols[j]` = next-state contribution of input-data bit `j`
    /// (byte `j / 8`, bit `j % 8`).
    pub data_cols: Vec<u32>,
}

impl StepMatrix {
    /// Derive the matrices for a `nbytes`-wide step of `params` by probing
    /// the bit-serial reference with unit vectors.  Linearity of the LFSR
    /// step (no preset/xorout inside the step) makes this exact.
    pub fn for_bytes(params: CrcParams, nbytes: usize) -> Self {
        assert!(nbytes >= 1, "step must consume at least one byte");
        let zero_data = vec![0u8; nbytes];
        let width = params.width as usize;

        let mut state_cols = Vec::with_capacity(width);
        for i in 0..width {
            state_cols.push(BitwiseEngine::step_bytes(&params, 1 << i, &zero_data));
        }

        let mut data_cols = Vec::with_capacity(nbytes * 8);
        for j in 0..nbytes * 8 {
            let mut data = zero_data.clone();
            data[j / 8] = 1 << (j % 8);
            data_cols.push(BitwiseEngine::step_bytes(&params, 0, &data));
        }

        Self {
            params,
            nbytes,
            state_cols,
            data_cols,
        }
    }

    pub fn params(&self) -> &CrcParams {
        &self.params
    }

    /// Apply the matrices: `state' = F·state ⊕ G·data`.
    /// `data` must be exactly `nbytes` long.
    pub fn apply(&self, state: u32, data: &[u8]) -> u32 {
        assert_eq!(data.len(), self.nbytes);
        let mut next = 0u32;
        let mut s = state & self.params.mask();
        while s != 0 {
            let i = s.trailing_zeros() as usize;
            next ^= self.state_cols[i];
            s &= s - 1;
        }
        for (k, &byte) in data.iter().enumerate() {
            let mut b = byte;
            while b != 0 {
                let bit = b.trailing_zeros() as usize;
                next ^= self.data_cols[k * 8 + bit];
                b &= b - 1;
            }
        }
        next
    }

    /// The XOR tree feeding next-state bit `bit`: which current-state bits
    /// and which data bits participate.  This is the netlist the hardware
    /// CRC core instantiates.
    pub fn terms_for_output_bit(&self, bit: usize) -> Vec<Term> {
        assert!(bit < self.params.width as usize);
        let probe = 1u32 << bit;
        let mut terms = Vec::new();
        for (i, &col) in self.state_cols.iter().enumerate() {
            if col & probe != 0 {
                terms.push(Term::State(i));
            }
        }
        for (j, &col) in self.data_cols.iter().enumerate() {
            if col & probe != 0 {
                terms.push(Term::Data(j));
            }
        }
        terms
    }

    /// Total XOR terms across all output bits — a direct proxy for the
    /// 2-input-gate cost of the parallel CRC core.
    pub fn total_terms(&self) -> usize {
        (0..self.params.width as usize)
            .map(|b| self.terms_for_output_bit(b).len())
            .sum()
    }

    /// Largest XOR tree over all output bits (drives logic depth).
    pub fn max_terms(&self) -> usize {
        (0..self.params.width as usize)
            .map(|b| self.terms_for_output_bit(b).len())
            .max()
            .unwrap_or(0)
    }
}

/// Software evaluation of a [`StepMatrix`] at full speed: per input byte
/// lane and per state byte lane, a 256-entry table of next-state
/// contributions (table entries are XORs of matrix columns, so this is the
/// same linear map, factored).
#[derive(Debug, Clone)]
pub struct MatrixEngine {
    matrix: StepMatrix,
    /// `state_luts[lane][byte]` for state bytes (width/8 lanes).
    state_luts: Vec<[u32; 256]>,
    /// `data_luts[lane][byte]` for the `nbytes` data lanes.
    data_luts: Vec<[u32; 256]>,
    state: u32,
    /// Bytes awaiting a full word (the word-assembly the hardware CRC
    /// control performs for the partial word at end of frame).
    pending: Vec<u8>,
}

impl MatrixEngine {
    pub fn new(params: CrcParams, nbytes: usize) -> Self {
        Self::from_matrix(StepMatrix::for_bytes(params, nbytes))
    }

    pub fn from_matrix(matrix: StepMatrix) -> Self {
        let width_bytes = (matrix.params.width as usize) / 8;
        let mut state_luts = vec![[0u32; 256]; width_bytes];
        for (lane, lut) in state_luts.iter_mut().enumerate() {
            for byte in 0u32..256 {
                let mut acc = 0;
                for bit in 0..8 {
                    if byte & (1 << bit) != 0 {
                        acc ^= matrix.state_cols[lane * 8 + bit];
                    }
                }
                lut[byte as usize] = acc;
            }
        }
        let mut data_luts = vec![[0u32; 256]; matrix.nbytes];
        for (lane, lut) in data_luts.iter_mut().enumerate() {
            for byte in 0u32..256 {
                let mut acc = 0;
                for bit in 0..8 {
                    if byte & (1 << bit) != 0 {
                        acc ^= matrix.data_cols[lane * 8 + bit];
                    }
                }
                lut[byte as usize] = acc;
            }
        }
        let state = matrix.params.init;
        Self {
            matrix,
            state_luts,
            data_luts,
            state,
            pending: Vec::new(),
        }
    }

    /// Word width in bytes.
    pub fn width_bytes(&self) -> usize {
        self.matrix.nbytes
    }

    /// Advance by exactly one aligned word when possible, falling back
    /// to the general [`CrcEngine::update`] path for partial words or a
    /// non-empty pending buffer.  The hot per-clock path of the cycle
    /// model — skips the chunking wrapper entirely.
    #[inline]
    pub fn update_word(&mut self, word: &[u8]) {
        if self.pending.is_empty() && word.len() == self.matrix.nbytes {
            self.step_word(word);
        } else {
            self.update(word);
        }
    }

    /// Advance one full word.
    #[inline]
    pub fn step_word(&mut self, word: &[u8]) {
        debug_assert_eq!(word.len(), self.matrix.nbytes);
        let mut next = 0u32;
        for (lane, lut) in self.state_luts.iter().enumerate() {
            next ^= lut[((self.state >> (lane * 8)) & 0xFF) as usize];
        }
        for (lane, lut) in self.data_luts.iter().enumerate() {
            next ^= lut[word[lane] as usize];
        }
        self.state = next & self.matrix.params.mask();
    }

    /// Flush a trailing partial word byte-by-byte (what the hardware does
    /// with single-byte matrices under control of the CRC unit FSM).
    fn flush_pending(&mut self) {
        for i in 0..self.pending.len() {
            self.state = BitwiseEngine::step_byte(&self.matrix.params, self.state, self.pending[i]);
        }
        self.pending.clear();
    }
}

impl CrcEngine for MatrixEngine {
    fn reset(&mut self) {
        self.state = self.matrix.params.init;
        self.pending.clear();
    }

    fn update(&mut self, data: &[u8]) {
        let n = self.matrix.nbytes;
        let mut rest = data;
        // Top up a partial word first.
        if !self.pending.is_empty() {
            let need = n - self.pending.len();
            let take = need.min(rest.len());
            self.pending.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.pending.len() == n {
                let word: Vec<u8> = std::mem::take(&mut self.pending);
                self.step_word(&word);
            }
        }
        let mut chunks = rest.chunks_exact(n);
        for word in &mut chunks {
            self.step_word(word);
        }
        self.pending.extend_from_slice(chunks.remainder());
    }

    fn residue(&self) -> u32 {
        let mut tmp = self.clone();
        tmp.flush_pending();
        tmp.state & tmp.matrix.params.mask()
    }

    fn params(&self) -> &CrcParams {
        self.matrix.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{FCS16, FCS32};
    use crate::TableEngine;

    #[test]
    fn matrix_step_equals_bitwise_for_widths_1_to_8() {
        let data = b"\x00\x7e\x7d\xff parallel crc words!";
        for params in [FCS16, FCS32] {
            for n in 1..=8usize {
                let m = StepMatrix::for_bytes(params, n);
                let mut state = params.init;
                for word in data.chunks_exact(n) {
                    state = m.apply(state, word);
                }
                let consumed = (data.len() / n) * n;
                let expect = BitwiseEngine::step_bytes(&params, params.init, &data[..consumed]);
                assert_eq!(state, expect, "{} width {n}", params.name);
            }
        }
    }

    #[test]
    fn engine_matches_table_with_partial_words() {
        let data: Vec<u8> = (0..=255u8).chain(0..=99).collect();
        for n in [1usize, 4] {
            let mut m = MatrixEngine::new(FCS32, n);
            let mut t = TableEngine::new(FCS32);
            // Irregular chunk sizes to exercise the pending path.
            let mut off = 0usize;
            for (i, sz) in [1usize, 3, 7, 2, 16, 5, 64, 1, 100].iter().enumerate() {
                let end = (off + sz).min(data.len());
                m.update(&data[off..end]);
                t.update(&data[off..end]);
                assert_eq!(m.value(), t.value(), "width {n} after chunk {i}");
                off = end;
            }
            m.update(&data[off..]);
            t.update(&data[off..]);
            assert_eq!(m.value(), t.value(), "width {n} final");
            assert_eq!(m.residue(), t.residue(), "width {n} residue");
        }
    }

    #[test]
    fn term_lists_reconstruct_the_matrix() {
        let m = StepMatrix::for_bytes(FCS32, 4);
        // Rebuild apply() from the per-bit term lists and compare.
        let state = 0xDEAD_BEEF;
        let data = [0x7E, 0x31, 0x7D, 0x96];
        let expect = m.apply(state, &data);
        let mut got = 0u32;
        for bit in 0..32 {
            let mut parity = false;
            for term in m.terms_for_output_bit(bit) {
                let v = match term {
                    Term::State(i) => (state >> i) & 1 != 0,
                    Term::Data(j) => (data[j / 8] >> (j % 8)) & 1 != 0,
                };
                parity ^= v;
            }
            if parity {
                got |= 1 << bit;
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn fcs32_32bit_matrix_density_is_hardware_plausible() {
        // Sanity on the hardware cost model: the 32x32 matrix XOR trees
        // should average around half the inputs per output bit.
        let m = StepMatrix::for_bytes(FCS32, 4);
        let max = m.max_terms();
        assert!((16..=64).contains(&max), "max terms {max}");
        assert!(m.total_terms() > 32 * 8);
    }

    #[test]
    fn single_byte_matrix_is_the_table() {
        let m = StepMatrix::for_bytes(FCS32, 1);
        let t = TableEngine::new(FCS32);
        for byte in 0..=255u8 {
            assert_eq!(m.apply(0, &[byte]), t.step(0, byte));
        }
    }

    #[test]
    fn reset_clears_pending() {
        let mut m = MatrixEngine::new(FCS32, 4);
        m.update(b"abc"); // partial word pending
        m.reset();
        m.update(b"123456789");
        assert_eq!(m.value(), 0xCBF43926);
    }
}
