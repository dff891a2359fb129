//! Parallel CRC engines for the P⁵ PPP packet processor.
//!
//! The paper's CRC unit computes a 32-bit frame check sequence (FCS) via an
//! "8 x 32-bit parallel matrix (for the 8-bit P⁵) or via a 32 x 32-bit
//! parallel matrix (for the 32-bit P⁵)", following the high-speed parallel
//! CRC formulation of Pei & Zukowski (IEEE Trans. Comm., 1992).
//!
//! This crate provides four interchangeable realisations of the two PPP
//! frame check sequences (FCS-16 per RFC 1662 appendix C.1, FCS-32 per
//! appendix C.2):
//!
//! * [`bitwise`] — the 1-bit-per-step reference implementation, the golden
//!   model everything else is verified against;
//! * [`table`] — classic 256-entry table lookup, one byte per step (what a
//!   software PPP stack would do and the software baseline in the benches);
//! * [`mod@slice`] — braided slicing-by-8: eight bytes per step through
//!   eight derived tables, and on inputs of 64 bytes or more four
//!   independent 8-byte lanes per step (zlib's "braided" CRC, the
//!   software form of the parallel matrix: no word waits for the one
//!   before it).  The fastest software realisation, the default engine
//!   of the Tx/Rx pipelines, the golden codec and the one-shot helpers
//!   below;
//! * [`matrix`] — the paper's parallel formulation: the CRC step over a
//!   W-byte word is a linear map over GF(2), captured as a boolean matrix
//!   `state' = F·state ⊕ G·data`.  [`matrix::StepMatrix`] exposes the raw
//!   XOR terms per output bit (consumed by `p5-rtl` to build the hardware
//!   XOR trees) and [`matrix::MatrixEngine`] evaluates the same matrix in
//!   software via per-byte-lane tables.
//!
//! All engines share the [`CrcEngine`] trait so they can be swapped in the
//! datapath and cross-checked property-style; [`FcsEngine`] is the
//! static-dispatch pair (slice | matrix) the pipelines instantiate.
//!
//! ```
//! use p5_crc::{fcs32, fcs32_wire_bytes, check_fcs32};
//!
//! let mut frame = b"ip datagram".to_vec();
//! let fcs = fcs32(&frame);
//! frame.extend_from_slice(&fcs32_wire_bytes(fcs));
//! assert!(check_fcs32(&frame));          // magic residue reached
//! frame[0] ^= 1;
//! assert!(!check_fcs32(&frame));         // any corruption is caught
//! ```

pub mod bitwise;
pub mod engine;
pub mod matrix;
pub mod params;
pub mod slice;
pub mod table;

pub use bitwise::BitwiseEngine;
pub use engine::{EngineKind, FcsEngine};
pub use matrix::{MatrixEngine, StepMatrix, Term};
pub use params::{CrcParams, FCS16, FCS32};
pub use slice::Slice8Engine;
pub use table::TableEngine;

/// A running CRC computation over a byte stream.
///
/// `value()` returns the *finalised* FCS (init/xorout applied); `residue()`
/// returns the raw shift-register state, which is what the hardware check
/// compares against the magic "good FCS" residue after the received FCS
/// bytes have passed through the checker.
pub trait CrcEngine {
    /// Reset the shift register to the preset value.
    fn reset(&mut self);
    /// Feed bytes through the register, least-significant bit first
    /// (PPP/HDLC bit ordering).
    fn update(&mut self, data: &[u8]);
    /// The raw (non-complemented) register contents.
    fn residue(&self) -> u32;
    /// The parameter set this engine computes.
    fn params(&self) -> &CrcParams;
    /// The finalised FCS over everything fed since the last reset.
    fn value(&self) -> u32 {
        let params = self.params();
        (self.residue() ^ params.xorout) & params.mask()
    }
}

/// One pass over `data` on the frame path's engine (which borrows the
/// process-wide tables).
fn one_shot(params: CrcParams, data: &[u8]) -> Slice8Engine {
    let mut e = Slice8Engine::new(params);
    e.update(data);
    e
}

/// One-shot FCS-32 of a buffer (complemented, ready for transmission).
pub fn fcs32(data: &[u8]) -> u32 {
    one_shot(FCS32, data).value()
}

/// One-shot FCS-16 of a buffer (complemented, ready for transmission).
pub fn fcs16(data: &[u8]) -> u16 {
    one_shot(FCS16, data).value() as u16
}

/// Serialise an FCS-32 for the wire: PPP transmits the FCS least
/// significant octet first (RFC 1662 §C.2).
pub fn fcs32_wire_bytes(fcs: u32) -> [u8; 4] {
    fcs.to_le_bytes()
}

/// Serialise an FCS-16 for the wire (least significant octet first).
pub fn fcs16_wire_bytes(fcs: u16) -> [u8; 2] {
    fcs.to_le_bytes()
}

/// Verify a frame body whose trailing bytes are its FCS-32: running the CRC
/// over data *and* FCS must land on the magic residue.
pub fn check_fcs32(frame_with_fcs: &[u8]) -> bool {
    frame_with_fcs.len() >= 4 && one_shot(FCS32, frame_with_fcs).residue() == FCS32.good_residue
}

/// Verify a frame body whose trailing bytes are its FCS-16.
pub fn check_fcs16(frame_with_fcs: &[u8]) -> bool {
    frame_with_fcs.len() >= 2 && one_shot(FCS16, frame_with_fcs).residue() == FCS16.good_residue
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK: &[u8] = b"123456789";

    #[test]
    fn fcs32_check_value() {
        // CRC-32/ISO-HDLC check value.
        assert_eq!(fcs32(CHECK), 0xCBF4_3926);
    }

    #[test]
    fn fcs16_check_value() {
        // CRC-16/X-25 check value.
        assert_eq!(fcs16(CHECK), 0x906E);
    }

    #[test]
    fn fcs32_round_trip_lands_on_good_residue() {
        let mut frame = b"hello, sonet".to_vec();
        let fcs = fcs32(&frame);
        frame.extend_from_slice(&fcs32_wire_bytes(fcs));
        assert!(check_fcs32(&frame));
    }

    #[test]
    fn fcs16_round_trip_lands_on_good_residue() {
        let mut frame = b"hello, sonet".to_vec();
        let fcs = fcs16(&frame);
        frame.extend_from_slice(&fcs16_wire_bytes(fcs));
        assert!(check_fcs16(&frame));
    }

    #[test]
    fn fcs32_detects_single_bit_flip() {
        let mut frame = b"some payload bytes".to_vec();
        let fcs = fcs32(&frame);
        frame.extend_from_slice(&fcs32_wire_bytes(fcs));
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(!check_fcs32(&bad), "flip of bit {bit} went undetected");
        }
    }

    #[test]
    fn empty_and_short_frames_fail_check() {
        assert!(!check_fcs32(&[]));
        assert!(!check_fcs32(&[1, 2, 3]));
        assert!(!check_fcs16(&[]));
        assert!(!check_fcs16(&[1]));
    }
}
