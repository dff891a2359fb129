//! Slicing-by-8, braided: the fastest table-driven software CRC and the
//! FCS engine of every software frame path — the fused transmitter and
//! receiver, the golden codec and the one-shot helpers — while the
//! matrix walk stays the gate-model reference.  It is the software form
//! of the paper's parallel matrix: no octet of a block waits for the
//! octet before it.
//!
//! A plain slicing-by-8 step looks up eight tables per 8-byte word, but
//! each word needs the register the previous word left, so the loop is
//! one dependent chain bound by load latency.  From two blocks of
//! `LANES` words up, the update braids instead (as zlib's `crc32.c`
//! does): `LANES` independent registers each advance one word per step,
//! `LANES` words apart, through braid tables that carry each octet's
//! contribution over the other lanes' words.  The last block folds the
//! lanes into one register with the plain step, and the tail runs the
//! 8-byte and byte loops.  Shorter inputs — a 40-byte datagram's frame —
//! run only the plain loop.
//!
//! Both shipped parameter sets are reflected CRCs whose register lives
//! in the low bits of the accumulator, so the identical tables and loops
//! serve FCS-16 and FCS-32: a 16-bit state simply never populates the
//! upper half, and XORs into only the first two bytes of each word.

use crate::table::{CrcTables, LANES};
use crate::{CrcEngine, CrcParams, TableEngine};

/// Braided slicing-by-8 engine for the reflected PPP parameter sets
/// (FCS-16 and FCS-32): the byte-table engine's register and tables,
/// walked `LANES` × 8 bytes per step on long inputs and eight bytes per
/// step on short ones.
#[derive(Debug, Clone)]
pub struct Slice8Engine(pub(crate) TableEngine);

impl Slice8Engine {
    pub fn new(params: CrcParams) -> Self {
        assert!(
            params.width == 16 || params.width == 32,
            "slicing-by-8 supports the 16- and 32-bit FCS parameter sets"
        );
        Self(TableEngine::new(params))
    }
}

/// An 8-byte word as its little-endian low and high halves.
#[inline(always)]
fn halves(w: &[u8; 8]) -> (u32, u32) {
    let [a, b, c, d, e, f, g, h] = *w;
    (
        u32::from_le_bytes([a, b, c, d]),
        u32::from_le_bytes([e, f, g, h]),
    )
}

/// One slicing-by-8 step from a zero register: the register after the
/// word `lo`, `hi` (the old register already XORed into `lo`).
#[inline(always)]
fn word8(t: &[[u32; 256]; 8], lo: u32, hi: u32) -> u32 {
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// One lane step: the word's contribution at the start of the lane's
/// next word, `LANES` words on.
#[inline(always)]
fn braid8(t: &[[u32; 256]; 8], lo: u32, hi: u32) -> u32 {
    t[0][(lo & 0xFF) as usize]
        ^ t[1][((lo >> 8) & 0xFF) as usize]
        ^ t[2][((lo >> 16) & 0xFF) as usize]
        ^ t[3][(lo >> 24) as usize]
        ^ t[4][(hi & 0xFF) as usize]
        ^ t[5][((hi >> 8) & 0xFF) as usize]
        ^ t[6][((hi >> 16) & 0xFF) as usize]
        ^ t[7][(hi >> 24) as usize]
}

/// The register after `blocks` from register `s`: every block but the
/// last on `LANES` independent registers, the last folding them into
/// one.  Out of line, so that short updates keep the plain loop inline.
#[inline(never)]
fn braided(t: &CrcTables, s: u32, blocks: &[[[u8; 8]; LANES]]) -> u32 {
    let Some((last, body)) = blocks.split_last() else {
        return s;
    };
    let mut lanes = [0u32; LANES];
    lanes[0] = s;
    for block in body {
        for (lane, w) in lanes.iter_mut().zip(block) {
            let (lo, hi) = halves(w);
            *lane = braid8(&t.braid, lo ^ *lane, hi);
        }
    }
    lanes.iter().zip(last).fold(0, |s, (lane, w)| {
        let (lo, hi) = halves(w);
        word8(&t.slice, lo ^ lane ^ s, hi)
    })
}

impl CrcEngine for Slice8Engine {
    fn reset(&mut self) {
        self.0.reset();
    }

    #[inline]
    fn update(&mut self, data: &[u8]) {
        let t = self.0.tables.get();
        let mut s = self.0.state;
        let (mut words, tail) = data.as_chunks::<8>();
        if words.len() >= 2 * LANES {
            let (blocks, rest) = words.as_chunks::<LANES>();
            s = braided(t, s, blocks);
            words = rest;
        }
        for w in words {
            let (lo, hi) = halves(w);
            s = word8(&t.slice, s ^ lo, hi);
        }
        self.0.state = s;
        self.0.update(tail);
    }

    fn residue(&self) -> u32 {
        self.0.residue()
    }

    fn params(&self) -> &CrcParams {
        self.0.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitwiseEngine, FCS16, FCS32};

    // A fleet holds eight engines per link: each stays a few words, the
    // tables live elsewhere.
    const _: () = assert!(std::mem::size_of::<Slice8Engine>() <= 64);

    #[test]
    fn check_value() {
        let mut e = Slice8Engine::new(FCS32);
        e.update(b"123456789");
        assert_eq!(e.value(), 0xCBF43926);
    }

    #[test]
    fn check_value_16() {
        let mut e = Slice8Engine::new(FCS16);
        e.update(b"123456789");
        assert_eq!(e.value(), 0x906E);
    }

    #[test]
    fn matches_table_engine_on_many_lengths() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        for params in [FCS16, FCS32] {
            for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100, 999, 1000] {
                let mut a = Slice8Engine::new(params);
                let mut b = TableEngine::new(params);
                a.update(&data[..len]);
                b.update(&data[..len]);
                assert_eq!(a.value(), b.value(), "{} len {len}", params.name);
                assert_eq!(a.residue(), b.residue(), "{} len {len}", params.name);
            }
        }
    }

    /// Lengths up to ten blocks, so every braid entry, the fold, the
    /// word tail and the byte tail run at every alignment.
    fn sweep_data() -> Vec<u8> {
        (0..320u32)
            .map(|i| (i * 167 + 13) as u8 ^ (i >> 3) as u8)
            .collect()
    }

    #[test]
    fn every_length_to_ten_blocks_matches_bitwise() {
        let data = sweep_data();
        for params in [FCS16, FCS32, crate::table::tests::CRC32C] {
            for len in 0..=data.len() {
                let mut a = Slice8Engine::new(params);
                let mut golden = BitwiseEngine::new(params);
                a.update(&data[..len]);
                golden.update(&data[..len]);
                assert_eq!(a.residue(), golden.residue(), "{} len {len}", params.name);
            }
        }
    }

    #[test]
    fn a_split_at_any_block_boundary_or_word_offset_changes_nothing() {
        let data = sweep_data();
        let block = LANES * 8;
        // Every offset in the first word, then every block boundary ±1:
        // the second call's blocks start off the first call's alignment.
        let cuts = (0..8)
            .chain((1..data.len() / block).flat_map(|n| [n * block - 1, n * block, n * block + 1]));
        for params in [FCS16, FCS32] {
            let mut whole = Slice8Engine::new(params);
            whole.update(&data);
            for cut in cuts.clone() {
                let mut split = Slice8Engine::new(params);
                split.update(&data[..cut]);
                split.update(&data[cut..]);
                assert_eq!(
                    split.residue(),
                    whole.residue(),
                    "{} cut {cut}",
                    params.name
                );
            }
        }
    }

    #[test]
    fn incremental_split_points() {
        let data: Vec<u8> = (0..=255).collect();
        for params in [FCS16, FCS32] {
            for cut in [1usize, 3, 8, 13, 100] {
                let mut a = Slice8Engine::new(params);
                a.update(&data[..cut]);
                a.update(&data[cut..]);
                let mut b = Slice8Engine::new(params);
                b.update(&data);
                assert_eq!(a.value(), b.value(), "{} cut {cut}", params.name);
            }
        }
    }

    #[test]
    fn sixteen_bit_round_trip_lands_on_good_residue() {
        let mut body = b"slice by eight, sixteen wide".to_vec();
        let mut e = Slice8Engine::new(FCS16);
        e.update(&body);
        let fcs = e.value() as u16;
        body.extend_from_slice(&crate::fcs16_wire_bytes(fcs));
        let mut check = Slice8Engine::new(FCS16);
        check.update(&body);
        assert_eq!(check.residue(), FCS16.good_residue);
    }

    #[test]
    #[should_panic(expected = "16- and 32-bit")]
    fn rejects_unsupported_widths() {
        let mut odd = FCS32;
        odd.width = 8;
        odd.name = "crc-8";
        Slice8Engine::new(odd);
    }
}
