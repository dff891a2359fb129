//! Slicing-by-8: the fastest table-driven software CRC, processing
//! eight bytes per iteration through eight derived tables.  This is the
//! strongest *software* baseline against which the paper's hardware
//! parallelism is judged in the benches — a general-purpose CPU's best
//! effort at the job the P⁵ does in one clock — and, since the
//! line-rate datapath refactor, the default FCS engine of the
//! behavioural Tx/Rx pipelines (the matrix walk stays as the gate-model
//! reference).
//!
//! Both shipped parameter sets are reflected CRCs whose register lives
//! in the low bits of the accumulator, so the identical table recurrence
//! and update loop serve FCS-16 and FCS-32: a 16-bit state simply never
//! populates the upper half, and XORs into only the first two bytes of
//! each 8-byte group.

use crate::{CrcEngine, CrcParams, TableEngine};

/// Slicing-by-8 engine for the reflected PPP parameter sets (FCS-16 and
/// FCS-32): the byte-table engine's register and tables, walked eight
/// bytes per iteration.
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

impl CrcEngine for Slice8Engine {
    fn reset(&mut self) {
        self.0.reset();
    }

    fn update(&mut self, data: &[u8]) {
        let mut s = self.0.state;
        let mut chunks = data.chunks_exact(8);
        let t = self.0.tables.rows();
        for c in &mut chunks {
            let lo = s ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            s = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][((lo >> 24) & 0xFF) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][((hi >> 24) & 0xFF) as usize];
        }
        self.0.state = s;
        self.0.update(chunks.remainder());
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
    use crate::{FCS16, FCS32};

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
