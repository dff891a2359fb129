//! Table-driven CRC, one byte per step.  The conventional software
//! realisation and the sequential baseline for the parallel-matrix benches.
//!
//! The tables are constants of the polynomial, so — like the one block of
//! XOR logic the paper's CRC unit is — the shipped parameter sets get one
//! copy per process, built at compile time, which every engine reads.

use crate::{BitwiseEngine, CrcEngine, CrcParams, FCS16, FCS32};

/// Independent registers in the braided loop ([`crate::Slice8Engine`]):
/// each advances one 8-octet word per step, `LANES` words apart.
/// Four measured fastest on a 2-vCPU x86-64 host; 3, 5 and 6 lanes read
/// 3–9 % slower on 580 B and IMIX sets (EXPERIMENTS.md "Braided FCS").
pub(crate) const LANES: usize = 4;

/// One parameter set's derived tables, 16 KiB.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CrcTables {
    /// `slice[k][b]` = contribution of byte `b` processed `k` bytes
    /// before the end of an 8-byte group; row 0 is the classic
    /// byte-at-a-time table.
    pub(crate) slice: [[u32; 256]; 8],
    /// `braid[k][b]` = contribution of byte `b` at offset `k` of an
    /// 8-byte word, carried `LANES * 8 - 1 - k` zero bytes forward: to
    /// the start of the same lane's next word.
    pub(crate) braid: [[u32; 256]; 8],
}

/// One zero byte through the register.
const fn zero_step(row0: &[u32; 256], x: u32) -> u32 {
    (x >> 8) ^ row0[(x & 0xFF) as usize]
}

const fn slice8_tables(params: &CrcParams) -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        // Row 0 entry = effect of byte `b` on a zero register.
        t[0][b] = BitwiseEngine::step_byte(params, 0, b as u8);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        b = 0;
        while b < 256 {
            t[k][b] = zero_step(&t[0], t[k - 1][b]);
            b += 1;
        }
        k += 1;
    }
    t
}

const fn braid_tables(row0: &[u32; 256]) -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        // Offset 7 skips the other lanes' words; each earlier offset
        // one zero byte more.
        let mut x = row0[b];
        let mut z = 0;
        while z < (LANES - 1) * 8 {
            x = zero_step(row0, x);
            z += 1;
        }
        t[7][b] = x;
        let mut k = 7;
        while k > 0 {
            k -= 1;
            x = zero_step(row0, x);
            t[k][b] = x;
        }
        b += 1;
    }
    t
}

const fn crc_tables(params: &CrcParams) -> CrcTables {
    let slice = slice8_tables(params);
    CrcTables {
        braid: braid_tables(&slice[0]),
        slice,
    }
}

static FCS16_TABLES: CrcTables = crc_tables(&FCS16);
static FCS32_TABLES: CrcTables = crc_tables(&FCS32);

/// The tables an engine reads: the process-wide constants for the shipped
/// parameter sets, a private copy for any other.
#[derive(Clone)]
pub(crate) enum Tables {
    Shared(&'static CrcTables),
    Owned(Box<CrcTables>),
}

impl Tables {
    pub(crate) fn for_params(params: &CrcParams) -> Self {
        // The tables depend on the polynomial alone, not on init/xorout.
        match (params.width, params.poly) {
            (16, p) if p == FCS16.poly => Tables::Shared(&FCS16_TABLES),
            (32, p) if p == FCS32.poly => Tables::Shared(&FCS32_TABLES),
            _ => Tables::Owned(Box::new(crc_tables(params))),
        }
    }

    pub(crate) fn get(&self) -> &CrcTables {
        match self {
            Tables::Shared(t) => t,
            Tables::Owned(t) => t,
        }
    }
}

impl std::fmt::Debug for Tables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tables::Shared(_) => "Shared",
            Tables::Owned(_) => "Owned",
        })
    }
}

/// 256-entry-table CRC engine.
#[derive(Debug, Clone)]
pub struct TableEngine {
    params: CrcParams,
    pub(crate) tables: Tables,
    pub(crate) state: u32,
}

impl TableEngine {
    pub fn new(params: CrcParams) -> Self {
        Self {
            params,
            tables: Tables::for_params(&params),
            state: params.init,
        }
    }

    /// Advance an explicit state by one byte.
    #[inline]
    pub fn step(&self, state: u32, byte: u8) -> u32 {
        (state >> 8) ^ self.tables.get().slice[0][((state ^ byte as u32) & 0xFF) as usize]
    }
}

impl CrcEngine for TableEngine {
    fn reset(&mut self) {
        self.state = self.params.init;
    }

    fn update(&mut self, data: &[u8]) {
        self.state = data.iter().fold(self.state, |s, &b| self.step(s, b));
    }

    fn residue(&self) -> u32 {
        self.state & self.params.mask()
    }

    fn params(&self) -> &CrcParams {
        &self.params
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Slice8Engine;

    /// CRC-32C (Castagnoli): a reflected set that is neither shipped FCS.
    pub(crate) const CRC32C: CrcParams = CrcParams {
        name: "CRC-32C",
        poly: 0x82F6_3B78,
        good_residue: 0xB798_B438,
        ..FCS32
    };

    /// The register after `bytes` from zero, by the bit-serial oracle.
    fn bitwise_from_zero(params: &CrcParams, bytes: impl IntoIterator<Item = u8>) -> u32 {
        bytes
            .into_iter()
            .fold(0, |s, b| BitwiseEngine::step_byte(params, s, b))
    }

    /// The run-time recurrence the engines used to run per instance for
    /// the slice rows, and each braid entry straight from its
    /// definition — the oracle the compile-time tables are pinned
    /// against.
    fn runtime_tables(params: &CrcParams) -> CrcTables {
        let mut slice = [[0u32; 256]; 8];
        for (b, slot) in slice[0].iter_mut().enumerate() {
            *slot = BitwiseEngine::step_byte(params, 0, b as u8);
        }
        for k in 1..8 {
            for b in 0..256 {
                let prev = slice[k - 1][b];
                slice[k][b] = (prev >> 8) ^ slice[0][(prev & 0xFF) as usize];
            }
        }
        let mut braid = [[0u32; 256]; 8];
        for (k, row) in braid.iter_mut().enumerate() {
            for (b, slot) in row.iter_mut().enumerate() {
                let zeros = std::iter::repeat_n(0, LANES * 8 - 1 - k);
                *slot = bitwise_from_zero(params, std::iter::once(b as u8).chain(zeros));
            }
        }
        CrcTables { slice, braid }
    }

    #[test]
    fn const_tables_equal_the_runtime_recurrence() {
        assert_eq!(FCS16_TABLES, runtime_tables(&FCS16));
        assert_eq!(FCS32_TABLES, runtime_tables(&FCS32));
        assert_eq!(*Tables::for_params(&CRC32C).get(), runtime_tables(&CRC32C));
    }

    #[test]
    fn every_slice_and_braid_table_is_linear() {
        // A CRC table is a linear map of its index over GF(2); any
        // entry off that map is a wrong entry.
        for params in [FCS16, FCS32, CRC32C] {
            let tables = Tables::for_params(&params);
            let t = tables.get();
            for (kind, row) in t
                .slice
                .iter()
                .map(|r| ("slice", r))
                .chain(t.braid.iter().map(|r| ("braid", r)))
            {
                for a in 0..256 {
                    for b in 0..256 {
                        assert_eq!(
                            row[a ^ b],
                            row[a] ^ row[b],
                            "{} {kind} {a:#x}^{b:#x}",
                            params.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engines_of_one_parameter_set_share_one_table() {
        let addr = |t: &Tables| std::ptr::from_ref(t.get());
        for (params, shipped) in [(FCS16, &FCS16_TABLES), (FCS32, &FCS32_TABLES)] {
            let (a, b) = (Slice8Engine::new(params), Slice8Engine::new(params));
            assert!(matches!(a.0.tables, Tables::Shared(_)), "{}", params.name);
            assert_eq!(
                addr(&a.0.tables),
                std::ptr::from_ref(shipped),
                "{}",
                params.name
            );
            assert_eq!(addr(&a.0.tables), addr(&b.0.tables), "{}", params.name);
            assert_eq!(addr(&a.0.tables), addr(&TableEngine::new(params).tables));
            assert_eq!(addr(&a.0.tables), addr(&a.clone().0.tables));
        }
        let (s16, s32) = (Slice8Engine::new(FCS16), Slice8Engine::new(FCS32));
        assert_ne!(addr(&s16.0.tables), addr(&s32.0.tables));
        // Same polynomial, different preset: still the shared table.
        let jam = CrcParams { xorout: 0, ..FCS32 };
        assert_eq!(addr(&Slice8Engine::new(jam).0.tables), addr(&s32.0.tables));
    }

    #[test]
    fn a_third_parameter_set_owns_its_table_and_matches_bitwise() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 37 % 253) as u8).collect();
        let (a, b) = (Slice8Engine::new(CRC32C), Slice8Engine::new(CRC32C));
        assert!(matches!(a.0.tables, Tables::Owned(_)));
        assert!(!std::ptr::eq(a.0.tables.get(), b.0.tables.get()));
        for len in [0usize, 1, 7, 8, 9, 64, 299, 300] {
            let mut golden = BitwiseEngine::new(CRC32C);
            golden.update(&data[..len]);
            let mut slice = Slice8Engine::new(CRC32C);
            slice.update(&data[..len]);
            let mut table = TableEngine::new(CRC32C);
            table.update(&data[..len]);
            assert_eq!(slice.value(), golden.value(), "slice len {len}");
            assert_eq!(table.value(), golden.value(), "table len {len}");
        }
        let mut check = Slice8Engine::new(CRC32C);
        check.update(b"123456789");
        assert_eq!(check.value(), 0xE306_9283);
        check.update(&check.value().to_le_bytes());
        assert_eq!(check.residue(), CRC32C.good_residue);
    }

    #[test]
    fn table_matches_bitwise_on_check_string() {
        for params in [FCS16, FCS32] {
            let mut t = TableEngine::new(params);
            let mut b = BitwiseEngine::new(params);
            t.update(b"123456789");
            b.update(b"123456789");
            assert_eq!(t.value(), b.value(), "{}", params.name);
            assert_eq!(t.residue(), b.residue(), "{}", params.name);
        }
    }

    #[test]
    fn table_matches_bitwise_on_all_single_bytes() {
        for params in [FCS16, FCS32] {
            for byte in 0..=255u8 {
                let mut t = TableEngine::new(params);
                let mut b = BitwiseEngine::new(params);
                t.update(&[byte]);
                b.update(&[byte]);
                assert_eq!(t.residue(), b.residue(), "{} byte {byte:#x}", params.name);
            }
        }
    }

    #[test]
    fn explicit_step_matches_update() {
        let t = TableEngine::new(FCS32);
        let mut s = FCS32.init;
        for &b in b"stepwise" {
            s = t.step(s, b);
        }
        let mut e = TableEngine::new(FCS32);
        e.update(b"stepwise");
        assert_eq!(e.residue(), s & FCS32.mask());
    }
}
