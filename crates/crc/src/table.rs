//! Table-driven CRC, one byte per step.  The conventional software
//! realisation and the sequential baseline for the parallel-matrix benches.
//!
//! The tables are constants of the polynomial, so — like the one block of
//! XOR logic the paper's CRC unit is — the shipped parameter sets get one
//! copy per process, built at compile time, which every engine reads.

use crate::{BitwiseEngine, CrcEngine, CrcParams, FCS16, FCS32};

/// `[k][b]` = contribution of byte `b` processed `k` bytes before the end
/// of an 8-byte group; row 0 is the classic byte-at-a-time table.
pub(crate) type Slice8Tables = [[u32; 256]; 8];

const fn slice8_tables(params: &CrcParams) -> Slice8Tables {
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
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

static FCS16_TABLES: Slice8Tables = slice8_tables(&FCS16);
static FCS32_TABLES: Slice8Tables = slice8_tables(&FCS32);

/// The tables an engine reads: the process-wide constants for the shipped
/// parameter sets, a private copy for any other.
#[derive(Clone)]
pub(crate) enum Tables {
    Shared(&'static Slice8Tables),
    Owned(Box<Slice8Tables>),
}

impl Tables {
    pub(crate) fn for_params(params: &CrcParams) -> Self {
        // The tables depend on the polynomial alone, not on init/xorout.
        match (params.width, params.poly) {
            (16, p) if p == FCS16.poly => Tables::Shared(&FCS16_TABLES),
            (32, p) if p == FCS32.poly => Tables::Shared(&FCS32_TABLES),
            _ => Tables::Owned(Box::new(slice8_tables(params))),
        }
    }

    pub(crate) fn rows(&self) -> &Slice8Tables {
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
        (state >> 8) ^ self.tables.rows()[0][((state ^ byte as u32) & 0xFF) as usize]
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
mod tests {
    use super::*;
    use crate::Slice8Engine;

    /// CRC-32C (Castagnoli): a reflected set that is neither shipped FCS.
    const CRC32C: CrcParams = CrcParams {
        name: "CRC-32C",
        poly: 0x82F6_3B78,
        good_residue: 0xB798_B438,
        ..FCS32
    };

    /// The run-time recurrence the engines used to run per instance —
    /// the oracle the compile-time tables are pinned against.
    fn runtime_tables(params: &CrcParams) -> Slice8Tables {
        let mut tables = [[0u32; 256]; 8];
        for (b, slot) in tables[0].iter_mut().enumerate() {
            *slot = BitwiseEngine::step_byte(params, 0, b as u8);
        }
        for k in 1..8 {
            for b in 0..256 {
                let prev = tables[k - 1][b];
                tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    }

    #[test]
    fn const_tables_equal_the_runtime_recurrence() {
        assert_eq!(FCS16_TABLES, runtime_tables(&FCS16));
        assert_eq!(FCS32_TABLES, runtime_tables(&FCS32));
        assert_eq!(*Tables::for_params(&CRC32C).rows(), runtime_tables(&CRC32C));
    }

    #[test]
    fn engines_of_one_parameter_set_share_one_table() {
        let addr = |t: &Tables| std::ptr::from_ref(t.rows());
        for params in [FCS16, FCS32] {
            let (a, b) = (Slice8Engine::new(params), Slice8Engine::new(params));
            assert!(matches!(a.0.tables, Tables::Shared(_)), "{}", params.name);
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
        assert!(!std::ptr::eq(a.0.tables.rows(), b.0.tables.rows()));
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
