//! Bit-serial reference CRC: one bit of input per shift, exactly the LFSR a
//! minimal hardware serial FCS circuit implements.  Slow, obviously correct,
//! and the golden model for the table and matrix engines.

use crate::{CrcEngine, CrcParams};

/// One-bit-at-a-time CRC engine.
#[derive(Debug, Clone)]
pub struct BitwiseEngine {
    params: CrcParams,
    state: u32,
}

impl BitwiseEngine {
    pub fn new(params: CrcParams) -> Self {
        Self {
            params,
            state: params.init,
        }
    }

    /// Advance the register by a single input bit (LSB-first order).
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let fb = (self.state ^ bit as u32) & 1;
        self.state >>= 1;
        if fb != 0 {
            self.state ^= self.params.poly;
        }
    }

    /// Stateless single-byte step used by the matrix prober.
    pub const fn step_byte(params: &CrcParams, state: u32, byte: u8) -> u32 {
        let mut s = state;
        let mut i = 0;
        while i < 8 {
            let bit = (byte >> i) & 1;
            let fb = (s ^ bit as u32) & 1;
            s >>= 1;
            if fb != 0 {
                s ^= params.poly;
            }
            i += 1;
        }
        s & params.mask()
    }

    /// Stateless multi-byte step.
    pub fn step_bytes(params: &CrcParams, mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = Self::step_byte(params, state, b);
        }
        state
    }
}

impl CrcEngine for BitwiseEngine {
    fn reset(&mut self) {
        self.state = self.params.init;
    }

    fn update(&mut self, data: &[u8]) {
        for &b in data {
            for i in 0..8 {
                self.push_bit((b >> i) & 1 != 0);
            }
        }
        self.state &= self.params.mask();
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
    use crate::params::{FCS16, FCS32};

    #[test]
    fn bitwise_crc32_check_value() {
        let mut e = BitwiseEngine::new(FCS32);
        e.update(b"123456789");
        assert_eq!(e.value(), 0xCBF43926);
    }

    #[test]
    fn bitwise_crc16_check_value() {
        let mut e = BitwiseEngine::new(FCS16);
        e.update(b"123456789");
        assert_eq!(e.value(), 0x906E);
    }

    #[test]
    fn step_bytes_agrees_with_update() {
        let data = b"the quick brown fox";
        let mut e = BitwiseEngine::new(FCS32);
        e.update(data);
        let s = BitwiseEngine::step_bytes(&FCS32, FCS32.init, data);
        assert_eq!(e.residue(), s);
    }

    #[test]
    fn reset_restores_preset() {
        let mut e = BitwiseEngine::new(FCS32);
        e.update(b"junk");
        e.reset();
        assert_eq!(e.residue(), FCS32.init);
        e.update(b"123456789");
        assert_eq!(e.value(), 0xCBF43926);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut a = BitwiseEngine::new(FCS32);
        a.update(b"hello ");
        a.update(b"world");
        let mut b = BitwiseEngine::new(FCS32);
        b.update(b"hello world");
        assert_eq!(a.value(), b.value());
    }
}
