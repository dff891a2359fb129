//! The pipeline's pluggable FCS engine.
//!
//! The behavioural Tx/Rx pipelines used to hard-wire the paper's
//! parallel-matrix walk; since the line-rate datapath refactor they
//! dispatch through [`FcsEngine`] instead: braided slicing-by-8 by
//! default (the fastest software realisation here: four independent
//! 8-byte lanes per step on long inputs), with the matrix walk selectable as
//! the gate-model reference the equivalence tests pin it against.  The
//! enum keeps dispatch static — no `Box<dyn CrcEngine>` in the per-word
//! hot path.

use crate::{CrcEngine, CrcParams, MatrixEngine, Slice8Engine};

/// Which realisation backs an [`FcsEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Braided slicing-by-8 — the fast software default.
    #[default]
    Slice,
    /// The paper's parallel-matrix walk — the gate-model reference.
    Matrix,
}

/// A running FCS computation backed by either shipped realisation.
///
/// `word_bytes` sizes the matrix step (the datapath word width); the
/// slicing engine ignores it — it steps 8-byte words, four lanes at a
/// time on long inputs.
#[derive(Debug, Clone)]
pub enum FcsEngine {
    Slice(Slice8Engine),
    Matrix(MatrixEngine),
}

impl FcsEngine {
    pub fn new(kind: EngineKind, params: CrcParams, word_bytes: usize) -> Self {
        match kind {
            EngineKind::Slice => FcsEngine::Slice(Slice8Engine::new(params)),
            EngineKind::Matrix => FcsEngine::Matrix(MatrixEngine::new(params, word_bytes)),
        }
    }

    /// Advance by one (possibly partial) datapath word — the per-clock
    /// hot path of the cycle model.
    #[inline]
    pub fn update_word(&mut self, word: &[u8]) {
        match self {
            FcsEngine::Slice(e) => e.update(word),
            FcsEngine::Matrix(e) => e.update_word(word),
        }
    }
}

impl CrcEngine for FcsEngine {
    fn reset(&mut self) {
        match self {
            FcsEngine::Slice(e) => e.reset(),
            FcsEngine::Matrix(e) => e.reset(),
        }
    }

    fn update(&mut self, data: &[u8]) {
        match self {
            FcsEngine::Slice(e) => e.update(data),
            FcsEngine::Matrix(e) => e.update(data),
        }
    }

    fn residue(&self) -> u32 {
        match self {
            FcsEngine::Slice(e) => e.residue(),
            FcsEngine::Matrix(e) => e.residue(),
        }
    }

    fn params(&self) -> &CrcParams {
        match self {
            FcsEngine::Slice(e) => e.params(),
            FcsEngine::Matrix(e) => e.params(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FCS16, FCS32};

    #[test]
    fn both_kinds_reach_the_check_values() {
        for (params, want) in [(FCS32, 0xCBF4_3926u32), (FCS16, 0x906E)] {
            for kind in [EngineKind::Slice, EngineKind::Matrix] {
                let mut e = FcsEngine::new(kind, params, 4);
                e.update(b"123456789");
                assert_eq!(e.value(), want, "{:?} {}", kind, params.name);
            }
        }
    }

    #[test]
    fn default_kind_is_slice() {
        assert_eq!(EngineKind::default(), EngineKind::Slice);
        assert!(matches!(
            FcsEngine::new(EngineKind::default(), FCS32, 4),
            FcsEngine::Slice(_)
        ));
    }

    #[test]
    fn update_word_handles_partial_words() {
        for kind in [EngineKind::Slice, EngineKind::Matrix] {
            let mut e = FcsEngine::new(kind, FCS32, 4);
            e.update_word(b"1234");
            e.update_word(b"5678");
            e.update_word(b"9");
            assert_eq!(e.value(), 0xCBF4_3926, "{kind:?}");
        }
    }
}
