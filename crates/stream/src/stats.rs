//! Per-stage instrumentation: the observables behind the paper's
//! Figure 5/6 discussion (stalls, buffer occupancy, backpressure).
//!
//! `StageStats` started life inside `p5-core`; it now lives here so the
//! device pipelines, a simplex link's boundaries and its per-part rows
//! all report through the same counters.

use p5_trace::Snapshot;

/// Counters every pipeline stage (and every link boundary) maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Clock cycles (or pump passes) seen.
    pub cycles: u64,
    /// Cycles in which the stage refused input (backpressure asserted
    /// upstream).
    pub stall_cycles: u64,
    /// Words accepted.
    pub words_in: u64,
    /// Words emitted.
    pub words_out: u64,
    /// Payload bytes emitted.
    pub bytes_out: u64,
    /// High-water mark of the internal staging/resynchronisation buffer,
    /// in bytes (or items).
    pub max_occupancy: usize,
    /// Cycles in which the output was starved (nothing to emit while the
    /// sink was ready) — the receive-side "bubbles" of Figure 6.
    pub bubble_cycles: u64,
    /// Submissions refused outright because a bounded queue was full (the
    /// shared-memory transmit queue's drop counter).
    pub rejects: u64,
    /// Handshake attempts in which data was actually on offer.  Every
    /// such attempt resolves to exactly one of `accepted`/`blocked`:
    /// `offered == accepted + blocked` is the stall-attribution
    /// invariant a link maintains per boundary.
    pub offered: u64,
    /// Offered attempts in which at least one byte crossed.
    pub accepted: u64,
    /// Offered attempts refused with ready deasserted — backpressure.
    pub blocked: u64,
}

impl StageStats {
    pub fn note_occupancy(&mut self, occ: usize) {
        if occ > self.max_occupancy {
            self.max_occupancy = occ;
        }
    }

    /// Fraction of cycles spent refusing input.
    pub fn stall_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Mean output bytes per cycle — the throughput the paper quotes as
    /// "able to process 32 bits every clock cycle".
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bytes_out as f64 / self.cycles as f64
        }
    }

    /// Export as a [`Snapshot`] under the given scope — the standard
    /// `Observable` body for a stage whose only state is a `StageStats`.
    pub fn snapshot(&self, scope: &str) -> Snapshot {
        Snapshot::new(scope)
            .counter("cycles", self.cycles)
            .counter("stall_cycles", self.stall_cycles)
            .counter("bubble_cycles", self.bubble_cycles)
            .counter("words_in", self.words_in)
            .counter("words_out", self.words_out)
            .counter("bytes_out", self.bytes_out)
            .counter("max_occupancy", self.max_occupancy as u64)
            .counter("rejects", self.rejects)
            .counter("offered", self.offered)
            .counter("accepted", self.accepted)
            .counter("blocked", self.blocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = StageStats {
            cycles: 100,
            stall_cycles: 25,
            bytes_out: 320,
            ..Default::default()
        };
        assert!((s.stall_rate() - 0.25).abs() < 1e-12);
        assert!((s.bytes_per_cycle() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = StageStats::default();
        assert_eq!(s.stall_rate(), 0.0);
        assert_eq!(s.bytes_per_cycle(), 0.0);
    }

    #[test]
    fn occupancy_high_water() {
        let mut s = StageStats::default();
        s.note_occupancy(3);
        s.note_occupancy(9);
        s.note_occupancy(5);
        assert_eq!(s.max_occupancy, 9);
    }

    #[test]
    fn snapshot_exports_every_counter() {
        let s = StageStats {
            cycles: 4,
            offered: 3,
            accepted: 2,
            blocked: 1,
            bytes_out: 99,
            ..Default::default()
        };
        let snap = s.snapshot("stage");
        assert_eq!(snap.scope, "stage");
        assert_eq!(snap.get("offered"), Some(3));
        assert_eq!(snap.get("accepted"), Some(2));
        assert_eq!(snap.get("blocked"), Some(1));
        assert_eq!(snap.get("bytes_out"), Some(99));
        assert_eq!(snap.get("rejected"), None, "no such leg");
    }
}
