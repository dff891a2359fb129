//! Per-link health scoring: a hysteresis state machine over windowed
//! error readings.
//!
//! The paper's OAM block exposes FCS errors and sync state precisely so
//! an operator can judge a link *while it runs*.  This
//! module turns those raw counters into a three-state verdict —
//! [`HealthState::Healthy`] / [`Degraded`](HealthState::Degraded) /
//! [`Down`](HealthState::Down) — with hysteresis on both edges, so a
//! single bad window doesn't flap the state and a single clean window
//! doesn't clear a genuine degradation.  Thresholds and streak lengths
//! live in [`HealthPolicy`]; DESIGN.md §17 documents the defaults and
//! the resulting worst-case detection latency
//! (`degrade_after × sample interval` ticks).

use std::fmt;

/// The three-state verdict on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Error rates below every degrade threshold.
    Healthy,
    /// Errors, shedding or resync cost above the degrade thresholds —
    /// the link still moves traffic but needs attention.
    Degraded,
    /// Error rate at or above the down threshold: the link is
    /// effectively not delivering.
    Down,
}

impl HealthState {
    /// Stable lowercase name for labels and JSON.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Down => "down",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One windowed reading of a link — *deltas* over the sample interval,
/// not run-lifetime totals (see `p5_trace::SnapshotDelta`).
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthSample {
    /// Frames delivered this window.
    pub delivered: u64,
    /// Frames offered this window.
    pub offered: u64,
    /// Receive-side errors this window (FCS + aborts + runts + giants
    /// + header errors).
    pub errors: u64,
    /// Octets the receiver skipped resynchronising after lost
    /// delineation.
    pub resync_bytes: u64,
    /// Frames shed at admission this window.
    pub shed: u64,
}

/// How a window reads against the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Clean,
    Bad,
    Dead,
}

/// Thresholds and hysteresis streak lengths.  All rates are per-window
/// fractions; streaks are consecutive sample windows.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Window is bad when `errors / (delivered + errors)` reaches this.
    pub degrade_error_rate: f64,
    /// Window is bad when `shed / offered` reaches this.
    pub degrade_shed_rate: f64,
    /// Window is bad when resync cost reaches this many octets.
    pub degrade_resync_bytes: u64,
    /// Window is *dead* when the error rate reaches this.
    pub down_error_rate: f64,
    /// Consecutive bad windows before `Healthy → Degraded`.
    pub degrade_after: u32,
    /// Consecutive dead windows before `→ Down`.
    pub down_after: u32,
    /// Consecutive clean windows before recovering one level
    /// (`Down → Degraded`, `Degraded → Healthy`).
    pub recover_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degrade_error_rate: 0.01,
            degrade_shed_rate: 0.05,
            degrade_resync_bytes: 64,
            down_error_rate: 0.25,
            degrade_after: 2,
            down_after: 4,
            recover_after: 4,
        }
    }
}

impl HealthPolicy {
    fn classify(&self, s: &HealthSample) -> Verdict {
        let seen = s.delivered + s.errors;
        let error_rate = if seen == 0 {
            0.0
        } else {
            s.errors as f64 / seen as f64
        };
        if s.errors > 0 && error_rate >= self.down_error_rate {
            return Verdict::Dead;
        }
        let shed_rate = if s.offered == 0 {
            0.0
        } else {
            s.shed as f64 / s.offered as f64
        };
        if (s.errors > 0 && error_rate >= self.degrade_error_rate)
            || (s.shed > 0 && shed_rate >= self.degrade_shed_rate)
            || s.resync_bytes >= self.degrade_resync_bytes
        {
            return Verdict::Bad;
        }
        Verdict::Clean
    }

    /// Instantaneous (hysteresis-free) verdict on one window — for
    /// one-shot readings like an end-of-run summary table.  Live
    /// monitoring should go through [`LinkHealth`], which adds the
    /// anti-flap streak logic.
    pub fn snap_judgment(&self, s: &HealthSample) -> HealthState {
        match self.classify(s) {
            Verdict::Clean => HealthState::Healthy,
            Verdict::Bad => HealthState::Degraded,
            Verdict::Dead => HealthState::Down,
        }
    }

    /// Worst-case ticks from fault onset to a `Degraded` verdict when
    /// sampling every `every` ticks: the fault can land just after a
    /// sample, then `degrade_after` full windows must read bad.
    pub fn detection_budget_ticks(&self, every: u64) -> u64 {
        every * (u64::from(self.degrade_after) + 1)
    }
}

/// A state change, as reported by [`LinkHealth::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    pub from: HealthState,
    pub to: HealthState,
}

/// The per-link hysteresis machine.  Feed it one [`HealthSample`] per
/// sample window; it reports transitions and remembers streaks.
#[derive(Debug, Clone)]
pub struct LinkHealth {
    policy: HealthPolicy,
    state: HealthState,
    bad_streak: u32,
    dead_streak: u32,
    clean_streak: u32,
    /// Total state changes since construction.
    pub transitions: u64,
}

impl LinkHealth {
    pub fn new(policy: HealthPolicy) -> Self {
        LinkHealth {
            policy,
            state: HealthState::Healthy,
            bad_streak: 0,
            dead_streak: 0,
            clean_streak: 0,
            transitions: 0,
        }
    }

    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Score one window.  Returns the transition if the state changed.
    pub fn update(&mut self, sample: &HealthSample) -> Option<HealthTransition> {
        match self.policy.classify(sample) {
            Verdict::Clean => {
                self.clean_streak += 1;
                self.bad_streak = 0;
                self.dead_streak = 0;
            }
            Verdict::Bad => {
                self.bad_streak += 1;
                self.dead_streak = 0;
                self.clean_streak = 0;
            }
            Verdict::Dead => {
                // A dead window is also a bad window: the degrade edge
                // must not out-wait the down edge.
                self.bad_streak += 1;
                self.dead_streak += 1;
                self.clean_streak = 0;
            }
        }
        let next = match self.state {
            HealthState::Healthy | HealthState::Degraded
                if self.dead_streak >= self.policy.down_after =>
            {
                HealthState::Down
            }
            HealthState::Healthy if self.bad_streak >= self.policy.degrade_after => {
                HealthState::Degraded
            }
            HealthState::Degraded if self.clean_streak >= self.policy.recover_after => {
                HealthState::Healthy
            }
            // Recovery is one level at a time: a link that was Down
            // must re-prove itself through Degraded.
            HealthState::Down if self.clean_streak >= self.policy.recover_after => {
                HealthState::Degraded
            }
            s => s,
        };
        if next == self.state {
            return None;
        }
        let t = HealthTransition {
            from: self.state,
            to: next,
        };
        self.state = next;
        self.transitions += 1;
        self.bad_streak = 0;
        self.dead_streak = 0;
        self.clean_streak = 0;
        Some(t)
    }
}

/// Fleet roll-up: how many links sit in each state.  Bounded
/// cardinality by construction — three numbers regardless of fleet
/// size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSummary {
    pub healthy: usize,
    pub degraded: usize,
    pub down: usize,
}

impl HealthSummary {
    pub fn scan<'a>(states: impl IntoIterator<Item = &'a HealthState>) -> Self {
        let mut s = HealthSummary::default();
        for st in states {
            match st {
                HealthState::Healthy => s.healthy += 1,
                HealthState::Degraded => s.degraded += 1,
                HealthState::Down => s.down += 1,
            }
        }
        s
    }

    pub fn total(&self) -> usize {
        self.healthy + self.degraded + self.down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bad() -> HealthSample {
        HealthSample {
            delivered: 90,
            offered: 100,
            errors: 10, // 10% error rate >= 1% degrade threshold
            ..HealthSample::default()
        }
    }

    fn clean() -> HealthSample {
        HealthSample {
            delivered: 100,
            offered: 100,
            ..HealthSample::default()
        }
    }

    fn dead() -> HealthSample {
        HealthSample {
            delivered: 10,
            offered: 100,
            errors: 90, // 90% >= 25% down threshold
            ..HealthSample::default()
        }
    }

    #[test]
    fn one_bad_window_does_not_flap() {
        let mut h = LinkHealth::new(HealthPolicy::default());
        assert!(h.update(&bad()).is_none());
        assert_eq!(h.state(), HealthState::Healthy);
        // Second consecutive bad window crosses degrade_after = 2.
        let t = h.update(&bad()).expect("transition");
        assert_eq!(t.from, HealthState::Healthy);
        assert_eq!(t.to, HealthState::Degraded);
    }

    #[test]
    fn recovery_needs_a_clean_streak_and_steps_one_level() {
        let mut h = LinkHealth::new(HealthPolicy::default());
        // Streaks reset at each transition: 2 dead windows reach
        // Degraded, 4 more reach Down.
        for _ in 0..2 {
            h.update(&dead());
        }
        assert_eq!(h.state(), HealthState::Degraded);
        for _ in 0..4 {
            h.update(&dead());
        }
        assert_eq!(h.state(), HealthState::Down);
        // Three clean windows: still Down (recover_after = 4).
        for _ in 0..3 {
            assert!(h.update(&clean()).is_none());
        }
        let t = h.update(&clean()).expect("one-level recovery");
        assert_eq!(t.to, HealthState::Degraded);
        for _ in 0..3 {
            assert!(h.update(&clean()).is_none());
        }
        assert_eq!(
            h.update(&clean()).unwrap().to,
            HealthState::Healthy,
            "second clean streak completes the recovery"
        );
        assert_eq!(h.transitions, 4);
    }

    #[test]
    fn interrupted_streaks_reset() {
        let mut h = LinkHealth::new(HealthPolicy::default());
        h.update(&bad());
        h.update(&clean()); // streak broken
        assert!(h.update(&bad()).is_none(), "streak restarted at 1");
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn shed_and_resync_also_degrade() {
        let p = HealthPolicy::default();
        let mut shed = LinkHealth::new(p);
        let s = HealthSample {
            offered: 100,
            delivered: 80,
            shed: 20, // 20% >= 5%
            ..HealthSample::default()
        };
        shed.update(&s);
        assert_eq!(shed.update(&s).unwrap().to, HealthState::Degraded);

        let mut resync = LinkHealth::new(p);
        let s = HealthSample {
            delivered: 100,
            resync_bytes: 64,
            ..HealthSample::default()
        };
        resync.update(&s);
        assert_eq!(resync.update(&s).unwrap().to, HealthState::Degraded);
    }

    #[test]
    fn idle_windows_read_clean() {
        let mut h = LinkHealth::new(HealthPolicy::default());
        for _ in 0..10 {
            assert!(h.update(&HealthSample::default()).is_none());
        }
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn summary_counts_states() {
        let states = [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Healthy,
            HealthState::Down,
        ];
        let s = HealthSummary::scan(states.iter());
        assert_eq!(
            s,
            HealthSummary {
                healthy: 2,
                degraded: 1,
                down: 1
            }
        );
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn detection_budget_covers_onset_alignment() {
        let p = HealthPolicy::default();
        assert_eq!(p.detection_budget_ticks(64), 64 * 3);
    }

    #[test]
    fn snap_judgment_maps_all_three_verdicts() {
        let p = HealthPolicy::default();
        assert_eq!(p.snap_judgment(&clean()), HealthState::Healthy);
        assert_eq!(p.snap_judgment(&bad()), HealthState::Degraded);
        assert_eq!(p.snap_judgment(&dead()), HealthState::Down);
    }
}
