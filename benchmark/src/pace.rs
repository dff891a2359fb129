//! Open-loop pacing: frames are due on a fixed schedule whether or not
//! the system (or the generator) keeps up.
//!
//! A frame's latency is counted from the instant it was *due*, not the
//! instant the generator got round to offering it, so a stall charges
//! every frame it delayed; how late the generator itself ran is
//! reported beside the latency so the two cannot be confused.

/// A fixed-rate schedule: frame `i` is due `i × interval` nanoseconds
/// after the schedule starts.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: u64,
    total: u64,
}

impl Schedule {
    /// `rate_hz` frames per second for `duration_ns`.
    pub fn new(rate_hz: u64, duration_ns: u64) -> Self {
        assert!(rate_hz > 0, "an open loop needs a rate");
        let interval_ns = 1_000_000_000 / rate_hz;
        Schedule {
            interval_ns,
            total: duration_ns / interval_ns,
        }
    }

    /// Frames the schedule holds.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The instant frame `i` is due, in nanoseconds from the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }

    /// How many frames are due at or before `now_ns` (frame 0 is due at
    /// the start), never more than the schedule holds.
    pub fn due_by(&self, now_ns: u64) -> u64 {
        (now_ns / self.interval_ns + 1).min(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_fall_due_on_the_interval() {
        let s = Schedule::new(20_000, 1_000_000_000);
        assert_eq!(s.total(), 20_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 150_000);
        assert_eq!(s.due_by(0), 1);
        assert_eq!(s.due_by(49_999), 1);
        assert_eq!(s.due_by(50_000), 2);
        // Past the end the schedule holds no more frames.
        assert_eq!(s.due_by(u64::MAX / 2), 20_000);
    }

    /// The generator wakes 10 intervals late: every frame that fell due
    /// meanwhile is offered at once, and each is charged from its own
    /// due instant — the first waited ten intervals, the last none.
    #[test]
    fn a_late_generator_charges_each_frame_from_its_due_instant() {
        let s = Schedule::new(1_000_000, 1_000_000); // 1 µs apart, 1000 frames
        let mut sent = s.due_by(0);
        assert_eq!(sent, 1);
        let now = 10_500; // stalled for ten and a half intervals
        let due = s.due_by(now);
        assert_eq!(due, 11);
        let lateness: Vec<u64> = (sent..due).map(|i| now - s.due_ns(i)).collect();
        assert_eq!(lateness.first(), Some(&9_500));
        assert_eq!(lateness.last(), Some(&500));
        sent = due;
        // Delivered 2 µs later: latency is from the due instant, so the
        // stall shows in the frame it delayed most.
        let delivered_at = now + 2_000;
        assert_eq!(delivered_at - s.due_ns(1), 11_500);
        assert_eq!(delivered_at - s.due_ns(sent - 1), 2_500);
    }
}
