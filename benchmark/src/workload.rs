//! What every workload shares: the segment loop, the delivery check
//! and the counter plumbing the per-layer report reads.

use std::time::Instant;

use crate::corpus::Corpus;
use crate::span::{Name, Tracer};

/// The PPP protocol number every data frame carries (IPv4).
pub const IPV4: u16 = 0x0021;

/// Frames through one window or one segment.  `offered == delivered +
/// failed` once the window has drained; a segment asserts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub offered: u64,
    pub delivered: u64,
    /// Shed, rejected, lost, reordered or corrupt.
    pub failed: u64,
    /// Verified payload octets delivered.
    pub bytes: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.offered += o.offered;
        self.delivered += o.delivered;
        self.failed += o.failed;
        self.bytes += o.bytes;
    }
}

/// One timed stretch of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    pub wall_ns: u64,
    pub windows: u64,
    pub counts: Counts,
    /// This segment's latency samples are `lat[lat_from..lat_to]`.
    pub lat_from: usize,
    pub lat_to: usize,
}

impl Segment {
    pub fn goodput_gbps(&self) -> f64 {
        self.counts.bytes as f64 * 8.0 / self.wall_ns.max(1) as f64
    }
}

/// Windows a timed segment runs at least, however long they take: a
/// percentile needs samples (the fleet's windows are an eighth of a
/// second each).
pub const MIN_WINDOWS: u64 = 8;

/// When a segment ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After the first window that finishes past this many nanoseconds
    /// (and no fewer than [`MIN_WINDOWS`] windows).
    Elapsed(u64),
    /// After exactly this many windows — fixed work, for counts that
    /// must repeat exactly.
    Windows(u64),
}

/// What building a workload cost, beyond its wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupInfo {
    /// Device / link / fleet construction.
    pub construct_ms: f64,
    /// TCP connect plus LCP/IPCP bring-up (0 without a session).
    pub bringup_ms: f64,
}

pub trait Workload {
    /// Run windows back to back until `until`, appending one latency
    /// sample per window (closed loop) or per frame (open loop) to
    /// `lat`.
    fn segment(&mut self, until: Until, t: &mut Tracer, lat: &mut Vec<u64>) -> Segment;

    /// The frames this workload offers (kernel replays reuse them).
    fn corpus(&self) -> &Corpus;

    /// Frames offered per window.
    fn window_frames(&self) -> usize;

    fn setup_info(&self) -> SetupInfo;

    /// Monotone counters read from the layers' public accessors; the
    /// report differences them across the traced segments.
    fn counters(&mut self) -> Vec<(&'static str, f64)>;

    /// Readings that are not differences (a skew, a percentile).
    fn gauges(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Attach (or detach) the device-cycle probe for the traced
    /// segments, where the layer only exposes cycles through its trace
    /// sink.
    fn set_cycle_probe(&mut self, _on: bool) {}

    /// Wall time of one aggregate statistics read, in milliseconds
    /// (the fleet's `Fleet::stats`; 0 where there is none).
    fn stats_ms(&self) -> f64 {
        0.0
    }

    /// How late the open-loop generator ran, one sample per frame
    /// (empty for closed loops).
    fn generator_lateness(&mut self) -> Vec<u64> {
        Vec::new()
    }
}

/// The closed-loop segment driver: `window` runs one offer → drive →
/// collect → check round and returns its counts.
pub fn closed_loop(
    until: Until,
    t: &mut Tracer,
    lat: &mut Vec<u64>,
    mut window: impl FnMut(&mut Tracer) -> Counts,
) -> Segment {
    let lat_from = lat.len();
    let mut counts = Counts::default();
    let mut windows = 0u64;
    let start = Instant::now();
    let wall_ns = loop {
        let w0 = start.elapsed().as_nanos() as u64;
        t.open(Name::Window);
        let c = window(t);
        t.close();
        let now = start.elapsed().as_nanos() as u64;
        lat.push(now - w0);
        counts.add(&c);
        windows += 1;
        let done = match until {
            Until::Elapsed(ns) => now >= ns && windows >= MIN_WINDOWS,
            Until::Windows(n) => windows >= n,
        };
        if done {
            break now;
        }
    };
    Segment {
        wall_ns,
        windows,
        counts,
        lat_from,
        lat_to: lat.len(),
    }
}

/// Walks the corpus in offer order and checks each delivery against the
/// frame that must come next: content and order in one comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checker {
    /// Corpus index of the next frame to offer.
    pub next_offer: usize,
    /// Corpus index the next delivery must equal.
    pub next_delivery: usize,
}

impl Checker {
    /// Check one delivery; `true` when it is the expected frame.  The
    /// expectation advances either way, so one corrupt frame is one
    /// failure, not a cascade — a *lost* frame does cascade, and that
    /// is meant: everything after it arrived out of place.
    pub fn check(&mut self, corpus: &Corpus, protocol: u16, payload: &[u8]) -> bool {
        let want = corpus.frame(self.next_delivery);
        self.next_delivery += 1;
        protocol == IPV4 && payload == want
    }

    /// A window ended with frames missing: skip the expectation past
    /// them so the next window starts aligned.
    pub fn resync(&mut self) {
        self.next_delivery = self.next_offer;
    }
}

/// Read a `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Mix;

    #[test]
    fn checker_accepts_in_order_and_flags_the_rest() {
        let c = Corpus::generate(Mix::Mtu1500, 42);
        let mut k = Checker::default();
        assert!(k.check(&c, IPV4, c.frame(0)));
        assert!(k.check(&c, IPV4, c.frame(1)));
        // Reordered: frame 3 where 2 was due.
        assert!(!k.check(&c, IPV4, c.frame(3)));
        // Wrong protocol on the right bytes.
        assert!(!k.check(&c, 0x8021, c.frame(3)));
        // One flipped bit.
        let mut bad = c.frame(4).to_vec();
        bad[700] ^= 0x10;
        assert!(!k.check(&c, IPV4, &bad));
        k.next_offer = 9;
        k.resync();
        assert!(k.check(&c, IPV4, c.frame(9)));
    }

    #[test]
    fn closed_loop_counts_windows_and_samples() {
        let mut lat = Vec::new();
        let seg = closed_loop(Until::Windows(5), &mut Tracer::off(), &mut lat, |_| {
            Counts {
                offered: 2,
                delivered: 2,
                failed: 0,
                bytes: 80,
            }
        });
        assert_eq!(seg.windows, 5);
        assert_eq!(seg.counts.offered, 10);
        assert_eq!(seg.counts.bytes, 400);
        assert_eq!((seg.lat_from, seg.lat_to), (0, 5));
        assert_eq!(lat.len(), 5);
    }

    #[test]
    fn proc_status_reads_resident_memory() {
        assert!(proc_status_kb("VmHWM").unwrap() > 0);
        assert!(proc_status_kb("NoSuchField").is_none());
    }
}
