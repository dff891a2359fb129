//! Spans recorded by the harness around each call into a layer.
//!
//! The benchmark changes nothing inside the program, so a span is what
//! the harness can see: one `window` root per offered window, with
//! children for each phase of it.  Spans live in memory preallocated
//! before the first timed call and are written out when the run ends.
//! Totals are kept per name as spans close, so they stay exact when the
//! span buffer fills and only the file is truncated.

use std::fmt::Write as _;
use std::time::Instant;

/// The span names, in the order their totals are indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Root: one offered window, first offer to last delivery checked.
    Window,
    /// Frames handed to the layer under test.
    Offer,
    /// The layer driven until the window drains (`Link::run`,
    /// `Fleet::run_ticks`).
    Drive,
    /// One `LinkEngine::service` pass of the sending endpoint.
    ServiceTx,
    /// One `LinkEngine::service` pass of the receiving endpoint.
    ServiceRx,
    /// Deliveries popped from the layer.
    Collect,
    /// The harness comparing deliveries to the corpus (its own cost,
    /// kept apart so no layer is charged for it).
    Verify,
}

pub const NAMES: [&str; 7] = [
    "window",
    "offer",
    "drive",
    "service_tx",
    "service_rx",
    "collect",
    "verify",
];

const NO_PARENT: u32 = u32::MAX;

/// One closed span.  Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: u8,
    /// Index of the enclosing span in the span list, `u32::MAX` for a
    /// root.
    pub parent: u32,
    /// The window this span belongs to: every span of one window
    /// shares it.
    pub window: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every span closed, stored or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: u8,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in `spans`, if there was room.
    slot: Option<u32>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    open: Vec<Open>,
    totals: [Total; NAMES.len()],
    window: u32,
}

impl Tracer {
    /// A tracer that records nothing; `open`/`close` cost one branch.
    pub fn off() -> Self {
        Self::with_capacity(0, false)
    }

    /// A recording tracer holding up to `capacity` spans.
    pub fn on(capacity: usize) -> Self {
        Self::with_capacity(capacity, true)
    }

    fn with_capacity(capacity: usize, enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            open: Vec::with_capacity(8),
            totals: [Total::default(); NAMES.len()],
            window: 0,
        }
    }

    /// Pause or resume recording between segments (never inside a
    /// window).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    #[inline]
    pub fn open(&mut self, name: Name) {
        if self.enabled {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.open_at(name, now);
        }
    }

    #[inline]
    pub fn close(&mut self) {
        if self.enabled {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.close_at(now);
        }
    }

    fn open_at(&mut self, name: Name, now: u64) {
        if name == Name::Window {
            self.window += 1;
        }
        let slot = if self.spans.len() < self.capacity {
            let parent = self
                .open
                .last()
                .map_or(NO_PARENT, |o| o.slot.unwrap_or(NO_PARENT));
            self.spans.push(Span {
                name: name as u8,
                parent,
                window: self.window,
                start_ns: now,
                end_ns: now,
            });
            Some(self.spans.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.open.push(Open {
            name: name as u8,
            start_ns: now,
            child_ns: 0,
            slot,
        });
    }

    fn close_at(&mut self, now: u64) {
        let o = self.open.pop().expect("close without open");
        let dur = now - o.start_ns;
        let t = &mut self.totals[o.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - o.child_ns.min(dur);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(slot) = o.slot {
            self.spans[slot as usize].end_ns = now;
        }
    }

    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that closed without a slot in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The span file: names, totals, then one `[name, parent, window,
    /// start_ns, end_ns]` row per stored span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 40);
        let _ = write!(
            s,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since the tracer was made\", \
             \"names\": {NAMES:?}, \"stored\": {}, \"dropped\": {}, \"totals\": {{",
            self.spans.len(),
            self.dropped
        );
        for (i, (name, t)) in NAMES.iter().zip(self.totals.iter()).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("}, \"columns\": [\"name\", \"parent\", \"window\", \"start_ns\", \"end_ns\"], \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if sp.parent == NO_PARENT {
                -1
            } else {
                i64::from(sp.parent)
            };
            let _ = writeln!(
                s,
                "[{}, {parent}, {}, {}, {}]{sep}",
                sp.name, sp.window, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self time of every span in a stored list — what a reader of the
    /// span file computes: duration minus the direct children's.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if s.parent != NO_PARENT {
                let dur = s.end_ns - s.start_ns;
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(dur);
            }
        }
        own
    }

    /// window[0,100] { offer[10,30], drive[30,90] { } } — then a second
    /// window with one child.
    fn scripted(capacity: usize) -> Tracer {
        let mut t = Tracer::on(capacity);
        t.open_at(Name::Window, 0);
        t.open_at(Name::Offer, 10);
        t.close_at(30);
        t.open_at(Name::Drive, 30);
        t.close_at(90);
        t.close_at(100);
        t.open_at(Name::Window, 100);
        t.open_at(Name::Drive, 105);
        t.close_at(145);
        t.close_at(150);
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = scripted(16);
        let w = t.total(Name::Window);
        assert_eq!(
            (w.count, w.total_ns, w.self_ns),
            (2, 150, 150 - 20 - 60 - 40)
        );
        let d = t.total(Name::Drive);
        assert_eq!((d.count, d.total_ns, d.self_ns), (2, 100, 100));
        assert_eq!(t.total(Name::Offer).self_ns, 20);
        assert_eq!(t.total(Name::Verify), Total::default());
    }

    #[test]
    fn stored_spans_carry_parent_and_window() {
        let t = scripted(16);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert_eq!((s[3].parent, s[4].parent), (NO_PARENT, 3));
        assert_eq!(
            s.iter().map(|x| x.window).collect::<Vec<_>>(),
            [1, 1, 1, 2, 2]
        );
        assert_eq!((s[2].start_ns, s[2].end_ns), (30, 90));
        // The offline computation agrees with the running totals.
        let own = self_times(s);
        assert_eq!(own, [20, 20, 60, 10, 40]);
        assert_eq!(own[0] + own[3], t.total(Name::Window).self_ns);
    }

    #[test]
    fn totals_stay_exact_when_the_buffer_fills() {
        let full = scripted(16);
        let tiny = scripted(2);
        assert_eq!(tiny.spans().len(), 2);
        assert_eq!(tiny.dropped(), 3);
        for n in [Name::Window, Name::Offer, Name::Drive] {
            assert_eq!(tiny.total(n), full.total(n));
        }
        assert!(tiny.to_json("w", 1).contains("\"dropped\": 3"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open(Name::Window);
        t.open(Name::Offer);
        t.close();
        t.close();
        assert!(t.spans().is_empty());
        assert_eq!(t.total(Name::Window), Total::default());
    }
}
