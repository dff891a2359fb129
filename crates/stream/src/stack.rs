//! `Chain` and `Stack`: generic composition of [`StreamStage`]s with an
//! elastic `WireBuf` at every boundary.
//!
//! `Stack::step` sweeps the stages **sink→source**, the same evaluation
//! order the cycle model uses inside `TxPipeline::clock`: the downstream
//! stage drains (freeing space / deciding its ready) before the upstream
//! boundary offers, so backpressure propagates backwards through the whole
//! stack within one step, exactly like the combinational `ready` chain of
//! the RTL (lint rules P5L008–P5L010 police the same property in netlists).

use crate::buf::WireBuf;
use crate::stage::{Poll, StreamStage, WordStream};
use crate::stats::StageStats;
use p5_trace::{Event, EventKind, Histogram, NullSink, Observable, Snapshot, TraceSink};
use std::fmt::Write as _;

/// Static two-stage composition.  `Chain` is itself a [`StreamStage`], so
/// arbitrary trees compose without boxing.
#[derive(Debug)]
pub struct Chain<A, B> {
    pub first: A,
    pub second: B,
    mid: WireBuf,
}

impl<A: StreamStage, B: StreamStage> Chain<A, B> {
    pub fn new(first: A, second: B) -> Self {
        Chain {
            first,
            second,
            mid: WireBuf::new(),
        }
    }

    fn shuttle(&mut self) {
        self.first.drain(&mut self.mid);
        self.second.offer(&mut self.mid);
    }
}

impl<A: StreamStage, B: StreamStage> WordStream for Chain<A, B> {
    fn offer(&mut self, input: &mut WireBuf) -> Poll {
        let r = self.first.offer(input);
        self.shuttle();
        r
    }

    fn drain(&mut self, output: &mut WireBuf) -> Poll {
        self.shuttle();
        self.second.drain(output)
    }
}

impl<A: StreamStage, B: StreamStage> StreamStage for Chain<A, B> {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn is_idle(&self) -> bool {
        self.first.is_idle() && self.second.is_idle() && self.mid.is_empty()
    }

    fn finish(&mut self) {
        self.first.finish();
        self.shuttle();
        self.second.finish();
    }

    fn stats(&self) -> StageStats {
        let mut s = self.first.stats();
        s.absorb(&self.second.stats());
        s
    }
}

impl<A: Observable, B: Observable> Observable for Chain<A, B> {
    fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new("chain");
        s.absorb(&self.first.snapshot());
        s.absorb(&self.second.snapshot());
        s
    }
}

/// Dynamic N-stage composition: any sequence of boxed stages joined by
/// elastic `WireBuf`s, with a [`StageStats`] hook per boundary.
pub struct Stack {
    stages: Vec<Box<dyn StreamStage>>,
    /// `stages.len() + 1` buffers; `bufs[i]` feeds `stages[i]`, the last is
    /// the stack output.
    bufs: Vec<WireBuf>,
    /// `boundary[i]` instruments the interface in front of `stages[i]`
    /// (`bytes_out` = bytes delivered *into* that buffer by the upstream
    /// stage, `stall_cycles` = sweeps in which `stages[i]` blocked,
    /// `bubble_cycles` = sweeps it was starved).  `boundary[len]` is the
    /// stack output.
    boundary: Vec<StageStats>,
    /// Per-boundary histogram state: burst sizes delivered into the
    /// boundary buffer and the lengths of consecutive-blocked runs.
    traces: Vec<BoundaryTrace>,
    steps: u64,
    /// Backpressure events go here when the sink is enabled.
    sink: Box<dyn TraceSink>,
    trace_enabled: bool,
}

#[derive(Debug, Default, Clone)]
struct BoundaryTrace {
    /// Length of the blocked-offer run currently in progress.
    stall_run: u64,
    stall_runs: Histogram,
    burst_bytes: Histogram,
}

impl Stack {
    /// Compose stages source→sink.  See also the [`crate::stack!`] macro.
    ///
    /// # Panics
    /// Panics if `stages` is empty.
    pub fn compose(stages: Vec<Box<dyn StreamStage>>) -> Self {
        assert!(
            !stages.is_empty(),
            "Stack::compose needs at least one stage"
        );
        let n = stages.len();
        Stack {
            stages,
            bufs: (0..=n).map(|_| WireBuf::new()).collect(),
            boundary: vec![StageStats::default(); n + 1],
            traces: vec![BoundaryTrace::default(); n + 1],
            steps: 0,
            sink: Box::new(NullSink),
            trace_enabled: false,
        }
    }

    /// Attach a [`TraceSink`]; boundary backpressure events are recorded
    /// into it (stamped with the sweep number) while it reports enabled.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_enabled = sink.enabled();
        self.sink = sink;
    }

    /// Detach and return the current sink, restoring the free `NullSink`.
    pub fn take_sink(&mut self) -> Box<dyn TraceSink> {
        self.trace_enabled = false;
        std::mem::replace(&mut self.sink, Box::new(NullSink))
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// The stage topology of this stack: a linear source→sink chain of
    /// the composed stage names, for link-level static analysis.
    pub fn topology(&self) -> crate::Topology {
        crate::Topology::chain(
            "stack",
            self.stages.iter().map(|s| s.name().to_string()).collect(),
        )
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The buffer feeding the first stage — push frames/bytes here.
    pub fn input(&mut self) -> &mut WireBuf {
        self.bufs.first_mut().expect("stack has >= 1 stage")
    }

    /// The buffer the last stage drains into — pop results here.
    pub fn output(&mut self) -> &mut WireBuf {
        self.bufs.last_mut().expect("stack has >= 1 stage")
    }

    /// One sink→source sweep.  Every stage first drains into its output
    /// boundary, then consumes from its input boundary.  Returns the total
    /// bytes that crossed any boundary this sweep.
    pub fn step(&mut self) -> usize {
        self.steps += 1;
        let n = self.stages.len();
        let mut moved = 0;
        for i in (0..n).rev() {
            let (left, right) = self.bufs.split_at_mut(i + 1);
            let inb = &mut left[i];
            let outb = &mut right[0];
            let stage = &mut self.stages[i];
            match stage.drain(outb) {
                Poll::Ready(k) => {
                    moved += k;
                    self.boundary[i + 1].bytes_out += k as u64;
                    self.boundary[i + 1].words_out += u64::from(k > 0);
                    if k > 0 {
                        self.traces[i + 1].burst_bytes.observe(k as u64);
                    }
                }
                Poll::Blocked => self.boundary[i + 1].stall_cycles += 1,
            }
            self.boundary[i + 1].note_occupancy(outb.len());
            // Stall attribution: every sweep in which data was on offer
            // resolves to exactly one of accepted/rejected/blocked, so
            // `offered == accepted + rejected + blocked` holds per boundary
            // by construction (proptested in tests/stream_stack.rs).
            let starved = inb.is_empty();
            if !starved {
                self.boundary[i].offered += 1;
            }
            match stage.offer(inb) {
                Poll::Ready(k) => {
                    moved += k;
                    self.boundary[i].words_in += u64::from(k > 0);
                    if !starved {
                        if k > 0 {
                            self.boundary[i].accepted += 1;
                        } else {
                            self.boundary[i].rejected += 1;
                        }
                    }
                    if k == 0 && starved {
                        self.boundary[i].bubble_cycles += 1;
                    }
                    let t = &mut self.traces[i];
                    if t.stall_run > 0 {
                        t.stall_runs.observe(t.stall_run);
                        t.stall_run = 0;
                    }
                }
                Poll::Blocked => {
                    self.boundary[i].stall_cycles += 1;
                    if !starved {
                        self.boundary[i].blocked += 1;
                    }
                    self.traces[i].stall_run += 1;
                    if self.trace_enabled {
                        self.sink.record(Event {
                            cycle: self.steps,
                            kind: EventKind::Backpressure {
                                boundary: self.stages[i].name(),
                            },
                        });
                    }
                }
            }
        }
        for b in &mut self.boundary {
            b.cycles += 1;
        }
        moved
    }

    /// Step until every stage is idle and every internal boundary is empty
    /// (the output boundary may hold results).  Returns `true` if idle was
    /// reached within `max_steps`.
    pub fn run_until_idle(&mut self, max_steps: usize) -> bool {
        for _ in 0..max_steps {
            self.step();
            if self.is_idle() {
                return true;
            }
        }
        self.is_idle()
    }

    pub fn is_idle(&self) -> bool {
        let n = self.stages.len();
        self.stages.iter().all(|s| s.is_idle()) && self.bufs[..n].iter().all(|b| b.is_empty())
    }

    /// Signal end-of-input source→sink, sweeping between stages so each
    /// stage's flush reaches the next before it is finished in turn.
    pub fn finish(&mut self) {
        for i in 0..self.stages.len() {
            self.stages[i].finish();
            self.step();
            self.step();
        }
    }

    /// Sweeps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Per-stage `(name, stats)` as reported by the stages themselves.
    pub fn stage_stats(&self) -> Vec<(&'static str, StageStats)> {
        self.stages.iter().map(|s| (s.name(), s.stats())).collect()
    }

    /// Per-boundary flow counters (see the field docs on `boundary`).
    pub fn boundary_stats(&self) -> &[StageStats] {
        &self.boundary
    }

    /// Label for boundary `i`: the stage it feeds, or `output`.
    fn boundary_label(&self, i: usize) -> String {
        if i < self.stages.len() {
            format!("boundary->{}", self.stages[i].name())
        } else {
            "boundary->output".to_string()
        }
    }

    /// Metrics snapshots of every stage, in pipeline order.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.stages.iter().map(|s| s.snapshot()).collect()
    }

    /// Per-boundary snapshots: the flow counters plus the burst-size and
    /// stall-run histograms.
    pub fn boundary_snapshots(&self) -> Vec<Snapshot> {
        self.boundary
            .iter()
            .zip(self.traces.iter())
            .enumerate()
            .map(|(i, (stats, trace))| {
                stats
                    .snapshot(&self.boundary_label(i))
                    .histogram("burst_bytes", trace.burst_bytes.clone())
                    .histogram("stall_runs", trace.stall_runs.clone())
            })
            .collect()
    }

    /// The per-boundary stall-attribution table: for each boundary, how
    /// many offered sweeps were accepted, refused (`Ready(0)`) or blocked,
    /// and the share of all sweeps spent stalled — the view that names
    /// which stage bounds throughput.
    pub fn stall_table(&self) -> String {
        let labels: Vec<String> = (0..self.boundary.len())
            .map(|i| self.boundary_label(i))
            .collect();
        let w = labels.iter().map(|l| l.len()).max().unwrap_or(8).max(8);
        let mut out = format!(
            "{:<w$} {:>9} {:>9} {:>9} {:>9} {:>7} {:>12}\n",
            "boundary", "offered", "accepted", "rejected", "blocked", "stall%", "bytes"
        );
        for (label, b) in labels.iter().zip(self.boundary.iter()) {
            let _ = writeln!(
                out,
                "{label:<w$} {:>9} {:>9} {:>9} {:>9} {:>6.1}% {:>12}",
                b.offered,
                b.accepted,
                b.rejected,
                b.blocked,
                100.0 * b.stall_rate(),
                b.bytes_out,
            );
        }
        out
    }
}

impl Observable for Stack {
    /// Aggregate of every stage snapshot plus the stack's own sweep count.
    fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new("stack").counter("steps", self.steps);
        for stage in &self.stages {
            s.absorb(&stage.snapshot());
        }
        s
    }
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field(
                "stages",
                &self.stages.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .field("steps", &self.steps)
            .finish()
    }
}

/// Compose a [`Stack`] from stage expressions:
/// `let mut s = stack![TxStage::new(..), Throttle::new(..), RxStage::new(..)];`
#[macro_export]
macro_rules! stack {
    ($($stage:expr),+ $(,)?) => {
        $crate::Stack::compose(vec![
            $(Box::new($stage) as Box<dyn $crate::StreamStage>),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{Pipe, Throttle};

    #[test]
    fn stack_of_pipes_is_identity_on_frames() {
        let mut s = stack![
            Pipe::with_max_per_call(3),
            Pipe::new(),
            Pipe::with_max_per_call(1)
        ];
        s.input().push_frame(&[1, 2, 3, 4, 5]);
        s.input().push_frame(&[6]);
        assert!(s.run_until_idle(100));
        let out = s.output();
        assert_eq!(out.pop_frame().unwrap().0, vec![1, 2, 3, 4, 5]);
        assert_eq!(out.pop_frame().unwrap().0, vec![6]);
        assert!(out.is_empty());
    }

    #[test]
    fn throttled_stack_still_delivers_in_order() {
        let mut s = stack![
            Throttle::new(Pipe::with_max_per_call(2), vec![true, false, false]),
            // Odd pattern length so the two gate draws per sweep (drain,
            // offer) walk the whole pattern instead of phase-locking.
            Throttle::new(Pipe::with_max_per_call(5), vec![false, true, true]),
        ];
        let payload: Vec<u8> = (0..64).collect();
        s.input().push_slice(&payload);
        assert!(s.run_until_idle(500));
        assert_eq!(s.output().as_slice(), payload.as_slice());
    }

    #[test]
    fn boundary_stats_account_for_flow() {
        let mut s = stack![Pipe::new()];
        s.input().push_slice(&[0; 10]);
        assert!(s.run_until_idle(10));
        let b = s.boundary_stats();
        assert_eq!(b.len(), 2);
        assert_eq!(b[1].bytes_out, 10, "output boundary saw all bytes");
        assert!(b[0].cycles > 0);
    }

    #[test]
    fn attribution_invariant_holds_under_throttling() {
        let mut s = stack![
            Throttle::new(Pipe::with_max_per_call(2), vec![true, false, false]),
            Throttle::new(Pipe::with_max_per_call(5), vec![false, true, true]),
        ];
        let payload: Vec<u8> = (0..64).collect();
        s.input().push_slice(&payload);
        assert!(s.run_until_idle(500));
        s.finish();
        for b in s.boundary_stats() {
            assert_eq!(b.offered, b.accepted + b.rejected + b.blocked);
        }
        // The first boundary definitely saw backpressure: its throttle
        // blocks two sweeps in three.
        assert!(s.boundary_stats()[0].blocked > 0);
    }

    #[test]
    fn backpressure_events_reach_the_sink() {
        use p5_trace::{EventKind, SharedRecorder};
        let handle = SharedRecorder::with_capacity(256);
        // Odd pattern length: the two gate draws per sweep (drain, offer)
        // walk the whole pattern instead of phase-locking.
        let mut s = stack![Throttle::new(Pipe::new(), vec![false, true, true])];
        s.set_sink(Box::new(handle.clone()));
        s.input().push_slice(&[7; 16]);
        assert!(s.run_until_idle(50));
        let events = handle.events();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| matches!(e.kind, EventKind::Backpressure { boundary: "pipe" })));
        // Cycle stamps are the sweep numbers: monotone non-decreasing.
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // Detaching restores the free null sink.
        let _ = s.take_sink();
        s.input().push_slice(&[7; 4]);
        s.run_until_idle(50);
        assert_eq!(handle.len(), events.len());
    }

    #[test]
    fn stall_table_and_snapshots_cover_every_boundary() {
        let mut s = stack![
            Pipe::with_max_per_call(3),
            Throttle::new(Pipe::new(), vec![false, true, true])
        ];
        s.input().push_slice(&[1; 32]);
        assert!(s.run_until_idle(200));
        let table = s.stall_table();
        assert!(table.contains("boundary->pipe"));
        assert!(table.contains("boundary->output"));
        assert!(table.contains("offered"));
        let bs = s.boundary_snapshots();
        assert_eq!(bs.len(), 3);
        assert!(bs[2].get("bytes_out").unwrap() >= 32);
        assert!(bs
            .iter()
            .all(|b| b.histograms.iter().any(|(n, _)| n == "burst_bytes")));
        let agg = s.snapshot();
        assert_eq!(agg.scope, "stack");
        assert!(agg.get("steps").unwrap() > 0);
    }

    #[test]
    fn chain_composes_statically() {
        let mut c = Chain::new(Pipe::with_max_per_call(2), Pipe::new());
        let mut input = WireBuf::new();
        let mut output = WireBuf::new();
        input.push_frame(&[9, 8, 7]);
        let mut guard = 0;
        while !(input.is_empty() && c.is_idle()) {
            c.offer(&mut input);
            c.drain(&mut output);
            guard += 1;
            assert!(guard < 100);
        }
        c.finish();
        c.drain(&mut output);
        assert_eq!(output.pop_frame().unwrap().0, vec![9, 8, 7]);
    }
}
