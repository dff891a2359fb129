//! `p5-trace`: the unified observability layer.
//!
//! The paper's P⁵ is debuggable because its OAM block exposes the framer's
//! internal state to software (counters, status registers, interrupts).
//! This crate generalises that idea across the whole reproduction:
//!
//! * [`Event`]/[`EventKind`] — cycle-stamped frame-lifecycle and
//!   OAM-write events, recorded through a [`TraceSink`].
//! * [`RingRecorder`] — a preallocated event ring; zero allocation in the
//!   steady state.  [`NullSink`] is the free-when-disabled default.
//! * [`Snapshot`]/[`Observable`] — the metrics registry every stage,
//!   pipeline and device reports through, with log2-bucket [`Histogram`]s
//!   and JSON / Prometheus text exposition ([`PromFamily`] for labelled,
//!   bounded-cardinality families).
//! * [`SnapshotDelta`]/[`TimeSeries`] — windowed diffs of the monotone
//!   snapshots: rates and windowed quantiles over a fixed-capacity ring,
//!   the live-telemetry primitive `p5-obs` samples.
//!
//! The crate is dependency-free and sits below `p5-stream`, so every layer
//! of the stack (device pipelines, links, fleets, the gate-level
//! simulators) can report through the same types.

pub mod event;
pub mod metrics;
pub mod series;
pub mod sink;

pub use event::{Event, EventKind, FrameId};
pub use metrics::{
    prom_escape_label, render_prometheus, render_table, snapshot_to_json, to_json, to_prometheus,
    Histogram, Observable, PromFamily, PromKind, PromSeries, Snapshot,
};
pub use series::{SeriesPoint, SnapshotDelta, TimeSeries};
pub use sink::{NullSink, RingRecorder, SharedRecorder, TraceSink};
