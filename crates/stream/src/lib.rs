//! p5-stream — the behavioural counterpart of the RTL handshake convention.
//!
//! The P5 netlists wire every stage together with the same four-signal
//! interface (`in_data`/`in_valid`/`in_ready`, `out_*`), and p5-lint rules
//! P5L008–P5L010 hold RTL to that discipline.  This crate is the software
//! analogue: a [`WordStream`] moves bytes in *batches* through a [`WireBuf`]
//! (tagged SOF/EOF/abort word lanes ride alongside the data, like the
//! sideband strobes of the hardware bus), [`Poll::Blocked`] is the
//! deasserted `ready`, and [`Stack`] sweeps stages sink→source each step so
//! backpressure propagates combinationally backwards exactly as in the RTL
//! pipeline of the paper's Figure 3/4.
//!
//! `p5-core` implements [`StreamStage`] for the device's two ends;
//! [`Stack::compose`] (or the [`stack!`] macro) then chains any
//! sequence of them with elastic buffers at each boundary and per-boundary
//! [`StageStats`] hooks.

pub mod buf;
pub mod offer;
pub mod pool;
pub mod stack;
pub mod stage;
pub mod stats;
pub mod topology;

pub use buf::{FrameMeta, WireBuf};
pub use offer::Offer;
pub use pool::{shrink_scratch, BufPool, PoolStats, SCRATCH_HIGH_WATER};
pub use stack::{Chain, Stack};
pub use stage::{Pipe, Poll, StreamStage, Throttle, WordStream};
pub use stats::StageStats;
pub use topology::Topology;

// Re-exported so downstream crates implement `Observable` (a `StreamStage`
// supertrait) and emit trace events without naming `p5-trace` in their
// manifests.
pub use p5_trace::{
    render_table, snapshot_to_json, to_json, to_prometheus, Event, EventKind, FrameId, Histogram,
    NullSink, Observable, RingRecorder, SharedRecorder, Snapshot, TraceSink,
};
