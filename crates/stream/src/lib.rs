//! p5-stream — the buffers, flow counters and shapes the link layer
//! shares.
//!
//! The ready/valid handshake itself lives in the RTL: every P5 netlist
//! wires its stages with the same `in_data`/`in_valid`/`in_ready`,
//! `out_*` ports, and p5-lint rules P5L008–P5L011 and P5L015 hold the
//! gates and their compositions to that discipline.  In software a link
//! is `p5-core`'s `LinkCore` + `Carriage` (DESIGN.md §19), and this
//! crate holds what they and their owners move and count:
//!
//! * [`WireBuf`] — a batched byte store with SOF/EOF/abort tags riding
//!   beside the data, like the sideband strobes of the hardware bus;
//! * [`BufPool`] — the single-owner shelf that keeps a steady-state
//!   frame path at zero allocations;
//! * [`StageStats`] and [`Offer`] — the flow-counter and admission
//!   vocabulary every boundary reports in;
//! * the `p5-trace` re-exports below.

pub mod buf;
pub mod offer;
pub mod pool;
pub mod stats;

pub use buf::{FrameMeta, WireBuf};
pub use offer::Offer;
pub use pool::{shrink_scratch, BufPool, PoolStats, SCRATCH_HIGH_WATER};
pub use stats::StageStats;

// Re-exported so downstream crates implement `Observable` and emit
// trace events without naming `p5-trace` in their manifests.
pub use p5_trace::{
    render_table, snapshot_to_json, to_json, to_prometheus, Event, EventKind, FrameId, Histogram,
    NullSink, Observable, RingRecorder, SharedRecorder, Snapshot, TraceSink,
};
