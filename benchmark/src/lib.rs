//! The one benchmark for the P⁵ stack.
//!
//! Eight named workloads, each run in a process of its own; five gated
//! end-to-end metrics measured with tracing off; a separate traced pass
//! that records spans around every call into a layer and replays the
//! workload's corpus through each layer alone.  Everything is measured
//! from outside, through the crates' public functions: this package is
//! not a member of the repository workspace and changes nothing in it.
//! See `README.md` for the tables and how to read the output.

pub mod alloc;
pub mod corpus;
pub mod fleet;
pub mod json;
pub mod kernels;
pub mod links;
pub mod pace;
pub mod report;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod tcp;
pub mod workload;
