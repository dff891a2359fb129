//! p5-fault — deterministic, seedable fault injection for the P5 stack.
//!
//! The paper's receiver exists to survive a hostile wire: Escape Detect
//! must re-delineate on 0x7E flags after arbitrary corruption, and the
//! FCS check plus the OAM counters must turn bit errors into *counted
//! drops*, never delivered garbage.  This crate is the adversary that
//! proves it.  A [`FaultSpec`] describes an impairment mix (uniform and
//! Gilbert–Elliott burst bit errors, byte slip/duplication/truncation,
//! injected aborts and spurious flags, stall storms, whole-transfer
//! loss); [`FaultPlan::compile`] binds it to a seed; a link's carriage
//! (`p5_core::link::Carriage`) applies the plan to every transfer it
//! lands, and a SONET path's channel applies its bit-level half.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism** — the same `(spec, seed)` produces the same fault
//!   sequence for the same byte stream, regardless of how the stream is
//!   chunked across `offer` calls.  Every RNG draw is a function of the
//!   byte stream and prior draws only, so soak failures replay exactly.
//! * **Boundedness** — stall storms are finite ([`StallStorm::max_len`])
//!   and a draining link releases any storm in progress
//!   ([`FaultPlan::release_stall`]); chaos never wedges the harness.
//!
//! See DESIGN.md §14 for the fault model and the recovery invariants the
//! rest of the workspace checks against it.

mod plan;

pub use plan::{BurstModel, FaultError, FaultKind, FaultPlan, FaultSpec, FaultStats, StallStorm};
