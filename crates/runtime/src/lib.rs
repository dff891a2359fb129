//! Carrier-scale P⁵ runtime: thousands of independent duplex links
//! sharded across a fixed worker pool at line rate.
//!
//! The paper's P⁵ is one programmable PPP pipeline per fibre; a real
//! line card terminates *many* — an OC-48 envelope alone channelizes
//! sixteen STM-1 tributaries.  This crate is the software analogue of
//! that card: a [`Fleet`] owns N duplex links (each a pair of
//! `p5_core::P5` devices plus carriage), groups them into *cohorts*
//! (one self-carried link, or one channel group sharing an STM-N
//! envelope), and drives the cohorts from a fixed pool of worker
//! threads.
//!
//! Design rules (DESIGN.md §16):
//!
//! * **Cohort-granular scheduling.**  A worker claims a cohort and runs
//!   its whole tick batch; no state is shared between cohorts, so
//!   per-link results are a pure function of `(config, link id)` —
//!   byte-identical replay regardless of worker count, sharding mode
//!   ([`Sharding::WorkStealing`] vs [`Sharding::Static`]) or claim
//!   order.
//! * **Idle links cost nothing.**  `has_work` (the device `is_idle`
//!   machinery lifted to fleet scope) lets a cohort's drive loop return
//!   immediately, so a 10k-link fleet with 100 active links pays for
//!   100.
//! * **Graceful overload shedding.**  Each direction has a bounded
//!   ingress queue in front of the device; a frame the device will not
//!   take now (`P5::offer_frame`) waits there, and overflow of that
//!   queue is shed at admission ([`Offer::Shed`]), never silently
//!   lost: `offered == accepted + shed + rejected + queued`.
//! * **One admission rule, no overflow datapath.**  Frames become wire
//!   bytes on the fused path or wait upstream; the cycle model clocks
//!   only for a device explicitly in cycle-model duty
//!   (`P5::needs_clock`), never as a degradation step under load.
//!
//! ```
//! use p5_runtime::{Fleet, FleetConfig, TrafficSpec};
//!
//! let mut fleet = Fleet::new(FleetConfig {
//!     links: 32,
//!     workers: 4,
//!     traffic: Some(TrafficSpec { ticks: 8, ..TrafficSpec::default() }),
//!     ..FleetConfig::default()
//! })
//! .unwrap();
//! assert!(fleet.run_until_drained(10_000));
//! let stats = fleet.stats();
//! assert_eq!(stats.flow.delivered, 32 * 8);
//! assert_eq!(stats.flow.offered, stats.flow.accepted); // uncongested
//! println!("{}", fleet.prometheus());
//! ```

pub mod fleet;
mod link;
pub mod traffic;

pub use fleet::{
    Carrier, Fleet, FleetConfig, FleetStats, LinkReport, RuntimeError, Sharding, WorkerStats,
};
pub use link::Dir;
pub use p5_core::link::LinkCounters;
pub use p5_stream::Offer;
pub use traffic::TrafficSpec;
