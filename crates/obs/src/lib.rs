//! `p5-obs`: live observability over a running fleet.
//!
//! The paper's OAM block exposes per-link health (FCS errors, sync
//! state) while the link runs, because a carrier
//! deployment is judged live, not post-mortem.  `p5-runtime` (PR 8)
//! drives thousands of links but only reported end-of-run snapshots;
//! this crate closes that gap in four pieces:
//!
//! * **Time-series telemetry** — a [`Collector`] samples the fleet
//!   every N ticks through `Fleet::run_sampled`, diffing the monotone
//!   snapshots (`p5_trace::SnapshotDelta`) into a bounded
//!   `p5_trace::TimeSeries`: windowed frames/s, shed/s, Gbps and a
//!   windowed p99 latency bound instead of run-lifetime aggregates.
//! * **Per-link health scoring** — a hysteresis state machine
//!   ([`LinkHealth`]: [`HealthState::Healthy`] / `Degraded` / `Down`)
//!   fed by FCS-error rate, resync cost and shed rate,
//!   rolled up into a bounded-cardinality [`HealthSummary`].
//! * **Flight recorder** — a per-link bounded ring
//!   ([`FlightRecorder`]) that freezes shortly after a trigger (error
//!   burst, health transition) and dumps a JSON post-mortem, so one
//!   bad link in a 10k fleet is debuggable without tracing everything.
//! * **The scrape endpoint** — [`serve`] publishes the collector's
//!   [`ObsHub`] over plain `std::net` HTTP: `/metrics` (Prometheus),
//!   `/health` and `/flight` (JSON).  No async runtime.
//!
//! ```no_run
//! use p5_obs::{Collector, CollectorConfig, serve};
//! use p5_runtime::{Fleet, FleetConfig, TrafficSpec};
//!
//! let mut fleet = Fleet::new(FleetConfig {
//!     links: 256,
//!     traffic: Some(TrafficSpec { ticks: 100_000, ..TrafficSpec::default() }),
//!     ..FleetConfig::default()
//! }).unwrap();
//! let mut collector = Collector::new(CollectorConfig::default());
//! let server = serve(collector.hub(), "127.0.0.1:9595").unwrap();
//! collector.watch(&mut fleet, 200_000); // scrape /metrics while this runs
//! drop(server);
//! ```

pub mod collector;
pub mod flight;
pub mod health;
pub mod server;

pub use collector::{Collector, CollectorConfig, ObsHub, TransitionRecord};
pub use flight::{FlightConfig, FlightEntry, FlightKind, FlightRecorder};
pub use health::{
    HealthPolicy, HealthSample, HealthState, HealthSummary, HealthTransition, LinkHealth,
};
pub use server::{serve, ObsServer};
