//! The one `use` line for assembling and driving links.
//!
//! ```
//! use p5::prelude::*;
//!
//! let mut link = LinkBuilder::new().width(DatapathWidth::W32).build().unwrap();
//! link.send(0x0021, b"datagram");
//! link.run(2_000).unwrap();
//! assert_eq!(link.deliveries().len(), 1);
//! ```
//!
//! Everything here is re-exported from the workspace crates; reach into
//! [`crate::core`], [`crate::sonet`] etc. for the full per-layer APIs.
//! A topology the builder does not model is a loop over the same parts
//! [`Link`] drives: [`LinkCore`], `p5_core::Carriage` and
//! [`P5::ingest_wire`].

pub use p5_core::oam::{regs, MmioBus, Oam, OamHandle};
pub use p5_core::{DatapathWidth, LinkCore, ReceivedFrame, TxQueueFull, P5};
pub use p5_fault::{
    BurstModel, FaultError, FaultKind, FaultPlan, FaultSpec, FaultStats, StallStorm,
};
pub use p5_hdlc::{DeframerConfig, FcsMode};
pub use p5_link::{DuplexLink, Link, LinkBuilder, LinkError};
pub use p5_obs::{serve, Collector, CollectorConfig, HealthPolicy, HealthState, ObsHub};
pub use p5_ppp::{AuthPolicy, CredentialTable, NegotiationProfile, Session, SessionEvent};
pub use p5_runtime::{Carrier, Fleet, FleetConfig, FleetStats, Sharding, TrafficSpec};
pub use p5_sonet::{BitErrorChannel, OcPath, StmLevel, TributaryGroup};
pub use p5_stream::{
    render_table, Observable, Offer, SharedRecorder, Snapshot, StageStats, WireBuf,
};
pub use p5_xport::{LinkEngine, PipeTransport, SessionDriver, TcpTransport, Transport};
