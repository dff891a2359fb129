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
//! [`crate::core`], [`crate::sonet`] etc. for the full per-layer APIs,
//! and use the [`stack!`] macro directly when a custom topology is
//! needed (the documented low-level escape hatch).

pub use p5_core::oam::{regs, MmioBus, Oam, OamHandle};
pub use p5_core::{
    decap, encap, DatapathWidth, LinkCore, ReceivedFrame, RxStage, TxQueueFull, TxStage, P5,
};
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
    render_table, stack, Chain, Observable, Offer, Pipe, Poll, SharedRecorder, Snapshot, Stack,
    StageStats, StreamStage, Throttle, WireBuf, WordStream,
};
pub use p5_xport::{LinkEngine, PipeTransport, SessionDriver, TcpTransport, Transport};
