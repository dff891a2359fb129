//! The PPP protocol layer (RFC 1661) as used by the paper's P⁵.
//!
//! The paper's §2 breaks PPP into three parts; all three exist here:
//!
//! 1. **Framing** — the HDLC-like encapsulation lives in `p5-hdlc`; this
//!    crate adds the PPP frame *fields* (address, control, protocol,
//!    payload — Figure 1 of the paper) with the programmable address byte
//!    that makes the P⁵ "compatible with MAPOS systems" (RFC 2171),
//!    and the LCP-negotiable field compressions (ACFC/PFC).
//! 2. **LCP** — packet codec, configuration options, and the complete
//!    RFC 1661 §4 option-negotiation automaton (all ten states), plus a
//!    runnable [`endpoint::Endpoint`] that drives it with restart timers
//!    and counters the way a host microprocessor would drive the P⁵ OAM.
//! 3. **NCP** — IPCP (RFC 1332 subset) implemented over the same
//!    automaton, enough to bring IPv4 up on a negotiated link.
//!
//! ```
//! use p5_ppp::{Session, SessionEvent};
//!
//! let mut a = Session::new(0xAAAA, [10, 0, 0, 1]);
//! let mut b = Session::new(0xBBBB, [10, 0, 0, 2]);
//! a.start();
//! b.start();
//! for now in 0..60 {
//!     a.tick(now);
//!     b.tick(now);
//!     for (proto, info) in a.poll_output() { b.receive(proto, &info); }
//!     for (proto, info) in b.poll_output() { a.receive(proto, &info); }
//! }
//! assert!(a.is_network_up() && b.is_network_up());
//! a.send_datagram(b"ping".to_vec());
//! for (proto, info) in a.poll_output() { b.receive(proto, &info); }
//! assert!(b.poll_events().contains(&SessionEvent::Datagram(b"ping".to_vec())));
//! ```

pub mod endpoint;
pub mod frame;
pub mod fsm;
pub mod ipcp;
pub mod lcp;
pub mod lcp_negotiator;
pub mod mapos;
pub mod pap;
pub mod profile;
pub mod protocol;
pub mod session;

pub use frame::{FieldCompression, FrameCodec, FrameError, PppFrame};
pub use fsm::{Action, Automaton, Event, State};
pub use lcp::{ConfigOption, LcpOption, Packet, PacketCode};
pub use pap::CredentialTable;
pub use profile::{AuthPolicy, NegotiationProfile};
pub use protocol::Protocol;
pub use session::{Session, SessionEvent};
