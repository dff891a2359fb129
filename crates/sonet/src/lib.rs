//! SDH/SONET substrate — the simulated physical layer under the P⁵.
//!
//! The paper targets "Gigabit IP over SDH/SONET": the P⁵ sits between a
//! shared packet memory and an optical SDH/SONET PHY, 625 Mbps for the
//! 8-bit datapath (≈ STM-4/OC-12) and 2.5 Gbps for the 32-bit one
//! (STM-16/OC-48).  We cannot attach real fibre, so this crate implements
//! the transmission-convergence layer in software:
//!
//! * [`frame`] — STM-N frame construction and delineation: A1/A2 framing
//!   bytes, B1/B2 BIP-8 parity, J0/C2/J1/B3/G1 overhead, a fixed AU
//!   pointer, and the ITU G.707 frame-synchronous scrambler;
//! * [`scramble`] — that 1 + x⁶ + x⁷ scrambler plus the self-synchronous
//!   x⁴³ + 1 payload scrambler RFC 2615 adds for PPP payloads;
//! * [`channel`] — a configurable bit-error channel (uniform BER and
//!   bursts) between transmitter and receiver;
//! * [`path`] — a byte-pipe abstraction ([`path::OcPath`]) gluing the
//!   above into the `Phy` the P⁵ core talks to, with per-second capacity
//!   bookkeeping for throughput claims.
//!
//! Documented simplifications (see DESIGN.md §2): the AU-4 pointer is
//! fixed (no justification events), multiplex-section overhead bytes that
//! carry no information in a point-to-point PPP link (K1/K2, D bytes, E
//! bytes) are transmitted as zero, and B2 is computed over the whole frame
//! except the regenerator-section overhead rather than per-STM-1.
//!
//! ```
//! use p5_sonet::{OcPath, BitErrorChannel, ByteLink, StmLevel};
//!
//! let mut path = OcPath::new(StmLevel::Stm16, BitErrorChannel::clean());
//! path.send(b"wire bytes from the P5 transmitter");
//! path.run_frames(1);                       // one 125 us line frame
//! let delivered = path.recv();
//! assert_eq!(&delivered[..34], b"wire bytes from the P5 transmitter");
//! assert_eq!(path.section_stats().b1_errors, 0);
//! ```

pub mod channel;
pub mod channelized;
pub mod frame;
pub mod mux;
pub mod path;
pub mod scramble;

pub use channel::{BitErrorChannel, ChannelStats};
pub use channelized::TributaryGroup;
pub use frame::{FrameReceiver, FrameTransmitter, RxDefect, SectionStats, StmLevel};
pub use mux::{deinterleave, deinterleave_into, interleave, interleave_into};
pub use path::{ByteLink, OcPath};
pub use scramble::{FrameScrambler, PayloadScrambler};
