//! # p5-xport — real endpoints for the P⁵ wire
//!
//! Everything below the HDLC byte boundary is, on real equipment, a
//! SONET framer feeding a fibre.  This crate substitutes the pipes an
//! operating system actually offers — a TCP socket, plus a
//! deterministic in-process pipe — so two *processes* (or two
//! threads) can run the full LCP → authentication → IPCP bring-up and
//! exchange IP datagrams over a real byte stream, complete with partial
//! reads, partial writes, `EWOULDBLOCK`, peer stalls and disconnects.
//!
//! The layering:
//!
//! * [`Transport`] ([`TcpTransport`], [`PipeTransport`]) — a
//!   nonblocking byte pipe with explicit establishment, short-op and
//!   peer-loss semantics.
//! * [`ByteRing`] — the bounded staging ring between the device's wire
//!   boundary and a stalled kernel buffer.
//! * [`LinkEngine`] — one device + one PPP session + one transport,
//!   pumped by single `service_at(tick)` passes (`service()` on the
//!   wall clock); survives disconnects by running the session's Down/Up
//!   renegotiation.
//! * [`SessionDriver`] — a dedicated thread per link spinning the
//!   engine, with stall detection and clean handback.
//! * [`net`] — the shared nonblocking accept-loop/bounded-reader idiom
//!   (the observability scrape server is built on it).
//!
//! The fluent entry point lives in `p5-link`: `LinkBuilder::transport`
//! plus `build_remote()` returns a running [`SessionDriver`].

pub mod driver;
pub mod engine;
pub mod net;
pub mod ring;
pub mod transport;

pub use driver::SessionDriver;
pub use engine::{LinkEngine, XportCounters};
pub use ring::ByteRing;
pub use transport::{IoOp, PipeControl, PipeTransport, TcpTransport, Transport};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a holder panicked: a panic on one
/// pump thread must not wedge the engine or pipe for every later caller.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
