//! # P⁵ — a full-system reproduction of "A Programmable and Highly
//! Pipelined PPP Architecture for Gigabit IP over SDH/SONET"
//! (Toal & Sezer, IPDPS/IPPS 2003).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`crc`] — parallel CRC engines (FCS-16/FCS-32, Pei–Zukowski
//!   matrices);
//! * [`hdlc`] — octet-stuffed HDLC framing (RFC 1662), the behavioural
//!   golden model;
//! * [`ppp`] — PPP frame fields, LCP/IPCP, the RFC 1661 automaton,
//!   MAPOS addressing;
//! * [`sonet`] — STM-4/STM-16 transmission convergence + error channel;
//! * [`core`] — the cycle-accurate P⁵ itself (8-bit and 32-bit
//!   datapaths, escape units, OAM);
//! * [`fpga`] — netlist IR, 4-LUT technology mapper, Virtex/Virtex-II
//!   device library, STA;
//! * [`rtl`] — the P⁵ modules as gate-level netlists (Tables 1–3);
//! * [`fault`] — deterministic, seedable fault injection (BER, bursts,
//!   slips, aborts, stall storms);
//! * [`link`] — [`link::LinkBuilder`], the one way to assemble a link;
//! * [`runtime`] — the carrier-scale multi-link runtime:
//!   [`runtime::Fleet`] shards thousands of duplex links across a
//!   fixed worker pool with bounded ingress, graceful overload
//!   shedding and channelized SDH carriage;
//! * [`obs`] — live fleet observability: [`obs::Collector`] time-series
//!   telemetry, per-link hysteresis health scoring, freezing flight
//!   recorders, and [`obs::serve`], a dependency-free HTTP scrape
//!   endpoint (`/metrics`, `/health`, `/flight`);
//! * [`xport`] — real endpoints: [`xport::Transport`] byte pipes (TCP,
//!   in-process), [`xport::LinkEngine`] binding one device plus PPP
//!   session to a transport, and
//!   [`xport::SessionDriver`] dedicated pump threads — built by
//!   [`link::LinkBuilder::build_remote`].
//!
//! [`prelude`] re-exports the common assembly surface in one `use`.
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and the
//! per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured.

pub use p5_core as core;
pub use p5_crc as crc;
pub use p5_fault as fault;
pub use p5_fpga as fpga;
pub use p5_hdlc as hdlc;
pub use p5_link as link;
pub use p5_obs as obs;
pub use p5_ppp as ppp;
pub use p5_rtl as rtl;
pub use p5_runtime as runtime;
pub use p5_sonet as sonet;
pub use p5_xport as xport;

pub mod prelude;

/// The line clock (MHz) both datapath widths must meet:
/// 625 Mbps / 8 = 2.5 Gbps / 32 = 78.125 MHz.
pub const LINE_CLOCK_MHZ: f64 = 78.125;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        let _ = crate::crc::FCS32;
        let _ = crate::hdlc::FLAG;
        let _ = crate::core::DatapathWidth::W32;
        assert_eq!(crate::LINE_CLOCK_MHZ, 78.125);
    }
}
