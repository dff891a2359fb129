//! The LCP negotiation policy: which options we request, and how we judge
//! a peer's request.  The negotiated results land in OAM registers on the
//! P⁵ (address programmability, FCS mode, PFC/ACFC).

use crate::endpoint::{Negotiator, Verdict};
use crate::frame::FieldCompression;
use crate::lcp::{ConfigOption, LcpOption, FCS_ALT_CCITT32};
use crate::protocol::Protocol;

/// Negotiated link parameters for one direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    pub mru: u16,
    pub accm: u32,
    pub compression: FieldCompression,
    /// FCS-Alternatives bitmask in force (default CCITT-32, the P⁵ mode).
    pub fcs_alternatives: u8,
}

impl Default for LinkParams {
    fn default() -> Self {
        Self {
            mru: 1500,
            accm: 0,
            compression: FieldCompression::default(),
            fcs_alternatives: FCS_ALT_CCITT32,
        }
    }
}

/// LCP policy with paper-appropriate defaults: MRU 1500, 32-bit FCS,
/// zero ACCM (octet-synchronous SONET link), magic number for loop
/// detection.
#[derive(Debug, Clone)]
pub struct LcpNegotiator {
    /// What we ask the peer to let us receive.
    our_mru: u16,
    our_magic: u32,
    /// MRU drop mask: options the peer Configure-Rejected.
    mru_rejected: bool,
    magic_rejected: bool,
    /// Parameters governing what the *peer* may send us (acked to them).
    peer_params: LinkParams,
    /// Parameters governing what *we* may send (acked by the peer).
    our_params: LinkParams,
    /// Smallest MRU we will accept from a Nak.
    min_mru: u16,
    /// Loopback detected (peer echoed our magic number).
    loopback_suspected: bool,
}

impl LcpNegotiator {
    pub fn new(mru: u16, magic: u32) -> Self {
        Self {
            our_mru: mru,
            our_magic: magic,
            mru_rejected: false,
            magic_rejected: false,
            peer_params: LinkParams::default(),
            our_params: LinkParams::default(),
            min_mru: 64,
            loopback_suspected: false,
        }
    }

    /// MRU the peer asked for — the size we may send.
    pub fn peer_mru(&self) -> u16 {
        self.our_params.mru
    }

    /// Parameters in force for frames we transmit.
    pub fn tx_params(&self) -> LinkParams {
        self.our_params
    }

    /// Parameters in force for frames we receive.
    pub fn rx_params(&self) -> LinkParams {
        self.peer_params
    }

    pub fn loopback_suspected(&self) -> bool {
        self.loopback_suspected
    }
}

impl Negotiator for LcpNegotiator {
    fn protocol(&self) -> Protocol {
        Protocol::Lcp
    }

    fn our_request(&mut self) -> Vec<ConfigOption> {
        let mut opts = Vec::new();
        if !self.mru_rejected && self.our_mru != 1500 {
            opts.push(LcpOption::Mru(self.our_mru).to_raw());
        }
        if !self.magic_rejected {
            opts.push(LcpOption::MagicNumber(self.our_magic).to_raw());
        }
        opts
    }

    fn review_peer_request(&mut self, opts: &[ConfigOption]) -> Verdict {
        let mut naks = Vec::new();
        let mut rejects = Vec::new();
        for raw in opts {
            match LcpOption::from_raw(raw) {
                LcpOption::Mru(v) if v >= self.min_mru => {}
                LcpOption::Mru(_) => naks.push(LcpOption::Mru(self.min_mru).to_raw()),
                LcpOption::MagicNumber(m) if m != self.our_magic => {}
                LcpOption::MagicNumber(_) => {
                    // Same magic as ours: possible loopback; Nak with a
                    // perturbed value (RFC 1661 §6.4).
                    self.loopback_suspected = true;
                    naks.push(
                        LcpOption::MagicNumber(self.our_magic.rotate_left(13) ^ 0x5A5A_5A5A)
                            .to_raw(),
                    );
                }
                LcpOption::Accm(_) => {}
                LcpOption::Pfc | LcpOption::Acfc => {}
                LcpOption::FcsAlternatives(v) if v & FCS_ALT_CCITT32 != 0 => {}
                LcpOption::FcsAlternatives(_) => {
                    // The P⁵ insists on 32-bit CRC.
                    naks.push(LcpOption::FcsAlternatives(FCS_ALT_CCITT32).to_raw());
                }
                LcpOption::Unknown(raw) => rejects.push(raw),
            }
        }
        if !rejects.is_empty() {
            Verdict::Reject(rejects)
        } else if !naks.is_empty() {
            Verdict::Nak(naks)
        } else {
            Verdict::Ack
        }
    }

    fn peer_acked(&mut self, opts: &[ConfigOption]) {
        for raw in opts {
            match LcpOption::from_raw(raw) {
                LcpOption::Accm(v) => self.our_params.accm = v,
                LcpOption::FcsAlternatives(v) => self.our_params.fcs_alternatives = v,
                _ => {}
            }
        }
    }

    fn peer_naked(&mut self, hints: &[ConfigOption]) {
        for raw in hints {
            match LcpOption::from_raw(raw) {
                LcpOption::Mru(v) => self.our_mru = v,
                LcpOption::MagicNumber(m) => self.our_magic = m,
                _ => {}
            }
        }
    }

    fn peer_rejected(&mut self, rejected: &[ConfigOption]) {
        for raw in rejected {
            match LcpOption::from_raw(raw) {
                LcpOption::Mru(_) => self.mru_rejected = true,
                LcpOption::MagicNumber(_) => self.magic_rejected = true,
                _ => {}
            }
        }
    }

    fn apply_peer_options(&mut self, opts: &[ConfigOption]) {
        for raw in opts {
            match LcpOption::from_raw(raw) {
                LcpOption::Mru(v) => self.our_params.mru = v,
                LcpOption::Accm(v) => self.peer_params.accm = v,
                LcpOption::Pfc => self.peer_params.compression.pfc = true,
                LcpOption::Acfc => self.peer_params.compression.acfc = true,
                LcpOption::FcsAlternatives(v) => self.peer_params.fcs_alternatives = v,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_request_contains_magic_only_for_default_mru() {
        let mut n = LcpNegotiator::new(1500, 0xABCD);
        let req = n.our_request();
        assert_eq!(req.len(), 1);
        assert_eq!(LcpOption::from_raw(&req[0]), LcpOption::MagicNumber(0xABCD));
    }

    #[test]
    fn non_default_mru_is_requested() {
        let mut n = LcpNegotiator::new(4470, 1);
        let req = n.our_request();
        assert!(req
            .iter()
            .any(|r| LcpOption::from_raw(r) == LcpOption::Mru(4470)));
    }

    #[test]
    fn tiny_mru_gets_nak_with_minimum() {
        let mut n = LcpNegotiator::new(1500, 1);
        let verdict = n.review_peer_request(&[LcpOption::Mru(16).to_raw()]);
        assert_eq!(verdict, Verdict::Nak(vec![LcpOption::Mru(64).to_raw()]));
    }

    #[test]
    fn same_magic_suggests_loopback() {
        let mut n = LcpNegotiator::new(1500, 0x1234);
        let v = n.review_peer_request(&[LcpOption::MagicNumber(0x1234).to_raw()]);
        assert!(matches!(v, Verdict::Nak(_)));
        assert!(n.loopback_suspected());
    }

    #[test]
    fn unknown_options_are_rejected_verbatim() {
        let mut n = LcpNegotiator::new(1500, 1);
        let weird = ConfigOption {
            kind: 0x55,
            data: vec![1, 2, 3],
        };
        let v = n.review_peer_request(&[LcpOption::Mru(1500).to_raw(), weird.clone()]);
        assert_eq!(v, Verdict::Reject(vec![weird]));
    }

    #[test]
    fn fcs_without_32bit_support_is_naked() {
        let mut n = LcpNegotiator::new(1500, 1);
        let v = n.review_peer_request(&[LcpOption::FcsAlternatives(1).to_raw()]);
        assert_eq!(
            v,
            Verdict::Nak(vec![LcpOption::FcsAlternatives(FCS_ALT_CCITT32).to_raw()])
        );
    }

    #[test]
    fn rejection_prunes_future_requests() {
        let mut n = LcpNegotiator::new(9000, 7);
        n.peer_rejected(&[LcpOption::Mru(9000).to_raw()]);
        let req = n.our_request();
        assert!(!req
            .iter()
            .any(|r| matches!(LcpOption::from_raw(r), LcpOption::Mru(_))));
        assert!(req
            .iter()
            .any(|r| matches!(LcpOption::from_raw(r), LcpOption::MagicNumber(_))));
    }

    #[test]
    fn field_compression_is_acked_from_the_peer_but_never_requested() {
        // The receiver drops compressed headers, so we never tell the
        // peer we can take them; a peer's own request only permits us
        // to compress (RFC 1661 §6.5, §6.6), which we never do.
        let mut n = LcpNegotiator::new(1500, 7);
        let is_compression =
            |r: &ConfigOption| matches!(LcpOption::from_raw(r), LcpOption::Pfc | LcpOption::Acfc);
        assert!(!n.our_request().iter().any(is_compression));
        let peer = [LcpOption::Pfc.to_raw(), LcpOption::Acfc.to_raw()];
        assert_eq!(n.review_peer_request(&peer), Verdict::Ack);
        n.peer_acked(&peer);
        assert_eq!(n.tx_params().compression, FieldCompression::default());
    }
}
