//! IPCP — the IP Control Protocol (RFC 1332 subset), the NCP the paper's
//! §2 mentions ("a family of Network Control Protocols (NCP) for
//! establishing and configuring different network-layer protocols").
//!
//! Implemented over the same RFC 1661 automaton as LCP; only the
//! IP-Address option (type 3) is negotiated, which is enough to bring
//! IPv4 up in the examples.

use crate::endpoint::{Negotiator, Verdict};
use crate::lcp::ConfigOption;
use crate::protocol::Protocol;

/// IPCP option type for IP-Address.
pub const OPT_IP_ADDRESS: u8 = 3;

/// Address suggested to a peer that has none (0.0.0.0): TEST-NET-1.
const SUGGESTION: [u8; 4] = [192, 0, 2, 99];

/// IPCP negotiation policy.
#[derive(Debug, Clone)]
pub struct IpcpNegotiator {
    our_addr: [u8; 4],
    peer_addr: Option<[u8; 4]>,
}

impl IpcpNegotiator {
    pub fn new(our_addr: [u8; 4]) -> Self {
        Self {
            our_addr,
            peer_addr: None,
        }
    }

    pub fn our_addr(&self) -> [u8; 4] {
        self.our_addr
    }

    pub fn peer_addr(&self) -> Option<[u8; 4]> {
        self.peer_addr
    }

    fn addr_option(addr: [u8; 4]) -> ConfigOption {
        ConfigOption {
            kind: OPT_IP_ADDRESS,
            data: addr.to_vec(),
        }
    }

    fn parse_addr(raw: &ConfigOption) -> Option<[u8; 4]> {
        if raw.kind == OPT_IP_ADDRESS && raw.data.len() == 4 {
            Some([raw.data[0], raw.data[1], raw.data[2], raw.data[3]])
        } else {
            None
        }
    }
}

impl Negotiator for IpcpNegotiator {
    fn protocol(&self) -> Protocol {
        Protocol::Ipcp
    }

    fn our_request(&mut self) -> Vec<ConfigOption> {
        vec![Self::addr_option(self.our_addr)]
    }

    fn review_peer_request(&mut self, opts: &[ConfigOption]) -> Verdict {
        let mut naks = Vec::new();
        let mut rejects = Vec::new();
        for raw in opts {
            match Self::parse_addr(raw) {
                Some([0, 0, 0, 0]) => naks.push(Self::addr_option(SUGGESTION)),
                Some(_) => {}
                None => rejects.push(raw.clone()),
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

    fn peer_acked(&mut self, _opts: &[ConfigOption]) {}

    fn peer_naked(&mut self, hints: &[ConfigOption]) {
        for raw in hints {
            if let Some(addr) = Self::parse_addr(raw) {
                self.our_addr = addr;
            }
        }
    }

    fn peer_rejected(&mut self, _rejected: &[ConfigOption]) {}

    fn apply_peer_options(&mut self, opts: &[ConfigOption]) {
        for raw in opts {
            if let Some(addr) = Self::parse_addr(raw) {
                self.peer_addr = Some(addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr_opt(a: [u8; 4]) -> ConfigOption {
        IpcpNegotiator::addr_option(a)
    }

    #[test]
    fn requests_our_address() {
        let mut n = IpcpNegotiator::new([10, 1, 2, 3]);
        assert_eq!(n.our_request(), vec![addr_opt([10, 1, 2, 3])]);
    }

    #[test]
    fn acceptable_address_is_acked() {
        let mut n = IpcpNegotiator::new([10, 0, 0, 1]);
        assert_eq!(
            n.review_peer_request(&[addr_opt([10, 0, 0, 2])]),
            Verdict::Ack
        );
    }

    #[test]
    fn zero_address_is_naked_with_suggestion() {
        let mut n = IpcpNegotiator::new([10, 0, 0, 1]);
        assert_eq!(
            n.review_peer_request(&[addr_opt([0, 0, 0, 0])]),
            Verdict::Nak(vec![addr_opt(SUGGESTION)])
        );
    }

    #[test]
    fn unknown_option_rejected() {
        let mut n = IpcpNegotiator::new([10, 0, 0, 1]);
        let weird = ConfigOption {
            kind: 0x81,
            data: vec![],
        };
        assert_eq!(
            n.review_peer_request(std::slice::from_ref(&weird)),
            Verdict::Reject(vec![weird])
        );
    }

    #[test]
    fn nak_adjusts_our_address() {
        let mut n = IpcpNegotiator::new([0, 0, 0, 0]);
        n.peer_naked(&[addr_opt([172, 16, 0, 5])]);
        assert_eq!(n.our_addr(), [172, 16, 0, 5]);
    }

    #[test]
    fn apply_records_peer_address() {
        let mut n = IpcpNegotiator::new([10, 0, 0, 1]);
        n.apply_peer_options(&[addr_opt([10, 0, 0, 2])]);
        assert_eq!(n.peer_addr(), Some([10, 0, 0, 2]));
    }
}
