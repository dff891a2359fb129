//! A complete PPP session: LCP + IPCP endpoints bundled behind one
//! demultiplexer, with RFC 1661 §5.7 Protocol-Reject for traffic in
//! unknown protocols — the full software stack a host runs on top of
//! the P⁵'s shared-memory frame interface.

use crate::endpoint::{Endpoint, LayerEvent};
use crate::ipcp::IpcpNegotiator;
use crate::lcp::{Packet, PacketCode};
use crate::lcp_negotiator::LcpNegotiator;
use crate::pap::{authenticate, PapPacket};
use crate::profile::{AuthPolicy, NegotiationProfile};
use crate::protocol::Protocol;

/// Events a session surfaces to its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionEvent {
    /// LCP reached Opened.
    LinkUp,
    /// LCP left Opened.
    LinkDown,
    /// IPCP reached Opened with the negotiated addresses (ours, peer's).
    NetworkUp([u8; 4], [u8; 4]),
    /// An IPv4 datagram arrived on the open link.
    Datagram(Vec<u8>),
    /// A frame arrived in a protocol we rejected.
    RejectedProtocol(u16),
    /// The PAP authentication phase completed (either side).
    AuthOk,
    /// PAP failed: our credentials were Nak'd, or the peer presented
    /// credentials our table refuses.  IPCP stays held down.
    AuthFailed,
}

/// A PPP session endpoint (one side of the link).
pub struct Session {
    pub lcp: Endpoint<LcpNegotiator>,
    pub ipcp: Endpoint<IpcpNegotiator>,
    link_up: bool,
    network_up: bool,
    /// Outbound (protocol, information field) frames.
    outbox: Vec<(u16, Vec<u8>)>,
    events: Vec<SessionEvent>,
    reject_id: u8,
    /// Authentication stance (RFC 1334): gates IPCP's `lower_up`.
    auth: AuthPolicy,
    /// The auth phase is complete (vacuously true for
    /// [`AuthPolicy::None`]); reset on every link down.
    auth_done: bool,
    auth_id: u8,
    /// Next tick at which the PAP client retransmits its request.
    auth_deadline: Option<u64>,
}

impl Session {
    pub fn new(magic: u32, ip: [u8; 4]) -> Self {
        Self::with_profile(&NegotiationProfile::new().magic(magic).ip(ip))
    }

    /// Build a session from a typed [`NegotiationProfile`] — the
    /// redesigned configuration surface (MRU, restart budget, auth
    /// stance and addressing in one object).
    pub fn with_profile(profile: &NegotiationProfile) -> Self {
        let lcp_neg = LcpNegotiator::new(profile.mru_requested(), profile.magic_number());
        let cfg = profile.config();
        Self {
            lcp: Endpoint::new(lcp_neg, cfg),
            ipcp: Endpoint::new(IpcpNegotiator::new(profile.ip_addr()), cfg),
            link_up: false,
            network_up: false,
            outbox: Vec::new(),
            events: Vec::new(),
            reject_id: 0,
            auth: profile.take_auth(),
            auth_done: false,
            auth_id: 0,
            auth_deadline: None,
        }
    }

    /// Begin: administrative open + PHY up.
    pub fn start(&mut self) {
        self.lcp.open();
        self.lcp.lower_up();
        self.ipcp.open();
    }

    /// Administrative close.
    pub fn stop(&mut self) {
        self.ipcp.close();
        self.lcp.close();
    }

    /// The physical layer (de)asserted carrier: PHY up.
    pub fn lower_up(&mut self) {
        self.lcp.lower_up();
        self.pump();
    }

    /// The physical layer dropped — e.g. an outage delivered nothing
    /// for several intervals.  LCP leaves Opened, which cascades a Down
    /// into IPCP via the internal event pump.
    pub fn lower_down(&mut self) {
        self.lcp.lower_down();
        self.pump();
    }

    /// Force a full LCP renegotiation (RFC 1661 restart): bounce the
    /// lower layer.  The automaton re-enters Req-Sent and the session
    /// re-opens within [`NegotiationProfile::restart_budget_ticks`]
    /// provided the peer is responsive.
    pub fn renegotiate(&mut self) {
        self.lower_down();
        self.lower_up();
    }

    pub fn is_network_up(&self) -> bool {
        self.network_up
    }

    /// Queue an IPv4 datagram (only sensible once the network is up).
    pub fn send_datagram(&mut self, datagram: Vec<u8>) {
        self.outbox.push((Protocol::Ipv4.number(), datagram));
    }

    /// Advance timers.
    pub fn tick(&mut self, now: u64) {
        self.lcp.tick(now);
        self.ipcp.tick(now);
        self.pump();
        self.retry_auth(now);
    }

    /// PAP client (re)transmission: while the link is open and the
    /// auth phase unsettled, send the Authenticate-Request on the same
    /// restart cadence as LCP (RFC 1334 leaves the retry policy to the
    /// implementation; reusing the restart period keeps the whole
    /// bring-up inside one restart budget per phase).
    fn retry_auth(&mut self, now: u64) {
        if !self.link_up || self.auth_done {
            self.auth_deadline = None;
            return;
        }
        let AuthPolicy::PapClient { id, secret } = &self.auth else {
            return;
        };
        if let Some(d) = self.auth_deadline {
            if now < d {
                return;
            }
        }
        let req = PapPacket::Request {
            id: self.auth_id,
            peer_id: id.clone(),
            password: secret.clone(),
        };
        self.outbox.push((Protocol::Pap.number(), req.to_bytes()));
        self.auth_deadline = Some(now + self.lcp.config().restart_period);
    }

    /// Demultiplex one received frame (protocol number + information
    /// field) into the right endpoint, per RFC 1661 §5.7 rejecting
    /// unknown protocols while the link is open.
    pub fn receive(&mut self, protocol: u16, info: &[u8]) {
        match Protocol::from_number(protocol) {
            Protocol::Lcp => self.lcp.receive(info),
            Protocol::Ipcp if self.link_up => self.ipcp.receive(info),
            Protocol::Pap if self.link_up => self.receive_pap(info),
            Protocol::Ipv4 if self.network_up => {
                self.events.push(SessionEvent::Datagram(info.to_vec()));
            }
            _ if self.link_up => {
                // Protocol-Reject: LCP packet whose data is the rejected
                // protocol number followed by the offending information.
                self.reject_id = self.reject_id.wrapping_add(1);
                let mut data = protocol.to_be_bytes().to_vec();
                data.extend_from_slice(&info[..info.len().min(32)]);
                let pkt = Packet::new(PacketCode::ProtocolReject, self.reject_id, data);
                self.outbox.push((Protocol::Lcp.number(), pkt.to_bytes()));
                self.events.push(SessionEvent::RejectedProtocol(protocol));
            }
            _ => { /* link down: silently discard (RFC 1661 phase rule) */ }
        }
        self.pump();
    }

    /// One PAP packet from the peer, interpreted per our stance.  A
    /// request against [`AuthPolicy::PapServer`] is answered
    /// immediately; an Ack/Nak settles an outstanding
    /// [`AuthPolicy::PapClient`] request.  Anything else (PAP traffic
    /// with no auth configured — a peer misconfiguration) is dropped.
    fn receive_pap(&mut self, info: &[u8]) {
        let Some(pkt) = PapPacket::parse(info) else {
            return;
        };
        match (&self.auth, pkt) {
            (AuthPolicy::PapServer(table), req @ PapPacket::Request { .. }) => {
                let reply = authenticate(table, &req).expect("Request yields a reply");
                let granted = matches!(reply, PapPacket::Ack { .. });
                self.outbox.push((Protocol::Pap.number(), reply.to_bytes()));
                if granted {
                    self.finish_auth();
                } else {
                    self.events.push(SessionEvent::AuthFailed);
                }
            }
            (AuthPolicy::PapClient { .. }, PapPacket::Ack { id, .. }) if id == self.auth_id => {
                self.finish_auth();
            }
            (AuthPolicy::PapClient { .. }, PapPacket::Nak { id, .. }) if id == self.auth_id => {
                self.events.push(SessionEvent::AuthFailed);
            }
            _ => {}
        }
    }

    /// The auth phase succeeded: release IPCP (idempotent — a server
    /// re-acking a retransmitted request must not bounce the NCP).
    fn finish_auth(&mut self) {
        if !self.auth_done {
            self.auth_done = true;
            self.events.push(SessionEvent::AuthOk);
            self.ipcp.lower_up();
        }
    }

    /// Drain outbound frames for the transmit queue.
    pub fn poll_output(&mut self) -> Vec<(u16, Vec<u8>)> {
        self.pump();
        std::mem::take(&mut self.outbox)
    }

    /// Drain session events.
    pub fn poll_events(&mut self) -> Vec<SessionEvent> {
        std::mem::take(&mut self.events)
    }

    /// Move endpoint outputs/layer events into the session state.
    fn pump(&mut self) {
        for (proto, pkt) in self.lcp.poll_output() {
            self.outbox.push((proto.number(), pkt.to_bytes()));
        }
        for ev in self.lcp.poll_layer_events() {
            match ev {
                LayerEvent::Up => {
                    self.link_up = true;
                    self.events.push(SessionEvent::LinkUp);
                    // The auth phase sits between LCP and the NCPs
                    // (RFC 1661 §3.5): IPCP is held down until it
                    // settles (immediately, for AuthPolicy::None).
                    match &self.auth {
                        AuthPolicy::None => {
                            self.auth_done = true;
                            self.ipcp.lower_up();
                        }
                        AuthPolicy::PapClient { .. } => {
                            // A fresh attempt gets a fresh id; the
                            // request itself goes out (and is
                            // retransmitted) from `retry_auth`.
                            self.auth_id = self.auth_id.wrapping_add(1);
                            self.auth_deadline = None;
                        }
                        AuthPolicy::PapServer(_) => {}
                    }
                }
                LayerEvent::Down | LayerEvent::Finished => {
                    if self.link_up {
                        self.link_up = false;
                        self.network_up = false;
                        self.auth_done = false;
                        self.events.push(SessionEvent::LinkDown);
                        self.ipcp.lower_down();
                    }
                }
                LayerEvent::Started => {}
            }
        }
        for (proto, pkt) in self.ipcp.poll_output() {
            self.outbox.push((proto.number(), pkt.to_bytes()));
        }
        for ev in self.ipcp.poll_layer_events() {
            if ev == LayerEvent::Up {
                self.network_up = true;
                let ours = self.ipcp.negotiator.our_addr();
                let theirs = self.ipcp.negotiator.peer_addr().unwrap_or([0; 4]);
                self.events.push(SessionEvent::NetworkUp(ours, theirs));
            }
            if ev == LayerEvent::Down {
                self.network_up = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn converge(a: &mut Session, b: &mut Session) {
        for now in 0..60 {
            a.tick(now);
            b.tick(now);
            for (proto, info) in a.poll_output() {
                b.receive(proto, &info);
            }
            for (proto, info) in b.poll_output() {
                a.receive(proto, &info);
            }
            if a.is_network_up() && b.is_network_up() {
                return;
            }
        }
        panic!(
            "sessions did not converge: a lcp {:?} ipcp {:?}, b lcp {:?} ipcp {:?}",
            a.lcp.state(),
            a.ipcp.state(),
            b.lcp.state(),
            b.ipcp.state()
        );
    }

    #[test]
    fn full_bring_up_and_datagram_exchange() {
        let mut a = Session::new(0x0A, [10, 1, 1, 1]);
        let mut b = Session::new(0x0B, [10, 1, 1, 2]);
        a.start();
        b.start();
        converge(&mut a, &mut b);
        let ev = a.poll_events();
        assert!(ev.contains(&SessionEvent::LinkUp));
        assert!(ev
            .iter()
            .any(|e| matches!(e, SessionEvent::NetworkUp([10, 1, 1, 1], [10, 1, 1, 2]))));

        a.send_datagram(b"ping".to_vec());
        for (proto, info) in a.poll_output() {
            b.receive(proto, &info);
        }
        assert!(b
            .poll_events()
            .contains(&SessionEvent::Datagram(b"ping".to_vec())));
    }

    #[test]
    fn unknown_protocol_gets_protocol_reject() {
        let mut a = Session::new(1, [10, 0, 0, 1]);
        let mut b = Session::new(2, [10, 0, 0, 2]);
        a.start();
        b.start();
        converge(&mut a, &mut b);
        a.poll_output();
        // Deliver an IPX frame (0x002B) — not negotiated.
        a.receive(0x002B, b"ipx payload");
        let out = a.poll_output();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Protocol::Lcp.number());
        let pkt = Packet::parse(&out[0].1).unwrap();
        assert_eq!(pkt.code, PacketCode::ProtocolReject);
        assert_eq!(&pkt.data[..2], &0x002Bu16.to_be_bytes());
        assert!(a
            .poll_events()
            .contains(&SessionEvent::RejectedProtocol(0x002B)));
    }

    #[test]
    fn traffic_before_link_up_is_discarded() {
        let mut a = Session::new(1, [10, 0, 0, 1]);
        a.start();
        a.poll_output();
        a.receive(Protocol::Ipv4.number(), b"early");
        assert!(a.poll_events().is_empty());
        let out = a.poll_output();
        assert!(out.iter().all(|(p, _)| *p == Protocol::Lcp.number()));
    }

    #[test]
    fn datagrams_before_network_up_do_not_surface() {
        let mut a = Session::new(1, [10, 0, 0, 1]);
        let mut b = Session::new(2, [10, 0, 0, 2]);
        a.start();
        b.start();
        // Only LCP has converged when we inject IPv4.
        for now in 0..6 {
            a.tick(now);
            b.tick(now);
            for (proto, info) in a.poll_output() {
                if proto == Protocol::Lcp.number() {
                    b.receive(proto, &info);
                }
            }
            for (proto, info) in b.poll_output() {
                if proto == Protocol::Lcp.number() {
                    a.receive(proto, &info);
                }
            }
        }
        a.receive(Protocol::Ipv4.number(), b"too soon");
        let evs = a.poll_events();
        assert!(!evs.contains(&SessionEvent::Datagram(b"too soon".to_vec())));
    }

    #[test]
    fn lower_down_tears_the_link_and_renegotiation_fits_the_restart_budget() {
        let mut a = Session::new(1, [10, 0, 0, 1]);
        let mut b = Session::new(2, [10, 0, 0, 2]);
        a.start();
        b.start();
        converge(&mut a, &mut b);
        a.poll_events();
        b.poll_events();

        // The error storm trips: A's PHY bounces.
        a.renegotiate();
        assert!(a.poll_events().contains(&SessionEvent::LinkDown));
        assert!(!a.is_network_up());

        // Both LCP and IPCP must re-open within the RFC 1661 restart
        // budget (every Configure-Request gets one restart period, for
        // each of the two stacked negotiations).
        let budget = 2 * a.lcp.config().restart_budget_ticks();
        let mut recovered_at = None;
        for now in 100..100 + budget {
            a.tick(now);
            b.tick(now);
            for (proto, info) in a.poll_output() {
                b.receive(proto, &info);
            }
            for (proto, info) in b.poll_output() {
                a.receive(proto, &info);
            }
            if a.is_network_up() && b.is_network_up() {
                recovered_at = Some(now - 100);
                break;
            }
        }
        let ticks = recovered_at.expect("renegotiation completed within the restart budget");
        assert!(
            ticks <= budget,
            "re-open took {ticks} ticks, budget {budget}"
        );
        let ev = a.poll_events();
        assert!(ev.contains(&SessionEvent::LinkUp));
        assert!(ev.iter().any(|e| matches!(e, SessionEvent::NetworkUp(..))));
    }

    #[test]
    fn pap_gates_the_network_phase() {
        use crate::pap::CredentialTable;
        let mut a = Session::with_profile(
            &NegotiationProfile::new()
                .magic(1)
                .ip([10, 0, 0, 1])
                .pap_client(b"alice", b"s3cret"),
        );
        let mut b = Session::with_profile(
            &NegotiationProfile::new()
                .magic(2)
                .ip([10, 0, 0, 2])
                .pap_server(CredentialTable::default().with(b"alice", b"s3cret")),
        );
        a.start();
        b.start();
        converge(&mut a, &mut b);
        assert!(a.poll_events().contains(&SessionEvent::AuthOk));
        assert!(b.poll_events().contains(&SessionEvent::AuthOk));
    }

    #[test]
    fn pap_with_wrong_secret_holds_the_network_down() {
        use crate::pap::CredentialTable;
        let mut a = Session::with_profile(
            &NegotiationProfile::new()
                .magic(1)
                .ip([10, 0, 0, 1])
                .pap_client(b"alice", b"wrong"),
        );
        let mut b = Session::with_profile(
            &NegotiationProfile::new()
                .magic(2)
                .ip([10, 0, 0, 2])
                .pap_server(CredentialTable::default().with(b"alice", b"s3cret")),
        );
        a.start();
        b.start();
        for now in 0..40 {
            a.tick(now);
            b.tick(now);
            for (proto, info) in a.poll_output() {
                b.receive(proto, &info);
            }
            for (proto, info) in b.poll_output() {
                a.receive(proto, &info);
            }
        }
        assert!(!a.is_network_up());
        assert!(!b.is_network_up());
        assert!(a.poll_events().contains(&SessionEvent::AuthFailed));
        assert!(b.poll_events().contains(&SessionEvent::AuthFailed));
    }

    #[test]
    fn stop_tears_the_session_down() {
        let mut a = Session::new(1, [10, 0, 0, 1]);
        let mut b = Session::new(2, [10, 0, 0, 2]);
        a.start();
        b.start();
        converge(&mut a, &mut b);
        a.poll_events();
        b.poll_events();
        a.stop();
        for now in 100..130 {
            a.tick(now);
            b.tick(now);
            for (proto, info) in a.poll_output() {
                b.receive(proto, &info);
            }
            for (proto, info) in b.poll_output() {
                a.receive(proto, &info);
            }
        }
        assert!(!a.is_network_up());
        assert!(!b.is_network_up());
        assert!(b.poll_events().contains(&SessionEvent::LinkDown));
    }
}
