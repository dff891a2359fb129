//! A runnable control-protocol endpoint: the RFC 1661 automaton plus
//! restart timer, restart counters, id management and packet I/O.
//!
//! This is the software a host microprocessor runs against the P⁵'s OAM
//! interface: it never touches framing — it consumes and produces
//! control-protocol *packets* (the information field of protocol 0xC021 /
//! 0x8021 frames).
//!
//! Time is explicit: the caller advances [`Endpoint::tick`] with a
//! monotonically increasing tick count, making tests and simulations
//! deterministic.

use crate::fsm::{Action, Automaton, CannotOccur, Event, State};
use crate::lcp::{ConfigOption, Packet, PacketCode, PacketError};
use crate::protocol::Protocol;

/// How an implementation judges a peer's Configure-Request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All options acceptable as-is.
    Ack,
    /// Recognised but unacceptable values; carries the corrected options.
    Nak(Vec<ConfigOption>),
    /// Unrecognised/non-negotiable options; carries them verbatim.
    Reject(Vec<ConfigOption>),
}

/// Protocol-specific negotiation policy plugged into an [`Endpoint`]
/// (one impl for LCP, one for IPCP, ...).
pub trait Negotiator {
    /// The PPP protocol number this control protocol runs over.
    fn protocol(&self) -> Protocol;
    /// The option list for our next Configure-Request.
    fn our_request(&mut self) -> Vec<ConfigOption>;
    /// Judge a peer Configure-Request.
    fn review_peer_request(&mut self, opts: &[ConfigOption]) -> Verdict;
    /// The peer acknowledged our request with these options.
    fn peer_acked(&mut self, opts: &[ConfigOption]);
    /// The peer Nak'd: adjust our desires toward the hints.
    fn peer_naked(&mut self, hints: &[ConfigOption]);
    /// The peer rejected these option types: stop requesting them.
    fn peer_rejected(&mut self, rejected: &[ConfigOption]);
    /// Peer request we acknowledged — apply its options to our receive
    /// direction.
    fn apply_peer_options(&mut self, opts: &[ConfigOption]);
}

/// Externally visible layer transitions, in order of occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerEvent {
    Up,
    Down,
    Started,
    Finished,
}

/// Endpoint timing/retry configuration (RFC 1661 §4.6 defaults).
#[derive(Debug, Clone, Copy)]
pub struct EndpointConfig {
    /// Restart timer period in ticks.
    pub restart_period: u64,
    /// Max-Configure: Configure-Request retransmissions.
    pub max_configure: u32,
    /// Max-Terminate: Terminate-Request retransmissions.
    pub max_terminate: u32,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        Self {
            restart_period: 3,
            max_configure: 10,
            max_terminate: 2,
        }
    }
}

impl EndpointConfig {
    /// Upper bound, in ticks, for one negotiation round to either open
    /// or give up: every Configure-Request retransmission (Max-Configure
    /// of them, plus the initial send) gets one restart period.
    pub fn restart_budget_ticks(&self) -> u64 {
        (u64::from(self.max_configure) + 1) * self.restart_period
    }
}

/// A control-protocol endpoint bound to a [`Negotiator`].
pub struct Endpoint<N: Negotiator> {
    pub negotiator: N,
    automaton: Automaton,
    config: EndpointConfig,
    /// Outbound packets awaiting transmission, with their protocol.
    outbox: Vec<(Protocol, Packet)>,
    /// Layer transitions since last drain.
    layer_events: Vec<LayerEvent>,
    /// Identifier of our outstanding Configure-Request.
    request_id: u8,
    /// Allocate a fresh id for the next Configure-Request (new
    /// negotiation round or changed options); pure retransmissions keep
    /// the same id so in-flight Acks still match (RFC 1661 §5.1).
    request_needs_new_id: bool,
    /// Identifier sequence for everything we originate.
    next_id: u8,
    restart_counter: u32,
    /// Tick at which the restart timer fires, if armed.
    deadline: Option<u64>,
    now: u64,
    /// Stash for a peer request being judged (reply emitted on action).
    pending_peer: Option<(u8, Verdict, Vec<ConfigOption>)>,
    /// Stash for a received Terminate-Request id / rejected packet.
    pending_terminate_id: Option<u8>,
    pending_code_reject: Option<Vec<u8>>,
    pending_echo: Option<(u8, Vec<u8>)>,
}

impl<N: Negotiator> Endpoint<N> {
    pub fn new(negotiator: N, config: EndpointConfig) -> Self {
        Self {
            negotiator,
            automaton: Automaton::new(),
            config,
            outbox: Vec::new(),
            layer_events: Vec::new(),
            request_id: 0,
            request_needs_new_id: true,
            next_id: 1,
            restart_counter: 0,
            deadline: None,
            now: 0,
            pending_peer: None,
            pending_terminate_id: None,
            pending_code_reject: None,
            pending_echo: None,
        }
    }

    pub fn state(&self) -> State {
        self.automaton.state()
    }

    pub fn is_opened(&self) -> bool {
        self.automaton.is_opened()
    }

    /// The timing/retry configuration this endpoint runs with.
    pub fn config(&self) -> &EndpointConfig {
        &self.config
    }

    /// Administrative Open (begin negotiation when the lower layer is up).
    pub fn open(&mut self) {
        self.dispatch(Event::Open);
    }

    /// Administrative Close.
    pub fn close(&mut self) {
        self.dispatch(Event::Close);
    }

    /// Lower layer came up (for LCP: the PHY; for NCPs: LCP reached
    /// Opened).
    pub fn lower_up(&mut self) {
        self.dispatch(Event::Up);
    }

    /// Lower layer went down.
    pub fn lower_down(&mut self) {
        self.dispatch(Event::Down);
    }

    /// Advance time; fires the restart timer if due.
    pub fn tick(&mut self, now: u64) {
        self.now = now;
        if let Some(d) = self.deadline {
            if now >= d {
                self.deadline = None;
                if self.restart_counter > 0 {
                    self.restart_counter -= 1;
                    self.dispatch(Event::TimeoutRetry);
                } else {
                    self.dispatch(Event::TimeoutGiveUp);
                }
            }
        }
    }

    /// Drain packets to transmit (protocol number + packet).
    pub fn poll_output(&mut self) -> Vec<(Protocol, Packet)> {
        std::mem::take(&mut self.outbox)
    }

    /// Drain layer transitions observed since the last call.
    pub fn poll_layer_events(&mut self) -> Vec<LayerEvent> {
        std::mem::take(&mut self.layer_events)
    }

    /// Feed one received control packet (the information field of a frame
    /// carrying `self.negotiator.protocol()`).
    pub fn receive(&mut self, bytes: &[u8]) {
        let packet = match Packet::parse(bytes) {
            Ok(p) => p,
            Err(PacketError::UnknownCode(_)) => {
                self.pending_code_reject = Some(bytes.to_vec());
                self.dispatch(Event::Ruc);
                return;
            }
            Err(_) => return, // silently discard malformed packets
        };
        match packet.code {
            PacketCode::ConfigureRequest => {
                let opts = match ConfigOption::parse_list(&packet.data) {
                    Ok(o) => o,
                    Err(_) => return,
                };
                let verdict = self.negotiator.review_peer_request(&opts);
                let good = matches!(verdict, Verdict::Ack);
                self.pending_peer = Some((packet.id, verdict, opts));
                self.dispatch(if good { Event::RcrGood } else { Event::RcrBad });
            }
            PacketCode::ConfigureAck => {
                if packet.id != self.request_id {
                    return; // stale ack — silently discarded (RFC 1661 §5.2)
                }
                if let Ok(opts) = ConfigOption::parse_list(&packet.data) {
                    self.negotiator.peer_acked(&opts);
                }
                self.dispatch(Event::Rca);
            }
            PacketCode::ConfigureNak | PacketCode::ConfigureReject => {
                if packet.id != self.request_id {
                    return;
                }
                if let Ok(opts) = ConfigOption::parse_list(&packet.data) {
                    if packet.code == PacketCode::ConfigureNak {
                        self.negotiator.peer_naked(&opts);
                    } else {
                        self.negotiator.peer_rejected(&opts);
                    }
                }
                // Our option set changed: the next request is a new one.
                self.request_needs_new_id = true;
                self.dispatch(Event::Rcn);
            }
            PacketCode::TerminateRequest => {
                self.pending_terminate_id = Some(packet.id);
                self.dispatch(Event::Rtr);
            }
            PacketCode::TerminateAck => {
                self.dispatch(Event::Rta);
            }
            PacketCode::CodeReject | PacketCode::ProtocolReject => {
                // Rejection of a code we never send would be catastrophic;
                // treat rejections of optional codes (echo etc.) as benign.
                let catastrophic = packet
                    .data
                    .first()
                    .map(|&c| c <= PacketCode::ConfigureReject as u8)
                    .unwrap_or(false);
                self.dispatch(if catastrophic {
                    Event::RxjBad
                } else {
                    Event::RxjGood
                });
            }
            PacketCode::EchoRequest => {
                self.pending_echo = Some((packet.id, packet.data.clone()));
                self.dispatch(Event::Rxr);
            }
            PacketCode::EchoReply | PacketCode::DiscardRequest => {
                self.dispatch(Event::Rxr);
            }
        }
    }

    fn alloc_id(&mut self) -> u8 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    fn send(&mut self, packet: Packet) {
        self.outbox.push((self.negotiator.protocol(), packet));
    }

    fn dispatch(&mut self, event: Event) {
        let actions = match self.automaton.handle(event) {
            Ok(a) => a,
            Err(CannotOccur { .. }) => return, // ignore impossible events
        };
        for action in actions {
            self.run_action(action, event);
        }
        // Arm/disarm the restart timer by state (RFC 1661 §4.6: the timer
        // runs exactly in the four -ing/-Sent states).
        match self.automaton.state() {
            State::Closing | State::Stopping | State::ReqSent | State::AckRcvd | State::AckSent => {
                if self.deadline.is_none() {
                    self.deadline = Some(self.now + self.config.restart_period);
                }
            }
            _ => self.deadline = None,
        }
    }

    fn run_action(&mut self, action: Action, _event: Event) {
        match action {
            Action::ThisLayerUp => self.layer_events.push(LayerEvent::Up),
            Action::ThisLayerDown => self.layer_events.push(LayerEvent::Down),
            Action::ThisLayerStarted => self.layer_events.push(LayerEvent::Started),
            Action::ThisLayerFinished => self.layer_events.push(LayerEvent::Finished),
            Action::InitRestartCount => {
                // Counter depends on what we're retransmitting next.
                self.restart_counter = match self.automaton.state() {
                    State::Closing | State::Stopping => self.config.max_terminate,
                    _ => self.config.max_configure,
                };
                self.request_needs_new_id = true;
            }
            Action::ZeroRestartCount => {
                self.restart_counter = 0;
                self.deadline = Some(self.now + self.config.restart_period);
            }
            Action::SendConfigureRequest => {
                if self.request_needs_new_id {
                    self.request_id = self.alloc_id();
                    self.request_needs_new_id = false;
                }
                let id = self.request_id;
                let opts = self.negotiator.our_request();
                self.send(Packet::new(
                    PacketCode::ConfigureRequest,
                    id,
                    ConfigOption::write_list(&opts),
                ));
                self.deadline = Some(self.now + self.config.restart_period);
            }
            Action::SendConfigureAck => {
                if let Some((id, _, opts)) = self.pending_peer.take() {
                    self.negotiator.apply_peer_options(&opts);
                    self.send(Packet::new(
                        PacketCode::ConfigureAck,
                        id,
                        ConfigOption::write_list(&opts),
                    ));
                }
            }
            Action::SendConfigureNak => {
                if let Some((id, verdict, _)) = self.pending_peer.take() {
                    let (code, opts) = match verdict {
                        Verdict::Nak(o) => (PacketCode::ConfigureNak, o),
                        Verdict::Reject(o) => (PacketCode::ConfigureReject, o),
                        Verdict::Ack => unreachable!("Ack verdict routed to RcrGood"),
                    };
                    self.send(Packet::new(code, id, ConfigOption::write_list(&opts)));
                }
            }
            Action::SendTerminateRequest => {
                let id = self.alloc_id();
                self.send(Packet::new(PacketCode::TerminateRequest, id, vec![]));
                self.deadline = Some(self.now + self.config.restart_period);
            }
            Action::SendTerminateAck => {
                let id = self.pending_terminate_id.take().unwrap_or(self.next_id);
                self.send(Packet::new(PacketCode::TerminateAck, id, vec![]));
            }
            Action::SendCodeReject => {
                if let Some(mut rejected) = self.pending_code_reject.take() {
                    rejected.truncate(64); // keep the reject small
                    let id = self.alloc_id();
                    self.send(Packet::new(PacketCode::CodeReject, id, rejected));
                }
            }
            Action::SendEchoReply => {
                if let Some((id, data)) = self.pending_echo.take() {
                    self.send(Packet::new(PacketCode::EchoReply, id, data));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipcp::IpcpNegotiator;
    use crate::lcp_negotiator::LcpNegotiator;

    fn lcp_pair() -> (Endpoint<LcpNegotiator>, Endpoint<LcpNegotiator>) {
        let a = Endpoint::new(
            LcpNegotiator::new(1500, 0x1111_1111),
            EndpointConfig::default(),
        );
        let b = Endpoint::new(
            LcpNegotiator::new(2048, 0x2222_2222),
            EndpointConfig::default(),
        );
        (a, b)
    }

    /// Shuttle packets between two endpoints until quiescent.
    fn converge<X: Negotiator, Y: Negotiator>(a: &mut Endpoint<X>, b: &mut Endpoint<Y>) {
        for _ in 0..50 {
            let from_a = a.poll_output();
            let from_b = b.poll_output();
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for (_, p) in from_a {
                b.receive(&p.to_bytes());
            }
            for (_, p) in from_b {
                a.receive(&p.to_bytes());
            }
        }
        panic!("endpoints did not converge");
    }

    #[test]
    fn two_lcp_endpoints_open() {
        let (mut a, mut b) = lcp_pair();
        a.open();
        b.open();
        a.lower_up();
        b.lower_up();
        converge(&mut a, &mut b);
        assert!(a.is_opened(), "a state {:?}", a.state());
        assert!(b.is_opened(), "b state {:?}", b.state());
        assert!(a.poll_layer_events().contains(&LayerEvent::Up));
        assert!(b.poll_layer_events().contains(&LayerEvent::Up));
        // Each side adopted the peer's MRU for its transmit direction.
        assert_eq!(a.negotiator.peer_mru(), 2048);
        assert_eq!(b.negotiator.peer_mru(), 1500);
    }

    #[test]
    fn close_tears_down_both_sides() {
        let (mut a, mut b) = lcp_pair();
        a.open();
        b.open();
        a.lower_up();
        b.lower_up();
        converge(&mut a, &mut b);
        a.close();
        converge(&mut a, &mut b);
        assert_eq!(a.state(), State::Closed);
        // b saw the Terminate-Request and stops.
        assert!(matches!(b.state(), State::Stopping | State::Stopped));
    }

    #[test]
    fn retransmission_on_packet_loss() {
        let (mut a, mut b) = lcp_pair();
        a.open();
        a.lower_up();
        // Drop a's first Configure-Request on the floor.
        let lost = a.poll_output();
        assert_eq!(lost.len(), 1);
        // Fire the restart timer; a retransmits with the retry counter.
        a.tick(10);
        let resent = a.poll_output();
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].1.code, PacketCode::ConfigureRequest);
        // Now deliver to b and let them converge.
        b.open();
        b.lower_up();
        b.receive(&resent[0].1.to_bytes());
        converge(&mut a, &mut b);
        assert!(a.is_opened() && b.is_opened());
    }

    #[test]
    fn gives_up_after_max_configure() {
        let cfg = EndpointConfig {
            restart_period: 1,
            max_configure: 3,
            max_terminate: 2,
        };
        let mut a = Endpoint::new(LcpNegotiator::new(1500, 7), cfg);
        a.open();
        a.lower_up();
        a.poll_output();
        let mut sends = 0;
        for t in 1..20 {
            a.tick(t);
            sends += a.poll_output().len();
            if a.state() == State::Stopped {
                break;
            }
        }
        assert_eq!(a.state(), State::Stopped);
        assert_eq!(sends, 3, "exactly max_configure retransmissions");
        assert!(a.poll_layer_events().contains(&LayerEvent::Finished));
    }

    #[test]
    fn echo_request_gets_replied_when_opened() {
        let (mut a, mut b) = lcp_pair();
        a.open();
        b.open();
        a.lower_up();
        b.lower_up();
        converge(&mut a, &mut b);
        let echo = Packet::new(PacketCode::EchoRequest, 0x42, vec![0, 0, 0, 0]);
        a.receive(&echo.to_bytes());
        let out = a.poll_output();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.code, PacketCode::EchoReply);
        assert_eq!(out[0].1.id, 0x42);
    }

    #[test]
    fn unknown_code_triggers_code_reject() {
        let (mut a, mut b) = lcp_pair();
        a.open();
        b.open();
        a.lower_up();
        b.lower_up();
        converge(&mut a, &mut b);
        a.receive(&[0x7F, 9, 0, 4]);
        let out = a.poll_output();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.code, PacketCode::CodeReject);
        assert!(a.is_opened(), "benign unknown code must not drop the link");
    }

    #[test]
    fn stale_ack_is_ignored() {
        let (mut a, _) = lcp_pair();
        a.open();
        a.lower_up();
        let req = &a.poll_output()[0].1;
        let stale = Packet::new(
            PacketCode::ConfigureAck,
            req.id.wrapping_add(5),
            req.data.clone(),
        );
        a.receive(&stale.to_bytes());
        assert_eq!(a.state(), State::ReqSent);
    }

    #[test]
    fn ipcp_negotiates_addresses_after_lcp() {
        let mut a = Endpoint::new(
            IpcpNegotiator::new([10, 0, 0, 1]),
            EndpointConfig::default(),
        );
        let mut b = Endpoint::new(
            IpcpNegotiator::new([10, 0, 0, 2]),
            EndpointConfig::default(),
        );
        a.open();
        b.open();
        a.lower_up(); // "lower" = LCP opened
        b.lower_up();
        converge(&mut a, &mut b);
        assert!(a.is_opened() && b.is_opened());
        assert_eq!(a.negotiator.peer_addr(), Some([10, 0, 0, 2]));
        assert_eq!(b.negotiator.peer_addr(), Some([10, 0, 0, 1]));
    }

    #[test]
    fn ipcp_naks_zero_address() {
        let mut a = Endpoint::new(
            IpcpNegotiator::new([10, 0, 0, 1]),
            EndpointConfig::default(),
        );
        // Peer with no address: asks 0.0.0.0, must get Nak'd a suggestion.
        let mut b = Endpoint::new(IpcpNegotiator::new([0, 0, 0, 0]), EndpointConfig::default());
        a.open();
        b.open();
        a.lower_up();
        b.lower_up();
        converge(&mut a, &mut b);
        assert!(a.is_opened() && b.is_opened());
        // b adopted the suggestion from a's Nak.
        assert_ne!(b.negotiator.our_addr(), [0, 0, 0, 0]);
    }
}
