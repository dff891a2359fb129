//! LCP/IPCP negotiation over the real (simulated) link, including a
//! lossy link that forces the RFC 1661 restart machinery to work.  The
//! devices and the (optionally impaired) wire come from
//! [`LinkBuilder::build_duplex`]; loss is a seeded [`FaultSpec`]
//! transfer-loss plan rather than an ad-hoc RNG.

use p5::ppp::endpoint::{Endpoint, EndpointConfig, LayerEvent};
use p5::ppp::ipcp::IpcpNegotiator;
use p5::ppp::lcp_negotiator::LcpNegotiator;
use p5::ppp::protocol::Protocol;
use p5::ppp::EndpointStage;
use p5::prelude::*;

/// A peer built on the stream layer: each control protocol is an
/// [`EndpointStage`] fed from / drained to tagged `[proto, packet]`
/// frame buffers, with one [`DuplexLink`] end in between.  The stage
/// drives its own restart clock (one tick per drain), so `poll` takes
/// no time argument.
struct Peer {
    lcp: EndpointStage<LcpNegotiator>,
    ipcp: EndpointStage<IpcpNegotiator>,
    ctl: WireBuf,
    lcp_up: bool,
}

impl Peer {
    fn new(magic: u32, ip: [u8; 4]) -> Self {
        let cfg = EndpointConfig {
            restart_period: 5,
            max_configure: 20,
            max_terminate: 2,
        };
        let mut lcp = Endpoint::new(LcpNegotiator::new(1500, magic), cfg);
        let mut ipcp = Endpoint::new(IpcpNegotiator::new(ip), cfg);
        lcp.open();
        lcp.lower_up();
        ipcp.open();
        Self {
            lcp: EndpointStage::new(lcp),
            ipcp: EndpointStage::new(ipcp),
            ctl: WireBuf::new(),
            lcp_up: false,
        }
    }

    fn poll(&mut self, end: &mut LinkCore) {
        // Drain both endpoints' control traffic into one tagged stream,
        // then decap into the transmit queue.
        self.lcp.drain(&mut self.ctl);
        self.ipcp.drain(&mut self.ctl);
        let mut frame = Vec::new();
        while self.ctl.pop_frame_into(&mut frame).is_some() {
            let (proto, packet) = decap(&frame).expect("endpoint frames carry a protocol");
            end.dev.submit(proto, packet.to_vec()).unwrap();
        }
        for ev in self.lcp.endpoint_mut().poll_layer_events() {
            match ev {
                LayerEvent::Up => {
                    self.lcp_up = true;
                    self.ipcp.endpoint_mut().lower_up();
                }
                LayerEvent::Down => {
                    self.lcp_up = false;
                    self.ipcp.endpoint_mut().lower_down();
                }
                _ => {}
            }
        }
        end.dev.run(512);
        // Route received frames to the matching endpoint stage (the
        // stage is not a demux: it rejects foreign protocols).
        let mut to_lcp = WireBuf::new();
        let mut to_ipcp = WireBuf::new();
        for f in end.dev.take_received() {
            match Protocol::from_number(f.protocol) {
                Protocol::Lcp => encap(f.protocol, &f.payload, &mut to_lcp),
                Protocol::Ipcp if self.lcp_up => encap(f.protocol, &f.payload, &mut to_ipcp),
                _ => {}
            }
        }
        self.lcp.offer(&mut to_lcp);
        self.ipcp.offer(&mut to_ipcp);
    }

    fn lcp_opened(&self) -> bool {
        self.lcp.endpoint().is_opened()
    }

    fn ipcp_opened(&self) -> bool {
        self.ipcp.endpoint().is_opened()
    }
}

#[test]
fn clean_link_brings_ipcp_up() {
    let mut a = Peer::new(0xAAAA_0001, [10, 9, 0, 1]);
    let mut b = Peer::new(0xBBBB_0002, [10, 9, 0, 2]);
    let mut link = LinkBuilder::new().build_duplex().unwrap();
    for _ in 0..300 {
        a.poll(&mut link.a);
        b.poll(&mut link.b);
        link.exchange();
        if a.ipcp_opened() && b.ipcp_opened() {
            break;
        }
    }
    assert!(a.lcp_opened() && b.lcp_opened());
    assert!(a.ipcp_opened() && b.ipcp_opened());
    assert_eq!(
        a.ipcp.endpoint().negotiator.peer_addr(),
        Some([10, 9, 0, 2])
    );
    assert_eq!(
        b.ipcp.endpoint().negotiator.peer_addr(),
        Some([10, 9, 0, 1])
    );
}

#[test]
fn lossy_link_converges_via_retransmission() {
    let mut a = Peer::new(0xAAAA_0001, [10, 9, 0, 1]);
    let mut b = Peer::new(0xBBBB_0002, [10, 9, 0, 2]);
    // 30% of wire transfers vanish early on, then the link cleans up —
    // the deterministic outage-then-recovery scenario.
    let plan = FaultSpec::clean()
        .transfer_loss(0.30)
        .compile(5)
        .expect("valid spec");
    let mut link = LinkBuilder::new().fault(plan).build_duplex().unwrap();
    let mut opened_at = None;
    for now in 0..4000u64 {
        a.poll(&mut link.a);
        b.poll(&mut link.b);
        link.exchange();
        if now == 300 {
            link.clear_fault();
        }
        if a.ipcp_opened() && b.ipcp_opened() {
            opened_at = Some(now);
            break;
        }
    }
    assert!(
        opened_at.is_some(),
        "negotiation must survive 30% early loss (a {:?}/{:?}, b {:?}/{:?}, lost {})",
        a.lcp.endpoint().state(),
        a.ipcp.endpoint().state(),
        b.lcp.endpoint().state(),
        b.ipcp.endpoint().state(),
        link.fault_stats().transfers_lost,
    );
}

#[test]
fn graceful_close_propagates() {
    let mut a = Peer::new(1, [10, 0, 0, 1]);
    let mut b = Peer::new(2, [10, 0, 0, 2]);
    let mut link = LinkBuilder::new().build_duplex().unwrap();
    for _ in 0..300 {
        a.poll(&mut link.a);
        b.poll(&mut link.b);
        link.exchange();
        if a.ipcp_opened() && b.ipcp_opened() {
            break;
        }
    }
    assert!(a.lcp_opened());
    a.lcp.endpoint_mut().close();
    for _ in 0..300 {
        a.poll(&mut link.a);
        b.poll(&mut link.b);
        link.exchange();
    }
    assert!(!a.lcp_opened());
    assert!(!b.lcp_opened());
}
