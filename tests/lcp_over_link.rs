//! LCP/IPCP negotiation over the real (simulated) link, including a
//! lossy link that forces the RFC 1661 restart machinery to work.  Each
//! end is a [`Session`] whose control frames enter its device through
//! [`LinkCore::offer`] and leave it through [`P5::pop_received`]; the
//! devices and the (optionally impaired) wire come from
//! [`LinkBuilder::build_duplex`], and loss is a seeded [`FaultSpec`]
//! transfer-loss plan rather than an ad-hoc RNG.

use p5::prelude::*;

/// A started session with a restart budget sized for a lossy link.
fn session(magic: u32, ip: [u8; 4]) -> Session {
    let mut s = Session::with_profile(
        &NegotiationProfile::new()
            .magic(magic)
            .ip(ip)
            .restart_period(5)
            .max_configure(20)
            .max_terminate(2),
    );
    s.start();
    s
}

/// One tick of one end: run the session's timers at `now`, offer its
/// control frames to the device, and hand it what the device received.
fn poll(s: &mut Session, end: &mut LinkCore, now: u64) {
    s.tick(now);
    for (proto, info) in s.poll_output() {
        assert!(end.offer(proto, &info, true).is_admitted());
    }
    while let Some(frame) = end.dev.pop_received() {
        s.receive(frame.protocol, &frame.payload);
    }
}

/// Tick both ends and exchange the wire from `*now` until both network
/// phases are open or `limit` ticks have passed.
fn bring_up(a: &mut Session, b: &mut Session, link: &mut DuplexLink, now: &mut u64, limit: u64) {
    while *now < limit && !(a.is_network_up() && b.is_network_up()) {
        poll(a, &mut link.a, *now);
        poll(b, &mut link.b, *now);
        link.exchange();
        *now += 1;
    }
}

#[test]
fn clean_link_brings_ipcp_up() {
    let mut a = session(0xAAAA_0001, [10, 9, 0, 1]);
    let mut b = session(0xBBBB_0002, [10, 9, 0, 2]);
    let mut link = LinkBuilder::new().build_duplex().unwrap();
    bring_up(&mut a, &mut b, &mut link, &mut 0, 300);
    assert!(a.lcp.is_opened() && b.lcp.is_opened());
    assert!(a.ipcp.is_opened() && b.ipcp.is_opened());
    assert_eq!(a.ipcp.negotiator.peer_addr(), Some([10, 9, 0, 2]));
    assert_eq!(b.ipcp.negotiator.peer_addr(), Some([10, 9, 0, 1]));
}

#[test]
fn lossy_link_converges_via_retransmission() {
    let mut a = session(0xAAAA_0001, [10, 9, 0, 1]);
    let mut b = session(0xBBBB_0002, [10, 9, 0, 2]);
    // 30% of wire transfers vanish early on, then the link cleans up —
    // the deterministic outage-then-recovery scenario.
    let plan = FaultSpec::clean()
        .transfer_loss(0.30)
        .compile(5)
        .expect("valid spec");
    let mut link = LinkBuilder::new().fault(plan).build_duplex().unwrap();
    let mut now = 0;
    bring_up(&mut a, &mut b, &mut link, &mut now, 300);
    assert!(link.fault_stats().transfers_lost > 0, "the outage bit");
    link.clear_fault();
    bring_up(&mut a, &mut b, &mut link, &mut now, 4000);
    assert!(
        a.is_network_up() && b.is_network_up(),
        "negotiation must survive 30% early loss (a {:?}/{:?}, b {:?}/{:?}, lost {})",
        a.lcp.state(),
        a.ipcp.state(),
        b.lcp.state(),
        b.ipcp.state(),
        link.fault_stats().transfers_lost,
    );
}

#[test]
fn graceful_close_propagates() {
    let mut a = session(1, [10, 0, 0, 1]);
    let mut b = session(2, [10, 0, 0, 2]);
    let mut link = LinkBuilder::new().build_duplex().unwrap();
    let mut now = 0;
    bring_up(&mut a, &mut b, &mut link, &mut now, 300);
    assert!(a.lcp.is_opened());
    a.stop();
    for _ in 0..300 {
        poll(&mut a, &mut link.a, now);
        poll(&mut b, &mut link.b, now);
        link.exchange();
        now += 1;
    }
    assert!(!a.lcp.is_opened());
    assert!(!b.lcp.is_opened());
    assert!(b.poll_events().contains(&SessionEvent::LinkDown));
}
