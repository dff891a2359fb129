//! LCP + IPCP link bring-up between two PPP peers over the simulated
//! link, in MAPOS-addressed mode — exercising the "programmable" parts
//! of the P⁵: the LCP automaton (RFC 1661 §4), option negotiation, and
//! the programmable HDLC address register (RFC 2171).
//!
//! The two devices and the wire between them come from
//! [`LinkBuilder::build_duplex`]; each peer runs a [`Session`] (LCP +
//! IPCP behind one demultiplexer).  The finale bounces the link with
//! [`Session::renegotiate`] and shows it re-open inside the RFC 1661
//! restart budget.
//!
//! ```sh
//! cargo run --release --example lcp_negotiation
//! ```

use p5::ppp::mapos::MaposAddress;
use p5::ppp::session::{Session, SessionEvent};
use p5::ppp::NegotiationProfile;
use p5::prelude::*;

/// One round: flush the session's control packets into the P⁵, clock
/// it, and dispatch received frames back into the session.
fn poll(name: &str, sess: &mut Session, end: &mut LinkCore, now: u64) {
    sess.tick(now);
    for (proto, info) in sess.poll_output() {
        end.dev.submit(proto, info).unwrap();
    }
    end.dev.run(512);
    for frame in end.dev.take_received() {
        sess.receive(frame.protocol, &frame.payload);
    }
    for ev in sess.poll_events() {
        println!("[{name}] {ev:?}");
    }
}

fn main() {
    // Restart period must exceed the link round-trip (a few poll ticks
    // here), or stale retransmissions force renegotiation from Opened —
    // the same rule real stacks follow (seconds of timer vs.
    // milliseconds of RTT).
    let mut a = Session::with_profile(
        &NegotiationProfile::new()
            .magic(0x1111_1111)
            .ip([10, 0, 0, 1])
            .restart_period(10),
    );
    let mut b = Session::with_profile(
        &NegotiationProfile::new()
            .magic(0x2222_2222)
            .ip([10, 0, 0, 2])
            .restart_period(10),
    );

    let mut link = LinkBuilder::new()
        .width(DatapathWidth::W32)
        .build_duplex()
        .expect("clean duplex link builds");
    // Program the MAPOS station address into each OAM, as firmware
    // would over the register bus.
    let addr = MaposAddress::unicast(1).expect("valid MAPOS port");
    for end in [&link.a, &link.b] {
        Oam::new(end.dev.oam.clone()).write(regs::ADDRESS, addr.octet() as u32);
    }

    a.start();
    b.start();
    for now in 0..200u64 {
        poll("A", &mut a, &mut link.a, now);
        poll("B", &mut b, &mut link.b, now);
        link.exchange();
        if a.is_network_up() && b.is_network_up() {
            break;
        }
    }
    assert!(a.lcp.is_opened() && b.lcp.is_opened(), "LCP must open");
    assert!(a.ipcp.is_opened() && b.ipcp.is_opened(), "IPCP must open");
    println!(
        "\nlink up: A={:?} (peer MRU {}), B={:?}",
        a.ipcp.negotiator.our_addr(),
        a.lcp.negotiator.peer_mru(),
        b.ipcp.negotiator.our_addr(),
    );
    println!(
        "A sees peer IP {:?}; B sees peer IP {:?}",
        a.ipcp.negotiator.peer_addr(),
        b.ipcp.negotiator.peer_addr()
    );

    // Send one IP datagram over the negotiated link as proof.
    a.send_datagram(b"ping over negotiated link".to_vec());
    let mut ponged = false;
    for now in 200..260 {
        poll("A", &mut a, &mut link.a, now);
        sess_poll_datagram(&mut b, &mut link.b, now, &mut ponged);
        link.exchange();
    }
    assert!(ponged, "datagram must arrive over the negotiated link");

    // A link-quality trip (e.g. an outage that delivers nothing for
    // three intervals, as in `fault_report`) bounces the lower layer: LCP renegotiates and must re-open within the
    // restart budget.
    let budget = 2 * a.lcp.config().restart_budget_ticks();
    println!("\nrenegotiating (budget {budget} ticks)...");
    a.renegotiate();
    let mut reopened = None;
    for now in 300..300 + budget {
        poll("A", &mut a, &mut link.a, now);
        poll("B", &mut b, &mut link.b, now);
        link.exchange();
        if a.is_network_up() && b.is_network_up() {
            reopened = Some(now - 300);
            break;
        }
    }
    let ticks = reopened.expect("renegotiation must re-open the link");
    println!("done: LCP negotiated, data flowed, renegotiated in {ticks} ticks.");
}

/// Poll B while watching for the proof datagram.
fn sess_poll_datagram(sess: &mut Session, end: &mut LinkCore, now: u64, seen: &mut bool) {
    sess.tick(now);
    for (proto, info) in sess.poll_output() {
        end.dev.submit(proto, info).unwrap();
    }
    end.dev.run(512);
    for frame in end.dev.take_received() {
        sess.receive(frame.protocol, &frame.payload);
    }
    for ev in sess.poll_events() {
        if let SessionEvent::Datagram(d) = &ev {
            println!("[B] got datagram: {:?}", String::from_utf8_lossy(d));
            *seen = true;
        } else {
            println!("[B] {ev:?}");
        }
    }
}
