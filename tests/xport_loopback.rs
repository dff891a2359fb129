//! Real-endpoint integration (DESIGN.md §18): two session drivers
//! bring up LCP → IPCP over an actual TCP loopback socket and exchange
//! an IMIX blend; scripted stalls and a mid-run disconnect over the
//! deterministic pipe never corrupt a delivery and renegotiate within
//! budget; and the transparent engine's wire is byte-identical to an
//! in-memory device run.

use std::time::{Duration, Instant};

use p5::prelude::*;
use p5::xport::PipeControl;
use proptest::prelude::*;

const IPV4: u16 = 0x0021;
const BRINGUP: Duration = Duration::from_secs(10);

fn profile(magic: u32, ip: [u8; 4]) -> NegotiationProfile {
    NegotiationProfile::new().magic(magic).ip(ip)
}

/// Offer with admission retry (the ingress queue is bounded), then
/// collect exactly `want` deliveries from `rx` before `deadline`.
fn pump(
    tx: &SessionDriver,
    rx: &SessionDriver,
    frames: &[Vec<u8>],
    deadline: Instant,
) -> Vec<(u16, Vec<u8>)> {
    let mut sent = 0;
    let mut got = Vec::new();
    while sent < frames.len() || got.len() < frames.len() {
        assert!(Instant::now() < deadline, "pump timed out");
        if sent < frames.len() && tx.offer(IPV4, &frames[sent]).is_admitted() {
            sent += 1;
        }
        got.extend(rx.take_deliveries());
        if sent == frames.len() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    got
}

/// The classic IMIX blend: mostly minimum-size frames, some mid-size,
/// a few full-size — each stamped with its index so corruption or
/// reordering is attributable.
fn imix(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let len = match i % 12 {
                0..=6 => 64,
                7..=10 => 576,
                _ => 1500,
            };
            let mut f = vec![0u8; len];
            f[0] = i as u8;
            f[1] = (i >> 8) as u8;
            for (j, b) in f.iter_mut().enumerate().skip(2) {
                *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
            }
            f
        })
        .collect()
}

#[test]
fn tcp_loopback_runs_full_bringup_and_imix() {
    // Server side binds an ephemeral port and accepts from its driver
    // loop; client dials it — exactly the two-process shape, in two
    // threads.
    let server = TcpTransport::listen("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let a = LinkBuilder::new()
        .profile(profile(0xA5A5_0001, [192, 168, 7, 1]))
        .transport(server)
        .build_remote()
        .expect("server endpoint");
    let b = LinkBuilder::new()
        .profile(profile(0xA5A5_0002, [192, 168, 7, 2]))
        .transport(TcpTransport::connect(addr).expect("dial loopback"))
        .build_remote()
        .expect("client endpoint");

    assert!(a.await_network_up(BRINGUP), "server IPCP open");
    assert!(b.await_network_up(BRINGUP), "client IPCP open");

    // IMIX both ways, concurrently admitted, every byte verified.
    let forward = imix(48);
    let reverse = imix(24);
    let deadline = Instant::now() + Duration::from_secs(30);
    let got_fwd = pump(&a, &b, &forward, deadline);
    let got_rev = pump(&b, &a, &reverse, deadline);
    assert_eq!(
        got_fwd,
        forward
            .iter()
            .map(|f| (IPV4, f.clone()))
            .collect::<Vec<_>>(),
        "forward IMIX delivered in order, uncorrupted"
    );
    assert_eq!(
        got_rev,
        reverse
            .iter()
            .map(|f| (IPV4, f.clone()))
            .collect::<Vec<_>>(),
        "reverse IMIX delivered in order, uncorrupted"
    );

    // The wire actually carried it all, with real socket accounting.
    let engine = a.shutdown();
    let snap = engine.snapshot();
    assert!(snap.get("bytes_out").unwrap() > 48 * 64);
    assert!(snap.get("bytes_in").unwrap() > 0);
    assert_eq!(snap.get("io_errors"), Some(0));
    b.shutdown();
}

/// Drive random traffic through a paired pipe while a scripted stall
/// and one mid-run sever hit the transport.  Invariants: every
/// delivered frame is one the sender offered, byte-exact and in order
/// (PPP links never reorder); the sever is observed and renegotiated
/// within budget; traffic offered after re-open all arrives.
fn stall_sever_trial(payloads: Vec<Vec<u8>>, stall_ops: u64) {
    let (ta, tb) = PipeTransport::pair_with_capacity(2048);
    let ctl: PipeControl = ta.control();
    let a = LinkBuilder::new()
        .profile(profile(0x0DD5_EED5, [10, 1, 0, 1]))
        .transport(ta)
        .build_remote()
        .expect("end a");
    let b = LinkBuilder::new()
        .profile(profile(0x0E0E_0E0E, [10, 1, 0, 2]))
        .transport(tb)
        .build_remote()
        .expect("end b");
    assert!(a.await_network_up(BRINGUP) && b.await_network_up(BRINGUP));

    // Phase 1: random traffic with a stall burst in the middle.  A
    // stalled transport delays bytes but loses none, so everything
    // offered here must arrive.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mid = payloads.len() / 2;
    let mut sent = 0;
    let mut got: Vec<(u16, Vec<u8>)> = Vec::new();
    while sent < payloads.len() || got.len() < payloads.len() {
        assert!(Instant::now() < deadline, "phase 1 timed out");
        if sent == mid {
            ctl.stall(stall_ops);
        }
        if sent < payloads.len() && a.offer(IPV4, &payloads[sent]).is_admitted() {
            sent += 1;
        }
        got.extend(b.take_deliveries());
        if sent == payloads.len() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for (i, (proto, frame)) in got.iter().enumerate() {
        assert_eq!(*proto, IPV4);
        assert_eq!(frame, &payloads[i], "frame {i} corrupted under stall");
    }

    // Phase 2: hard mid-run disconnect.  Both ends must notice, run
    // the RFC 1661 Down transition, and renegotiate to open.
    ctl.sever();
    let reopen = Instant::now() + BRINGUP;
    while !(a.is_network_up() && b.is_network_up()) {
        assert!(
            Instant::now() < reopen,
            "renegotiation exceeded the restart budget"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Phase 3: post-renegotiation traffic gets through again.  The
    // link may flap once more while late pre-sever duplicates drain
    // (RFC 1661 renegotiates on a Configure-Request in Opened), and an
    // outage may eat frames in flight — that's loss, which PPP
    // permits.  Corruption is not: retransmit undelivered frames until
    // every index arrives, and verify each arrival byte-exact.
    let after = imix(6);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut delivered = vec![false; after.len()];
    let mut next_resend = Instant::now();
    while !delivered.iter().all(|d| *d) {
        assert!(
            Instant::now() < deadline,
            "post-renegotiation traffic never recovered"
        );
        if Instant::now() >= next_resend {
            for (i, f) in after.iter().enumerate() {
                if !delivered[i] {
                    let _ = a.offer(IPV4, f);
                }
            }
            next_resend = Instant::now() + Duration::from_millis(300);
        }
        for (proto, frame) in b.take_deliveries() {
            assert_eq!(proto, IPV4);
            let idx = frame[0] as usize | (frame[1] as usize) << 8;
            assert!(
                idx < after.len() && frame == after[idx],
                "corrupt post-renegotiation delivery"
            );
            delivered[idx] = true; // duplicates are ours (resends), fine
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // A severed pipe can be re-established by whichever end notices
    // first — reopening the lanes before the peer ever observes the
    // closure — so the disconnect is only guaranteed to be counted
    // *somewhere*, not on a chosen end.
    let ea = a.shutdown();
    let eb = b.shutdown();
    let disconnects = ea.counters.disconnects + eb.counters.disconnects;
    assert!(disconnects >= 1, "sever was observed by neither end");
    let reconnects = ea.counters.reconnects + eb.counters.reconnects;
    assert!(reconnects >= 1, "pipe was never re-established");
}

proptest! {
    // Each case spins four OS threads and renegotiates a real severed
    // session — a handful of cases covers the space without minutes of
    // wall time.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_traffic_survives_stalls_and_disconnects(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..600),
            4..24,
        ),
        stall_ops in 1u64..400,
    ) {
        stall_sever_trial(payloads, stall_ops);
    }
}

#[test]
fn transparent_pipe_wire_matches_the_in_memory_device_byte_for_byte() {
    use p5::xport::LinkEngine;

    // Reference: a bare device fed the same frames in the same order.
    let frames = imix(16);
    let mut reference = P5::new(DatapathWidth::W32);
    let mut expected = Vec::new();
    for f in &frames {
        reference.submit(IPV4, f.clone()).expect("reference submit");
        reference.run_until_idle(2_000_000);
        while reference.has_wire_out() {
            let bytes = reference.take_wire_out();
            expected.extend_from_slice(&bytes);
            reference.recycle_wire_vec(bytes);
        }
    }

    // Subject: a transparent engine over a tapped pipe, serviced
    // single-threadedly (no driver thread — determinism is the point).
    let (mut ta, tb) = PipeTransport::pair();
    let tap = ta.tap_tx();
    let mut tx = LinkEngine::transparent(DatapathWidth::W32, Box::new(ta));
    let mut rx = LinkEngine::transparent(DatapathWidth::W32, Box::new(tb));
    let mut delivered = 0usize;
    let mut offered = 0usize;
    let mut spins = 0u32;
    while delivered < frames.len() {
        if offered < frames.len() && tx.offer(IPV4, &frames[offered]).is_admitted() {
            offered += 1;
        }
        tx.service();
        rx.service();
        delivered += rx.take_deliveries().len();
        spins += 1;
        assert!(spins < 1_000_000, "transparent exchange did not converge");
    }

    let wire = tap.lock().unwrap().clone();
    assert_eq!(
        wire, expected,
        "transport-backed wire bytes differ from the in-memory device"
    );
}
