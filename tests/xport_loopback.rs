//! Real-endpoint integration (DESIGN.md §18).  Over an actual TCP
//! loopback socket, two session drivers bring up LCP → IPCP and
//! exchange an IMIX blend on the wall clock.  Over the deterministic
//! pipe, two engines stepped in this thread on advanced session ticks
//! survive scripted stalls and a mid-run sever without a corrupt
//! delivery, renegotiate within the restart budget and repeat their
//! event trace exactly; one engine whose peer never answers sends
//! exactly the Configure-Requests its restart knobs allow; and the
//! transparent engine's wire is byte-identical to an in-memory device
//! run.

use std::time::{Duration, Instant};

use p5::hdlc::{DeframeEvent, Deframer};
use p5::ppp::{Packet, PacketCode};
use p5::prelude::*;
use p5::xport::{PipeControl, XportCounters};
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

/// Two session engines over a pipe, serviced in this thread on
/// advanced session ticks; every event either end reports lands in
/// `trace`, stamped with its tick.
struct PipePair {
    a: LinkEngine,
    b: LinkEngine,
    ctl: PipeControl,
    now: u64,
    trace: Vec<(u64, char, SessionEvent)>,
}

impl PipePair {
    /// Lanes of 2 KiB, so full-size frames meet short writes.
    fn new() -> Self {
        let (ta, tb) = PipeTransport::pair_with_capacity(2048);
        let ctl = ta.control();
        let a = profile(0x0DD5_EED5, [10, 1, 0, 1]);
        let b = profile(0x0E0E_0E0E, [10, 1, 0, 2]);
        PipePair {
            a: LinkEngine::new(DatapathWidth::W32, &a, Box::new(ta)),
            b: LinkEngine::new(DatapathWidth::W32, &b, Box::new(tb)),
            ctl,
            now: 0,
            trace: Vec::new(),
        }
    }

    /// One session tick: service both ends until a pass moves nothing
    /// (a tick is long against a pass — 20 ms against microseconds on
    /// the wall clock — so the pipe settles inside it), then record
    /// their events.
    fn tick(&mut self) {
        let mut passes = 0;
        while self.a.service_at(self.now) | self.b.service_at(self.now) {
            passes += 1;
            assert!(passes < 10_000, "tick {} never settled", self.now);
        }
        let now = self.now;
        for (end, engine) in [('a', &mut self.a), ('b', &mut self.b)] {
            self.trace
                .extend(engine.poll_events().into_iter().map(|e| (now, end, e)));
        }
        self.now += 1;
    }

    /// Tick until both network phases are open, failing past two
    /// restart budgets (one each for LCP and IPCP).
    fn open(&mut self) {
        let start = self.now;
        while !(self.a.is_network_up() && self.b.is_network_up()) {
            assert!(
                self.now - start < reopen_budget(),
                "renegotiation exceeded the restart budget"
            );
            self.tick();
        }
    }
}

/// Ticks a bring-up or renegotiation may take: one restart budget each
/// for LCP and IPCP (the allowance `fault_report` gates).
fn reopen_budget() -> u64 {
    2 * NegotiationProfile::new().restart_budget_ticks()
}

/// Random traffic through a paired pipe while a scripted stall and one
/// mid-run sever hit the transport.  Invariants: every delivered frame
/// is one the sender offered, byte-exact and in order (PPP links never
/// reorder); the sever is observed and renegotiated within budget;
/// traffic offered after re-open all arrives.  Returns the event trace
/// and both ends' transport counters.
fn stall_sever_trial(
    payloads: &[Vec<u8>],
    stall_ops: u64,
) -> (Vec<(u64, char, SessionEvent)>, [XportCounters; 2]) {
    let mut p = PipePair::new();
    p.open();

    // Phase 1: one offer per tick, with a stall burst from the middle.
    // A stalled transport delays bytes but loses none, and every stalled
    // tick still spends at least one of the stalled operations.
    let (start, mid) = (p.now, payloads.len() / 2);
    let bound = payloads.len() as u64 + stall_ops + reopen_budget();
    let (mut sent, mut got) = (0, Vec::new());
    while got.len() < payloads.len() {
        assert!(p.now - start <= bound, "phase 1 took over {bound} ticks");
        if sent < payloads.len() && p.a.offer(IPV4, &payloads[sent]).is_admitted() {
            sent += 1;
            if sent == mid {
                p.ctl.stall(stall_ops);
            }
        }
        p.tick();
        got.extend(p.b.take_deliveries());
    }
    for (i, (proto, frame)) in got.iter().enumerate() {
        assert_eq!(*proto, IPV4);
        assert_eq!(frame, &payloads[i], "frame {i} corrupted under stall");
    }

    // Phase 2: hard mid-run disconnect.  The next tick observes it, runs
    // the RFC 1661 Down transition and renegotiates to open.
    p.ctl.sever();
    p.tick();
    p.open();

    // Phase 3: post-renegotiation traffic gets through again.  An
    // outage may eat frames in flight — loss, which PPP permits.
    // Corruption is not: re-offer undelivered frames every restart
    // period until every index arrives, each byte-exact.
    let after = imix(6);
    let resend = NegotiationProfile::new().config().restart_period;
    let mut delivered = vec![false; after.len()];
    let start = p.now;
    while !delivered.iter().all(|d| *d) {
        let waited = p.now - start;
        assert!(
            waited < reopen_budget(),
            "post-renegotiation traffic never recovered"
        );
        if waited.is_multiple_of(resend) {
            for (f, _) in after.iter().zip(&delivered).filter(|(_, d)| !**d) {
                let _ = p.a.offer(IPV4, f);
            }
        }
        p.tick();
        for (proto, frame) in p.b.take_deliveries() {
            assert_eq!(proto, IPV4);
            let idx = frame[0] as usize | (frame[1] as usize) << 8;
            assert!(
                idx < after.len() && frame == after[idx],
                "corrupt post-renegotiation delivery"
            );
            delivered[idx] = true; // duplicates are ours (resends), fine
        }
    }

    // A severed pipe is re-established by whichever end notices first —
    // reopening the lanes before the peer ever observes the closure — so
    // the disconnect is only guaranteed to be counted *somewhere*.
    let (ca, cb) = (p.a.counters, p.b.counters);
    assert!(
        ca.disconnects + cb.disconnects >= 1,
        "sever was observed by neither end"
    );
    assert!(
        ca.reconnects + cb.reconnects >= 1,
        "pipe was never re-established"
    );
    (p.trace, [ca, cb])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_traffic_survives_stalls_and_disconnects(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..600),
            4..24,
        ),
        stall_ops in 1u64..400,
    ) {
        stall_sever_trial(&payloads, stall_ops);
    }
}

#[test]
fn a_seeded_stall_sever_trial_repeats_its_trace_exactly() {
    // splitmix64 payloads: 16 frames of 1..=600 octets from one seed.
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let payloads: Vec<Vec<u8>> = (0..16)
        .map(|_| (0..1 + next() % 600).map(|_| next() as u8).collect())
        .collect();
    let first = stall_sever_trial(&payloads, 150);
    assert!(
        first.0.contains(&(first.0[0].0, 'a', SessionEvent::LinkUp)),
        "the trace records the bring-up"
    );
    assert!(
        first.0.iter().any(|(_, _, e)| *e == SessionEvent::LinkDown),
        "the trace records the sever"
    );
    for run in 1..100 {
        assert!(
            stall_sever_trial(&payloads, 150) == first,
            "run {run} diverged"
        );
    }
}

#[test]
fn configure_requests_follow_the_restart_knobs_exactly() {
    // RFC 1661 §4.6: a Configure-Request goes out, then one per
    // restart period while the restart counter lasts (Max-Configure
    // retransmissions); when it runs out the automaton stops rather
    // than retransmitting.  The peer here is never serviced, so no
    // request is ever answered.
    const LCP_HEADER: [u8; 4] = [0xFF, 0x03, 0xC0, 0x21];
    for restart_period in [1u64, 3, 8] {
        for max_configure in [0u32, 2, 10] {
            let prof = profile(0x5EEB_0001, [10, 2, 0, 1])
                .restart_period(restart_period)
                .max_configure(max_configure);
            let (mut ta, _silent_peer) = PipeTransport::pair();
            let tap = ta.tap_tx();
            let mut a = LinkEngine::new(DatapathWidth::W32, &prof, Box::new(ta));
            let mut deframer = Deframer::default();
            let (mut read, mut sent_at) = (0, Vec::new());
            let last = u64::from(max_configure) * restart_period;
            for tick in 0..=last + prof.restart_budget_ticks() {
                for _ in 0..64 {
                    if !a.service_at(tick) {
                        break;
                    }
                }
                let wire = tap.lock().unwrap()[read..].to_vec();
                read += wire.len();
                for ev in deframer.push_bytes(&wire) {
                    let DeframeEvent::Frame(body) = ev else {
                        panic!("the engine's own wire failed to deframe: {ev:?}");
                    };
                    let request = body
                        .strip_prefix(&LCP_HEADER)
                        .and_then(|p| Packet::parse(p).ok());
                    if request.is_some_and(|p| p.code == PacketCode::ConfigureRequest) {
                        sent_at.push(tick);
                    }
                }
            }
            let want: Vec<u64> = (0..=last).step_by(restart_period as usize).collect();
            assert_eq!(
                sent_at, want,
                "restart_period {restart_period}, max_configure {max_configure}"
            );
        }
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
        tx.service_at(0);
        rx.service_at(0);
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
