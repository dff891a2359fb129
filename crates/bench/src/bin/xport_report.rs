//! Real-endpoint transport report — the p5-xport layer over actual OS
//! sockets, with hard gates.
//!
//! Three experiments:
//!
//! 1. **Bring-up latency** — two [`SessionDriver`]s negotiate
//!    LCP → IPCP over a real TCP loopback socket; wall time from spawn
//!    to both network phases open must stay under `--max-bringup-ms`
//!    (default 5000 — generous because shared CI schedules threads when
//!    it feels like it; measured ~1 ms on the reference host).
//! 2. **Sustained loopback throughput** — 1500-byte datagrams pushed
//!    one way over the same socket; delivered payload must sustain at
//!    least `--min-gbps` (default 0.05; measured ~0.3 Gbps even on a
//!    single-CPU host — the gate only catches the transport path
//!    collapsing, not host variance).
//! 3. **Reconnect recovery** — two engines over a deterministic pipe,
//!    serviced in this thread on advanced session ticks, are severed
//!    mid-run; both sessions must renegotiate to open within one
//!    RFC 1661 restart budget each for LCP and IPCP (as `fault_report`
//!    allows), and every frame delivered across the whole run must be
//!    byte-exact (zero corrupt deliveries, the same invariant the fault
//!    gates enforce).  The tick counts are exact, the same on every run
//!    and host, so they go to the ledger; the wall time is printed, not
//!    gated.
//!
//! Writes `BENCH_xport.json` (under `target/` with `--smoke`, which
//! shrinks the throughput workload for CI; under `results/` without)
//! and ends with the ledger lines; any gate failure exits 1.

use std::time::{Duration, Instant};

use p5_bench::{arg_value, heading, Ledger};
use p5_core::DatapathWidth;
use p5_link::LinkBuilder;
use p5_ppp::NegotiationProfile;
use p5_xport::{LinkEngine, PipeTransport, SessionDriver, TcpTransport};

const IPV4: u16 = 0x0021;

fn profile(magic: u32, ip: [u8; 4]) -> NegotiationProfile {
    NegotiationProfile::new().magic(magic).ip(ip)
}

/// Two endpoints over a fresh TCP loopback socket, network phase open.
/// Returns the pair and the bring-up wall time.
fn tcp_pair() -> (SessionDriver, SessionDriver, Duration) {
    let server = TcpTransport::listen("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let started = Instant::now();
    let a = LinkBuilder::new()
        .profile(profile(0xBE9C_0001, [10, 99, 0, 1]))
        .transport(server)
        .build_remote()
        .expect("server endpoint");
    let b = LinkBuilder::new()
        .profile(profile(0xBE9C_0002, [10, 99, 0, 2]))
        .transport(TcpTransport::connect(addr).expect("dial loopback"))
        .build_remote()
        .expect("client endpoint");
    assert!(a.await_network_up(Duration::from_secs(30)), "server IPCP");
    assert!(b.await_network_up(Duration::from_secs(30)), "client IPCP");
    (a, b, started.elapsed())
}

/// Blast identical 1500-byte datagrams a → b until `frames` arrive;
/// returns (wall seconds, delivered payload bytes, corrupt count).
///
/// The source saturates: it keeps offering until enough deliveries
/// land rather than counting sends, so an outage that eats in-flight
/// frames (a link flap right after renegotiation — loss, which PPP
/// permits) delays the run instead of deadlocking it.  Corruption is
/// still counted on every arrival.
fn blast(a: &SessionDriver, b: &SessionDriver, frames: usize) -> (f64, u64, usize) {
    let payload = vec![0xA7u8; 1500];
    let started = Instant::now();
    let mut bytes = 0u64;
    let mut got = 0usize;
    let mut corrupt = 0usize;
    let deadline = Instant::now() + Duration::from_secs(120);
    while got < frames {
        assert!(Instant::now() < deadline, "throughput run stalled");
        if !a.offer(IPV4, &payload).is_admitted() {
            // Admission refused = the driver is behind; burning the
            // core on retries only starves it (acutely so on a
            // single-CPU host).
            std::thread::yield_now();
        }
        for (proto, f) in b.take_deliveries() {
            got += 1;
            bytes += f.len() as u64;
            if proto != IPV4 || f != payload {
                corrupt += 1;
            }
        }
    }
    (started.elapsed().as_secs_f64(), bytes, corrupt)
}

/// One session tick for a pipe pair: service both engines at `tick`
/// until a pass moves nothing (a tick is long against a pass, so the
/// pipe settles inside it).
fn pipe_tick(a: &mut LinkEngine, b: &mut LinkEngine, tick: u64) {
    let mut passes = 0;
    while a.service_at(tick) | b.service_at(tick) {
        passes += 1;
        assert!(passes < 10_000, "tick {tick} never settled");
    }
}

/// Push `frames` identical 1500-byte datagrams a → b over a pipe pair,
/// one offer per tick from `*tick`; returns (delivered payload bytes,
/// corrupt count).  Like [`blast`], the source keeps offering until
/// enough deliveries land.
fn pipe_blast(
    a: &mut LinkEngine,
    b: &mut LinkEngine,
    tick: &mut u64,
    frames: usize,
) -> (u64, usize) {
    let payload = vec![0xA7u8; 1500];
    let (mut bytes, mut got, mut corrupt) = (0u64, 0usize, 0usize);
    let deadline = *tick + 10 * frames as u64;
    while got < frames {
        assert!(*tick < deadline, "pipe run stalled");
        let _ = a.offer(IPV4, &payload);
        pipe_tick(a, b, *tick);
        *tick += 1;
        for (proto, f) in b.take_deliveries() {
            got += 1;
            bytes += f.len() as u64;
            if proto != IPV4 || f != payload {
                corrupt += 1;
            }
        }
    }
    (bytes, corrupt)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_bringup_ms = arg_value(&args, "--max-bringup-ms").unwrap_or(5_000.0);
    let min_gbps = arg_value(&args, "--min-gbps").unwrap_or(0.05);
    // One restart budget each for LCP and IPCP.
    let budget = 2 * NegotiationProfile::new().restart_budget_ticks();
    let mut ledger = Ledger::new("xport");

    print!(
        "{}",
        heading("Xport report - TCP bring-up, loopback throughput, reconnect recovery")
    );
    let mut gate_failures: Vec<String> = Vec::new();

    // 1. Bring-up latency over real TCP loopback (best of 3: the gate
    // is about the protocol path, not scheduler warm-up).
    let mut bringup_ms = f64::INFINITY;
    let mut pair = None;
    for _ in 0..3 {
        let (a, b, took) = tcp_pair();
        bringup_ms = bringup_ms.min(took.as_secs_f64() * 1e3);
        pair = Some((a, b));
    }
    println!("TCP loopback LCP+IPCP bring-up: {bringup_ms:.1} ms (best of 3)");
    if bringup_ms > max_bringup_ms {
        gate_failures.push(format!(
            "bring-up took {bringup_ms:.1} ms (gate {max_bringup_ms} ms)"
        ));
    }

    // 2. Sustained one-way throughput on the last negotiated pair.
    let frames = if smoke { 2_000 } else { 20_000 };
    let (a, b) = pair.expect("negotiated pair");
    let (wall_s, bytes, corrupt) = blast(&a, &b, frames);
    let gbps = (bytes as f64 * 8.0) / wall_s / 1e9;
    println!(
        "TCP loopback throughput: {frames} x 1500 B in {:.1} ms = {gbps:.3} Gbps \
         payload ({corrupt} corrupt)",
        wall_s * 1e3
    );
    if gbps < min_gbps {
        gate_failures.push(format!(
            "throughput {gbps:.3} Gbps under the {min_gbps} Gbps gate"
        ));
    }
    if corrupt > 0 {
        gate_failures.push(format!("{corrupt} corrupt deliveries on a clean socket"));
    }
    let a_engine = a.shutdown();
    let io_errors = a_engine.counters.io_errors;
    ledger.put("tcp.corrupt", corrupt);
    ledger.put("tcp.io_errors", io_errors);
    let short_writes = a_engine.counters.short_writes;
    if io_errors > 0 {
        gate_failures.push(format!("{io_errors} hard I/O errors on loopback"));
    }
    b.shutdown();

    // 3. Reconnect recovery over the deterministic pipe, on session
    // ticks: sever, then count ticks until both sessions renegotiate
    // to open.  The first tick after the sever observes it (an engine
    // counts a disconnect when it runs the Down transition); only one
    // end may — whichever re-establishes first reopens the shared
    // lanes, and the other renegotiates through LCP alone.
    let (ta, tb) = PipeTransport::pair();
    let ctl = ta.control();
    let mut a = LinkEngine::new(
        DatapathWidth::W32,
        &profile(0x5EC0_0001, [10, 98, 0, 1]),
        Box::new(ta),
    );
    let mut b = LinkEngine::new(
        DatapathWidth::W32,
        &profile(0x5EC0_0002, [10, 98, 0, 2]),
        Box::new(tb),
    );
    let mut tick = 0;
    while !(a.is_network_up() && b.is_network_up()) {
        assert!(tick < budget, "pipe bring-up exceeded its restart budgets");
        pipe_tick(&mut a, &mut b, tick);
        tick += 1;
    }
    ledger.put("pipe.bringup_ticks", tick);
    let (pre_bytes, pre_corrupt) = pipe_blast(&mut a, &mut b, &mut tick, 200);
    ctl.sever();
    let (severed, severed_at) = (tick, Instant::now());
    loop {
        pipe_tick(&mut a, &mut b, tick);
        tick += 1;
        let reopened = a.is_network_up() && b.is_network_up();
        if reopened || tick - severed > budget {
            break;
        }
    }
    let reconnect_ticks = tick - severed;
    let reconnect_ms = severed_at.elapsed().as_secs_f64() * 1e3;
    let (post_bytes, post_corrupt) = pipe_blast(&mut a, &mut b, &mut tick, 200);
    let corrupt_total = pre_corrupt + post_corrupt;
    let disconnects = a.counters.disconnects + b.counters.disconnects;
    ledger.put("pipe.reconnect_ticks", reconnect_ticks);
    ledger.put("pipe.delivered_bytes", pre_bytes + post_bytes);
    ledger.put("pipe.corrupt", corrupt_total);
    ledger.put("pipe.disconnects", disconnects);
    ledger.put("pipe.end_tick", tick);
    println!(
        "pipe sever -> renegotiated in {reconnect_ticks} ticks ({reconnect_ms:.3} ms); \
         {pre_bytes} B before + {post_bytes} B after, {corrupt_total} corrupt"
    );
    if reconnect_ticks > budget {
        gate_failures.push(format!(
            "sessions not reopened within {budget} ticks of the sever"
        ));
    }
    if corrupt_total > 0 {
        gate_failures.push(format!(
            "{corrupt_total} corrupt deliveries across the sever run"
        ));
    }
    if disconnects == 0 {
        gate_failures.push("sever was never observed by either endpoint".into());
    }

    let json = format!(
        "{{\n  \"bench\": \"xport\",\n  \"smoke\": {smoke},\n  \
         \"bringup\": {{\"wall_ms\": {bringup_ms:.2}, \"gate_ms\": {max_bringup_ms}}},\n  \
         \"throughput\": {{\"frames\": {frames}, \"payload_bytes\": {bytes}, \
         \"wall_s\": {wall_s:.6}, \"gbps\": {gbps:.4}, \"gate_gbps\": {min_gbps}, \
         \"corrupt\": {corrupt}, \"io_errors\": {io_errors}, \
         \"short_writes\": {short_writes}}},\n  \
         \"reconnect\": {{\"ticks\": {reconnect_ticks}, \"budget_ticks\": {budget}, \
         \"wall_ms\": {reconnect_ms:.3}, \"disconnects\": {disconnects}, \
         \"corrupt\": {corrupt_total}}}\n}}\n"
    );
    ledger.finish(smoke, &json, &gate_failures);
}
