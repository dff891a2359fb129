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
//! 3. **Reconnect recovery** — a deterministic pipe pair is severed
//!    mid-run; both sessions must renegotiate to open within
//!    `--max-reconnect-ms` (default 5000) and every frame delivered
//!    across the whole run must be byte-exact (zero corrupt
//!    deliveries, the same invariant the fault gates enforce).
//!
//! Writes `results/BENCH_xport.json`; any gate failure exits 1.
//! `--smoke` shrinks the throughput workload for CI.

use std::time::{Duration, Instant};

use p5_bench::heading;
use p5_link::LinkBuilder;
use p5_ppp::NegotiationProfile;
use p5_stream::Observable;
use p5_xport::{PipeTransport, SessionDriver, TcpTransport};

const IPV4: u16 = 0x0021;

fn arg_value(args: &[String], flag: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_bringup_ms = arg_value(&args, "--max-bringup-ms").unwrap_or(5_000.0);
    let min_gbps = arg_value(&args, "--min-gbps").unwrap_or(0.05);
    let max_reconnect_ms = arg_value(&args, "--max-reconnect-ms").unwrap_or(5_000.0);

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
    let short_writes = a_engine.counters.short_writes;
    if io_errors > 0 {
        gate_failures.push(format!("{io_errors} hard I/O errors on loopback"));
    }
    b.shutdown();

    // 3. Reconnect recovery over the deterministic pipe: sever, then
    // measure wall time until both sessions renegotiate to open.
    let (ta, tb) = PipeTransport::pair();
    let ctl = ta.control();
    let a = LinkBuilder::new()
        .profile(profile(0x5EC0_0001, [10, 98, 0, 1]))
        .transport(ta)
        .build_remote()
        .expect("pipe endpoint a");
    let b = LinkBuilder::new()
        .profile(profile(0x5EC0_0002, [10, 98, 0, 2]))
        .transport(tb)
        .build_remote()
        .expect("pipe endpoint b");
    assert!(a.await_network_up(Duration::from_secs(30)));
    assert!(b.await_network_up(Duration::from_secs(30)));
    let (_, pre_bytes, pre_corrupt) = blast(&a, &b, 200);
    ctl.sever();
    let severed = Instant::now();
    // First wait for the engines' own evidence of the sever: an engine
    // counts a disconnect when it runs the Down transition.  Only one
    // may: whichever re-establishes first reopens the shared lanes, and
    // the other then renegotiates through LCP alone.  Sampling
    // `is_network_up()` for the Down edge instead misses it — the pipe
    // renegotiates in about a millisecond, inside one poll — and timing
    // before an engine has seen the sever would time a vacuous
    // "reconnect" of zero.
    let deadline = severed + Duration::from_secs(30);
    let disconnects = |d: &SessionDriver| d.snapshot().get("disconnects").unwrap_or(0);
    while disconnects(&a) + disconnects(&b) == 0 {
        assert!(
            Instant::now() < deadline,
            "sever was never observed by the sessions"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    while !(a.is_network_up() && b.is_network_up()) {
        assert!(
            Instant::now() < deadline,
            "sessions never renegotiated after the sever"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let reconnect_ms = severed.elapsed().as_secs_f64() * 1e3;
    let (_, post_bytes, post_corrupt) = blast(&a, &b, 200);
    let corrupt_total = pre_corrupt + post_corrupt;
    println!(
        "pipe sever -> renegotiated in {reconnect_ms:.1} ms; \
         {pre_bytes} B before + {post_bytes} B after, {corrupt_total} corrupt"
    );
    if reconnect_ms > max_reconnect_ms {
        gate_failures.push(format!(
            "reconnect took {reconnect_ms:.1} ms (gate {max_reconnect_ms} ms)"
        ));
    }
    if corrupt_total > 0 {
        gate_failures.push(format!(
            "{corrupt_total} corrupt deliveries across the sever run"
        ));
    }
    let ea = a.shutdown();
    let eb = b.shutdown();
    let disconnects = ea.counters.disconnects + eb.counters.disconnects;
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
         \"reconnect\": {{\"wall_ms\": {reconnect_ms:.2}, \"gate_ms\": {max_reconnect_ms}, \
         \"disconnects\": {disconnects}, \"corrupt\": {corrupt_total}}}\n}}\n"
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_xport.json", &json).expect("write results/");
    println!("\nwrote results/BENCH_xport.json");

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}
