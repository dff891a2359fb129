//! Chaos report — the p5-fault model exercised end to end, with the
//! recovery invariants the paper's error-handling design promises held
//! as hard gates:
//!
//! 1. **Injection scenarios** — seeded fault plans (uniform BER sweep,
//!    Gilbert–Elliott bursts, byte slips/duplications, truncations,
//!    aborts and fabricated flags, stall storms) each driven over an
//!    STM-4 link built by [`LinkBuilder`].  Gates: nothing corrupt is
//!    ever delivered, and every datagram is either delivered intact or
//!    shows up in an OAM error counter (one-sided accounting: corrupted
//!    idle fill can add spurious runts, and a corrupted flag can merge
//!    two frames into one error).
//! 2. **Re-delineation latency** — seeded mid-stream corruptions of a
//!    framed wire image; the byte distance from the hit to the next
//!    good frame is histogrammed and gated against
//!    `DeframerConfig::resync_bound_bytes`.
//! 3. **Renegotiation under outage** — LCP/IPCP sessions over a duplex
//!    link; a total transfer-loss outage runs until three consecutive
//!    intervals deliver nothing, the trial bounces the link
//!    (`Session::renegotiate`), and the session must re-open within the
//!    RFC 1661 restart budget.
//!
//! Writes `BENCH_fault.json` (under `target/` with `--smoke`, which
//! shrinks the traffic for CI; under `results/` without) and ends with
//! the ledger's exact counts — every reading here is seeded, so all of
//! them repeat.  Every gate runs in both modes.

use p5_bench::{heading, imix_sizes, ip_like_datagram, Ledger};
use p5_core::{DatapathWidth, LinkCore};
use p5_fault::FaultSpec;
use p5_hdlc::{DeframeEvent, Deframer, DeframerConfig, Framer, FramerConfig};
use p5_link::LinkBuilder;
use p5_ppp::session::{Session, SessionEvent};
use p5_ppp::NegotiationProfile;
use p5_sonet::StmLevel;
use p5_trace::Histogram;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One link scenario's outcome.
struct ScenarioOut {
    name: &'static str,
    seed: u64,
    sent: usize,
    delivered: usize,
    errors: u64,
    corrupt: usize,
    stalled: bool,
    injected: Vec<(String, u64)>,
}

impl ScenarioOut {
    fn accounted(&self) -> bool {
        self.delivered as u64 + self.errors >= self.sent as u64 - 4
    }

    fn ledger(&self, ledger: &mut Ledger) {
        let name = self.name;
        ledger.put(&format!("{name}.sent"), self.sent);
        ledger.put(&format!("{name}.delivered"), self.delivered);
        ledger.put(&format!("{name}.counted_drops"), self.errors);
        ledger.put(&format!("{name}.corrupt"), self.corrupt);
        for (kind, n) in &self.injected {
            ledger.put(&format!("{name}.injected.{kind}"), n);
        }
    }

    fn json(&self) -> String {
        let injected = self
            .injected
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "    {{\"scenario\": \"{}\", \"seed\": {}, \"sent\": {}, \
             \"delivered\": {}, \"counted_drops\": {}, \
             \"corrupt_deliveries\": {}, \"accounted\": {}, \
             \"injected\": {{{injected}}}}}",
            self.name,
            self.seed,
            self.sent,
            self.delivered,
            self.errors,
            self.corrupt,
            self.accounted(),
        )
    }
}

/// Drive `n` IMIX datagrams through an STM-4 link impaired by `spec`.
fn link_scenario(name: &'static str, spec: FaultSpec, seed: u64, n: usize) -> ScenarioOut {
    let plan = spec.compile(seed).expect("scenario specs are valid");
    let mut link = LinkBuilder::new()
        .width(DatapathWidth::W32)
        .sonet(StmLevel::Stm4)
        .fault(plan)
        .build()
        .expect("scenario link assembles");
    let mut sent = Vec::new();
    for (i, len) in imix_sizes(n, seed).iter().enumerate() {
        let d = ip_like_datagram(*len, i as u64);
        link.send(0x0021, &d);
        sent.push(d);
    }
    // Stall storms are bounded, so a generous budget always drains.
    let stalled = link.run(500_000).is_err();
    let delivered = link.deliveries();
    // The link is in-order: every delivery must match the next unmatched
    // sent datagram, or it is a corrupt delivery (the FCS missed it).
    let mut corrupt = 0usize;
    let mut si = sent.iter();
    for (_, p) in &delivered {
        if !si.any(|d| d == p) {
            corrupt += 1;
        }
    }
    // Injected-fault counters, as the observability layer exports them.
    let mut injected = Vec::new();
    for snap in link.snapshots() {
        if snap.scope == "fault" {
            for key in [
                "fault_bit_error",
                "fault_burst",
                "fault_slip",
                "fault_duplicate",
                "fault_truncate",
                "fault_abort",
                "fault_spurious_flag",
                "fault_stall",
            ] {
                if let Some(v) = snap.get(key) {
                    if v > 0 {
                        injected.push((key.to_string(), v));
                    }
                }
            }
        }
        if snap.scope == "oc-path" {
            for key in ["bits_flipped", "bursts_injected"] {
                if let Some(v) = snap.get(key) {
                    if v > 0 {
                        injected.push((key.to_string(), v));
                    }
                }
            }
        }
    }
    ScenarioOut {
        name,
        seed,
        sent: sent.len(),
        delivered: delivered.len(),
        errors: link.rx_errors(),
        corrupt,
        stalled,
        injected,
    }
}

/// Corrupt one byte mid-stream in a framed wire image and measure the
/// byte distance until the deframer delivers the next good frame.
fn resync_trial(rng: &mut StdRng, cfg: DeframerConfig) -> Option<u64> {
    let mut framer = Framer::new(FramerConfig::default());
    let mut wire = Vec::new();
    let n_frames = rng.gen_range(4..10);
    for i in 0..n_frames {
        let len = rng.gen_range(40..400);
        wire.extend_from_slice(&framer.encode(&ip_like_datagram(len, i as u64)));
    }
    // Hit somewhere in the first half so good frames follow the damage.
    let hit = rng.gen_range(0..wire.len() / 2);
    wire[hit] ^= 1u8 << rng.gen_range(0..8);
    let mut deframer = Deframer::new(cfg);
    for (i, &b) in wire.iter().enumerate() {
        if let Some(DeframeEvent::Frame(_)) = deframer.push_byte(b) {
            if i > hit {
                return Some((i - hit) as u64);
            }
        }
    }
    // The flip landed somewhere harmless enough that no frame completed
    // after it (e.g. inside the final partial image) — no measurement.
    None
}

/// Drive one session pump tick; counts delivered datagrams into `got`.
fn pump(sess: &mut Session, end: &mut LinkCore, now: u64, got: &mut u32) {
    sess.tick(now);
    for (proto, info) in sess.poll_output() {
        end.dev.submit(proto, info).unwrap();
    }
    end.dev.run(512);
    for frame in end.dev.take_received() {
        sess.receive(frame.protocol, &frame.payload);
    }
    for ev in sess.poll_events() {
        if matches!(ev, SessionEvent::Datagram(_)) {
            *got += 1;
        }
    }
}

/// One outage-then-renegotiate trial: returns (ticks from trip to
/// re-open, budget) or None if the session never re-opened.
fn renegotiate_trial(seed: u64) -> (Option<u64>, u64) {
    // Restart period must exceed the link round trip (same rule as the
    // lcp_negotiation example).
    let mut a = Session::with_profile(
        &NegotiationProfile::new()
            .magic(0x1111_0000 | seed as u32)
            .ip([10, 0, 0, 1])
            .restart_period(10),
    );
    let mut b = Session::with_profile(
        &NegotiationProfile::new()
            .magic(0x2222_0000 | seed as u32)
            .ip([10, 0, 0, 2])
            .restart_period(10),
    );
    let mut link = LinkBuilder::new().build_duplex().expect("clean duplex");
    a.start();
    b.start();
    let mut now = 0u64;
    let mut sink = 0u32;
    while !(a.is_network_up() && b.is_network_up()) {
        pump(&mut a, &mut link.a, now, &mut sink);
        pump(&mut b, &mut link.b, now, &mut sink);
        link.exchange();
        now += 1;
        if now > 500 {
            return (None, 0);
        }
    }

    // Total outage: every wire transfer is lost.  The trial counts
    // 5-tick intervals that deliver nothing and bounces the link at the
    // third in a row.
    let outage = FaultSpec::clean()
        .transfer_loss(1.0)
        .compile(seed)
        .expect("valid outage spec");
    link.set_fault(&outage);
    let mut dead_intervals = 0u32;
    while dead_intervals < 3 {
        if now > 2_000 {
            return (None, 0);
        }
        let mut received = 0u32;
        for _ in 0..5 {
            a.send_datagram(vec![0x45; 40]);
            let mut unused = 0u32;
            pump(&mut a, &mut link.a, now, &mut unused);
            pump(&mut b, &mut link.b, now, &mut received);
            link.exchange();
            now += 1;
        }
        dead_intervals = if received == 0 { dead_intervals + 1 } else { 0 };
    }

    // The trial bounces the link; the outage ends.
    link.clear_fault();
    a.renegotiate();
    // LCP then IPCP each get one restart budget.
    let budget = 2 * a.lcp.config().restart_budget_ticks();
    let start = now;
    while !(a.is_network_up() && b.is_network_up()) {
        pump(&mut a, &mut link.a, now, &mut sink);
        pump(&mut b, &mut link.b, now, &mut sink);
        link.exchange();
        now += 1;
        if now - start > budget {
            return (None, budget);
        }
    }
    (Some(now - start), budget)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (n, resync_trials, reneg_trials) = if smoke { (80, 60, 3) } else { (240, 300, 8) };

    print!(
        "{}",
        heading("Fault report - injection scenarios, resync latency, renegotiation")
    );

    let mut gate_failures: Vec<String> = Vec::new();
    let mut ledger = Ledger::new("fault");

    // 1. Injection scenarios over the STM-4 link.
    let scenarios = [
        ("clean", FaultSpec::clean(), 100),
        ("ber_1e-6", FaultSpec::clean().ber(1e-6), 101),
        ("ber_1e-5", FaultSpec::clean().ber(1e-5), 102),
        ("ber_1e-4", FaultSpec::clean().ber(1e-4), 103),
        (
            "burst",
            FaultSpec::clean().burst(2e-5, 1.0 / 16.0, 0.5),
            104,
        ),
        (
            "slip_dup",
            FaultSpec::clean().slip(1e-3).duplicate(5e-4),
            105,
        ),
        (
            "structural",
            FaultSpec::clean()
                .truncate(5e-4, 16)
                .abort(5e-4)
                .spurious_flag(5e-4),
            106,
        ),
        ("storm", FaultSpec::clean().ber(1e-5).stall(0.02, 32), 107),
    ];
    let mut scenario_rows = String::new();
    for (name, spec, seed) in scenarios {
        let out = link_scenario(name, spec, seed, n);
        println!(
            "{:>10}: sent={} delivered={} counted-drops={} corrupt={} injected={:?}",
            out.name, out.sent, out.delivered, out.errors, out.corrupt, out.injected
        );
        out.ledger(&mut ledger);
        if out.corrupt > 0 {
            gate_failures.push(format!(
                "{name}: {} corrupt deliveries slipped past the FCS",
                out.corrupt
            ));
        }
        if !out.accounted() {
            gate_failures.push(format!(
                "{name}: accounting hole - {} delivered + {} errors < {} sent - 4",
                out.delivered, out.errors, out.sent
            ));
        }
        if out.stalled {
            gate_failures.push(format!("{name}: link wedged (storms must be bounded)"));
        }
        match name {
            "clean" if out.delivered != out.sent || out.errors != 0 => {
                gate_failures.push(format!(
                    "clean: {} of {} delivered with {} errors",
                    out.delivered, out.sent, out.errors
                ));
            }
            "storm"
                if !out
                    .injected
                    .iter()
                    .any(|(k, v)| k == "fault_stall" && *v > 0) =>
            {
                gate_failures.push("storm: no stall storms were injected".into());
            }
            // 1e-6 over a smoke run legitimately rounds to zero flips;
            // the hotter scenarios must show injection activity.
            "ber_1e-5" | "ber_1e-4" | "burst" | "slip_dup" | "structural"
                if out.injected.is_empty() =>
            {
                gate_failures.push(format!("{name}: no faults were injected"));
            }
            _ => {}
        }
        if !scenario_rows.is_empty() {
            scenario_rows.push_str(",\n");
        }
        scenario_rows.push_str(&out.json());
    }

    // 2. Re-delineation latency vs the documented bound.
    let cfg = DeframerConfig::default();
    let bound = cfg.resync_bound_bytes() as u64;
    let mut hist = Histogram::new();
    let mut max_dist = 0u64;
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..resync_trials {
        if let Some(d) = resync_trial(&mut rng, cfg) {
            hist.observe(d);
            max_dist = max_dist.max(d);
        }
    }
    println!(
        "\nresync: {} corruptions measured, mean {:.0} bytes, max {} (bound {})",
        hist.count(),
        hist.mean(),
        max_dist,
        bound
    );
    for line in hist.render().lines() {
        println!("  {line}");
    }
    ledger.put("resync.measured", hist.count());
    ledger.put("resync.sum_bytes", hist.sum());
    ledger.put("resync.max_bytes", max_dist);
    ledger.put("resync.bound_bytes", bound);
    if hist.is_empty() {
        gate_failures.push("resync: no corruption produced a measurement".into());
    }
    if max_dist > bound {
        gate_failures.push(format!(
            "resync: {max_dist} bytes to re-delineate exceeds the bound {bound}"
        ));
    }

    // 3. Outage → link bounce → renegotiation within the restart budget.
    let mut reneg_hist = Histogram::new();
    let mut reneg_budget = 0u64;
    let mut reneg_max = 0u64;
    for t in 0..reneg_trials {
        let (ticks, budget) = renegotiate_trial(200 + t as u64);
        reneg_budget = reneg_budget.max(budget);
        match ticks {
            Some(ticks) => {
                reneg_hist.observe(ticks);
                reneg_max = reneg_max.max(ticks);
            }
            None => gate_failures.push(format!(
                "renegotiate[{t}]: session failed to re-open within {budget} ticks"
            )),
        }
    }
    println!(
        "\nrenegotiate: {} outages recovered, mean {:.0} ticks, max {} (budget {})",
        reneg_hist.count(),
        reneg_hist.mean(),
        reneg_max,
        reneg_budget
    );
    ledger.put("renegotiate.recovered", reneg_hist.count());
    ledger.put("renegotiate.sum_ticks", reneg_hist.sum());
    ledger.put("renegotiate.max_ticks", reneg_max);
    ledger.put("renegotiate.budget_ticks", reneg_budget);

    let json = format!(
        "{{\n  \"bench\": \"fault\",\n  \"smoke\": {smoke},\n  \
         \"imix_datagrams\": {n},\n  \
         \"scenarios\": [\n{scenario_rows}\n  ],\n  \
         \"resync\": {{\"trials\": {}, \"measured\": {}, \
         \"mean_bytes\": {:.1}, \"max_bytes\": {max_dist}, \
         \"bound_bytes\": {bound}}},\n  \
         \"renegotiate\": {{\"trials\": {reneg_trials}, \"recovered\": {}, \
         \"mean_ticks\": {:.1}, \"max_ticks\": {reneg_max}, \
         \"budget_ticks\": {reneg_budget}}}\n}}\n",
        resync_trials,
        hist.count(),
        hist.mean(),
        reneg_hist.count(),
        reneg_hist.mean(),
    );
    ledger.finish(smoke, &json, &gate_failures);
}
