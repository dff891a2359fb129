//! Recovery invariants under the p5-fault chaos model (DESIGN.md §14):
//!
//! * stuff ∘ corrupt ∘ destuff never delivers a frame the transmitter
//!   did not send — arbitrary seeded corruption is caught by the FCS
//!   and surfaces as a counted discard, never as silent corruption;
//! * after a single mid-stream corruption the deframer re-delineates
//!   and delivers a good frame within the documented byte bound;
//! * every [`FaultKind`] reproduces exactly from its seed (the
//!   regression contract the `fault_report` scenarios rely on);
//! * a [`Link`] under a random seeded stall plan never loses,
//!   duplicates or reorders a frame, and its stall attribution accounts
//!   for every offer at each boundary.

use p5::hdlc::{DeframeEvent, Deframer, Framer, FramerConfig};
use p5::prelude::*;
use proptest::prelude::*;

/// Frame bodies biased towards flag/escape octets (the stuffing worst
/// case), short enough that the default `max_body` never trips.
fn bodies_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                2 => Just(0x7Eu8),
                2 => Just(0x7Du8),
                6 => any::<u8>(),
            ],
            1..100,
        ),
        3..8,
    )
}

/// A palette of chaos mixes: bit-level, bursty, each structural kind,
/// and a kitchen-sink blend.
fn chaos_spec(idx: usize) -> FaultSpec {
    match idx {
        0 => FaultSpec::clean().ber(2e-3),
        1 => FaultSpec::clean().burst(1e-3, 0.25, 0.5),
        2 => FaultSpec::clean().slip(3e-3).duplicate(3e-3),
        3 => FaultSpec::clean().truncate(3e-3, 8).abort(2e-3),
        4 => FaultSpec::clean().spurious_flag(3e-3),
        _ => FaultSpec::clean()
            .ber(5e-4)
            .slip(1e-3)
            .duplicate(1e-3)
            .truncate(1e-3, 4)
            .abort(1e-3)
            .spurious_flag(1e-3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Whatever the plan does to the stuffed stream, the receiver only
    // ever delivers bodies the transmitter framed, in order.
    #[test]
    fn corruption_never_yields_an_unsent_frame(
        bodies in bodies_strategy(),
        spec_idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let mut framer = Framer::new(FramerConfig::default());
        let mut wire = Vec::new();
        for b in &bodies {
            wire.extend_from_slice(&framer.encode(b));
        }
        let mut plan = chaos_spec(spec_idx)
            .compile(seed)
            .expect("palette specs are valid");
        let mut corrupted = Vec::new();
        plan.corrupt_into(&wire, &mut corrupted);

        let mut deframer = Deframer::new(DeframerConfig::default());
        let mut bi = bodies.iter();
        for ev in deframer.push_bytes(&corrupted) {
            if let DeframeEvent::Frame(got) = ev {
                // In-order subsequence: each delivered body must match a
                // not-yet-matched sent body.
                prop_assert!(
                    bi.any(|b| *b == got),
                    "delivered a frame the transmitter never sent (seed {seed}, mix {spec_idx})"
                );
            }
        }
    }

    // One corrupted byte costs at most `resync_bound_bytes` of stream
    // before a good frame is delivered again, provided good traffic
    // follows the damage.
    #[test]
    fn resync_happens_within_the_documented_bound(
        bodies in bodies_strategy(),
        hit_sel in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        // Bodies max out at 99 bytes, comfortably under this max_body:
        // even a flag corruption that merges two frames stays deliverable
        // (and therefore FCS-checked) rather than growing into a giant.
        let cfg = DeframerConfig {
            max_body: 256,
            ..DeframerConfig::default()
        };
        let bound = cfg.resync_bound_bytes();

        let mut framer = Framer::new(FramerConfig::default());
        let mut wire = Vec::new();
        for b in &bodies {
            wire.extend_from_slice(&framer.encode(b));
        }
        let damage_span = wire.len();
        // Guarantee good traffic after the hit: two clean trailer frames.
        let trailers = [vec![0xA5u8; 60], vec![0x5Au8; 60]];
        for t in &trailers {
            wire.extend_from_slice(&framer.encode(t));
        }
        let hit = hit_sel as usize % damage_span;
        wire[hit] ^= 1u8 << flip_bit;

        let mut deframer = Deframer::new(cfg);
        let mut recovered = None;
        for (i, &b) in wire.iter().enumerate() {
            if let Some(DeframeEvent::Frame(_)) = deframer.push_byte(b) {
                if i > hit {
                    recovered = Some(i - hit);
                    break;
                }
            }
        }
        let dist = recovered.expect("good trailer frames must eventually deliver");
        prop_assert!(
            dist <= bound,
            "re-delineation took {dist} bytes, documented bound is {bound}"
        );
    }
}

/// Each fault kind reproduces byte-for-byte and count-for-count from
/// its seed — the regression contract behind every seeded scenario.
#[test]
fn every_fault_kind_is_seed_reproducible() {
    let spec_for = |kind: FaultKind| -> FaultSpec {
        match kind {
            FaultKind::BitError => FaultSpec::clean().ber(2e-3),
            FaultKind::Burst => FaultSpec::clean().burst(1e-3, 0.25, 0.5),
            FaultKind::Slip => FaultSpec::clean().slip(2e-3),
            FaultKind::Duplicate => FaultSpec::clean().duplicate(2e-3),
            FaultKind::Truncate => FaultSpec::clean().truncate(2e-3, 8),
            FaultKind::Abort => FaultSpec::clean().abort(2e-3),
            FaultKind::SpuriousFlag => FaultSpec::clean().spurious_flag(2e-3),
            FaultKind::Stall => FaultSpec::clean().stall(0.1, 8),
            FaultKind::TransferLoss => FaultSpec::clean().transfer_loss(0.3),
        }
    };
    let input: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(37) >> 3) as u8)
        .collect();

    for kind in FaultKind::ALL {
        // `out` carries the corrupted stream for the byte-stream kinds;
        // `gates` carries the per-call decision sequence for the
        // time-domain kinds (stall storms, transfer loss).
        let run = |seed: u64| {
            let mut plan = spec_for(kind)
                .compile(seed)
                .expect("canonical specs are valid");
            let mut out = Vec::new();
            let mut gates = Vec::new();
            match kind {
                FaultKind::Stall => {
                    for _ in 0..2000 {
                        gates.push(plan.stall_gate());
                    }
                    plan.release_stall();
                }
                FaultKind::TransferLoss => {
                    for _ in 0..2000 {
                        gates.push(plan.lose_transfer());
                    }
                }
                _ => plan.corrupt_into(&input, &mut out),
            }
            (out, gates, plan.stats())
        };
        let (out_a, gates_a, stats_a) = run(0xFA17);
        let (out_b, gates_b, stats_b) = run(0xFA17);
        let (out_c, gates_c, _) = run(0xFA18);
        assert!(
            stats_a.count(kind) > 0,
            "{}: the canonical spec must fire its own kind",
            kind.name()
        );
        assert_eq!(out_a, out_b, "{}: same seed, same bytes", kind.name());
        assert_eq!(
            gates_a,
            gates_b,
            "{}: same seed, same schedule",
            kind.name()
        );
        assert_eq!(stats_a, stats_b, "{}: same seed, same counts", kind.name());
        assert_ne!(
            (out_a, gates_a),
            (out_c, gates_c),
            "{}: a different seed must perturb the schedule",
            kind.name()
        );
    }
}

/// Datagram lengths for a window past the transmitter's 64 KiB wire
/// high-water mark, so sends pump the line and stall storms hold it.
fn window_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(40usize..1500, 96..160)
}

/// Datagrams of the given lengths; every 16th octet of a datagram is a
/// flag or an escape, so stuffing expands the wire.
fn window(lens: &[usize]) -> Vec<Vec<u8>> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            (0..len)
                .map(|j| match j % 16 {
                    3 => 0x7E,
                    11 => 0x7D,
                    _ => (i * 31 + j * 7) as u8,
                })
                .collect()
        })
        .collect()
}

/// Send `frames` over a simplex link, optionally over an STM-1 path
/// and impaired by `plan`, and run it to drain.
fn window_link(frames: &[Vec<u8>], plan: Option<FaultPlan>, wide: bool, sonet: bool) -> Link {
    let mut b = LinkBuilder::new().width(if wide {
        DatapathWidth::W32
    } else {
        DatapathWidth::W8
    });
    if let Some(plan) = plan {
        b = b.fault(plan);
    }
    if sonet {
        b = b.sonet(StmLevel::Stm1);
    }
    let mut link = b.build().expect("stall-only links build");
    for f in frames {
        link.send(0x0021, f);
    }
    link
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Storms starting with any probability up to certainty, of any
    // length, hold the line at sends and at drain passes alike: the
    // run still drains, and delivers exactly the window, in order.
    #[test]
    fn stall_storms_never_lose_dup_or_reorder_a_frame_on_a_link(
        lens in window_strategy(),
        p_pct in 1u32..=100,
        max_len in 1u32..32,
        seed in any::<u64>(),
        wide in any::<bool>(),
        sonet in any::<bool>(),
    ) {
        let frames = window(&lens);
        let plan = FaultSpec::clean()
            .stall(f64::from(p_pct) / 100.0, max_len)
            .compile(seed)
            .expect("stall specs are valid");
        let mut link = window_link(&frames, Some(plan), wide, sonet);
        prop_assert!(link.run(100_000).is_ok(), "link wedged under storms");
        let got: Vec<Vec<u8>> = link.deliveries().into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(got, frames);
    }

    // Each offer at the admission boundary (one per send) and at the
    // line (one per pass that found wire bytes) resolves to exactly one
    // of accepted / blocked; a held carry is a stall the plan counted,
    // and storms delay octets but never add or drop one.
    #[test]
    fn stall_attribution_accounts_for_every_offer_on_a_link(
        lens in window_strategy(),
        p_pct in 1u32..=100,
        max_len in 1u32..32,
        seed in any::<u64>(),
        wide in any::<bool>(),
        sonet in any::<bool>(),
    ) {
        let frames = window(&lens);
        let plan = FaultSpec::clean()
            .stall(f64::from(p_pct) / 100.0, max_len)
            .compile(seed)
            .expect("stall specs are valid");
        let mut link = window_link(&frames, Some(plan), wide, sonet);
        prop_assert!(link.run(100_000).is_ok(), "link wedged under storms");
        let b = link.stack().boundary_stats();
        for (i, b) in b.iter().enumerate() {
            prop_assert_eq!(
                b.offered,
                b.accepted + b.blocked,
                "attribution leak at boundary {}: {:?}", i, b
            );
        }
        prop_assert_eq!(b[0].offered, frames.len() as u64);
        let stalls = link
            .stage_stats()
            .into_iter()
            .find(|(name, _)| *name == "fault")
            .map(|(_, s)| s.stall_cycles);
        prop_assert!(
            stalls.is_some_and(|s| b[1].blocked <= s),
            "{} held carries, {:?} stall decisions", b[1].blocked, stalls
        );
        let mut clean = window_link(&frames, None, wide, sonet);
        prop_assert!(clean.run(100_000).is_ok());
        prop_assert_eq!(
            b[1].bytes_out,
            clean.stack().boundary_stats()[1].bytes_out,
            "storms moved a different number of line octets"
        );
    }
}
