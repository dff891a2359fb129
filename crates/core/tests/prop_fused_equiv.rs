//! The fused fast path is an *optimisation*, not a behaviour: under any
//! traffic mix, width, and backpressure pattern, a link running the
//! fused frame→stuff→wire / delineate→destuff→deliver paths delivers
//! exactly what the staged cycle-accurate pipeline delivers — the same
//! frames in the same order, the same flow totals, and the same
//! per-frame lifecycle trace events.
//!
//! Deliberately out of scope: anything cycle-denominated.  The fused
//! path does not advance `cycles`, so per-cycle occupancy, latency and
//! `StageStats::cycles` are cycle-model-only readings (DESIGN.md §15).

use p5_core::{DatapathWidth, P5};
use p5_stream::{EventKind, FrameId, SharedRecorder, WireBuf};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Everything a run observes that must be pacing- and path-invariant.
#[derive(Debug, PartialEq)]
struct Observed {
    delivered: Vec<(u16, Vec<u8>)>,
    /// Per-frame-id lifecycle event kinds, in per-frame order.
    lifecycles: BTreeMap<FrameId, Vec<EventKind>>,
    frames_sent: u64,
    frames_stuffed: u64,
    escapes_inserted: u64,
    frames_delineated: u64,
    escapes_removed: u64,
    tx_flow: (u64, u64),
    rx_flow: (u64, u64),
    rx_ok: u64,
    rx_errors: u64,
}

/// Device clocks one sweep may spend on the transmitter; the receiver
/// gets twice that, to chew what a whole burst put on the line.
const BURST: usize = 256;

/// Clock `dev` while it holds cycle-model work, at most `budget` times.
fn clock(dev: &mut P5, budget: usize) {
    for _ in 0..budget {
        if !dev.needs_clock() {
            return;
        }
        dev.clock();
    }
}

/// Move every frame the receiver holds into `out`.
fn pop_all(rx: &mut P5, out: &mut Vec<(u16, Vec<u8>)>) {
    while let Some(f) = rx.pop_received() {
        out.push((f.protocol, f.payload));
    }
}

/// Drive a transmitting and a receiving device as one link, each side
/// gated by its own repeating ready pattern, sink first each sweep,
/// until fully drained.  A sweep whose receive gate is up ingests the
/// line, clocks a receiver in cycle-model duty and pops deliveries; one
/// whose transmit gate is up clocks a transmitter in cycle-model duty,
/// drains its wire onto the line and offers frames, each tagged with
/// its id, until the device answers *not now*.
fn run_link(
    fused: bool,
    width: DatapathWidth,
    frames: &[Vec<u8>],
    tx_pattern: &[bool],
    rx_pattern: &[bool],
) -> Observed {
    let rec = SharedRecorder::with_capacity(1 << 15);
    let mut txd = P5::new(width);
    txd.fused_enabled = fused;
    txd.set_trace(Box::new(rec.clone()));
    let mut rxd = P5::new(width);
    rxd.fused_enabled = fused;
    rxd.set_trace(Box::new(rec.clone()));

    let mut line = WireBuf::new();
    let mut delivered = Vec::new();
    let mut next = 0;
    let mut sweeps = 0usize;
    loop {
        if rx_pattern[sweeps % rx_pattern.len()] {
            rxd.ingest_wire(&mut line, usize::MAX);
            clock(&mut rxd, 2 * BURST);
            pop_all(&mut rxd, &mut delivered);
        }
        if tx_pattern[sweeps % tx_pattern.len()] {
            clock(&mut txd, BURST);
            txd.drain_wire_into(&mut line);
            while next < frames.len() && txd.offer_frame(0x0021, &frames[next], next as FrameId + 1)
            {
                next += 1;
            }
        }
        let idle = next == frames.len()
            && line.is_empty()
            && !txd.has_wire_out()
            && !txd.needs_clock()
            && !rxd.needs_clock();
        if idle {
            // The closing sweep moves the last classified frames out.
            pop_all(&mut rxd, &mut delivered);
            break;
        }
        sweeps += 1;
        assert!(sweeps < 200_000, "gated link failed to drain");
    }

    let mut lifecycles: BTreeMap<FrameId, Vec<EventKind>> = BTreeMap::new();
    for ev in rec.events() {
        if let Some(id) = ev.kind.frame_id() {
            lifecycles.entry(id).or_default().push(ev.kind);
        }
    }
    Observed {
        delivered,
        lifecycles,
        frames_sent: txd.tx.control.frames_sent,
        frames_stuffed: txd.tx.escape.frames_stuffed,
        escapes_inserted: txd.tx.escape.escapes_inserted,
        frames_delineated: rxd.rx.escape.frames_delineated,
        escapes_removed: rxd.rx.escape.escapes_removed,
        tx_flow: (
            txd.tx.control.stats.words_out,
            txd.tx.control.stats.bytes_out,
        ),
        rx_flow: (
            rxd.rx.control.stats.words_out,
            rxd.rx.control.stats.bytes_out,
        ),
        rx_ok: rxd.rx_counters().frames_ok,
        rx_errors: rxd.rx_counters().errors(),
    }
}

fn frames_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                2 => Just(0x7Eu8),
                2 => Just(0x7Du8),
                6 => any::<u8>(),
            ],
            0..150,
        ),
        1..8,
    )
}

fn pattern_strategy() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_path_is_equivalent_to_staged_under_backpressure(
        frames in frames_strategy(),
        tx_pattern in pattern_strategy(),
        rx_pattern in pattern_strategy(),
        wide in any::<bool>(),
    ) {
        let width = if wide { DatapathWidth::W32 } else { DatapathWidth::W8 };
        // At least one ready beat per pattern, or nothing ever moves.
        let mut tx_pattern = tx_pattern;
        tx_pattern.push(true);
        let mut rx_pattern = rx_pattern;
        rx_pattern.push(true);
        let fused = run_link(true, width, &frames, &tx_pattern, &rx_pattern);
        let staged = run_link(false, width, &frames, &tx_pattern, &rx_pattern);
        // Identity first (a sharper failure than fused-vs-staged diff):
        // a clean link must deliver every frame intact, both ways.
        let want: Vec<(u16, Vec<u8>)> =
            frames.iter().map(|p| (0x0021, p.clone())).collect();
        prop_assert_eq!(&staged.delivered, &want, "staged reference dropped frames");
        prop_assert_eq!(fused, staged);
    }

    #[test]
    fn fused_and_staged_emit_the_same_wire_bytes(
        frames in frames_strategy(),
        wide in any::<bool>(),
    ) {
        let width = if wide { DatapathWidth::W32 } else { DatapathWidth::W8 };
        let mut fused = P5::new(width);
        let mut staged = P5::new(width);
        staged.fused_enabled = false;
        for p in &frames {
            prop_assert!(fused.fused_submit_wire(0x0021, p, 0));
            staged.submit(0x0021, p.clone()).unwrap();
        }
        staged.run_until_idle(10_000_000);
        prop_assert_eq!(fused.take_wire_out(), staged.take_wire_out());
    }
}
