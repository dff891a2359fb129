//! Property tests on the stream layer: arbitrary `Stack` compositions
//! under arbitrary per-stage ready-deassertion never lose, duplicate or
//! reorder a frame, and the device's batched wire ingest is
//! byte-for-byte equivalent to per-byte delivery.  (Framer → deframer
//! identity under any chunking is `crates/hdlc/tests/prop_hdlc.rs`.)
//!
//! These are the stream-layer unit tests proper: they exercise custom
//! throttled topologies below `LinkBuilder`, so they use the raw
//! `stack!` escape hatch by design (DESIGN.md §14).

use p5::prelude::*;
use proptest::prelude::*;

fn raw_pattern() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1..16)
}

/// Ensure a stall pattern has at least one ready slot and odd length: a
/// `Stack` sweep draws the gate twice per stage (drain + offer), so an
/// even-length pattern can phase-lock one operation onto a permanently
/// false slot and wedge the stack.
fn odd_pattern(mut v: Vec<bool>) -> Vec<bool> {
    v.push(true);
    if v.len().is_multiple_of(2) {
        v.push(true);
    }
    v
}

/// Frame bodies biased towards flag/escape octets (the stuffing worst
/// case).
fn frames_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                2 => Just(0x7Eu8),
                2 => Just(0x7Du8),
                6 => any::<u8>(),
            ],
            1..80,
        ),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn throttled_pipe_stack_never_loses_dups_or_reorders(
        frames in frames_strategy(),
        p1 in raw_pattern(),
        p2 in raw_pattern(),
        p3 in raw_pattern(),
    ) {
        let (p1, p2, p3) = (odd_pattern(p1), odd_pattern(p2), odd_pattern(p3));
        let mut s = stack![
            Throttle::new(Pipe::with_max_per_call(3), p1),
            Throttle::new(Pipe::new(), p2),
            Throttle::new(Pipe::with_max_per_call(7), p3),
        ];
        for f in &frames {
            s.input().push_frame(f);
        }
        prop_assert!(s.run_until_idle(20_000), "stack wedged under stalls");
        let mut got = Vec::new();
        while let Some((f, meta)) = s.output().pop_frame() {
            prop_assert!(!meta.abort);
            got.push(f);
        }
        prop_assert_eq!(got, frames);
    }

    #[test]
    fn stall_attribution_accounts_for_every_offered_sweep(
        frames in frames_strategy(),
        p1 in raw_pattern(),
        p2 in raw_pattern(),
        p3 in raw_pattern(),
    ) {
        // Every sweep in which a boundary buffer had data on offer must
        // resolve to exactly one of accepted / rejected / blocked — the
        // attribution the stall table is built from.
        let (p1, p2, p3) = (odd_pattern(p1), odd_pattern(p2), odd_pattern(p3));
        let mut s = stack![
            Throttle::new(Pipe::with_max_per_call(2), p1),
            Throttle::new(Pipe::with_max_per_call(5), p2),
            Throttle::new(Pipe::new(), p3),
        ];
        for f in &frames {
            s.input().push_frame(f);
        }
        prop_assert!(s.run_until_idle(20_000), "stack wedged under stalls");
        s.finish();
        for (i, b) in s.boundary_stats().iter().enumerate() {
            prop_assert_eq!(
                b.offered,
                b.accepted + b.rejected + b.blocked,
                "attribution leak at boundary {}: offered {} != {} + {} + {}",
                i, b.offered, b.accepted, b.rejected, b.blocked
            );
        }
        // Totals must account for the payload actually moved.
        let total: usize = frames.iter().map(|f| f.len()).sum();
        let out = s.boundary_stats().last().unwrap();
        prop_assert_eq!(out.bytes_out, total as u64);
    }

    #[test]
    fn batched_wire_ingest_equals_per_byte(frames in frames_strategy()) {
        // Encode once.
        let mut tx = P5::new(DatapathWidth::W32);
        for f in &frames {
            tx.submit(0x0021, f.clone()).unwrap();
        }
        tx.run_until_idle(1_000_000);
        let wire = tx.take_wire_out();

        // Deliver the whole wire image in one batched call...
        let mut rx_batched = P5::new(DatapathWidth::W32);
        rx_batched.put_wire_in(&wire);
        rx_batched.run_until_idle(1_000_000);

        // ...and byte by byte, interleaved with clocks.
        let mut rx_bytewise = P5::new(DatapathWidth::W32);
        for &b in &wire {
            rx_bytewise.put_wire_in(&[b]);
            rx_bytewise.clock();
        }
        rx_bytewise.run_until_idle(1_000_000);

        let batched: Vec<Vec<u8>> = rx_batched
            .take_received()
            .into_iter()
            .map(|f| f.payload)
            .collect();
        let bytewise: Vec<Vec<u8>> = rx_bytewise
            .take_received()
            .into_iter()
            .map(|f| f.payload)
            .collect();
        prop_assert_eq!(&batched, &bytewise);
        prop_assert_eq!(batched, frames);
    }
}
