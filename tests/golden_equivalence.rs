//! Property-based cross-checks: the cycle-accurate hardware model and
//! the RFC-level codecs — `p5_ppp::frame::FrameCodec` for the header,
//! `p5_hdlc::{Framer, Deframer}` for FCS, stuffing and flags — must be
//! the same function, and the device's batched wire ingest must be
//! byte-for-byte equivalent to per-byte delivery.

use p5_core::{DatapathWidth, P5};
use p5_hdlc::{DeframeEvent, Deframer, DeframerConfig, Framer, FramerConfig};
use p5_ppp::frame::{FrameCodec, PppFrame};
use p5_ppp::protocol::Protocol;
use proptest::prelude::*;

/// The golden transmitter: append one IPv4 datagram's wire image.
fn golden_encode(framer: &mut Framer, payload: &[u8], wire: &mut Vec<u8>) {
    let frame = PppFrame::datagram(Protocol::Ipv4, payload.to_vec());
    framer.encode_into(&FrameCodec::default().encode(&frame), wire);
}

/// The golden receiver: the payloads of the good frames on `wire`.
fn golden_decode(wire: &[u8]) -> Vec<Vec<u8>> {
    let mut deframer = Deframer::new(DeframerConfig {
        max_body: 4096,
        ..Default::default()
    });
    let codec = FrameCodec::default();
    deframer
        .push_bytes(wire)
        .into_iter()
        .filter_map(|ev| match ev {
            DeframeEvent::Frame(body) => codec.decode(&body).ok().map(|f| f.payload),
            _ => None,
        })
        .collect()
}

fn nasty_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            2 => Just(0x7Eu8),
            2 => Just(0x7Du8),
            5 => any::<u8>(),
        ],
        1..400,
    )
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cycle_tx_equals_behavioural_tx(
        payloads in proptest::collection::vec(nasty_payload(), 1..6),
        wide in any::<bool>(),
    ) {
        let width = if wide { DatapathWidth::W32 } else { DatapathWidth::W8 };
        let mut p5 = P5::new(width);
        let mut sw = Framer::new(FramerConfig::default());
        let mut golden = Vec::new();
        for p in &payloads {
            p5.submit(0x0021, p.clone()).unwrap();
            golden_encode(&mut sw, p, &mut golden);
        }
        p5.run_until_idle(10_000_000);
        prop_assert_eq!(p5.take_wire_out(), golden);
    }

    #[test]
    fn cycle_rx_equals_behavioural_rx(
        payloads in proptest::collection::vec(nasty_payload(), 1..6),
        wide in any::<bool>(),
        idle_flags in 0usize..8,
    ) {
        let width = if wide { DatapathWidth::W32 } else { DatapathWidth::W8 };
        let mut sw = Framer::new(FramerConfig::default());
        let mut wire = vec![0x7E; idle_flags];
        for p in &payloads {
            golden_encode(&mut sw, p, &mut wire);
        }
        let mut hw = P5::new(width);
        hw.put_wire_in(&wire);
        hw.run_until_idle(10_000_000);
        let hw_frames: Vec<Vec<u8>> = hw.take_received().into_iter().map(|f| f.payload).collect();
        let sw_frames = golden_decode(&wire);
        prop_assert_eq!(&hw_frames, &sw_frames);
        prop_assert_eq!(hw_frames, payloads);
    }

    #[test]
    fn corrupted_wire_never_delivers_wrong_bytes(
        payload in nasty_payload(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..4),
    ) {
        let mut sw = Framer::new(FramerConfig::default());
        let mut wire = Vec::new();
        golden_encode(&mut sw, &payload, &mut wire);
        for (pos, mask) in &flips {
            let i = pos.index(wire.len());
            wire[i] ^= mask;
        }
        // A corrupted closing flag leaves the receiver mid-frame; on a
        // real link idle flags follow and close it out.
        wire.extend_from_slice(&[0x7E; 8]);
        let mut hw = P5::new(DatapathWidth::W32);
        hw.put_wire_in(&wire);
        hw.run_until_idle(10_000_000);
        for f in hw.take_received() {
            // Anything delivered must equal the original payload — the
            // flips either left the frame intact (flipped twice on the
            // same bit) or were caught by the FCS.
            prop_assert_eq!(&f.payload, &payload);
        }
    }

    #[test]
    fn wire_chunking_into_p5_is_irrelevant(
        payloads in proptest::collection::vec(nasty_payload(), 1..4),
        chunk in 1usize..9,
    ) {
        let mut sw = Framer::new(FramerConfig::default());
        let mut wire = Vec::new();
        for p in &payloads {
            golden_encode(&mut sw, p, &mut wire);
        }
        let mut whole = P5::new(DatapathWidth::W32);
        whole.put_wire_in(&wire);
        whole.run_until_idle(10_000_000);
        let a: Vec<_> = whole.take_received();

        let mut pieces = P5::new(DatapathWidth::W32);
        for c in wire.chunks(chunk) {
            pieces.put_wire_in(c);
            pieces.run(chunk as u64 * 3);
        }
        pieces.run_until_idle(10_000_000);
        let b: Vec<_> = pieces.take_received();
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
