//! Property tests on the cycle-accurate pipelines: arbitrary PHY stall
//! patterns, frame mixes and widths never lose, duplicate, reorder or
//! corrupt a byte — the handshake invariants of the hardware design.

use p5_core::rx::RxPipeline;
use p5_core::tx::{TxDescriptor, TxPipeline};
use p5_core::word::Word;
use p5_hdlc::{FcsMode, Framer, FramerConfig};
use p5_ppp::frame::{FrameCodec, PppFrame};
use p5_ppp::protocol::Protocol;
use proptest::prelude::*;

/// The golden wire: `FrameCodec` builds each IPv4 header, `Framer` adds
/// FCS, stuffing and flags.
fn golden_wire(frames: &[Vec<u8>]) -> Vec<u8> {
    let (codec, mut framer) = (FrameCodec::default(), Framer::new(FramerConfig::default()));
    let mut wire = Vec::new();
    for f in frames {
        let body = codec.encode(&PppFrame::datagram(Protocol::Ipv4, f.clone()));
        framer.encode_into(&body, &mut wire);
    }
    wire
}

fn frames_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                2 => Just(0x7Eu8),
                2 => Just(0x7Du8),
                6 => any::<u8>(),
            ],
            1..120,
        ),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tx_wire_is_stall_invariant(
        frames in frames_strategy(),
        stalls in proptest::collection::vec(any::<bool>(), 1..64),
        wide in any::<bool>(),
    ) {
        let width = if wide { 4 } else { 1 };
        let golden = golden_wire(&frames);
        // Cycle model under an arbitrary repeating PHY stall pattern
        // (with at least one ready cycle, or the wire never moves).
        let mut stalls = stalls;
        stalls.push(true);
        let mut tx = TxPipeline::new(width, 0xFF, FcsMode::Fcs32);
        for f in &frames {
            tx.submit(TxDescriptor { protocol: 0x0021, payload: f.clone() }).unwrap();
        }
        let mut wire = Vec::new();
        let mut i = 0usize;
        let mut guard = 0u64;
        while !tx.idle() {
            let ready = stalls[i % stalls.len()];
            i += 1;
            if let Some(w) = tx.clock(ready) {
                prop_assert!(ready, "output while PHY stalled");
                wire.extend_from_slice(w.lanes());
            }
            guard += 1;
            prop_assert!(guard < 3_000_000, "runaway");
        }
        prop_assert_eq!(wire, golden);
    }

    #[test]
    fn rx_is_input_pacing_invariant(
        frames in frames_strategy(),
        gaps in proptest::collection::vec(0u8..4, 1..32),
        wide in any::<bool>(),
    ) {
        let width = if wide { 4usize } else { 1 };
        let wire = golden_wire(&frames);
        let mut rx = RxPipeline::new(width, 0xFF, FcsMode::Fcs32, 4096);
        let mut got = Vec::new();
        let mut gi = 0usize;
        let mut chunks = wire.chunks(width);
        let mut pending: Option<Word> = None;
        let mut guard = 0u64;
        loop {
            // Insert idle gaps between deliveries per the gap pattern.
            for _ in 0..gaps[gi % gaps.len()] {
                rx.clock(None);
            }
            gi += 1;
            if pending.is_none() {
                pending = chunks.next().map(Word::data);
            }
            let feed = if rx.ready() { pending.take() } else { None };
            let exhausted = feed.is_none() && pending.is_none() && chunks.len() == 0;
            rx.clock(feed);
            got.extend(rx.take_frames());
            if exhausted && rx.idle() {
                break;
            }
            guard += 1;
            prop_assert!(guard < 3_000_000, "runaway");
        }
        prop_assert_eq!(got.len(), frames.len());
        for (g, f) in got.iter().zip(&frames) {
            prop_assert_eq!(&g.payload, f);
        }
        prop_assert_eq!(rx.counters().fcs_errors, 0);
    }

    #[test]
    fn escape_gen_stats_are_consistent(
        payload in proptest::collection::vec(any::<u8>(), 1..600),
    ) {
        let mut tx = TxPipeline::new(4, 0xFF, FcsMode::Fcs32);
        let specials = payload.iter().filter(|&&b| b == 0x7E || b == 0x7D).count();
        tx.submit(TxDescriptor { protocol: 0x0021, payload: payload.clone() }).unwrap();
        let mut wire_len = 0usize;
        while !tx.idle() {
            if let Some(w) = tx.clock(true) {
                wire_len += w.len as usize;
            }
        }
        // Conservation: wire = flags(2) + header(4) + payload + fcs(4)
        // + one extra byte per escaped char (incl. any in header/FCS).
        let escapes = tx.escape.escapes_inserted as usize;
        prop_assert!(escapes >= specials);
        prop_assert_eq!(wire_len, 2 + 4 + payload.len() + 4 + escapes);
        // The resynchronisation buffer never exceeded its capacity.
        prop_assert!(tx.escape.stats.max_occupancy <= 16);
    }
}
