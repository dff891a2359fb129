//! The fused receiver against the staged Escape Detect on wire no
//! conforming transmitter sends: runts, giants, junk, irregular `7D 7D`
//! escapes and RFC 1662 aborts (`7D 7E`), ingested in random chunks.
//! `prop_fused_equiv.rs` only ever sends conforming wire, so an abort —
//! an escape that is never decoded — is covered here.

use p5_core::{DatapathWidth, ReceivedFrame, P5};
use p5_hdlc::{Framer, FramerConfig, ESCAPE, FLAG};
use p5_stream::WireBuf;

/// splitmix64: a seeded stream with no dependency on `rand`'s layout.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Octets biased toward flags and escapes.
    fn body(&mut self, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| match self.below(8) {
                0 => FLAG,
                1 => ESCAPE,
                _ => self.next() as u8,
            })
            .collect()
    }
}

/// One seed's hostile wire image and how many aborts it holds.
fn hostile_wire(seed: u64) -> (Vec<u8>, usize) {
    let mut rng = Rng(seed);
    let mut framer = Framer::new(FramerConfig::default());
    let frame = |rng: &mut Rng, framer: &mut Framer, len: usize| {
        let mut body = vec![0xFF, 0x03, 0x00, 0x21];
        body.extend(rng.body(len));
        framer.encode(&body)
    };
    let mut wire = Vec::new();
    let mut aborts = 0;
    for _ in 0..40 {
        match rng.below(7) {
            0 | 1 => {
                let len = rng.below(200);
                wire.extend(frame(&mut rng, &mut framer, len));
            }
            // Runt: fewer octets than the FCS.
            2 => wire.extend([FLAG, rng.next() as u8 | 1, FLAG]),
            // Giant: past the 1504-octet default maximum body.
            3 => {
                let len = 1500 + rng.below(300);
                wire.extend(frame(&mut rng, &mut framer, len));
            }
            // A good frame with `7D 7D` spliced in: an irregular escape.
            4 => {
                let len = 4 + rng.below(60);
                let mut f = frame(&mut rng, &mut framer, len);
                let at = 1 + rng.below(f.len() - 2);
                f.splice(at..at, [ESCAPE, ESCAPE]);
                wire.extend(f);
            }
            // Abort: a partial frame closed by `7D 7E`.
            5 => {
                let len = rng.below(40);
                wire.push(FLAG);
                wire.extend(rng.body(len).into_iter().filter(|&b| b != ESCAPE));
                wire.extend([ESCAPE, FLAG]);
                aborts += 1;
            }
            // Junk, then idle fill.
            _ => {
                let len = rng.below(30);
                wire.extend(rng.body(len));
                wire.extend(std::iter::repeat_n(FLAG, rng.below(4)));
            }
        }
    }
    wire.push(FLAG);
    (wire, aborts)
}

fn payloads(frames: Vec<ReceivedFrame>) -> Vec<(u16, Vec<u8>)> {
    frames
        .into_iter()
        .map(|f| (f.protocol, f.payload))
        .collect()
}

#[test]
fn fused_receiver_matches_staged_escape_detect_on_hostile_wire() {
    for seed in 0..300u64 {
        let (wire, aborts) = hostile_wire(seed);
        for width in [DatapathWidth::W8, DatapathWidth::W32] {
            let mut staged = P5::new(width);
            staged.fused_enabled = false;
            staged.put_wire_in(&wire);
            staged.run_until_idle(u64::MAX);

            let mut fused = P5::new(width);
            let mut buf = WireBuf::new();
            buf.push_slice(&wire);
            let mut chunks = Rng(!seed);
            while !buf.is_empty() {
                let chunk = 1 + chunks.below(97);
                fused
                    .fused_ingest_wire(&mut buf, chunk)
                    .expect("plain duty keeps the fused receiver engaged");
            }

            let ctx = format!("seed {seed}, {width:?}, {aborts} aborts");
            assert_eq!(
                payloads(fused.take_received()),
                payloads(staged.take_received()),
                "{ctx}"
            );
            assert_eq!(fused.rx_counters(), staged.rx_counters(), "{ctx}");
            let (f, s) = (&fused.rx.escape, &staged.rx.escape);
            assert_eq!(f.frames_delineated, s.frames_delineated, "{ctx}");
            assert_eq!(f.idle_flags, s.idle_flags, "{ctx}");
            assert_eq!(f.escapes_removed, s.escapes_removed, "{ctx}");
        }
    }
}
