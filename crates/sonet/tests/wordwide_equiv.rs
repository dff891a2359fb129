//! Word-wide == bit-serial.  The production scramblers step 64 bits at
//! a time and the framer works in row slices; `common/serial.rs` keeps
//! the per-bit / per-octet forms they replaced.  Every test here drives
//! both with the same input and requires identical octets, identical
//! line images and identical `SectionStats`.

mod common {
    pub mod serial;
}

use common::serial::{
    SerialFrameScrambler, SerialPayloadScrambler, SerialReceiver, SerialTransmitter,
};
use p5_fault::FaultSpec;
use p5_sonet::frame::{C2_PPP_SCRAMBLED, DEFECT_WINDOW, IDLE_FILL};
use p5_sonet::{
    deinterleave, interleave, BitErrorChannel, ByteLink, FrameReceiver, FrameScrambler,
    FrameTransmitter, OcPath, PayloadScrambler, StmLevel, TributaryGroup,
};
use proptest::prelude::*;

const LEVELS: [StmLevel; 3] = [StmLevel::Stm1, StmLevel::Stm4, StmLevel::Stm16];

/// splitmix64 — the tests' own stream of sizes, cuts and payload.
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

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }

    /// A random number of octets, fewer than `n`.
    fn some_bytes(&mut self, n: usize) -> Vec<u8> {
        let len = self.below(n);
        self.bytes(len)
    }
}

/// Apply `f` to `data` piecewise, cutting at `cuts` (any order, clamped).
fn piecewise(data: &mut [u8], cuts: &[usize], mut f: impl FnMut(&mut [u8])) {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
    cuts.sort_unstable();
    let mut rest = data;
    let mut at = 0;
    for c in cuts {
        let (piece, tail) = rest.split_at_mut(c - at);
        f(piece);
        rest = tail;
        at = c;
    }
    f(rest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // x⁴³+1 transmit: slices cut anywhere, after arbitrary prior
    // traffic (so from an arbitrary 43-bit history), equal the
    // bit-serial register.
    #[test]
    fn x43_scramble_matches_serial(
        prior in proptest::collection::vec(any::<u8>(), 0..40),
        data in proptest::collection::vec(any::<u8>(), 0..700),
        cuts in proptest::collection::vec(0usize..700, 0..6),
    ) {
        let mut serial = SerialPayloadScrambler::new();
        let mut wide = PayloadScrambler::new();
        let (mut p1, mut p2) = (prior.clone(), prior);
        serial.scramble(&mut p1);
        wide.scramble(&mut p2);
        prop_assert_eq!(&p1, &p2);
        let mut want = data.clone();
        serial.scramble(&mut want);
        let mut got = data;
        piecewise(&mut got, &cuts, |piece| wide.scramble(piece));
        prop_assert_eq!(got, want);
    }

    // x⁴³+1 receive, same shape — the prior traffic is arbitrary line
    // octets, which is exactly what loads the descrambler's history.
    #[test]
    fn x43_descramble_matches_serial(
        prior in proptest::collection::vec(any::<u8>(), 0..40),
        data in proptest::collection::vec(any::<u8>(), 0..700),
        cuts in proptest::collection::vec(0usize..700, 0..6),
    ) {
        let mut serial = SerialPayloadScrambler::new();
        let mut wide = PayloadScrambler::new();
        let (mut p1, mut p2) = (prior.clone(), prior);
        serial.descramble(&mut p1);
        wide.descramble(&mut p2);
        prop_assert_eq!(&p1, &p2);
        let mut want = data.clone();
        serial.descramble(&mut want);
        let mut got = data;
        piecewise(&mut got, &cuts, |piece| wide.descramble(piece));
        prop_assert_eq!(got, want);
    }

    // Odd-length rows after prior traffic: the two-word step (whole
    // slices), the one-word step (8-octet pieces, below a pair) and the
    // octet step all equal the bit-serial register, from any history.
    #[test]
    fn x43_two_word_step_matches_one_word_step_and_serial(
        prior in proptest::collection::vec(any::<u8>(), 0..40),
        half in 0usize..2160,
        seed in any::<u64>(),
    ) {
        let data = Rng(seed).bytes(2 * half + 1);
        let mut serial = SerialPayloadScrambler::new();
        let (mut pairs, mut words, mut octets) =
            (PayloadScrambler::new(), PayloadScrambler::new(), PayloadScrambler::new());
        let mut p = prior.clone();
        serial.scramble(&mut p);
        for x43 in [&mut pairs, &mut words, &mut octets] {
            let mut p = prior.clone();
            x43.scramble(&mut p);
        }
        let mut want = data.clone();
        serial.scramble(&mut want);
        let mut by_pairs = data.clone();
        pairs.scramble(&mut by_pairs);
        let mut by_words = data.clone();
        by_words.chunks_mut(8).for_each(|word| words.scramble(word));
        let by_octets: Vec<u8> = data.iter().map(|&b| octets.scramble_byte(b)).collect();
        prop_assert_eq!(&by_pairs, &want);
        prop_assert_eq!(&by_words, &want);
        prop_assert_eq!(&by_octets, &want);
        // The three registers end in the same state: six zero octets
        // read all 43 bits of it back out.
        let mut want = [0u8; 6];
        serial.scramble(&mut want);
        for x43 in [&mut pairs, &mut words, &mut octets] {
            let mut next = [0u8; 6];
            x43.scramble(&mut next);
            prop_assert_eq!(next, want);
        }
    }

    // The octet step and the word step are the same register.
    #[test]
    fn x43_octet_steps_match_word_steps(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut by_octet = PayloadScrambler::new();
        let mut by_word = PayloadScrambler::new();
        let stepped: Vec<u8> = data.iter().map(|&b| by_octet.scramble_byte(b)).collect();
        let mut sliced = data;
        by_word.scramble(&mut sliced);
        prop_assert_eq!(&stepped, &sliced);
        let unstepped: Vec<u8> = stepped.iter().map(|&b| by_octet.descramble_byte(b)).collect();
        by_word.descramble(&mut sliced);
        prop_assert_eq!(unstepped, sliced);
    }

    // 1+x⁶+x⁷: the table applied in chunks from any phase, with skips,
    // equals the LFSR clocked bit by bit.
    #[test]
    fn frame_scrambler_matches_serial(
        skip in 0usize..400,
        data in proptest::collection::vec(any::<u8>(), 0..700),
        cuts in proptest::collection::vec(0usize..700, 0..6),
    ) {
        let mut serial = SerialFrameScrambler::new();
        let mut wide = FrameScrambler::new();
        for at in 0..skip {
            prop_assert_eq!(FrameScrambler::key_at(at), serial.keystream_byte());
        }
        wide.skip(skip);
        let mut want = data.clone();
        serial.apply(&mut want);
        let mut got = data;
        piecewise(&mut got, &cuts, |piece| wide.apply(piece));
        prop_assert_eq!(got, want);
        prop_assert_eq!(wide.keystream_byte(), serial.keystream_byte());
    }

    // One stride-N pass per tributary == the `c % n` / `c / n` form.
    #[test]
    fn interleave_matches_index_formula(seed in any::<u64>(), sixteen in any::<bool>()) {
        let n = if sixteen { 16 } else { 4 };
        let mut rng = Rng(seed);
        let tribs: Vec<Vec<u8>> = (0..n).map(|_| rng.bytes(2430)).collect();
        let line = interleave(&tribs);
        prop_assert_eq!(&line, &common::serial::interleave(&tribs));
        let line = rng.bytes(2430 * n);
        prop_assert_eq!(deinterleave(&line, n), common::serial::deinterleave(&line, n));
    }
}

/// Both framers side by side: every operation goes to both, every line
/// image is compared as it is emitted.
struct Pair {
    level: StmLevel,
    tx: FrameTransmitter,
    x43: PayloadScrambler,
    oracle_tx: SerialTransmitter,
    oracle_x43: SerialPayloadScrambler,
}

impl Pair {
    fn new(level: StmLevel) -> Self {
        Pair {
            level,
            tx: FrameTransmitter::new(level),
            x43: PayloadScrambler::new(),
            oracle_tx: SerialTransmitter::new(level),
            oracle_x43: SerialPayloadScrambler::new(),
        }
    }

    fn offer(&mut self, bytes: &[u8]) {
        self.tx.offer_payload(bytes);
        self.oracle_tx.offer_payload(bytes);
    }

    /// One frame from each; identical, or the test ends here.
    fn emit(&mut self, line: &mut Vec<u8>) {
        self.tx.emit_frame_into(Some(&mut self.x43), line);
        let want = self
            .oracle_tx
            .emit_frame_scrambled(Some(&mut self.oracle_x43));
        assert!(*line == want, "{:?}: line image differs", self.level);
        assert_eq!(self.tx.backlog(), self.oracle_tx.backlog());
        assert_eq!(
            self.tx.payload_bytes_sent(),
            self.oracle_tx.payload_bytes_sent
        );
        assert_eq!(self.tx.fill_bytes_sent(), self.oracle_tx.fill_bytes_sent);
    }
}

/// The supervision script: ragged offers, REI backlog, RDI, path AIS,
/// a flipped line bit, two smashed framings (out of frame, re-hunt) —
/// then the whole line pushed through both receivers in ragged cuts
/// starting mid-frame.
fn framer_scenario(level: StmLevel, seed: u64) {
    let mut rng = Rng(seed);
    let cap = level.payload_per_frame();
    let frame_bytes = level.frame_bytes();
    let mut pair = Pair::new(level);
    let mut stream = Vec::new();
    let mut line = Vec::new();
    for k in 0..16 {
        // Sometimes nothing (an all-fill SPE), sometimes more than a
        // frame holds (a backlog that spans frames and offers).
        match rng.below(4) {
            0 => {}
            1 => pair.offer(&rng.some_bytes(40)),
            _ => pair.offer(&rng.some_bytes(2 * cap)),
        }
        match k {
            2 => {
                pair.tx.report_remote_errors(11);
                pair.oracle_tx.report_remote_errors(11);
            }
            3 | 5 => {
                pair.tx.send_rdi = k == 3;
                pair.oracle_tx.send_rdi = k == 3;
            }
            4 => {
                pair.tx.send_path_ais(2);
                pair.oracle_tx.send_path_ais(2);
            }
            9 => {
                pair.tx.path_trace = 0x42;
                pair.oracle_tx.path_trace = 0x42;
            }
            _ => {}
        }
        pair.emit(&mut line);
        match k {
            6 => line[frame_bytes / 2] ^= 0x10,           // payload area
            7 => line[8 * level.row_bytes() + 2] ^= 0x01, // row 8, SOH column
            11 | 12 => line[1] = 0x00,                    // two bad framings in a row
            _ => {}
        }
        stream.extend_from_slice(&line);
    }

    let mut rx = FrameReceiver::new(level);
    let mut oracle_rx = SerialReceiver::new(level);
    rx.expected_section_trace = Some(0x01);
    oracle_rx.expected_section_trace = Some(0x01);
    rx.expected_path_trace = Some(0x89);
    oracle_rx.expected_path_trace = Some(0x89);
    let mut rest = &stream[rng.below(frame_bytes)..];
    let mut out = Vec::new();
    while !rest.is_empty() {
        // Mostly short of a frame, sometimes a few octets (so the hunt
        // signature straddles pushes), sometimes several frames.
        let cut = match rng.below(6) {
            0 => 1 + rng.below(8),
            1 => frame_bytes + rng.below(2 * frame_bytes),
            _ => 1 + rng.below(frame_bytes),
        }
        .min(rest.len());
        let (piece, tail) = rest.split_at(cut);
        out.clear();
        rx.push_into(piece, &mut out);
        assert!(
            out == oracle_rx.push(piece),
            "{level:?}: recovered payload differs"
        );
        assert_eq!(rx.stats(), oracle_rx.stats(), "{level:?}");
        rest = tail;
    }
    let stats = rx.stats();
    assert_eq!(stats.hunts, 2, "{level:?}: locked, lost frame, locked");
    assert_eq!(stats.oof_events, 1);
    assert_eq!(stats.path_ais_frames, 2);
    assert_eq!(stats.remote_errors, 11);
    assert!(stats.b1_errors >= 2 && stats.b3_errors >= 1 && stats.path_trace_mismatches >= 1);
    // Same defects in the same order (the production log keeps the
    // most recent window of them).
    let defects = rx.poll_defects();
    let want = &oracle_rx.defects[oracle_rx.defects.len().saturating_sub(DEFECT_WINDOW)..];
    assert_eq!(defects, want);
}

#[test]
fn framer_matches_serial_oracle_on_every_level() {
    for (i, level) in LEVELS.into_iter().enumerate() {
        for seed in 0..3 {
            framer_scenario(level, 1000 * i as u64 + seed);
        }
    }
}

/// The hunt signature (A1 ×3N, A2) straddling a push boundary at every
/// possible split, and a stream dripped in one octet at a time.
#[test]
fn hunt_across_push_boundaries_matches_serial_oracle() {
    for level in [StmLevel::Stm1, StmLevel::Stm4] {
        let frame_bytes = level.frame_bytes();
        let mut pair = Pair::new(level);
        let mut rng = Rng(7);
        let mut stream = Vec::new();
        let mut line = Vec::new();
        for _ in 0..3 {
            pair.offer(&rng.some_bytes(2 * level.payload_per_frame()));
            pair.emit(&mut line);
            stream.extend_from_slice(&line);
        }
        let stream = &stream[frame_bytes / 3..];
        let boundary = frame_bytes - frame_bytes / 3; // frame 1's first A1
        let agree = |cuts: &mut dyn Iterator<Item = usize>| {
            let mut rx = FrameReceiver::new(level);
            let mut oracle_rx = SerialReceiver::new(level);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut at = 0;
            for cut in cuts.chain([stream.len()]) {
                rx.push_into(&stream[at..cut], &mut got);
                want.extend(oracle_rx.push(&stream[at..cut]));
                at = cut;
            }
            assert!(got == want, "{level:?}: recovered payload differs");
            assert_eq!(rx.stats(), oracle_rx.stats());
            assert_eq!((rx.stats().hunts, rx.stats().frames_ok), (1, 2));
        };
        for cut in boundary - 2..boundary + 3 * level.n() + 3 {
            agree(&mut [cut].into_iter());
            agree(&mut [cut - 1, cut, cut + 1].into_iter());
        }
        agree(&mut (1..boundary + 3 * frame_bytes / 2));
    }
}

/// A whole `OcPath` over a 1e-5 BER channel against the oracle chain
/// assembled by hand around an identically seeded channel.
#[test]
fn noisy_path_matches_serial_oracle_on_every_level() {
    for level in LEVELS {
        let mut rng = Rng(level.n() as u64);
        let spec = FaultSpec::clean().ber(1e-5);
        let mut path = OcPath::new(
            level,
            BitErrorChannel::from_plan(spec.clone().compile(9).unwrap()),
        );
        let mut channel = BitErrorChannel::from_plan(spec.compile(9).unwrap());
        let mut tx = SerialTransmitter::new(level);
        let mut rx = SerialReceiver::new(level);
        let (mut tx_x43, mut rx_x43) =
            (SerialPayloadScrambler::new(), SerialPayloadScrambler::new());
        let mut got = Vec::new();
        for _ in 0..6 {
            let wire = rng.some_bytes(3 * level.payload_per_frame());
            tx.offer_payload(&wire);
            let mut want = Vec::new();
            while tx.backlog() > 0 {
                let mut line = tx.emit_frame_scrambled(Some(&mut tx_x43));
                channel.transmit(&mut line);
                let mut payload = rx.push(&line);
                rx_x43.descramble(&mut payload);
                want.extend(payload);
            }
            path.send(&wire);
            path.run_frames(path.frames_to_drain());
            got.clear();
            path.recv_into(&mut got);
            assert!(got == want, "{level:?}: recovered payload differs");
            assert_eq!(path.section_stats(), rx.stats(), "{level:?}");
        }
        assert_eq!(path.channel().stats(), channel.stats());
        if level == StmLevel::Stm16 {
            // ~3 expected hits per frame: the parity checks saw them.
            assert!(path.section_stats().b1_errors > 0);
        }
    }
}

/// `OcPath::carry_into`, flushing and not, against the oracle chain
/// with the same frame counts: the carried octets go onto the line
/// straight from the caller's slice and only the part short of a frame
/// is queued, in both RFC 2615 and RFC 1619 (no x⁴³+1) modes.
#[test]
fn carried_path_matches_serial_oracle_in_both_modes() {
    for level in LEVELS {
        for scrambled in [true, false] {
            let cap = level.payload_per_frame();
            let mut rng = Rng(level.n() as u64 + 100);
            let path = OcPath::new(level, BitErrorChannel::clean());
            let mut path = if scrambled {
                path
            } else {
                path.without_payload_scrambling()
            };
            let mut tx = SerialTransmitter::new(level);
            let mut rx = SerialReceiver::new(level);
            let (mut tx_x43, mut rx_x43) =
                (SerialPayloadScrambler::new(), SerialPayloadScrambler::new());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut frames_run = 0;
            for i in 0..14 {
                let wire = rng.some_bytes([40, cap, 3 * cap][i % 3]);
                let flush = rng.below(3) > 0;
                tx.offer_payload(&wire);
                let frames = match (flush, tx.backlog().div_ceil(cap)) {
                    (false, _) => tx.backlog() / cap,
                    (true, 0) => 0,
                    (true, k) if frames_run > 0 => k,
                    (true, k) => k + 2,
                };
                for _ in 0..frames {
                    let x43 = scrambled.then_some(&mut tx_x43);
                    let mut payload = rx.push(&tx.emit_frame_scrambled(x43));
                    if scrambled {
                        rx_x43.descramble(&mut payload);
                    }
                    want.extend(payload);
                }
                frames_run += frames;
                path.carry_into(&wire, flush, &mut got);
                let tag = format!("{level:?}, scrambled {scrambled}, carry {i}");
                assert!(got == want, "{tag}: recovered payload differs");
                assert_eq!(path.transmitter().backlog(), tx.backlog(), "{tag}");
                assert_eq!(path.transmitter().frames_emitted(), frames_run as u64);
                assert_eq!(path.section_stats(), rx.stats(), "{tag}");
            }
        }
    }
}

/// A channelized STM-4 group over a noisy envelope against four oracle
/// chains interleaved by hand around an identically seeded channel: each
/// tributary's keyed passes recover the oracle's payload and parity
/// counts exactly.
#[test]
fn tributary_group_matches_serial_oracle() {
    let envelope = StmLevel::Stm4;
    let tribs = envelope.n();
    let cap = StmLevel::Stm1.payload_per_frame();
    let spec = FaultSpec::clean().ber(2e-5);
    let mut group = TributaryGroup::new(
        envelope,
        BitErrorChannel::from_plan(spec.clone().compile(21).unwrap()),
    );
    let mut channel = BitErrorChannel::from_plan(spec.compile(21).unwrap());
    let mut oracle: Vec<_> = (0..tribs)
        .map(|_| {
            (
                SerialTransmitter::new(StmLevel::Stm1),
                SerialPayloadScrambler::new(),
                SerialReceiver::new(StmLevel::Stm1),
                SerialPayloadScrambler::new(),
            )
        })
        .collect();
    let mut want = vec![Vec::new(); tribs];
    let mut rng = Rng(77);
    for _ in 0..5 {
        for (t, (tx, ..)) in oracle.iter_mut().enumerate() {
            let wire = rng.some_bytes(3 * cap);
            tx.offer_payload(&wire);
            group.send(t, &wire);
        }
        let k = group.frames_to_drain() + 1;
        for _ in 0..k {
            let frames: Vec<Vec<u8>> = oracle
                .iter_mut()
                .map(|(tx, tx_x43, ..)| tx.emit_frame_scrambled(Some(tx_x43)))
                .collect();
            let mut line = common::serial::interleave(&frames);
            channel.transmit(&mut line);
            let frames = common::serial::deinterleave(&line, tribs);
            for ((_, _, rx, rx_x43), (frame, want)) in
                oracle.iter_mut().zip(frames.iter().zip(&mut want))
            {
                let mut payload = rx.push(frame);
                rx_x43.descramble(&mut payload);
                want.extend(payload);
            }
        }
        group.run_frames(k);
        for (t, want) in want.iter_mut().enumerate() {
            assert!(group.recv(t) == *want, "tributary {t}: payload differs");
            assert_eq!(group.section_stats(t), oracle[t].2.stats(), "tributary {t}");
            want.clear();
        }
    }
    assert_eq!(group.channel().stats(), channel.stats());
    let hit: u64 = (0..tribs).map(|t| group.section_stats(t).b3_errors).sum();
    assert!(hit > 0, "the noise reached the path parity");
}

#[test]
fn golden_keystream_octets_and_period() {
    let mut s = FrameScrambler::new();
    let key: Vec<u8> = (0..3 * 127).map(|_| s.keystream_byte()).collect();
    assert_eq!(key[..8], [0xFE, 0x04, 0x18, 0x51, 0xE4, 0x59, 0xD4, 0xFA]);
    assert_eq!(key[..127], key[127..254]);
    for shorter in 1..127 {
        assert_ne!(key[..127], key[shorter..shorter + 127], "period {shorter}");
    }
}

#[test]
fn golden_x43_impulse_echoes_43_bits_later() {
    let bit = |buf: &[u8], n: usize| buf[n / 8] >> (7 - n % 8) & 1;
    // Receive: out[n] = in[n] ^ in[n-43] — the impulse and one echo.
    let mut buf = [0u8; 32];
    buf[0] = 0x80;
    PayloadScrambler::new().descramble(&mut buf);
    for n in 0..256 {
        assert_eq!(bit(&buf, n), u8::from(n == 0 || n == 43), "rx bit {n}");
    }
    // Transmit: out[n] = in[n] ^ out[n-43] — an echo every 43 bits.
    let mut buf = [0u8; 32];
    buf[0] = 0x80;
    PayloadScrambler::new().scramble(&mut buf);
    for n in 0..256 {
        assert_eq!(bit(&buf, n), u8::from(n % 43 == 0), "tx bit {n}");
    }
}

/// RFC 2615: C2 = 0x16 announces x⁴³+1 scrambling, and the scrambler
/// runs over the whole SPE payload, fill included — so an idle line
/// does not carry 0x7E octets.
#[test]
fn golden_c2_label_and_scrambled_fill() {
    for level in LEVELS {
        let (row, soh) = (level.row_bytes(), level.soh_bytes());
        let mut tx = FrameTransmitter::new(level);
        let mut x43 = PayloadScrambler::new();
        let mut f = tx.emit_frame_scrambled(Some(&mut x43));
        let mut frame_sync = SerialFrameScrambler::new();
        let mut row0_soh = vec![0u8; soh];
        frame_sync.apply(&mut row0_soh); // clocks under the unscrambled SOH
        frame_sync.apply(&mut f[soh..]);
        assert_eq!(f[2 * row + soh], C2_PPP_SCRAMBLED);
        assert_eq!(C2_PPP_SCRAMBLED, 0x16);
        let payload = &mut f[soh + 1..row];
        let fill = payload.iter().filter(|&&b| b == IDLE_FILL).count();
        assert!(fill < payload.len() / 2, "{level:?}: {fill} flag octets");
        // ...and the far end's descrambler turns it back into flags.
        PayloadScrambler::new().descramble(payload);
        assert!(payload.iter().all(|&b| b == IDLE_FILL));
    }
}
