//! Channelized SDH: N independent STM-1 tributary paths carried inside
//! one STM-N envelope over a *single* shared bit-error channel — the
//! carrier-side view of [`crate::mux`].  Where [`crate::OcPath`] models
//! one point-to-point line, a [`TributaryGroup`] models the line card's
//! reality: four OC-3s inside an OC-12, or sixteen inside an OC-48,
//! each tributary terminating its own P⁵ link while sharing the fibre.
//!
//! Because the envelope is byte-interleaved (G.707 columns), an error
//! burst on the line smears across *adjacent tributaries* rather than
//! running down one payload — the structural reason channelized SDH
//! degrades gracefully under burst noise, and a property the tests pin.

use crate::channel::BitErrorChannel;
use crate::frame::{FrameReceiver, FrameTransmitter, SectionStats, StmLevel};
use crate::mux::{deinterleave_into, interleave_into};
use crate::path::hand_over;
use crate::scramble::PayloadScrambler;
use p5_stream::{Observable, Snapshot};

/// One tributary's transmission-convergence state: the same
/// scramble → frame → delineate → descramble chain as an
/// [`crate::OcPath`], minus the channel (which the group owns).
struct Tributary {
    tx_scrambler: PayloadScrambler,
    rx_scrambler: PayloadScrambler,
    transmitter: FrameTransmitter,
    receiver: FrameReceiver,
    rx_out: Vec<u8>,
}

impl Tributary {
    fn new() -> Self {
        Tributary {
            tx_scrambler: PayloadScrambler::new(),
            rx_scrambler: PayloadScrambler::new(),
            transmitter: FrameTransmitter::new(StmLevel::Stm1),
            receiver: FrameReceiver::new(StmLevel::Stm1),
            rx_out: Vec::new(),
        }
    }
}

/// N STM-1 tributary paths multiplexed onto one STM-N envelope
/// (N = 4 or 16) over a shared [`BitErrorChannel`].  Time is
/// frame-quantised exactly like [`crate::OcPath`]: one
/// [`TributaryGroup::run_frames`] step moves 125 µs of line time for
/// *every* tributary at once — that simultaneity is what makes a
/// channel group a single schedulable unit in a multi-link runtime.
pub struct TributaryGroup {
    envelope: StmLevel,
    tribs: Vec<Tributary>,
    channel: BitErrorChannel,
    /// One STM-1 line image per tributary and the envelope they
    /// interleave into, reused every frame.
    frames: Vec<Vec<u8>>,
    line: Vec<u8>,
}

impl TributaryGroup {
    /// Build a group carrying `envelope.n()` tributaries.
    ///
    /// # Panics
    ///
    /// Panics if `envelope` is [`StmLevel::Stm1`] — a single STM-1 has
    /// nothing to multiplex; use [`crate::OcPath`] for that.
    pub fn new(envelope: StmLevel, channel: BitErrorChannel) -> Self {
        assert!(
            envelope.n() > 1,
            "channelized carriage needs an STM-4 or STM-16 envelope"
        );
        TributaryGroup {
            envelope,
            tribs: (0..envelope.n()).map(|_| Tributary::new()).collect(),
            channel,
            frames: vec![Vec::new(); envelope.n()],
            line: Vec::new(),
        }
    }

    pub fn envelope(&self) -> StmLevel {
        self.envelope
    }

    /// Number of STM-1 tributaries in the envelope (4 or 16).
    pub fn tributaries(&self) -> usize {
        self.tribs.len()
    }

    /// Per-tributary payload capacity per 125 µs frame, in bytes.
    pub fn payload_per_frame(&self) -> usize {
        StmLevel::Stm1.payload_per_frame()
    }

    pub fn channel(&self) -> &BitErrorChannel {
        &self.channel
    }

    /// Queue transmit bytes on tributary `trib`.
    pub fn send(&mut self, trib: usize, bytes: &[u8]) {
        self.tribs[trib].transmitter.offer_payload(bytes);
    }

    /// Collect bytes tributary `trib` has delivered.
    pub fn recv(&mut self, trib: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.recv_into(trib, &mut out);
        out
    }

    /// Append the bytes tributary `trib` has delivered to `out`.  An
    /// empty `out` trades storage with the tributary instead of copying,
    /// so a carrier that clears and reuses one buffer allocates nothing
    /// per tick.
    pub fn recv_into(&mut self, trib: usize, out: &mut Vec<u8>) {
        hand_over(&mut self.tribs[trib].rx_out, out);
    }

    /// Every tributary receiver is in frame (see [`crate::OcPath::carry`]):
    /// a drain needs no hunt frames.
    pub fn is_aligned(&self) -> bool {
        self.tribs.iter().all(|t| t.receiver.is_aligned())
    }

    /// Delineation/parity statistics for tributary `trib`.
    pub fn section_stats(&self, trib: usize) -> &SectionStats {
        self.tribs[trib].receiver.stats()
    }

    /// Advance the line by `k` frames (k × 125 µs).  Each step emits
    /// one scrambled STM-1 frame per tributary, column-interleaves them
    /// into the STM-N envelope, crosses the shared channel once, and
    /// de-interleaves back into per-tributary receivers.
    pub fn run_frames(&mut self, k: usize) {
        for _ in 0..k {
            for (t, frame) in self.tribs.iter_mut().zip(&mut self.frames) {
                t.transmitter
                    .emit_frame_into(Some(&mut t.tx_scrambler), frame);
            }
            interleave_into(&self.frames, &mut self.line);
            self.channel.transmit(&mut self.line);
            deinterleave_into(&self.line, &mut self.frames);
            for (t, frame) in self.tribs.iter_mut().zip(&self.frames) {
                t.receiver
                    .push_descrambled_into(frame, Some(&mut t.rx_scrambler), &mut t.rx_out);
            }
        }
    }

    /// Frames needed to drain the worst tributary's transmit backlog.
    pub fn frames_to_drain(&self) -> usize {
        self.tribs
            .iter()
            .map(|t| {
                t.transmitter
                    .backlog()
                    .div_ceil(StmLevel::Stm1.payload_per_frame())
            })
            .max()
            .unwrap_or(0)
    }
}

impl Observable for TributaryGroup {
    /// One merged reading across all tributaries plus the shared
    /// channel (exact aggregation via [`Snapshot::merge`]).
    fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new(format!("stm{}-group", self.envelope.n()))
            .counter("tributaries", self.tribs.len() as u64);
        for t in &self.tribs {
            snap.merge(&t.receiver.stats().snapshot());
        }
        snap.merge(&self.channel.stats().snapshot());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_fault::FaultSpec;

    #[test]
    fn clean_group_delivers_every_tributary_independently() {
        let mut g = TributaryGroup::new(StmLevel::Stm4, BitErrorChannel::clean());
        assert_eq!(g.tributaries(), 4);
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0x60 + i; 3000]).collect();
        for (i, d) in data.iter().enumerate() {
            g.send(i, d);
        }
        g.run_frames(g.frames_to_drain() + 2);
        for (i, d) in data.iter().enumerate() {
            let got = g.recv(i);
            assert_eq!(&got[..d.len()], &d[..], "tributary {i}");
            assert_eq!(g.section_stats(i).b1_errors, 0);
        }
    }

    #[test]
    fn stm16_envelope_carries_sixteen() {
        let mut g = TributaryGroup::new(StmLevel::Stm16, BitErrorChannel::clean());
        assert_eq!(g.tributaries(), 16);
        g.send(15, b"last tributary");
        g.run_frames(2);
        assert_eq!(&g.recv(15)[..14], b"last tributary");
        // The other fifteen stay clean — no crosstalk from trib 15.
        for i in 0..15 {
            assert_eq!(g.section_stats(i).b1_errors, 0, "tributary {i}");
        }
    }

    #[test]
    fn envelope_burst_smears_across_tributaries() {
        // A long burst on the shared line hits *interleaved columns*,
        // so with a burst much longer than the tributary count every
        // tributary sees parity errors — the channelized signature.
        let spec = FaultSpec::clean().burst(4e-4, 0.02, 0.5);
        let plan = spec.compile(11).expect("valid spec");
        let mut g = TributaryGroup::new(StmLevel::Stm4, BitErrorChannel::from_plan(plan));
        for i in 0..4 {
            g.send(i, &vec![0x55u8; 20_000]);
        }
        g.run_frames(g.frames_to_drain() + 2);
        let hit = (0..4)
            .filter(|&i| {
                let s = g.section_stats(i);
                s.b1_errors + s.b2_errors > 0
            })
            .count();
        assert!(hit >= 2, "burst stayed on {hit} tributary(s)");
    }

    #[test]
    fn group_matches_independent_stm1_paths_on_clean_line() {
        // On a clean channel the group is payload-identical to four
        // independent OC-3 paths — multiplexing is transparent.
        use crate::path::{ByteLink, OcPath};
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0xA0 | i; 5000]).collect();
        let mut g = TributaryGroup::new(StmLevel::Stm4, BitErrorChannel::clean());
        let mut paths: Vec<OcPath> = (0..4)
            .map(|_| OcPath::new(StmLevel::Stm1, BitErrorChannel::clean()))
            .collect();
        for (i, d) in data.iter().enumerate() {
            g.send(i, d);
            paths[i].send(d);
        }
        let k = g.frames_to_drain() + 2;
        g.run_frames(k);
        for (i, p) in paths.iter_mut().enumerate() {
            p.run_frames(k);
            assert_eq!(g.recv(i), p.recv(), "tributary {i}");
        }
    }

    #[test]
    fn aligned_groups_drain_without_hunt_frames_into_one_kept_buffer() {
        let mut g = TributaryGroup::new(StmLevel::Stm4, BitErrorChannel::clean());
        assert!(!g.is_aligned(), "fresh receivers hunt");
        let mut landed = Vec::new();
        for tick in 0..6usize {
            let data: Vec<Vec<u8>> = (0..4)
                .map(|i| (0..500 * i + tick * 97).map(|j| (j ^ i) as u8).collect())
                .collect();
            for (i, d) in data.iter().enumerate() {
                g.send(i, d);
            }
            let hunt = if g.is_aligned() { 0 } else { 2 };
            assert_eq!(hunt, if tick == 0 { 2 } else { 0 }, "tick {tick}");
            g.run_frames(g.frames_to_drain() + hunt);
            for (i, d) in data.iter().enumerate() {
                landed.clear();
                g.recv_into(i, &mut landed);
                assert_eq!(&landed[..d.len()], &d[..], "tick {tick}, tributary {i}");
                assert!(g.recv(i).is_empty(), "tick {tick}, tributary {i}");
            }
        }
        // A non-empty buffer is appended to.
        g.send(1, b"tail");
        g.run_frames(1);
        landed = b"head".to_vec();
        g.recv_into(1, &mut landed);
        assert_eq!(&landed[..8], b"headtail");
    }

    #[test]
    fn snapshot_merges_tributaries() {
        let mut g = TributaryGroup::new(StmLevel::Stm4, BitErrorChannel::clean());
        g.send(0, b"x");
        g.run_frames(1);
        let snap = g.snapshot();
        assert_eq!(snap.get("tributaries"), Some(4));
        assert_eq!(snap.scope, "stm4-group");
    }

    #[test]
    #[should_panic(expected = "STM-4 or STM-16")]
    fn rejects_stm1_envelope() {
        TributaryGroup::new(StmLevel::Stm1, BitErrorChannel::clean());
    }
}
