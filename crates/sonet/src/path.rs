//! The byte-pipe abstraction the P⁵ plugs into ("a simplified physical
//! layer interface to interlink to the most common optical transmission
//! systems"), and a full OC path assembling framer → channel → deframer.

use crate::channel::BitErrorChannel;
use crate::frame::{FrameReceiver, FrameTransmitter, SectionStats, StmLevel};
use crate::scramble::PayloadScrambler;

/// A byte-oriented duplex-capable link endpoint: the P⁵'s PHY interface.
pub trait ByteLink {
    /// Offer transmit bytes to the link.
    fn send(&mut self, bytes: &[u8]);
    /// Collect bytes the link has delivered.
    fn recv(&mut self) -> Vec<u8>;
}

/// A trivial lossless loopback link (tests, golden-model comparisons).
#[derive(Debug, Default)]
pub struct LoopbackLink {
    buf: Vec<u8>,
}

impl ByteLink for LoopbackLink {
    fn send(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn recv(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

/// One direction of an OC-3N path: payload bytes are x⁴³+1 scrambled
/// (RFC 2615), mapped into STM-N frames, carried over a bit-error
/// channel, delineated, and descrambled.
///
/// Time is frame-quantised: [`OcPath::run_frames`] moves `k` × 125 µs of
/// line time.
pub struct OcPath {
    level: StmLevel,
    tx_scrambler: PayloadScrambler,
    rx_scrambler: PayloadScrambler,
    transmitter: FrameTransmitter,
    channel: BitErrorChannel,
    receiver: FrameReceiver,
    rx_out: Vec<u8>,
    /// x⁴³+1 scrambling enabled (RFC 2615 mandates it; RFC 1619 links
    /// ran without it).
    scramble_payload: bool,
}

impl OcPath {
    pub fn new(level: StmLevel, channel: BitErrorChannel) -> Self {
        Self {
            level,
            tx_scrambler: PayloadScrambler::new(),
            rx_scrambler: PayloadScrambler::new(),
            transmitter: FrameTransmitter::new(level),
            channel,
            receiver: FrameReceiver::new(level),
            rx_out: Vec::new(),
            scramble_payload: true,
        }
    }

    /// Disable RFC 2615 payload scrambling (RFC 1619 mode).
    pub fn without_payload_scrambling(mut self) -> Self {
        self.scramble_payload = false;
        self
    }

    pub fn level(&self) -> StmLevel {
        self.level
    }

    pub fn section_stats(&self) -> &SectionStats {
        self.receiver.stats()
    }

    pub fn channel(&self) -> &BitErrorChannel {
        &self.channel
    }

    pub fn transmitter(&self) -> &FrameTransmitter {
        &self.transmitter
    }

    /// Advance the line by `k` frames (k × 125 µs), carrying queued
    /// payload across the channel.
    pub fn run_frames(&mut self, k: usize) {
        for _ in 0..k {
            let x43 = if self.scramble_payload {
                Some(&mut self.tx_scrambler)
            } else {
                None
            };
            let mut line = self.transmitter.emit_frame_scrambled(x43);
            self.channel.transmit(&mut line);
            let mut payload = self.receiver.push(&line);
            if self.scramble_payload {
                self.rx_scrambler.descramble(&mut payload);
            }
            self.rx_out.extend(payload);
        }
    }

    /// Frames needed to drain the current transmit backlog.
    pub fn frames_to_drain(&self) -> usize {
        self.transmitter
            .backlog()
            .div_ceil(self.level.payload_per_frame())
    }

    /// Carry one transfer across the path: queue `wire`, advance the
    /// line, return what the far end recovered.  Every SPE the backlog
    /// fills goes out; the last, partly filled one — padded with flag
    /// octets, and followed by two frames because delineation hunts
    /// across a frame boundary — only when `flush`.  Pass `flush = false`
    /// while the source is mid-frame: padding inside an HDLC frame
    /// aborts it at the receiver.
    pub fn carry(&mut self, wire: &[u8], flush: bool) -> Vec<u8> {
        self.send(wire);
        let frames = if flush {
            match self.frames_to_drain() {
                0 => 0,
                k => k + 2,
            }
        } else {
            self.transmitter.backlog() / self.level.payload_per_frame()
        };
        self.run_frames(frames);
        self.recv()
    }
}

impl ByteLink for OcPath {
    fn send(&mut self, bytes: &[u8]) {
        // Scrambling happens at frame-fill time (continuously over data
        // and idle fill), not here.
        self.transmitter.offer_payload(bytes);
    }

    fn recv(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.rx_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_link_round_trips() {
        let mut l = LoopbackLink::default();
        l.send(b"abc");
        l.send(b"def");
        assert_eq!(l.recv(), b"abcdef");
        assert!(l.recv().is_empty());
    }

    #[test]
    fn clean_path_delivers_payload_in_order() {
        let mut path = OcPath::new(StmLevel::Stm1, BitErrorChannel::clean());
        let data: Vec<u8> = (0..255u8).cycle().take(5000).collect();
        path.send(&data);
        path.run_frames(4);
        let got = path.recv();
        assert!(got.len() >= data.len());
        assert_eq!(&got[..data.len()], &data[..]);
        assert_eq!(path.section_stats().b1_errors, 0);
    }

    #[test]
    fn rfc1619_mode_skips_payload_scrambling() {
        let mut path =
            OcPath::new(StmLevel::Stm1, BitErrorChannel::clean()).without_payload_scrambling();
        let data = vec![0x42u8; 1000];
        path.send(&data);
        path.run_frames(2);
        let got = path.recv();
        assert_eq!(&got[..1000], &data[..]);
    }

    #[test]
    fn noisy_path_reports_parity_errors() {
        let mut path = OcPath::new(StmLevel::Stm1, BitErrorChannel::new(1e-4, 1, 3));
        path.send(&vec![0u8; 20_000]);
        path.run_frames(12);
        let stats = path.section_stats();
        assert!(stats.b1_errors + stats.b2_errors > 0, "stats: {stats:?}");
    }

    #[test]
    fn frames_to_drain_matches_capacity() {
        let mut path = OcPath::new(StmLevel::Stm1, BitErrorChannel::clean());
        let cap = StmLevel::Stm1.payload_per_frame();
        path.send(&vec![1u8; cap * 3 + 1]);
        assert_eq!(path.frames_to_drain(), 4);
        path.run_frames(4);
        assert_eq!(path.frames_to_drain(), 0);
    }
}
