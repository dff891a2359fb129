//! The byte-pipe abstraction the P⁵ plugs into ("a simplified physical
//! layer interface to interlink to the most common optical transmission
//! systems"), and a full OC path assembling framer → channel → deframer.

use crate::channel::BitErrorChannel;
use crate::frame::{FrameReceiver, FrameTransmitter, RxDefect, SectionStats, StmLevel};
use crate::scramble::PayloadScrambler;

/// A byte-oriented duplex-capable link endpoint: the P⁵'s PHY interface.
pub trait ByteLink {
    /// Offer transmit bytes to the link.
    fn send(&mut self, bytes: &[u8]);
    /// Append the bytes the link has delivered to `out`; the link keeps
    /// its own storage for the next delivery.
    fn recv_into(&mut self, out: &mut Vec<u8>);
    /// [`ByteLink::recv_into`] into a fresh `Vec`.
    fn recv(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.recv_into(&mut out);
        out
    }
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

    fn recv_into(&mut self, out: &mut Vec<u8>) {
        out.append(&mut self.buf);
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
    /// The one line image every frame of this path is built in, crosses
    /// the channel in and is delineated from.
    line: Vec<u8>,
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
            line: Vec::new(),
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

    /// Drain the receive-side defects seen since the last call (see
    /// [`FrameReceiver::poll_defects`]; bounded whether or not anybody
    /// polls).
    pub fn poll_defects(&mut self) -> Vec<RxDefect> {
        self.receiver.poll_defects()
    }

    /// Advance the line by `k` frames (k × 125 µs), carrying queued
    /// payload across the channel.
    pub fn run_frames(&mut self, k: usize) {
        for _ in 0..k {
            let x43 = self.scramble_payload.then_some(&mut self.tx_scrambler);
            self.transmitter.emit_frame_into(x43, &mut self.line);
            self.channel.transmit(&mut self.line);
            // The payload lands in `rx_out` and is descrambled there.
            let landed = self.rx_out.len();
            self.receiver.push_into(&self.line, &mut self.rx_out);
            if self.scramble_payload {
                self.rx_scrambler.descramble(&mut self.rx_out[landed..]);
            }
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
        let mut out = Vec::new();
        self.carry_into(wire, flush, &mut out);
        out
    }

    /// [`OcPath::carry`], appending what the far end recovered to `out`
    /// — the form for a carrier that ferries every tick and keeps one
    /// buffer for it.
    pub fn carry_into(&mut self, wire: &[u8], flush: bool, out: &mut Vec<u8>) {
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
        self.recv_into(out);
    }
}

impl ByteLink for OcPath {
    fn send(&mut self, bytes: &[u8]) {
        // Scrambling happens at frame-fill time (continuously over data
        // and idle fill), not here.
        self.transmitter.offer_payload(bytes);
    }

    fn recv_into(&mut self, out: &mut Vec<u8>) {
        out.append(&mut self.rx_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DEFECT_WINDOW;

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
        let plan = p5_fault::FaultSpec::clean().ber(1e-4).compile(3).unwrap();
        let mut path = OcPath::new(StmLevel::Stm1, BitErrorChannel::from_plan(plan));
        path.send(&vec![0u8; 20_000]);
        path.run_frames(12);
        let stats = path.section_stats();
        assert!(stats.b1_errors + stats.b2_errors > 0, "stats: {stats:?}");
    }

    #[test]
    fn unpolled_defect_log_stays_bounded() {
        // Nothing on the carriage path polls defects; a path that is
        // misprovisioned (or noisy) for its whole life must not grow.
        let mut path = OcPath::new(StmLevel::Stm1, BitErrorChannel::clean());
        path.receiver.expected_path_trace = Some(0x00);
        path.run_frames(100_000);
        assert_eq!(path.section_stats().path_trace_mismatches, 100_000);
        assert_eq!(path.poll_defects().len(), DEFECT_WINDOW);
        assert!(path.poll_defects().is_empty());
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
