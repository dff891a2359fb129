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
    /// Append the bytes the link has delivered to `out`.  The link may
    /// trade storage with an empty `out` instead of copying: either way
    /// it has room for the next delivery without a fresh allocation.
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
        self.run_frames_from(k, &mut &[][..]);
    }

    /// [`OcPath::run_frames`], the frames filled from the queue first and
    /// then from the front of `more` (advanced past what they took).
    /// Each side is one keyed pass per payload row: x⁴³+1 and the frame
    /// key go on as the line image is written, and come off as the
    /// payload lands in `rx_out`.
    fn run_frames_from(&mut self, k: usize, more: &mut &[u8]) {
        for _ in 0..k {
            let x43 = self.scramble_payload.then_some(&mut self.tx_scrambler);
            self.transmitter.emit_frame_from(x43, more, &mut self.line);
            self.channel.transmit(&mut self.line);
            let x43 = self.scramble_payload.then_some(&mut self.rx_scrambler);
            self.receiver
                .push_descrambled_into(&self.line, x43, &mut self.rx_out);
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
    /// octets — only when `flush`.  An in-frame receiver delivers each
    /// frame as it arrives, so a flush runs exactly
    /// [`OcPath::frames_to_drain`] frames; only a receiver that is
    /// hunting (before its first lock, or after a loss of frame) gets two
    /// frames more, for delineation to find a frame boundary.  Pass
    /// `flush = false` while the source is mid-frame: padding inside an
    /// HDLC frame aborts it at the receiver.
    pub fn carry(&mut self, wire: &[u8], flush: bool) -> Vec<u8> {
        let mut out = Vec::new();
        self.carry_into(wire, flush, &mut out);
        out
    }

    /// [`OcPath::carry`], appending what the far end recovered to `out`
    /// (into `out`'s place when it is empty, without a copy) — the form
    /// for a carrier that ferries every tick and keeps one buffer for
    /// it.  Same line frames as [`OcPath::carry`]: no hunt frames while
    /// the receiver is in frame.
    ///
    /// `wire` goes onto the line straight from the caller's slice: only
    /// what does not fill a frame (when not flushing) is queued.
    pub fn carry_into(&mut self, wire: &[u8], flush: bool, out: &mut Vec<u8>) {
        let backlog = self.transmitter.backlog() + wire.len();
        let cap = self.level.payload_per_frame();
        let frames = if flush {
            match backlog.div_ceil(cap) {
                0 => 0,
                k if self.receiver.is_aligned() => k,
                k => k + 2,
            }
        } else {
            backlog / cap
        };
        let mut rest = wire;
        self.run_frames_from(frames, &mut rest);
        self.transmitter.offer_payload(rest);
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
        hand_over(&mut self.rx_out, out);
    }
}

/// Move every byte of a receiver's `delivered` buffer onto the end of
/// `out`, leaving `delivered` empty.  An empty `out` takes the storage
/// itself and hands its own capacity back for the next delivery, so the
/// payload is not copied; a non-empty one is appended to.
pub(crate) fn hand_over(delivered: &mut Vec<u8>, out: &mut Vec<u8>) {
    if out.is_empty() {
        std::mem::swap(out, delivered);
    } else {
        out.append(delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{DEFECT_WINDOW, IDLE_FILL};

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

    /// Flush `data` across `path`; returns the line frames it ran and
    /// checks the far end recovered `data` then flag fill to the end of
    /// those frames, exactly.
    fn flush(path: &mut OcPath, data: &[u8]) -> usize {
        let before = path.transmitter().frames_emitted();
        let got = path.carry(data, true);
        let frames = (path.transmitter().frames_emitted() - before) as usize;
        let fill = frames * path.level().payload_per_frame() - data.len();
        assert_eq!(&got[..data.len()], data, "{:?}", path.level());
        assert_eq!(got.len(), data.len() + fill, "{:?}", path.level());
        assert!(got[data.len()..].iter().all(|&b| b == IDLE_FILL));
        frames
    }

    #[test]
    fn a_flush_runs_hunt_frames_only_while_out_of_frame() {
        let level = StmLevel::Stm4;
        let cap = level.payload_per_frame();
        let data: Vec<u8> = (0..cap * 2 + 77).map(|i| (i * 31) as u8).collect();
        let mut path = OcPath::new(level, BitErrorChannel::clean());
        assert!(!path.receiver.is_aligned(), "a fresh receiver hunts");
        assert_eq!(flush(&mut path, &data), 3 + 2);
        assert!(path.receiver.is_aligned());
        assert_eq!(flush(&mut path, &data), 3);
        // Two frames with their framing smashed: out of frame, so the
        // next flush hunts again, and the one after it does not.
        let smashed = vec![0u8; level.frame_bytes()];
        path.receiver.push(&smashed);
        path.receiver.push(&smashed);
        assert_eq!(path.section_stats().oof_events, 1);
        assert!(!path.receiver.is_aligned());
        assert_eq!(flush(&mut path, &data), 3 + 2);
        assert_eq!(flush(&mut path, &data), 3);
        // Nothing to carry: no frame at all.
        assert_eq!(flush(&mut path, &[]), 0);
    }

    #[test]
    fn twenty_clean_flushes_recover_every_byte_in_order() {
        for level in [StmLevel::Stm1, StmLevel::Stm4, StmLevel::Stm16] {
            let cap = level.payload_per_frame();
            let mut path = OcPath::new(level, BitErrorChannel::clean());
            let mut frames = 0;
            let mut drained = 0;
            for i in 0..20usize {
                // Empty, short, one SPE exactly and several SPEs.
                let len = [0, 1, 1500, cap, 3 * cap + 5][i % 5] + i;
                let data: Vec<u8> = (0..len).map(|j| (i * 7 + j * 13) as u8).collect();
                drained += len.div_ceil(cap);
                frames += flush(&mut path, &data);
            }
            assert_eq!(frames, drained + 2, "{level:?}: hunt frames once only");
            assert_eq!(path.section_stats().b1_errors, 0);
        }
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
