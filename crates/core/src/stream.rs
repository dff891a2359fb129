//! [`StreamStage`] adapters for the cycle-accurate device: the P⁵'s two
//! shared-memory ends as composable stages.
//!
//! Frame convention on tagged streams at the packet boundary: each frame
//! is `[protocol_hi, protocol_lo, payload...]` (the PPP protocol number in
//! its 2-byte form, then the datagram).  [`encap`]/[`decap`] build and
//! split that shape.  [`TxStage`] consumes such frames and emits raw wire
//! octets; [`RxStage`] consumes raw wire octets and emits such frames —
//! so `stack![TxStage::new(..), RxStage::new(..)]` is the identity on
//! `(protocol, payload)` pairs, modulo the device's error counters.

use crate::p5::{FUSED_WIRE_HIGH_WATER, P5};
use p5_stream::{
    FrameId, Observable, Poll, Snapshot, StageStats, StreamStage, WireBuf, WordStream,
};

/// Device clocks one `Stack` sweep may spend in a stage — only a device
/// in cycle-model duty ([`P5::needs_clock`]) spends any.
const BURST: u64 = 256;

/// Append one `[proto_be, payload]` frame to a tagged stream.
pub fn encap(protocol: u16, payload: &[u8], out: &mut WireBuf) {
    encap_tagged(protocol, payload, 0, out);
}

/// [`encap`] with a frame id riding the stream tags: [`TxStage`] hands it
/// to the device, so trace events correlate back to this frame.
pub fn encap_tagged(protocol: u16, payload: &[u8], id: FrameId, out: &mut WireBuf) {
    out.begin_frame_with_id(id);
    out.extend_frame(&protocol.to_be_bytes());
    out.extend_frame(payload);
    out.end_frame(false);
}

/// Split a `[proto_be, payload]` frame.
pub fn decap(frame: &[u8]) -> Option<(u16, &[u8])> {
    if frame.len() < 2 {
        return None;
    }
    Some((u16::from_be_bytes([frame[0], frame[1]]), &frame[2..]))
}

/// Transmit half of a P⁵ as a stage: tagged `[proto, payload]` frames in,
/// raw wire octets out.  Each `drain` call runs a device that
/// [`P5::needs_clock`] for up to 256 clocks, so a `Stack` step advances
/// device time.
pub struct TxStage {
    dev: P5,
    stats: StageStats,
}

impl TxStage {
    pub fn new(dev: P5) -> Self {
        TxStage {
            dev,
            stats: StageStats::default(),
        }
    }

    pub fn device(&self) -> &P5 {
        &self.dev
    }

    pub fn device_mut(&mut self) -> &mut P5 {
        &mut self.dev
    }
}

impl WordStream for TxStage {
    fn offer(&mut self, input: &mut WireBuf) -> Poll {
        let mut accepted = 0;
        // The frame is peeked in place: it leaves `input` only once the
        // device has taken it ([`P5::offer_frame`]), so *not now* costs
        // nothing and the frame waits where it already is.
        while let Some((frame, meta)) = input.peek_frame() {
            let taken = match decap(frame) {
                Some((protocol, payload)) if !meta.abort => {
                    self.dev.offer_frame(protocol, payload, meta.id)
                }
                // An aborted (or headless) frame never reaches the device.
                _ => true,
            };
            if !taken {
                self.stats.stall_cycles += 1;
                return if accepted == 0 {
                    Poll::Blocked
                } else {
                    Poll::Ready(accepted)
                };
            }
            input.consume(meta.len);
            accepted += meta.len;
            self.stats.words_in += 1;
        }
        Poll::Ready(accepted)
    }

    fn drain(&mut self, output: &mut WireBuf) -> Poll {
        // Downstream has not consumed what we already delivered: deassert
        // valid and let wire_out back up — which makes `offer_frame` say
        // *not now* and propagates `Blocked` upstream.
        let room = FUSED_WIRE_HIGH_WATER.saturating_sub(output.len());
        if room == 0 {
            self.stats.stall_cycles += 1;
            return Poll::Blocked;
        }
        // An idle datapath has nothing to add — don't burn clocks just
        // to ferry already-made bytes.
        for _ in 0..BURST {
            if self.dev.tx.idle() {
                break;
            }
            self.dev.clock();
        }
        let n = self.dev.drain_wire_into_bounded(output, room);
        self.stats.words_out += u64::from(n > 0);
        self.stats.bytes_out += n as u64;
        Poll::Ready(n)
    }
}

impl Observable for TxStage {
    /// Stage flow counters plus the whole transmitter pipeline's tallies
    /// (the pipeline's own `cycles` is dropped — the stage already
    /// reports device cycles).
    fn snapshot(&self) -> Snapshot {
        let mut s = StreamStage::stats(self).snapshot("p5-tx");
        for (name, value) in Observable::snapshot(&self.dev.tx).counters {
            if name != "cycles" {
                s.push_counter(name, value);
            }
        }
        s
    }
}

impl StreamStage for TxStage {
    fn name(&self) -> &'static str {
        "p5-tx"
    }

    fn is_idle(&self) -> bool {
        self.dev.tx.idle() && !self.dev.has_wire_out()
    }

    fn stats(&self) -> StageStats {
        let mut s = self.stats;
        s.cycles = self.dev.cycles;
        s.rejects = self.dev.tx.control.submit_rejects;
        s
    }
}

/// Receive half of a P⁵ as a stage: raw wire octets in, tagged
/// `[proto, payload]` frames out.  `offer` clocks a device in cycle-model
/// duty while it chews the delivered bytes (up to 512 clocks per call).
pub struct RxStage {
    dev: P5,
    stats: StageStats,
    /// Next frame id stamped onto delivered frames' stream tags.
    next_id: FrameId,
}

impl RxStage {
    pub fn new(dev: P5) -> Self {
        RxStage {
            dev,
            stats: StageStats::default(),
            next_id: 0,
        }
    }

    pub fn device(&self) -> &P5 {
        &self.dev
    }
}

impl WordStream for RxStage {
    fn offer(&mut self, input: &mut WireBuf) -> Poll {
        // Plain duty delineates the delivered bytes in bulk (flag-free
        // runs move as single copies) and leaves nothing to clock.
        let n = self.dev.ingest_wire(input, FUSED_WIRE_HIGH_WATER);
        self.stats.words_in += u64::from(n > 0);
        // Cycle-model duty: clock the receiver through what it holds
        // (bounded per call; the rest waits for the next sweep).
        let mut budget = 2 * BURST;
        while self.dev.wire_in_pending() > 0 && budget > 0 {
            self.dev.clock();
            budget -= 1;
        }
        Poll::Ready(n)
    }

    fn drain(&mut self, output: &mut WireBuf) -> Poll {
        // A few trailing clocks flush the pipeline latches after the wire
        // goes quiet.
        for _ in 0..8 {
            if self.dev.rx.idle() {
                break;
            }
            self.dev.clock();
        }
        let mut n = 0;
        while let Some(f) = self.dev.pop_received() {
            self.next_id += 1;
            output.begin_frame_with_id(self.next_id);
            output.extend_frame(&f.protocol.to_be_bytes());
            output.extend_frame(&f.payload);
            output.end_frame(false);
            n += 2 + f.payload.len();
            self.stats.words_out += 1;
            // Storage goes back to the receiver's shelf for the next frame.
            self.dev.recycle_rx_payload(f.payload);
        }
        self.stats.bytes_out += n as u64;
        Poll::Ready(n)
    }
}

impl Observable for RxStage {
    /// Stage flow counters plus the whole receiver pipeline's tallies.
    fn snapshot(&self) -> Snapshot {
        let mut s = StreamStage::stats(self).snapshot("p5-rx");
        for (name, value) in Observable::snapshot(&self.dev.rx).counters {
            if name != "cycles" {
                s.push_counter(name, value);
            }
        }
        s
    }
}

impl StreamStage for RxStage {
    fn name(&self) -> &'static str {
        "p5-rx"
    }

    fn is_idle(&self) -> bool {
        // Delivered-but-undrained frames hold the stage busy: the fused
        // path completes frames with zero pipeline latency, so unlike
        // the staged path there may be no trailing clocks left to keep
        // `rx.idle()` false until the next `drain` picks them up.  A
        // half-delineated fused frame is not work: only more input can
        // finish it, and none is pending.
        self.dev.rx.idle()
            && self.dev.wire_in_pending() == 0
            && self.dev.rx.control.queued_frames().is_empty()
    }

    fn stats(&self) -> StageStats {
        let mut s = self.stats;
        s.cycles = self.dev.cycles;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p5::DatapathWidth;
    use p5_stream::stack;

    #[test]
    fn tx_then_rx_stack_is_identity_on_datagrams() {
        let mut s = stack![
            TxStage::new(P5::new(DatapathWidth::W32)),
            RxStage::new(P5::new(DatapathWidth::W32)),
        ];
        let payloads: Vec<Vec<u8>> = vec![
            b"first".to_vec(),
            vec![0x7E, 0x7D, 0x20, 0x7E],
            (0..=255).collect(),
        ];
        for p in &payloads {
            encap(0x0021, p, s.input());
        }
        assert!(s.run_until_idle(500), "stack failed to drain");
        let mut got = Vec::new();
        let mut frame = Vec::new();
        while s.output().pop_frame_into(&mut frame).is_some() {
            let (proto, payload) = decap(&frame).unwrap();
            assert_eq!(proto, 0x0021);
            got.push(payload.to_vec());
        }
        assert_eq!(got, payloads);
    }

    #[test]
    fn tx_stage_blocks_when_queue_full() {
        let dev = P5::new(DatapathWidth::W32);
        let mut tx = TxStage::new(dev);
        // The bounded queue is a staged-pipeline structure; the fused
        // path's backpressure is the wire high-water mark instead.
        tx.device_mut().fused_enabled = false;
        tx.device_mut().tx.control.queue_depth = 1;
        let mut input = WireBuf::new();
        encap(0x0021, &[1, 2, 3], &mut input);
        encap(0x0021, &[4, 5, 6], &mut input);
        // First frame fits, second must stay in the buffer.
        assert_eq!(tx.offer(&mut input), Poll::Ready(5));
        assert_eq!(input.frames_ready(), 1, "second frame still queued");
        assert!(tx.offer(&mut input).is_blocked());
        assert_eq!(tx.stats().rejects, 0, "not now is not a reject");
        // Drain the device, then the held frame goes through.
        let mut wire = WireBuf::new();
        tx.drain(&mut wire);
        assert_eq!(tx.offer(&mut input), Poll::Ready(5));
        assert!(input.is_empty());
    }

    #[test]
    fn w8_and_w32_stacks_agree() {
        for width in [DatapathWidth::W8, DatapathWidth::W32] {
            let mut s = stack![TxStage::new(P5::new(width)), RxStage::new(P5::new(width)),];
            encap(0x8021, b"ipcp conf-req", s.input());
            assert!(s.run_until_idle(2000));
            let (frame, _) = s.output().pop_frame().unwrap();
            assert_eq!(decap(&frame).unwrap(), (0x8021, &b"ipcp conf-req"[..]));
        }
    }
}
