//! [`StreamStage`] adapter for the PHY: the OC path as a composable
//! stage, so a whole link — `tx → sonet path → rx` — is one `Stack`.
//!
//! The stage carries *untagged* wire octets: below the HDLC layer there
//! are no frame boundaries, only a continuous byte stream (plus 125 µs
//! frame quantisation inside [`OcPathStage`]).

use crate::path::{ByteLink, OcPath};
use p5_stream::{Observable, Poll, Snapshot, StageStats, StreamStage, WireBuf, WordStream};

/// A full OC-3N path (scramble → STM-N map → channel → delineate →
/// descramble) as a stage.  Each `drain` call advances the line by
/// `frames_per_step` × 125 µs.
pub struct OcPathStage {
    path: OcPath,
    frames_per_step: usize,
    stats: StageStats,
}

impl OcPathStage {
    pub fn new(path: OcPath) -> Self {
        Self::with_frames_per_step(path, 1)
    }

    /// `frames_per_step` = STM frames emitted per `drain` call (one
    /// `Stack` step): the stage's time quantum.
    pub fn with_frames_per_step(path: OcPath, frames_per_step: usize) -> Self {
        OcPathStage {
            path,
            frames_per_step: frames_per_step.max(1),
            stats: StageStats::default(),
        }
    }

    pub fn path(&self) -> &OcPath {
        &self.path
    }
}

impl WordStream for OcPathStage {
    fn offer(&mut self, input: &mut WireBuf) -> Poll {
        let n = input.len();
        if n == 0 {
            return Poll::Ready(0);
        }
        self.path.send(input.as_slice());
        input.consume(n);
        self.stats.words_in += 1;
        Poll::Ready(n)
    }

    fn drain(&mut self, output: &mut WireBuf) -> Poll {
        // Line time only advances while there is payload queued (plus
        // the flush in `finish`): the real line never stops, but
        // simulating idle 125 µs frames forever would keep the
        // downstream buffer non-empty and a Stack could never go idle.
        if self.path.frames_to_drain() > 0 {
            self.path.run_frames(self.frames_per_step);
            self.stats.cycles += self.frames_per_step as u64;
        }
        // Collect regardless: `finish` runs frames without draining.
        let delivered = output.extend_untagged_with(|wire| self.path.recv_into(wire));
        if delivered == 0 {
            self.stats.bubble_cycles += 1;
            return Poll::Ready(0);
        }
        self.stats.words_out += 1;
        self.stats.bytes_out += delivered as u64;
        Poll::Ready(delivered)
    }
}

impl Observable for OcPathStage {
    /// Stage flow counters folded together with the section/path overhead
    /// counters and the underlying channel's impairment counters.
    fn snapshot(&self) -> Snapshot {
        let mut s = StreamStage::stats(self).snapshot("oc-path");
        s.absorb(&self.path.section_stats().snapshot());
        s.absorb(&self.path.channel().stats().snapshot());
        s
    }
}

impl StreamStage for OcPathStage {
    fn name(&self) -> &'static str {
        "oc-path"
    }

    fn is_idle(&self) -> bool {
        self.path.frames_to_drain() == 0
    }

    fn finish(&mut self) {
        // Flush the transmit backlog plus two frames of pipeline slack
        // (delineation hunts across a frame boundary).
        let k = self.path.frames_to_drain() + 2;
        self.path.run_frames(k);
        self.stats.cycles += k as u64;
    }

    fn stats(&self) -> StageStats {
        let mut s = self.stats;
        s.note_occupancy(self.path.frames_to_drain());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::BitErrorChannel;
    use crate::frame::StmLevel;
    use p5_stream::stack;

    #[test]
    fn clean_path_stage_delivers_bytes_in_order() {
        let path = OcPath::new(StmLevel::Stm1, BitErrorChannel::clean());
        let mut s = stack![OcPathStage::with_frames_per_step(path, 2)];
        let data: Vec<u8> = (0..=255u8).cycle().take(4000).collect();
        s.input().push_slice(&data);
        assert!(s.run_until_idle(64));
        s.finish();
        let got = s.output().take_vec();
        assert!(got.len() >= data.len(), "idle fill pads the stream");
        // The path emits flag idle fill before the payload is offered
        // (sink→source stepping drains the line first); payload follows.
        let start = got
            .iter()
            .position(|&b| b != 0x7E)
            .expect("payload present");
        assert_eq!(&got[start..start + data.len()], &data[..]);
    }
}
