//! [`StreamStage`] adapter for a control-protocol endpoint: the RFC 1661
//! automaton fed from / draining to tagged `[proto_be, packet]` frame
//! streams, the same convention `p5_core::stream`'s `TxStage`/`RxStage`
//! speak at the packet boundary.
//!
//! An [`EndpointStage`] handles exactly one protocol (its negotiator's).
//! It is *not* a demultiplexer: frames for other protocols are dropped
//! and counted in [`StageStats::rejects`] — route per protocol before
//! the stage when running several endpoints over one link.

use crate::endpoint::{Endpoint, Negotiator};
use p5_stream::{Observable, Poll, Snapshot, StageStats, StreamStage, WireBuf, WordStream};

/// A PPP control-protocol endpoint as a stage: received control frames
/// in, originated control frames out.  Each `drain` call advances the
/// endpoint's restart timer by one tick.
pub struct EndpointStage<N: Negotiator> {
    endpoint: Endpoint<N>,
    now: u64,
    scratch: Vec<u8>,
    stats: StageStats,
}

impl<N: Negotiator> EndpointStage<N> {
    pub fn new(endpoint: Endpoint<N>) -> Self {
        EndpointStage {
            endpoint,
            now: 0,
            scratch: Vec::new(),
            stats: StageStats::default(),
        }
    }

    pub fn endpoint(&self) -> &Endpoint<N> {
        &self.endpoint
    }

    pub fn endpoint_mut(&mut self) -> &mut Endpoint<N> {
        &mut self.endpoint
    }

    /// Ticks elapsed (one per `drain` call).
    pub fn now(&self) -> u64 {
        self.now
    }
}

impl<N: Negotiator> WordStream for EndpointStage<N> {
    fn offer(&mut self, input: &mut WireBuf) -> Poll {
        let ours = self.endpoint.negotiator.protocol().number();
        let mut accepted = 0;
        while input.frame_ready() {
            let meta = input
                .pop_frame_into(&mut self.scratch)
                .expect("frame_ready() guarantees a complete frame");
            accepted += meta.len;
            if meta.abort || self.scratch.len() < 2 {
                self.stats.rejects += 1;
                continue;
            }
            let proto = u16::from_be_bytes([self.scratch[0], self.scratch[1]]);
            if proto != ours {
                self.stats.rejects += 1;
                continue;
            }
            self.stats.words_in += 1;
            self.endpoint.receive(&self.scratch[2..]);
        }
        Poll::Ready(accepted)
    }

    fn drain(&mut self, output: &mut WireBuf) -> Poll {
        self.now += 1;
        self.endpoint.tick(self.now);
        let n = self.endpoint.drain_output_into(output);
        self.stats.words_out += u64::from(n > 0);
        self.stats.bytes_out += n as u64;
        self.stats.cycles = self.now;
        Poll::Ready(n)
    }
}

impl<N: Negotiator> Observable for EndpointStage<N> {
    fn snapshot(&self) -> Snapshot {
        self.stats
            .snapshot("ppp-endpoint")
            .counter("ticks", self.now)
            .counter("opened", u64::from(self.endpoint.is_opened()))
    }
}

impl<N: Negotiator> StreamStage for EndpointStage<N> {
    fn name(&self) -> &'static str {
        "ppp-endpoint"
    }

    fn is_idle(&self) -> bool {
        // The automaton always has more timer-driven work until it
        // converges; "idle" here means nothing queued for the wire.
        true
    }

    fn stats(&self) -> StageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::EndpointConfig;
    use crate::lcp_negotiator::LcpNegotiator;

    fn lcp_stage(magic: u32) -> EndpointStage<LcpNegotiator> {
        let mut ep = Endpoint::new(
            LcpNegotiator::new(1500, magic),
            EndpointConfig {
                restart_period: 10,
                ..EndpointConfig::default()
            },
        );
        ep.open();
        ep.lower_up();
        EndpointStage::new(ep)
    }

    #[test]
    fn two_endpoint_stages_negotiate_lcp_over_wirebufs() {
        let mut a = lcp_stage(0x1111_1111);
        let mut b = lcp_stage(0x2222_2222);
        let mut a_to_b = WireBuf::new();
        let mut b_to_a = WireBuf::new();
        for _ in 0..50 {
            a.drain(&mut a_to_b);
            b.drain(&mut b_to_a);
            a.offer(&mut b_to_a);
            b.offer(&mut a_to_b);
            if a.endpoint().is_opened() && b.endpoint().is_opened() {
                break;
            }
        }
        assert!(a.endpoint().is_opened(), "A must reach Opened");
        assert!(b.endpoint().is_opened(), "B must reach Opened");
    }

    #[test]
    fn foreign_protocol_frames_are_rejected_not_consumed_by_the_automaton() {
        let mut a = lcp_stage(0x0000_0001);
        let mut input = WireBuf::new();
        // An IPCP frame (0x8021) offered to an LCP endpoint.
        input.push_frame(&[0x80, 0x21, 1, 1, 0, 4]);
        // A runt (no room for a protocol number).
        input.push_frame(&[0x42]);
        a.offer(&mut input);
        assert_eq!(a.stats().rejects, 2);
        assert_eq!(a.stats().words_in, 0);
    }
}
