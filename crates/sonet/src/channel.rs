//! The transmission channel between framer and deframer: the
//! length-preserving slice of the `p5-fault` model standing in for the
//! optical section the paper's testbed would provide.
//!
//! The schedule behind a [`BitErrorChannel`] is a [`FaultPlan`]:
//! [`BitErrorChannel::from_plan`] accepts any compiled plan, so a SONET
//! path carries the same seeded impairment mix the rest of the chaos
//! harness uses.  Only the bit-level (length-preserving) faults apply
//! here — a physical section can flip payload bits under the scrambler,
//! but byte slips and fabricated flags are stream-level faults injected
//! above the path, by the link's carriage on the delineated stream.

use p5_fault::FaultPlan;

/// Channel impairment statistics, derived from the plan's
/// [`p5_fault::FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    pub bytes_carried: u64,
    pub bits_flipped: u64,
    pub bursts_injected: u64,
}

impl p5_stream::Observable for ChannelStats {
    fn snapshot(&self) -> p5_stream::Snapshot {
        p5_stream::Snapshot::new("channel")
            .counter("bytes_carried", self.bytes_carried)
            .counter("bits_flipped", self.bits_flipped)
            .counter("bursts_injected", self.bursts_injected)
    }
}

/// A byte pipe that flips bits according to a compiled [`FaultPlan`]:
/// uniform BER, optionally with Gilbert–Elliott bursts.
#[derive(Debug, Clone)]
pub struct BitErrorChannel {
    plan: FaultPlan,
}

impl BitErrorChannel {
    /// An error-free channel.
    pub fn clean() -> Self {
        Self::from_plan(FaultPlan::clean(0))
    }

    /// Carry any compiled fault plan.  Only the length-preserving faults
    /// (BER + bursts) apply on this boundary — structural faults in the
    /// plan are simply never drawn here.
    pub fn from_plan(plan: FaultPlan) -> Self {
        BitErrorChannel { plan }
    }

    /// The impairment schedule behind the channel.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn stats(&self) -> ChannelStats {
        let fs = self.plan.stats();
        ChannelStats {
            bytes_carried: fs.bytes_processed,
            bits_flipped: fs.bit_errors,
            bursts_injected: fs.bursts,
        }
    }

    /// Carry bytes across the channel, impairing them in place.
    pub fn transmit(&mut self, buf: &mut [u8]) {
        self.plan.corrupt_in_place(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_fault::FaultSpec;

    #[test]
    fn clean_channel_is_transparent() {
        let mut ch = BitErrorChannel::clean();
        let mut buf = vec![0xA5; 1000];
        ch.transmit(&mut buf);
        assert!(buf.iter().all(|&b| b == 0xA5));
        assert_eq!(ch.stats().bits_flipped, 0);
        assert_eq!(ch.stats().bytes_carried, 1000);
    }

    #[test]
    fn ber_injects_roughly_the_right_number_of_errors() {
        let plan = FaultSpec::clean().ber(1e-3).compile(42).unwrap();
        let mut ch = BitErrorChannel::from_plan(plan);
        let mut buf = vec![0u8; 100_000];
        ch.transmit(&mut buf);
        let flipped: u64 = buf.iter().map(|b| b.count_ones() as u64).sum();
        assert_eq!(flipped, ch.stats().bits_flipped);
        // 800k bits at 1e-3 → ~800; allow wide tolerance.
        assert!((400..1600).contains(&flipped), "flipped {flipped}");
    }

    #[test]
    fn bursts_cluster_errors() {
        // Entered at 1e-4, mean burst 16 bits, half the bad-state bits flip.
        let plan = FaultSpec::clean()
            .burst(1e-4, 1.0 / 16.0, 0.5)
            .compile(7)
            .unwrap();
        let mut ch = BitErrorChannel::from_plan(plan);
        let mut buf = vec![0u8; 100_000];
        ch.transmit(&mut buf);
        assert!(ch.stats().bursts_injected > 0);
        // With bursts, flips per burst should exceed 1 on average.
        assert!(ch.stats().bits_flipped > ch.stats().bursts_injected);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let spec = FaultSpec::clean().burst(1e-3, 1.0 / 4.0, 0.5);
            let mut ch = BitErrorChannel::from_plan(spec.compile(seed).unwrap());
            let mut buf = vec![0u8; 10_000];
            ch.transmit(&mut buf);
            buf
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn channel_carries_an_arbitrary_plan() {
        let plan = FaultSpec::clean().ber(1e-2).compile(5).unwrap();
        let mut ch = BitErrorChannel::from_plan(plan);
        let mut buf = vec![0u8; 10_000];
        ch.transmit(&mut buf);
        assert!(ch.stats().bits_flipped > 0);
        assert_eq!(ch.plan().stats().bit_errors, ch.stats().bits_flipped);
    }
}
