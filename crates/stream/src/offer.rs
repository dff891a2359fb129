//! [`Offer`]: the one backpressure vocabulary for frame admission.
//!
//! Every bounded ingress boundary in the workspace — a device's TX
//! queue, a fleet link's ingress ring, a transport session's staging
//! queue — answers the same question when handed a frame: did it go in,
//! and if not, why.  `Offer` is that answer, defined here in the lowest
//! common crate so `p5-link`, `p5-runtime` and `p5-xport` all speak it.
//!
//! The variants map onto the conservation law the stats layer already
//! enforces (`offered == accepted + shed + rejected + queued`): exactly
//! one variant is returned per offered frame, so summing outcomes
//! reproduces the flow accounting.

/// What happened to one frame offered across a bounded ingress
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Offer {
    /// The device took it: the frame is in flight now.
    Accepted,
    /// Admitted to a bounded staging queue; a later tick moves it into
    /// the device.  The frame is safe but not yet in flight.
    Queued,
    /// Refused at admission: the staging queue is at its configured
    /// depth.  The frame is dropped here — graceful shedding, counted
    /// by the owner.
    Shed,
    /// Refused at a boundary with no queue to hold it: the device said
    /// *not now*, or (at a session endpoint) the protocol is not one
    /// the network phase carries.
    Rejected,
}

impl Offer {
    /// The frame made it past admission (it will be transmitted unless
    /// the wire eats it).
    pub fn is_admitted(self) -> bool {
        matches!(self, Offer::Accepted | Offer::Queued)
    }

    /// The frame was dropped at this boundary (shed or rejected) and
    /// the caller still owns retrying it.
    pub fn is_dropped(self) -> bool {
        !self.is_admitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_partitions_the_variants() {
        assert!(Offer::Accepted.is_admitted());
        assert!(Offer::Queued.is_admitted());
        assert!(Offer::Shed.is_dropped());
        assert!(Offer::Rejected.is_dropped());
        for o in [Offer::Accepted, Offer::Queued, Offer::Shed, Offer::Rejected] {
            assert_ne!(o.is_admitted(), o.is_dropped());
        }
    }
}
