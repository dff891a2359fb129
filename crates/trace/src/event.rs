//! Cycle-stamped trace events: the frame lifecycle the paper's OAM block
//! makes software-visible (Figure 2's status/interrupt path), extended
//! with the µP register-write bus.

/// Identifier threaded alongside a frame through `WireBuf` tags and the
/// device queues.  `0` means "untracked" (legacy producers that predate
/// tracing keep working); real ids start at 1 and are monotone per
/// direction.
pub type FrameId = u32;

/// What happened.  The first seven variants are the frame lifecycle in
/// pipeline order: submit → framed → stuffed → wire → delineated →
/// CRC verdict → delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Software handed a datagram to the transmit queue.
    Submit { id: FrameId, len: u32 },
    /// The TX control stage finished emitting the frame body (address,
    /// control, protocol, payload) into the CRC stage.
    Framed { id: FrameId },
    /// The escape-generate stage pushed the frame's closing flag into its
    /// staging buffer: the stuffed image is complete.
    Stuffed { id: FrameId },
    /// The last stuffed byte of the frame left the device for the wire.
    Wire { id: FrameId },
    /// The escape-detect stage saw the frame's closing flag: one
    /// delineated frame handed up for checking.
    Delineated { id: FrameId },
    /// The FCS comparison for a delineated frame.
    CrcVerdict { id: FrameId, ok: bool },
    /// The frame passed all checks and reached the receive queue.
    Delivered { id: FrameId, len: u32 },
    /// The µP wrote an OAM register over the MMIO bus.
    OamWrite { addr: u32, value: u32 },
}

impl EventKind {
    /// Stable lowercase name for rendering and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submit { .. } => "submit",
            EventKind::Framed { .. } => "framed",
            EventKind::Stuffed { .. } => "stuffed",
            EventKind::Wire { .. } => "wire",
            EventKind::Delineated { .. } => "delineated",
            EventKind::CrcVerdict { .. } => "crc_verdict",
            EventKind::Delivered { .. } => "delivered",
            EventKind::OamWrite { .. } => "oam_write",
        }
    }

    /// The frame this event belongs to, for lifecycle events.
    pub fn frame_id(&self) -> Option<FrameId> {
        match *self {
            EventKind::Submit { id, .. }
            | EventKind::Framed { id }
            | EventKind::Stuffed { id }
            | EventKind::Wire { id }
            | EventKind::Delineated { id }
            | EventKind::CrcVerdict { id, .. }
            | EventKind::Delivered { id, .. } => Some(id),
            EventKind::OamWrite { .. } => None,
        }
    }
}

/// One recorded observation: what happened and on which device cycle
/// (line clock, or OAM regfile version — the recording
/// component documents which clock domain it stamps with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub cycle: u64,
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_events_carry_frame_ids() {
        assert_eq!(EventKind::Submit { id: 7, len: 40 }.frame_id(), Some(7));
        assert_eq!(
            EventKind::CrcVerdict { id: 9, ok: true }.frame_id(),
            Some(9)
        );
        assert_eq!(EventKind::OamWrite { addr: 0, value: 1 }.frame_id(), None);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::Wire { id: 1 }.name(), "wire");
        assert_eq!(EventKind::Delivered { id: 1, len: 2 }.name(), "delivered");
    }
}
