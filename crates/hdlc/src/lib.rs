//! HDLC-like octet-stuffed framing (RFC 1662), the framing method PPP and
//! the paper's P⁵ use on SONET/SDH links.
//!
//! This crate is the *behavioural golden model*: a byte-at-a-time software
//! encoder/decoder with exactly the semantics the hardware datapath in
//! `p5-core` must reproduce cycle-accurately.  The equivalence tests in
//! `p5-core` and the workspace integration tests compare the two
//! byte-for-byte on random and adversarial traffic.
//!
//! Framing rules implemented (RFC 1662 §4):
//!
//! * frames are delimited by the flag octet `0x7E`; a single flag may both
//!   close one frame and open the next;
//! * within a frame, `0x7E` and the escape octet `0x7D` (and any octet
//!   selected by the async control character map) are sent as `0x7D`
//!   followed by the octet XOR `0x20` — the paper's worked example
//!   `31 33 7E 96 → 31 33 7D 5E 96`;
//! * `0x7D 0x7E` (escape immediately followed by a flag) aborts the frame
//!   in progress;
//! * the FCS (16- or 32-bit, complemented, least-significant octet first)
//!   covers the unstuffed frame body and is checked via the magic residue.
//!
//! ```
//! use p5_hdlc::{Framer, FramerConfig, Deframer, DeframeEvent};
//!
//! let mut framer = Framer::new(FramerConfig::default());
//! let mut wire = Vec::new();
//! framer.encode_into(&[0x31, 0x33, 0x7E, 0x96], &mut wire); // paper's example
//! assert_eq!(&wire[1..6], &[0x31, 0x33, 0x7D, 0x5E, 0x96]); // 7E -> 7D 5E
//!
//! let events = Deframer::default().push_bytes(&wire);
//! assert_eq!(events, vec![DeframeEvent::Frame(vec![0x31, 0x33, 0x7E, 0x96])]);
//! ```

pub mod deframer;
pub mod framer;
pub mod sorter;
pub mod stuff;

pub use deframer::{DeframeEvent, Deframer, DeframerConfig, FrameError, RxStats};
pub use framer::{Framer, FramerConfig};
pub use stuff::{destuff, stuff, stuff_into, Accm, DestuffOutcome};

/// The HDLC flag octet delimiting every frame.
pub const FLAG: u8 = 0x7E;
/// The control-escape octet.
pub const ESCAPE: u8 = 0x7D;
/// Escaped octets are XORed with this (complementing bit 5, as the paper
/// puts it: "the original character with its sixth bit complimented").
pub const ESCAPE_XOR: u8 = 0x20;

/// Which frame check sequence a link runs (LCP-negotiable; the paper's P⁵
/// "will incorporate 32-bit CRC checking" by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FcsMode {
    /// No FCS appended or checked (LCP "Null FCS" alternative).
    None,
    /// 16-bit FCS (RFC 1662 appendix C.1).
    Fcs16,
    /// 32-bit FCS (RFC 1662 appendix C.2) — the P⁵ default.
    #[default]
    Fcs32,
}

impl FcsMode {
    /// FCS length in octets.
    #[allow(clippy::len_without_is_empty)] // `is_none()` plays that role
    pub fn len(&self) -> usize {
        match self {
            FcsMode::None => 0,
            FcsMode::Fcs16 => 2,
            FcsMode::Fcs32 => 4,
        }
    }

    pub fn is_none(&self) -> bool {
        matches!(self, FcsMode::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcs_mode_lengths() {
        assert_eq!(FcsMode::None.len(), 0);
        assert_eq!(FcsMode::Fcs16.len(), 2);
        assert_eq!(FcsMode::Fcs32.len(), 4);
        assert!(FcsMode::None.is_none());
        assert!(!FcsMode::Fcs32.is_none());
    }

    #[test]
    fn default_is_fcs32() {
        // Paper: "For accuracy purposes the system will incorporate 32-bit
        // CRC checking."
        assert_eq!(FcsMode::default(), FcsMode::Fcs32);
    }
}
