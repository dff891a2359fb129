//! Frame encoder: body → FCS append → stuff → flag-delimited wire bytes.
//! The behavioural mirror of the P⁵ transmitter pipeline
//! (Control → CRC → Escape Generate).

use crate::stuff::{stuff_into, Accm};
use crate::{FcsMode, FLAG};
use p5_crc::{fcs16_wire_bytes, fcs32_wire_bytes, CrcEngine, Slice8Engine, FCS16, FCS32};

/// Transmitter configuration (everything here is a register in the
/// Protocol OAM of the hardware design).
#[derive(Debug, Clone, Copy)]
pub struct FramerConfig {
    pub fcs: FcsMode,
    pub accm: Accm,
    /// Whether consecutive frames share a single flag (RFC 1662 permits
    /// both; sharing is what a saturated hardware framer does).
    pub share_flag: bool,
}

impl Default for FramerConfig {
    fn default() -> Self {
        Self {
            fcs: FcsMode::Fcs32,
            accm: Accm::SONET,
            share_flag: true,
        }
    }
}

/// Stateful frame encoder producing a contiguous wire stream.
#[derive(Debug, Clone)]
pub struct Framer {
    config: FramerConfig,
    /// Persistent FCS engine (braided slicing-by-8, reading the
    /// process-wide tables) — built once with the framer, reset per
    /// frame.
    engine: Option<Slice8Engine>,
    /// True once at least one frame has been emitted (controls flag
    /// sharing).
    mid_stream: bool,
    frames_sent: u64,
}

impl Default for Framer {
    fn default() -> Self {
        Self::new(FramerConfig::default())
    }
}

impl Framer {
    pub fn new(config: FramerConfig) -> Self {
        let engine = match config.fcs {
            FcsMode::None => None,
            FcsMode::Fcs16 => Some(Slice8Engine::new(FCS16)),
            FcsMode::Fcs32 => Some(Slice8Engine::new(FCS32)),
        };
        Self {
            config,
            engine,
            mid_stream: false,
            frames_sent: 0,
        }
    }

    pub fn config(&self) -> &FramerConfig {
        &self.config
    }

    /// Encode one frame body (already containing PPP address/control/
    /// protocol header) and append its wire image to `out`.
    pub fn encode_into(&mut self, body: &[u8], out: &mut Vec<u8>) {
        if !(self.mid_stream && self.config.share_flag) {
            out.push(FLAG);
        }
        stuff_into(body, self.config.accm, out);
        if let Some(e) = &mut self.engine {
            e.reset();
            e.update(body);
            match self.config.fcs {
                FcsMode::Fcs16 => {
                    stuff_into(&fcs16_wire_bytes(e.value() as u16), self.config.accm, out);
                }
                _ => {
                    stuff_into(&fcs32_wire_bytes(e.value()), self.config.accm, out);
                }
            }
        }
        out.push(FLAG);
        self.mid_stream = true;
        self.frames_sent += 1;
    }

    /// Encode one frame into a fresh vector (always opens with its own
    /// flag).
    pub fn encode(&mut self, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + 16);
        self.mid_stream = false;
        self.encode_into(body, &mut out);
        out
    }

    /// Idle fill: hardware transmits flags between frames.
    pub fn idle_fill(&self, n: usize, out: &mut Vec<u8>) {
        out.extend(std::iter::repeat_n(FLAG, n));
    }

    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }
}

/// One-shot encode of a single frame with a given config.
pub fn encode_frame(body: &[u8], config: FramerConfig) -> Vec<u8> {
    Framer::new(config).encode(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ESCAPE;

    #[test]
    fn frame_is_flag_delimited() {
        let wire = encode_frame(b"abc", FramerConfig::default());
        assert_eq!(*wire.first().unwrap(), FLAG);
        assert_eq!(*wire.last().unwrap(), FLAG);
        // body(3) + fcs(4) + 2 flags, nothing needed escaping
        assert_eq!(wire.len(), 3 + 4 + 2);
    }

    #[test]
    fn interior_flags_are_escaped() {
        let wire = encode_frame(&[FLAG, FLAG], FramerConfig::default());
        // No unescaped flag octets between the delimiters.
        assert!(!wire[1..wire.len() - 1].contains(&FLAG));
    }

    #[test]
    fn fcs_bytes_are_stuffed_too() {
        // Hunt for a body whose FCS-32 contains 0x7E or 0x7D, and confirm
        // it is escaped on the wire.
        let mut found = false;
        for seed in 0u32..50_000 {
            let body = seed.to_le_bytes();
            let fcs = p5_crc::fcs32(&body);
            let fb = p5_crc::fcs32_wire_bytes(fcs);
            if fb.contains(&FLAG) || fb.contains(&ESCAPE) {
                let wire = encode_frame(&body, FramerConfig::default());
                assert!(!wire[1..wire.len() - 1].contains(&FLAG));
                found = true;
                break;
            }
        }
        assert!(found, "no body with stuffable FCS found in search range");
    }

    #[test]
    fn shared_flag_between_back_to_back_frames() {
        let mut f = Framer::new(FramerConfig::default());
        let mut out = Vec::new();
        f.encode_into(b"one", &mut out);
        let after_first = out.len();
        f.encode_into(b"two", &mut out);
        // Second frame reuses the first frame's closing flag.
        assert_eq!(out[after_first - 1], FLAG);
        assert_ne!(out[after_first], FLAG);
        assert_eq!(f.frames_sent(), 2);
    }

    #[test]
    fn unshared_flags_doubles_delimiters() {
        let mut f = Framer::new(FramerConfig {
            share_flag: false,
            ..Default::default()
        });
        let mut out = Vec::new();
        f.encode_into(b"one", &mut out);
        f.encode_into(b"two", &mut out);
        let flags = out.iter().filter(|&&b| b == FLAG).count();
        assert_eq!(flags, 4);
    }

    #[test]
    fn fcs_none_mode_appends_nothing() {
        let wire = encode_frame(
            b"xyz",
            FramerConfig {
                fcs: FcsMode::None,
                ..Default::default()
            },
        );
        assert_eq!(wire.len(), 3 + 2);
    }
}
