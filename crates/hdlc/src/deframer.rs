//! Incremental frame decoder: wire bytes → delineation → destuff → FCS
//! check.  The behavioural mirror of the P⁵ receiver pipeline
//! (Escape Detect → CRC → Control).

use crate::sorter::destuff_run;
use crate::{FcsMode, ESCAPE, ESCAPE_XOR, FLAG};
use p5_crc::{CrcEngine, Slice8Engine, FCS16, FCS32};

/// Why a received frame was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// FCS residue did not match the magic value.
    FcsMismatch,
    /// Frame ended with `0x7D 0x7E` (transmitter abort).
    Abort,
    /// Fewer octets between flags than the FCS alone requires.
    Runt,
    /// Frame exceeded the configured maximum receive unit.
    Giant,
}

/// One decoder output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeframeEvent {
    /// A good frame body (FCS verified and stripped).
    Frame(Vec<u8>),
    /// A discarded frame.
    Discard(FrameError),
}

/// Receiver configuration (OAM registers in hardware).
#[derive(Debug, Clone, Copy)]
pub struct DeframerConfig {
    pub fcs: FcsMode,
    /// Maximum frame body length (after destuffing, excluding FCS);
    /// frames longer than this are discarded as giants.  The PPP default
    /// MRU is 1500, plus 4 octets of address/control/protocol header.
    pub max_body: usize,
}

impl DeframerConfig {
    /// Worst-case wire bytes from a corruption event to re-delineation.
    ///
    /// After arbitrary corruption the receiver holds at most one
    /// maximum-length partial frame (body + FCS, each octet possibly
    /// escaped, so ×2) and resynchronises at the next uncorrupted flag,
    /// which the transmitter must emit no later than the end of the
    /// *following* maximum-length frame — hence two stuffed frame images
    /// plus the closing flag and a possible dangling escape.  The chaos
    /// harness (`p5-fault`, `fault_report`) holds delineation recovery to
    /// this bound.
    pub fn resync_bound_bytes(&self) -> usize {
        2 * (2 * (self.max_body + self.fcs.len()) + 1) + 1
    }
}

impl Default for DeframerConfig {
    fn default() -> Self {
        Self {
            fcs: FcsMode::Fcs32,
            max_body: 1500 + 4,
        }
    }
}

/// Receive-side statistics, mirroring the P⁵ OAM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxStats {
    pub frames_ok: u64,
    pub fcs_errors: u64,
    pub aborts: u64,
    pub runts: u64,
    pub giants: u64,
    pub bytes_ok: u64,
}

impl p5_stream::Observable for RxStats {
    fn snapshot(&self) -> p5_stream::Snapshot {
        p5_stream::Snapshot::new("hdlc-rx")
            .counter("frames_ok", self.frames_ok)
            .counter("fcs_errors", self.fcs_errors)
            .counter("aborts", self.aborts)
            .counter("runts", self.runts)
            .counter("giants", self.giants)
            .counter("bytes_ok", self.bytes_ok)
    }
}

impl RxStats {
    pub fn record(&mut self, ev: &DeframeEvent) {
        match ev {
            DeframeEvent::Frame(b) => {
                self.frames_ok += 1;
                self.bytes_ok += b.len() as u64;
            }
            DeframeEvent::Discard(FrameError::FcsMismatch) => self.fcs_errors += 1,
            DeframeEvent::Discard(FrameError::Abort) => self.aborts += 1,
            DeframeEvent::Discard(FrameError::Runt) => self.runts += 1,
            DeframeEvent::Discard(FrameError::Giant) => self.giants += 1,
        }
    }
}

/// Streaming HDLC decoder.  Push wire bytes in any chunking; frames fall
/// out as events.
#[derive(Debug, Clone)]
pub struct Deframer {
    config: DeframerConfig,
    /// Destuffed body accumulated so far (including FCS octets).
    body: Vec<u8>,
    /// Last octet was an unconsumed escape.
    escape_pending: bool,
    /// Body grew past max; discard at the closing flag.
    overrun: bool,
    /// Running CRC over the destuffed body (incremental, as hardware
    /// does) — braided slicing-by-8, so a long destuffed run is checked
    /// four 8-octet words per step and a short one eight octets per
    /// step.
    crc: Option<Slice8Engine>,
    stats: RxStats,
}

impl Deframer {
    pub fn new(config: DeframerConfig) -> Self {
        let crc = match config.fcs {
            FcsMode::None => None,
            FcsMode::Fcs16 => Some(Slice8Engine::new(FCS16)),
            FcsMode::Fcs32 => Some(Slice8Engine::new(FCS32)),
        };
        Self {
            config,
            body: Vec::new(),
            escape_pending: false,
            overrun: false,
            crc,
            stats: RxStats::default(),
        }
    }

    pub fn config(&self) -> &DeframerConfig {
        &self.config
    }

    pub fn stats(&self) -> &RxStats {
        &self.stats
    }

    /// Push a single wire octet; at most one event can result.
    pub fn push_byte(&mut self, byte: u8) -> Option<DeframeEvent> {
        if byte == FLAG {
            let ev = self.close_frame();
            if let Some(ref e) = ev {
                self.stats.record(e);
            }
            return ev;
        }
        if self.escape_pending {
            self.escape_pending = false;
            self.accept(byte ^ ESCAPE_XOR);
        } else if byte == ESCAPE {
            self.escape_pending = true;
        } else {
            self.accept(byte);
        }
        None
    }

    /// Push a slice of wire bytes, collecting all resulting events.
    ///
    /// Each flag-free run is destuffed eight octets at a time by the
    /// byte sorter ([`crate::sorter::destuff_run`]) and checked with one
    /// CRC update; only flags go through the per-byte state machine,
    /// which stays the oracle this path is tested against.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Vec<DeframeEvent> {
        let mut events = Vec::new();
        let cap = self.config.max_body + self.config.fcs.len();
        let mut rest = bytes;
        while let Some((&b, tail)) = rest.split_first() {
            if b == FLAG {
                events.extend(self.push_byte(b));
                rest = tail;
                continue;
            }
            let start = self.body.len();
            let run = destuff_run(rest, &mut self.escape_pending, &mut self.body, cap);
            self.overrun |= run.overrun;
            if let Some(crc) = &mut self.crc {
                crc.update(&self.body[start..]);
            }
            rest = &rest[run.consumed..];
        }
        events
    }

    #[inline]
    fn accept(&mut self, byte: u8) {
        if self.body.len() >= self.config.max_body + self.config.fcs.len() {
            self.overrun = true;
            return;
        }
        if let Some(crc) = &mut self.crc {
            crc.update(&[byte]);
        }
        self.body.push(byte);
    }

    /// A flag arrived: close out whatever is buffered.
    fn close_frame(&mut self) -> Option<DeframeEvent> {
        let escape_pending = std::mem::take(&mut self.escape_pending);
        let overrun = std::mem::take(&mut self.overrun);
        let body = std::mem::take(&mut self.body);
        let residue_ok = match &mut self.crc {
            Some(crc) => {
                let ok = crc.residue() == crc.params().good_residue;
                crc.reset();
                ok
            }
            None => true,
        };

        if escape_pending {
            return Some(DeframeEvent::Discard(FrameError::Abort));
        }
        if body.is_empty() {
            // Back-to-back flags: inter-frame fill, silently ignored.
            return None;
        }
        if overrun {
            return Some(DeframeEvent::Discard(FrameError::Giant));
        }
        let fcs_len = self.config.fcs.len();
        if body.len() < fcs_len.max(1) {
            return Some(DeframeEvent::Discard(FrameError::Runt));
        }
        if !residue_ok {
            return Some(DeframeEvent::Discard(FrameError::FcsMismatch));
        }
        let mut body = body;
        body.truncate(body.len() - fcs_len);
        Some(DeframeEvent::Frame(body))
    }
}

impl Default for Deframer {
    fn default() -> Self {
        Self::new(DeframerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framer::{encode_frame, FramerConfig};

    fn round_trip(body: &[u8]) -> Vec<DeframeEvent> {
        let wire = encode_frame(body, FramerConfig::default());
        Deframer::default().push_bytes(&wire)
    }

    #[test]
    fn simple_round_trip() {
        let events = round_trip(b"\xff\x03\x00\x21hello ip");
        assert_eq!(
            events,
            vec![DeframeEvent::Frame(b"\xff\x03\x00\x21hello ip".to_vec())]
        );
    }

    #[test]
    fn pathological_flag_payload_round_trips() {
        let body = vec![FLAG; 100];
        let events = round_trip(&body);
        assert_eq!(events, vec![DeframeEvent::Frame(body)]);
    }

    #[test]
    fn idle_flags_are_silent() {
        let mut d = Deframer::default();
        assert!(d.push_bytes(&[FLAG; 64]).is_empty());
        assert_eq!(d.stats().frames_ok, 0);
    }

    #[test]
    fn corrupted_wire_byte_is_fcs_error() {
        let mut wire = encode_frame(b"payload bytes here", FramerConfig::default());
        // Flip a non-flag, non-escape payload bit.
        wire[3] ^= 0x01;
        let events = Deframer::default().push_bytes(&wire);
        assert_eq!(events, vec![DeframeEvent::Discard(FrameError::FcsMismatch)]);
    }

    #[test]
    fn escape_then_flag_aborts() {
        let mut d = Deframer::default();
        let events = d.push_bytes(&[FLAG, 0x41, 0x42, ESCAPE, FLAG]);
        assert_eq!(events, vec![DeframeEvent::Discard(FrameError::Abort)]);
        assert_eq!(d.stats().aborts, 1);
    }

    #[test]
    fn runt_frames_are_discarded() {
        let mut d = Deframer::default();
        // Two octets between flags can't even hold an FCS-32.
        let events = d.push_bytes(&[FLAG, 0x01, 0x02, FLAG]);
        assert_eq!(events, vec![DeframeEvent::Discard(FrameError::Runt)]);
    }

    #[test]
    fn giant_frames_are_discarded_and_bounded() {
        let config = DeframerConfig {
            max_body: 64,
            ..Default::default()
        };
        let body = vec![0u8; 1000];
        let wire = encode_frame(&body, FramerConfig::default());
        let mut d = Deframer::new(config);
        let events = d.push_bytes(&wire);
        assert_eq!(events, vec![DeframeEvent::Discard(FrameError::Giant)]);
        // Memory stays bounded no matter how long the wire run is.
        assert!(d.body.capacity() <= 2 * (config.max_body + 8));
    }

    #[test]
    fn stream_resynchronises_after_abort() {
        let mut d = Deframer::default();
        let mut wire = vec![FLAG, 0x11, ESCAPE, FLAG]; // aborted frame
        wire.extend(encode_frame(b"good frame", FramerConfig::default()));
        let events = d.push_bytes(&wire);
        assert_eq!(
            events,
            vec![
                DeframeEvent::Discard(FrameError::Abort),
                DeframeEvent::Frame(b"good frame".to_vec())
            ]
        );
        assert_eq!(d.stats().frames_ok, 1);
        assert_eq!(d.stats().aborts, 1);
    }

    #[test]
    fn arbitrary_chunking_is_equivalent() {
        let mut wire = Vec::new();
        let mut f = crate::framer::Framer::new(FramerConfig::default());
        for i in 0..10u8 {
            f.encode_into(&vec![i; 10 + i as usize], &mut wire);
        }
        let all_at_once = Deframer::default().push_bytes(&wire);
        let mut one_by_one = Vec::new();
        let mut d = Deframer::default();
        for &b in &wire {
            if let Some(e) = d.push_byte(b) {
                one_by_one.push(e);
            }
        }
        assert_eq!(all_at_once, one_by_one);
        assert_eq!(all_at_once.len(), 10);
    }

    #[test]
    fn fcs16_mode_round_trips() {
        let cfg = FramerConfig {
            fcs: FcsMode::Fcs16,
            ..Default::default()
        };
        let wire = encode_frame(b"sixteen bit fcs", cfg);
        let mut d = Deframer::new(DeframerConfig {
            fcs: FcsMode::Fcs16,
            ..Default::default()
        });
        assert_eq!(
            d.push_bytes(&wire),
            vec![DeframeEvent::Frame(b"sixteen bit fcs".to_vec())]
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Deframer::default();
        let mut wire = Vec::new();
        let mut f = crate::framer::Framer::new(FramerConfig::default());
        f.encode_into(b"frame one", &mut wire);
        f.encode_into(b"frame two!", &mut wire);
        d.push_bytes(&wire);
        assert_eq!(d.stats().frames_ok, 2);
        assert_eq!(d.stats().bytes_ok, 9 + 10);
    }

    #[test]
    fn resync_bound_covers_a_mid_frame_corruption() {
        // Corrupt a byte in the middle of one max-length frame, then keep
        // sending clean frames: a correct frame must be delivered again
        // within `resync_bound_bytes()` wire bytes of the corruption.
        let cfg = DeframerConfig {
            max_body: 64,
            ..Default::default()
        };
        let bound = cfg.resync_bound_bytes();
        assert_eq!(bound, 2 * (2 * (64 + 4) + 1) + 1);
        let mut f = crate::framer::Framer::new(FramerConfig::default());
        let mut wire = Vec::new();
        for i in 0..6u8 {
            f.encode_into(&[i ^ 0x7E; 64], &mut wire);
        }
        let hit = wire.len() / 3; // inside frame 2
        wire[hit] ^= 0x55;
        let mut d = Deframer::new(cfg);
        let mut resynced_at = None;
        for (pos, &b) in wire.iter().enumerate() {
            if let Some(DeframeEvent::Frame(_)) = d.push_byte(b) {
                if pos > hit {
                    resynced_at.get_or_insert(pos);
                }
            }
        }
        let pos = resynced_at.expect("delineation recovered");
        assert!(
            pos - hit <= bound,
            "resync took {} wire bytes, bound is {bound}",
            pos - hit
        );
    }
}
