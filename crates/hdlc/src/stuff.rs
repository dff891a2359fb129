//! Octet stuffing and destuffing — the core transformation the paper's
//! Escape Generate and Escape Detect units perform in hardware.

use crate::{ESCAPE, ESCAPE_XOR, FLAG};

/// Async-Control-Character-Map (RFC 1662 §7.1): a bit per octet 0x00–0x1F
/// that must additionally be escaped on async links.  On
/// PPP-over-SONET/SDH the map is effectively zero (octet-synchronous link);
/// it is kept programmable because the OAM exposes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Accm(pub u32);

impl Accm {
    /// The all-zero map used on octet-synchronous (SONET/SDH) links.
    pub const SONET: Accm = Accm(0);
    /// The RFC 1662 default for async links: escape all of 0x00–0x1F.
    pub const ASYNC_DEFAULT: Accm = Accm(0xFFFF_FFFF);

    /// Must `byte` be escaped before transmission under this map?
    #[inline]
    pub fn must_escape(&self, byte: u8) -> bool {
        byte == FLAG || byte == ESCAPE || (byte < 0x20 && self.0 & (1 << byte) != 0)
    }
}

/// Stuff `body` into `out` (appending).  Returns the number of escape
/// octets inserted.
///
/// On the octet-synchronous SONET map ([`Accm::SONET`]) only `0x7E`
/// and `0x7D` need escaping, so a body of a word or more goes through
/// the word-wide byte sorter ([`crate::sorter`]).  A shorter one (a
/// frame's header or FCS) is appended as one block when it holds
/// neither, and otherwise — like any body under a non-zero ACCM — takes
/// the exact per-octet path, which is cheaper than a word step there.
pub fn stuff_into(body: &[u8], accm: Accm, out: &mut Vec<u8>) -> usize {
    if accm != Accm::SONET {
        stuff_ref(body, accm, out)
    } else if body.len() >= 8 {
        crate::sorter::stuff(body, out)
    } else if body.iter().all(|&b| b != FLAG && b != ESCAPE) {
        out.extend_from_slice(body);
        0
    } else {
        stuff_ref(body, accm, out)
    }
}

/// The per-octet stuffer: the path for a non-zero ACCM, and the oracle
/// the sorter is tested against on the SONET map.
pub(crate) fn stuff_ref(body: &[u8], accm: Accm, out: &mut Vec<u8>) -> usize {
    let mut escapes = 0;
    for &b in body {
        if accm.must_escape(b) {
            out.push(ESCAPE);
            out.push(b ^ ESCAPE_XOR);
            escapes += 1;
        } else {
            out.push(b);
        }
    }
    escapes
}

/// Stuff `body` into a fresh vector.
pub fn stuff(body: &[u8], accm: Accm) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + body.len() / 8 + 4);
    stuff_into(body, accm, &mut out);
    out
}

/// Result of destuffing one inter-flag region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DestuffOutcome {
    /// Clean destuff.
    Ok(Vec<u8>),
    /// The region ended with a dangling escape octet (the closing flag
    /// followed `0x7D`) — an abort per RFC 1662.
    Aborted,
    /// An escaped octet decoded to a value that should never be escaped —
    /// accepted (the XOR is still applied) but flagged, since a conforming
    /// transmitter never produces it.  Carries the decoded bytes.
    Irregular(Vec<u8>),
}

/// Destuff one region of wire bytes that contains no flag octets, with
/// the word-wide byte sorter ([`crate::sorter::destuff_run`]).
pub fn destuff(wire: &[u8]) -> DestuffOutcome {
    let mut out = Vec::with_capacity(wire.len());
    let mut pending = false;
    let run = crate::sorter::destuff_run(wire, &mut pending, &mut out, wire.len());
    debug_assert_eq!(run.consumed, wire.len(), "destuff input must be flag-free");
    if pending {
        return DestuffOutcome::Aborted;
    }
    // A conforming peer only escapes octets that need it: flag, escape
    // and the control range, i.e. it sends 5E, 5D or 20..=3F after an
    // escape.  Testing every 0x7D's successor gives the same verdict as
    // testing only the true escapes: a 0x7D that is not an escape was
    // itself decoded from `7D 7D`, which is irregular.
    let regular = |b: u8| b == FLAG ^ ESCAPE_XOR || b == ESCAPE ^ ESCAPE_XOR || b & 0xE0 == 0x20;
    let irregular = run.escapes > 0
        && wire
            .windows(2)
            .any(|pair| pair[0] == ESCAPE && !regular(pair[1]));
    if irregular {
        DestuffOutcome::Irregular(out)
    } else {
        DestuffOutcome::Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // Paper §2: 31 33 7E 96 → 31 33 7D 5E 96.
        let body = [0x31, 0x33, 0x7E, 0x96];
        assert_eq!(
            stuff(&body, Accm::SONET),
            vec![0x31, 0x33, 0x7D, 0x5E, 0x96]
        );
    }

    #[test]
    fn escape_octet_itself_is_stuffed() {
        assert_eq!(stuff(&[0x7D], Accm::SONET), vec![0x7D, 0x5D]);
    }

    #[test]
    fn accm_controls_low_octets() {
        // 0x03 is transparent on SONET links but escaped under the async
        // default map.
        assert_eq!(stuff(&[0x03], Accm::SONET), vec![0x03]);
        assert_eq!(stuff(&[0x03], Accm::ASYNC_DEFAULT), vec![0x7D, 0x23]);
        // Byte 0x1F is bit 31 of the map.
        assert_eq!(stuff(&[0x1F], Accm(1 << 0x1F)), vec![0x7D, 0x3F]);
        assert_eq!(stuff(&[0x1F], Accm(0)), vec![0x1F]);
    }

    #[test]
    fn destuff_round_trip() {
        let body: Vec<u8> = (0..=255u8).collect();
        let wire = stuff(&body, Accm::SONET);
        assert_eq!(destuff(&wire), DestuffOutcome::Ok(body));
    }

    #[test]
    fn all_flags_body_doubles_in_size() {
        // The paper's worst case: every lane holds a flag character.
        let body = [FLAG; 16];
        let wire = stuff(&body, Accm::SONET);
        assert_eq!(wire.len(), 32);
        assert_eq!(destuff(&wire), DestuffOutcome::Ok(body.to_vec()));
    }

    #[test]
    fn dangling_escape_is_abort() {
        assert_eq!(destuff(&[0x41, ESCAPE]), DestuffOutcome::Aborted);
    }

    #[test]
    fn irregular_escape_is_flagged_but_decoded() {
        // 0x7D 0x61 decodes to 0x41, which never needs escaping.
        match destuff(&[ESCAPE, 0x41 ^ ESCAPE_XOR]) {
            DestuffOutcome::Irregular(v) => assert_eq!(v, vec![0x41]),
            other => panic!("expected Irregular, got {other:?}"),
        }
    }

    #[test]
    fn stuff_reports_escape_count() {
        let mut out = Vec::new();
        let n = stuff_into(&[0x7E, 0x00, 0x7D, 0x7E], Accm::SONET, &mut out);
        assert_eq!(n, 3);
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn short_bodies_match_the_per_octet_stuffer() {
        // Every body of up to four octets over flag, escape, their
        // neighbours and a clean octet, appended after earlier output.
        let alphabet = [FLAG, ESCAPE, 0x7C, 0x7F, 0x5E, 0x00];
        for len in 0..=4u32 {
            for code in 0..6usize.pow(len) {
                let body: Vec<u8> = (0..len)
                    .map(|i| alphabet[code / 6usize.pow(i) % 6])
                    .collect();
                let (mut got, mut want) = (vec![0x11], vec![0x11]);
                let n = stuff_into(&body, Accm::SONET, &mut got);
                assert_eq!(n, stuff_ref(&body, Accm::SONET, &mut want), "{body:02X?}");
                assert_eq!(got, want, "{body:02X?}");
            }
        }
    }

    #[test]
    fn empty_body() {
        assert!(stuff(&[], Accm::SONET).is_empty());
        assert_eq!(destuff(&[]), DestuffOutcome::Ok(vec![]));
    }
}
