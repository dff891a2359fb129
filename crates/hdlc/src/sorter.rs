//! The software byte sorter: octet stuffing and destuffing eight octets
//! per step on the octet-synchronous map (ACCM 0) — the paper's
//! Escape Generate / Escape Detect problem (Figures 5 and 6) solved
//! with word arithmetic instead of a sorting network.
//!
//! Each step loads one `u64` and marks its flag and escape octets with
//! an *exact* lane mask, one bit per lane.  Clean words are scanned on
//! and appended as one stretch.  A word with hits is sorted in a fixed
//! sequence with no branch per octet: a multiply turns the mask into
//! per-lane popcounts, which give every octet its output position.  On
//! transmit hit lane `k` puts `0x7D` at `k + popcount(hits below k)` and
//! its octet `^ 0x20` right after; on receive kept lane `k` lands at
//! `k - popcount(escapes below k)`, with the lane after each escape
//! XORed back.  The word is appended whole (sixteen `0x7D` on transmit,
//! itself on receive), sorted in place, and truncated to what it
//! encodes or decodes to.
//!
//! The oracles are the per-octet forms — `stuff_ref` (in
//! [`mod@crate::stuff`]) for transmit and [`crate::Deframer::push_byte`]
//! for receive — and the staged Escape Detect unit in `p5-core` is the
//! independent reference for the fused device path built on
//! [`destuff_run`].

use crate::{ESCAPE, ESCAPE_XOR, FLAG};

const LSB: u64 = 0x0101_0101_0101_0101;
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
/// Lane `k` holds `k`.
const LANE_INDEX: u64 = 0x0706_0504_0302_0100;

/// `0x80` in every byte lane of `word` equal to `b`, `0` in the others.
///
/// Exact per lane: no carry or borrow crosses a lane boundary, unlike
/// the `(v - 0x01…01) & !v & 0x80…80` zero-byte test, whose borrow can
/// also mark the lane above a true hit (a `0x7F` just above a `0x7E`).
#[inline]
const fn lanes_eq(word: u64, b: u8) -> u64 {
    let x = word ^ (LSB * b as u64);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// Running counts of a lane mask with one bit per lane (bit 0 of each
/// lane): lane `k` holds how many of lanes `0..=k` are marked, so the top
/// lane holds them all.  The sort needs the lane counts for positions
/// anyway, and the total read from them is one shift — the baseline
/// x86-64 target has no POPCNT, and a software popcount would sit on the
/// loop-carried output length.
#[inline]
const fn lane_counts(mask: u64) -> (u64, usize) {
    let counts = mask.wrapping_mul(LSB);
    (counts, (counts >> 56) as usize)
}

/// Does any lane of `word` hold a flag or an escape?  The zero-byte
/// test's borrow may mark the wrong lane, but never a word with no hit.
#[inline]
const fn any_special(word: u64) -> bool {
    let (f, e) = (word ^ (LSB * FLAG as u64), word ^ (LSB * ESCAPE as u64));
    (f.wrapping_sub(LSB) & !f | e.wrapping_sub(LSB) & !e) & !LOW7 != 0
}

/// Where the clean stretch of `bytes` that reaches `at` ends: whole
/// words are scanned on, and a clean tail shorter than a word joins too.
#[inline]
fn clean_end(bytes: &[u8], mut at: usize) -> usize {
    while let Some(c) = bytes[at..].first_chunk::<8>() {
        if any_special(u64::from_le_bytes(*c)) {
            return at;
        }
        at += 8;
    }
    if bytes[at..].iter().all(|&b| b != FLAG && b != ESCAPE) {
        bytes.len()
    } else {
        at
    }
}

/// Up to eight octets of `bytes` from `at` as a little-endian word,
/// zero-padded (a zero octet is neither flag nor escape), and how many
/// of its lanes are real.
#[inline]
fn load(bytes: &[u8], at: usize) -> (u64, usize) {
    let rest = &bytes[at..];
    if let Some(w) = rest.first_chunk::<8>() {
        return (u64::from_le_bytes(*w), 8);
    }
    let mut w = [0u8; 8];
    w[..rest.len()].copy_from_slice(rest);
    (u64::from_le_bytes(w), rest.len())
}

/// Stuff `body` onto `out` under the octet-synchronous map: every flag
/// and escape octet becomes `0x7D, octet ^ 0x20`.  Returns the number of
/// escapes inserted.
pub(crate) fn stuff(body: &[u8], out: &mut Vec<u8>) -> usize {
    let mut escapes = 0;
    let mut at = 0;
    while at < body.len() {
        let (w, n) = load(body, at);
        if !any_special(w) {
            // A clean stretch: scan on, then append it in one piece.
            let end = clean_end(body, at + n);
            out.extend_from_slice(&body[at..end]);
            at = end;
            continue;
        }
        let hits = lanes_eq(w, FLAG) | lanes_eq(w, ESCAPE);
        // Lane k's octet lands at k + popcount(hits in lanes 0..=k):
        // right after its escape when it is a hit.  Every slot no octet
        // lands in is an escape, so the word starts as sixteen 0x7D.
        let o = out.len();
        out.extend_from_slice(&[ESCAPE; 16]);
        let dst = out[o..].first_chunk_mut::<16>().expect("just appended");
        let h = hits >> 7;
        let (counts, inserted) = lane_counts(h);
        let to = (counts + LANE_INDEX).to_le_bytes();
        let octets = (w ^ (h * u64::from(ESCAPE_XOR))).to_le_bytes();
        for (&to, &b) in to.iter().zip(&octets) {
            dst[usize::from(to & 15)] = b;
        }
        out.truncate(o + n + inserted);
        escapes += inserted;
        at += n;
    }
    escapes
}

/// What one [`destuff_run`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Destuffed {
    /// Wire octets consumed: everything before the first flag, or all
    /// of the input when it holds none.
    pub consumed: usize,
    /// Escape sequences decoded.  An escape whose next octet has not
    /// arrived is left pending and counted by the call that decodes it,
    /// so an aborted frame (`7D 7E`) adds nothing.
    pub escapes: usize,
    /// Decoded octets were dropped because `out` had reached `cap`.
    pub overrun: bool,
}

/// Destuff the flag-free run at the front of `wire` onto `out`.
///
/// Stops at the first flag (which the caller handles: close, abort or
/// idle fill) or at the end of `wire`.  Escape octets are compacted out
/// and the octet after each is XORed with `0x20`; `pending` carries an
/// escape whose octet is still to come across calls — on return it is
/// set iff the run ended right after an unconsumed escape.  `out` never
/// ends longer than `cap`: decoded octets past it are dropped and
/// reported as [`Destuffed::overrun`], exactly as a giant frame's tail.
#[inline]
pub fn destuff_run(wire: &[u8], pending: &mut bool, out: &mut Vec<u8>, cap: usize) -> Destuffed {
    debug_assert!(out.len() <= cap, "out already past its cap");
    let mut carry = *pending;
    let mut escapes = 0;
    let mut overrun = false;
    let mut at = 0;
    while at < wire.len() {
        let (w, n) = load(wire, at);
        let flags = lanes_eq(w, FLAG);
        let escs = lanes_eq(w, ESCAPE);
        if (flags | escs == 0) & !carry {
            // A clean stretch: scan on, then append it in one piece.
            let end = clean_end(wire, at + n);
            let take = (end - at).min(cap.saturating_sub(out.len()));
            overrun |= take < end - at;
            out.extend_from_slice(&wire[at..at + take]);
            at = end;
            continue;
        }
        // Lanes before the first flag belong to this run.
        let live = if flags == 0 {
            n
        } else {
            flags.trailing_zeros() as usize / 8
        };
        if live > 0 {
            // Append the word, sort it in place, keep what it decodes to.
            let o = out.len();
            out.extend_from_slice(&w.to_le_bytes());
            let dst = out[o..].first_chunk_mut::<8>().expect("just appended");
            let (kept, decoded) = destuff_word(w, escs, live, &mut carry, dst);
            escapes += decoded;
            overrun |= o + kept > cap;
            out.truncate((o + kept).min(cap));
        }
        at += live;
        if flags != 0 {
            break;
        }
    }
    *pending = carry;
    Destuffed {
        consumed: at,
        escapes,
        overrun,
    }
}

/// How many flag octets open `wire`: the idle fill a receiver between
/// frames counts and skips, eight octets per step.
#[inline]
pub fn flag_run(wire: &[u8]) -> usize {
    let mut at = 0;
    while let Some(c) = wire[at..].first_chunk::<8>() {
        // Non-zero exactly in the lanes that are not a flag.
        let other = u64::from_le_bytes(*c) ^ (LSB * FLAG as u64);
        if other != 0 {
            return at + other.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    at + wire[at..].iter().take_while(|&&b| b == FLAG).count()
}

/// Destuff lanes `0..live` (`live` in 1..=8) of `w`, whose escape
/// octets `escs` marks, into `dst`.  Returns the octets kept and the
/// escapes decoded.
#[inline]
fn destuff_word(
    mut w: u64,
    escs: u64,
    live: usize,
    pending: &mut bool,
    dst: &mut [u8; 8],
) -> (usize, usize) {
    // Lane 0 is the octet of an escape left pending by the last word.
    let carried = u64::from(*pending) << 7;
    let mut e = escs & (u64::MAX >> (64 - 8 * live)) & !carried;
    // `7D 7D` (irregular, but legal) decodes to an octet: in a run of
    // escape octets only every other one escapes, so resolve left to
    // right.  A conforming transmitter never sends one.
    if e & (e << 8) != 0 {
        let mut rest = e;
        e = 0;
        while rest != 0 {
            let first = rest & rest.wrapping_neg();
            e |= first;
            rest &= !(first | first << 8);
        }
    }
    let decoded = (e << 8) | carried;
    w ^= (decoded >> 7) * u64::from(ESCAPE_XOR);
    // Kept lane k lands at k - popcount(escapes in lanes 0..k); an escape
    // lane lands where the octet after it will overwrite it, or past
    // the end.
    let e1 = e >> 7;
    let (counts, n_esc) = lane_counts(e1);
    let to = (LANE_INDEX - (counts - e1)).to_le_bytes();
    for (&to, &b) in to.iter().zip(&w.to_le_bytes()) {
        dst[usize::from(to & 7)] = b;
    }
    // An escape in the last live lane waits for its octet.
    let ends_pending = (e >> (8 * live - 1)) & 1 != 0;
    *pending = ends_pending;
    (
        live - n_esc,
        n_esc + usize::from(carried != 0) - usize::from(ends_pending),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stuff::{stuff_ref, Accm};
    use crate::Deframer;

    /// The per-octet destuffer the kernel must match: `push_byte`'s
    /// escape rule on a flag-free run, with the giant cap.
    fn destuff_oracle(wire: &[u8], pending: &mut bool, out: &mut Vec<u8>, cap: usize) -> Destuffed {
        let mut r = Destuffed {
            consumed: 0,
            escapes: 0,
            overrun: false,
        };
        for &b in wire {
            if b == FLAG {
                break;
            }
            r.consumed += 1;
            let decoded = if std::mem::take(pending) {
                r.escapes += 1;
                b ^ ESCAPE_XOR
            } else if b == ESCAPE {
                *pending = true;
                continue;
            } else {
                b
            };
            if out.len() < cap {
                out.push(decoded);
            } else {
                r.overrun = true;
            }
        }
        r
    }

    /// Every word phase and every mix of flag, escape, near-miss and
    /// clean octets, drawn from a fixed LCG.
    fn corpus() -> Vec<Vec<u8>> {
        const ALPHABET: [u8; 6] = [FLAG, ESCAPE, 0x7F, 0x7C, 0x5E, 0x41];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize
        };
        let mut v = Vec::new();
        for len in 0..40 {
            for _ in 0..60 {
                v.push((0..len).map(|_| ALPHABET[next() % 6]).collect());
            }
        }
        v
    }

    #[test]
    fn lane_counts_match_popcount_on_every_lane_mask() {
        for marked in 0..=255u32 {
            let mask = (0..8)
                .filter(|k| marked >> k & 1 != 0)
                .fold(0u64, |m, k| m | 1 << (8 * k));
            let (counts, total) = lane_counts(mask);
            assert_eq!(total, marked.count_ones() as usize, "mask {marked:08b}");
            for (k, &c) in counts.to_le_bytes().iter().enumerate() {
                let below = marked & ((2u32 << k) - 1);
                assert_eq!(
                    u32::from(c),
                    below.count_ones(),
                    "mask {marked:08b}, lane {k}"
                );
            }
        }
    }

    #[test]
    fn lane_mask_is_exact() {
        // The zero-byte trick's borrow would also mark the 0x7F above a
        // 0x7E; the exact mask marks only the hit.
        let w = u64::from_le_bytes([0x7E, 0x7F, 0x00, 0x7D, 0xFE, 0x7E, 0x01, 0xFF]);
        assert_eq!(lanes_eq(w, FLAG), 0x0000_8000_0000_0080);
        assert_eq!(lanes_eq(w, ESCAPE), 0x0000_0000_8000_0000);
        for lane in 0..8 {
            for other in [0x00, 0x7C, 0x7F, 0x80, 0xFE, 0xFF] {
                let mut bytes = [other; 8];
                bytes[lane] = FLAG;
                assert_eq!(
                    lanes_eq(u64::from_le_bytes(bytes), FLAG),
                    0x80 << (8 * lane)
                );
            }
        }
    }

    #[test]
    fn stuff_matches_the_per_octet_reference() {
        for body in corpus() {
            let mut fast = vec![0xAA; 3];
            let mut slow = vec![0xAA; 3];
            let n = stuff(&body, &mut fast);
            assert_eq!(n, stuff_ref(&body, Accm::SONET, &mut slow));
            assert_eq!(fast, slow, "body {body:02x?}");
        }
    }

    #[test]
    fn destuff_run_matches_the_per_octet_oracle() {
        for wire in corpus() {
            for pending_in in [false, true] {
                for cap in [usize::MAX / 2, 2, 7, 13] {
                    let (mut p_fast, mut p_slow) = (pending_in, pending_in);
                    let (mut fast, mut slow) = (vec![1u8], vec![1u8]);
                    let got = destuff_run(&wire, &mut p_fast, &mut fast, cap);
                    let want = destuff_oracle(&wire, &mut p_slow, &mut slow, cap);
                    assert_eq!(got, want, "wire {wire:02x?} pending {pending_in} cap {cap}");
                    assert_eq!(
                        fast, slow,
                        "wire {wire:02x?} pending {pending_in} cap {cap}"
                    );
                    assert_eq!(p_fast, p_slow);
                }
            }
        }
    }

    #[test]
    fn destuff_run_agrees_with_push_byte_across_chunks() {
        let mut wire = Vec::new();
        for body in corpus().iter().step_by(7) {
            wire.extend(crate::framer::encode_frame(body, Default::default()));
        }
        let mut bulk = Deframer::default();
        let mut one = Deframer::default();
        for chunk in wire.chunks(11) {
            let events = bulk.push_bytes(chunk);
            let want: Vec<_> = chunk.iter().filter_map(|&b| one.push_byte(b)).collect();
            assert_eq!(events, want);
        }
        assert_eq!(bulk.stats(), one.stats());
    }

    #[test]
    fn flag_run_counts_the_leading_flags_at_every_phase() {
        for wire in corpus() {
            let want = wire.iter().take_while(|&&b| b == FLAG).count();
            assert_eq!(flag_run(&wire), want, "wire {wire:02x?}");
        }
        for run in 0..40 {
            for tail in [&[][..], &[0x7F], &[ESCAPE, FLAG], &[0x00; 9]] {
                let mut wire = vec![FLAG; run];
                wire.extend_from_slice(tail);
                assert_eq!(flag_run(&wire), run, "run {run} tail {tail:02x?}");
            }
        }
    }

    #[test]
    fn abort_leaves_its_escape_pending_and_uncounted() {
        let mut pending = false;
        let mut out = Vec::new();
        let r = destuff_run(&[0x41, ESCAPE, FLAG, 0x42], &mut pending, &mut out, 64);
        assert_eq!((r.consumed, r.escapes, r.overrun), (2, 0, false));
        assert!(pending);
        assert_eq!(out, [0x41]);
    }
}
