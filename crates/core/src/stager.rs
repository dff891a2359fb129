//! The byte-sorting staging store — the heart of the paper's 32-bit
//! escape units.
//!
//! Stuffing turns a 4-byte word into up to 8 bytes; destuffing shrinks
//! it.  The hardware solves the repacking with a combinational byte
//! sorter feeding an "extremely low resynchronisation buffer".  This
//! module is the behavioural model of that buffer: a small ring of
//! tagged bytes from which full output words are re-assembled, with the
//! occupancy observable for the backpressure scheme.

use crate::word::{Word, MAX_LANES};
use std::collections::VecDeque;

/// A staged byte with its frame-delineation tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Staged {
    byte: u8,
    sof: bool,
    eof: bool,
    abort: bool,
}

/// End-of-frame marker that may arrive *after* the last byte already
/// left (receive side: the closing flag is seen a word later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Byte(Staged),
    /// Frame-end strobe with no byte attached.
    End {
        abort: bool,
    },
}

/// Ring buffer of tagged bytes with word-granularity pop.
#[derive(Debug, Clone)]
pub struct ByteStager {
    items: VecDeque<Item>,
    capacity: usize,
}

impl ByteStager {
    pub fn new(capacity: usize) -> Self {
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in items.
    pub fn occupancy(&self) -> usize {
        self.items.len()
    }

    pub fn free(&self) -> usize {
        self.capacity.saturating_sub(self.items.len())
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Push one byte with tags.  Panics on overflow — callers must gate
    /// pushes on [`free`](Self::free) (that gate *is* the backpressure).
    pub fn push_byte(&mut self, byte: u8, sof: bool, eof: bool) {
        assert!(
            self.items.len() < self.capacity,
            "resynchronisation buffer overflow — backpressure failed"
        );
        self.items.push_back(Item::Byte(Staged {
            byte,
            sof,
            eof,
            abort: false,
        }));
    }

    /// Push a byte-less end-of-frame strobe.
    pub fn push_end(&mut self, abort: bool) {
        assert!(self.items.len() < self.capacity, "staging overflow");
        self.items.push_back(Item::End { abort });
    }

    /// Try to pop one output word of up to `width` lanes.
    ///
    /// Words never span frames: popping stops after an `eof` byte, and a
    /// pending `sof` byte never joins a word that already has content.
    /// A full word is emitted eagerly; a partial word only when it
    /// carries `eof` (or `force` is set — final flush).
    pub fn pop_word(&mut self, width: usize, force: bool) -> Option<Word> {
        debug_assert!(width <= MAX_LANES);
        // Decide whether a word is ready before mutating.
        let mut count = 0usize;
        let mut complete = false;
        for it in self.items.iter() {
            match it {
                Item::Byte(s) => {
                    if count > 0 && s.sof {
                        complete = true; // frame boundary before this byte
                        break;
                    }
                    count += 1;
                    if s.eof || count == width {
                        complete = true;
                        break;
                    }
                }
                Item::End { .. } => {
                    complete = true;
                    break;
                }
            }
        }
        if count == 0 {
            // Only a dangling End strobe can produce an empty eof word.
            if let Some(Item::End { abort }) = self.items.front().copied() {
                self.items.pop_front();
                return Some(Word {
                    eof: true,
                    abort,
                    ..Default::default()
                });
            }
            return None;
        }
        if !complete && !force {
            return None;
        }

        let mut word = Word::default();
        for lane in 0..count {
            match self.items.pop_front() {
                Some(Item::Byte(s)) => {
                    word.bytes[lane] = s.byte;
                    word.len += 1;
                    if s.sof {
                        word.sof = true;
                    }
                    if s.eof {
                        word.eof = true;
                        word.abort |= s.abort;
                    }
                }
                _ => unreachable!("counted bytes above"),
            }
        }
        // Absorb an immediately following End strobe into this word.
        if !word.eof {
            if let Some(Item::End { abort }) = self.items.front().copied() {
                self.items.pop_front();
                word.eof = true;
                word.abort = abort;
            }
        }
        Some(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_frame(s: &mut ByteStager, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            s.push_byte(b, i == 0, i == bytes.len() - 1);
        }
    }

    #[test]
    fn full_words_pop_eagerly() {
        let mut s = ByteStager::new(32);
        push_frame(&mut s, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let w = s.pop_word(4, false).unwrap();
        assert_eq!(w.lanes(), &[1, 2, 3, 4]);
        assert!(w.sof && !w.eof);
        let w = s.pop_word(4, false).unwrap();
        assert_eq!(w.lanes(), &[5, 6, 7, 8]);
        assert!(!w.sof && w.eof);
        assert!(s.pop_word(4, false).is_none());
    }

    #[test]
    fn partial_word_waits_unless_eof_or_forced() {
        let mut s = ByteStager::new(32);
        s.push_byte(9, true, false);
        s.push_byte(8, false, false);
        assert!(
            s.pop_word(4, false).is_none(),
            "mid-frame partial must wait"
        );
        assert_eq!(s.pop_word(4, true).unwrap().lanes(), &[9, 8]);
    }

    #[test]
    fn eof_terminates_word_early() {
        let mut s = ByteStager::new(32);
        push_frame(&mut s, &[1, 2]);
        push_frame(&mut s, &[3, 4, 5, 6]);
        let w = s.pop_word(4, false).unwrap();
        assert_eq!(w.lanes(), &[1, 2]);
        assert!(w.sof && w.eof, "frame of 2 bytes in one word");
        let w = s.pop_word(4, false).unwrap();
        assert_eq!(w.lanes(), &[3, 4, 5, 6]);
        assert!(w.sof && w.eof);
    }

    #[test]
    fn words_never_span_frames() {
        let mut s = ByteStager::new(32);
        push_frame(&mut s, &[1, 2, 3]);
        push_frame(&mut s, &[4, 5, 6, 7]);
        let w = s.pop_word(4, false).unwrap();
        assert_eq!(w.lanes(), &[1, 2, 3]);
        assert!(w.eof);
        let w = s.pop_word(4, false).unwrap();
        assert_eq!(w.lanes(), &[4, 5, 6, 7]);
        assert!(w.sof);
    }

    #[test]
    fn end_strobe_yields_empty_eof_word() {
        let mut s = ByteStager::new(32);
        s.push_byte(1, true, false);
        s.push_byte(2, false, false);
        s.push_byte(3, false, false);
        s.push_byte(4, false, false);
        s.push_end(false);
        let w = s.pop_word(4, false).unwrap();
        assert_eq!(w.lanes(), &[1, 2, 3, 4]);
        assert!(w.eof, "end strobe right after a full word folds into it");
        assert!(s.pop_word(4, false).is_none());
    }

    #[test]
    fn detached_end_strobe_emits_len_zero_word() {
        let mut s = ByteStager::new(32);
        s.push_end(true);
        let w = s.pop_word(4, false).unwrap();
        assert_eq!(w.len, 0);
        assert!(w.eof && w.abort);
    }

    #[test]
    #[should_panic(expected = "backpressure failed")]
    fn overflow_panics() {
        let mut s = ByteStager::new(2);
        s.push_byte(1, false, false);
        s.push_byte(2, false, false);
        s.push_byte(3, false, false);
    }

    #[test]
    fn occupancy_tracking() {
        let mut s = ByteStager::new(8);
        assert_eq!(s.free(), 8);
        push_frame(&mut s, &[1, 2, 3]);
        assert_eq!(s.occupancy(), 3);
        assert_eq!(s.free(), 5);
        s.pop_word(4, false);
        assert!(s.is_empty());
    }

    #[test]
    fn width_one_datapath() {
        let mut s = ByteStager::new(8);
        push_frame(&mut s, &[0xAA, 0xBB]);
        let w = s.pop_word(1, false).unwrap();
        assert_eq!(w.lanes(), &[0xAA]);
        assert!(w.sof && !w.eof);
        let w = s.pop_word(1, false).unwrap();
        assert_eq!(w.lanes(), &[0xBB]);
        assert!(w.eof);
    }
}
