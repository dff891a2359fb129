//! `WireBuf`: the batched transfer unit that moves between stages.
//!
//! A `WireBuf` is contiguous byte storage with a read cursor (so consumers
//! see one zero-copy `&[u8]` slice, not per-byte `pop_front`s) plus a small
//! run-length list of *segments* carrying the hardware sideband tags
//! (SOF/EOF/abort).  Untagged segments model the raw wire — octets with no
//! delineation, exactly what travels between the escape stage and the PHY.
//! Tagged segments model delineated frames — what travels between packet
//! stages, where the RTL would assert `sof`/`eof` strobes alongside the
//! data lanes.
//!
//! All mutation is batched: `push_slice`/`extend_frame` are single
//! `extend_from_slice` calls, `consume` is a cursor bump with amortised
//! compaction, and [`WireBuf::move_from`] transfers any prefix between two
//! buffers while preserving tags (splitting a frame across the boundary
//! keeps it reassemblable: the continuation merges back on arrival).

use std::collections::VecDeque;

/// Compact when at least this much dead prefix has accumulated…
const COMPACT_MIN_DEAD: usize = 4096;

/// Delineation metadata returned when a complete frame is popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Frame length in bytes.
    pub len: usize,
    /// The frame was aborted by the sender / on the wire.
    pub abort: bool,
    /// Trace id riding alongside the frame (see `p5_trace::FrameId`);
    /// `0` when the producer did not assign one.
    pub id: u32,
}

/// One tagged run of bytes.  Invariant: `len > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seg {
    len: usize,
    /// Untagged segments are raw wire octets; tagged segments belong to a
    /// delineated frame.
    tagged: bool,
    sof: bool,
    eof: bool,
    abort: bool,
    /// Trace id of the frame this run belongs to (0 = untracked).
    id: u32,
}

/// Batched, tagged byte buffer — the software wire between two stages.
#[derive(Debug, Default)]
pub struct WireBuf {
    data: Vec<u8>,
    read: usize,
    segs: VecDeque<Seg>,
    /// `begin_frame` was called and no bytes have been pushed yet, so the
    /// next `extend_frame` must raise SOF.
    building_sof: bool,
    /// Trace id of the frame currently being built (0 = untracked).
    building_id: u32,
    /// Recycled storage handed back via [`WireBuf::recycle`].
    spare: Vec<u8>,
}

impl WireBuf {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        WireBuf {
            data: Vec::with_capacity(cap),
            ..Default::default()
        }
    }

    /// Unconsumed bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.read
    }

    pub fn is_empty(&self) -> bool {
        self.read == self.data.len()
    }

    /// Zero-copy view of every unconsumed byte.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.read..]
    }

    pub fn clear(&mut self) {
        self.data.clear();
        self.read = 0;
        self.segs.clear();
        self.building_sof = false;
        self.building_id = 0;
    }

    fn merge_or_push(&mut self, seg: Seg) {
        if seg.len == 0 {
            // Only an EOF/abort strobe can be empty: it closes the open
            // frame segment if there is one, otherwise there is nothing it
            // can delimit and it is dropped (zero-length frames are not
            // representable — no stage in this stack produces one).
            if seg.eof {
                if let Some(back) = self.segs.back_mut() {
                    if back.tagged && !back.eof && !seg.sof {
                        back.eof = true;
                        back.abort |= seg.abort;
                        if back.id == 0 {
                            back.id = seg.id;
                        }
                    }
                }
            }
            return;
        }
        if let Some(back) = self.segs.back_mut() {
            if !back.tagged && !seg.tagged {
                back.len += seg.len;
                return;
            }
            if back.tagged && !back.eof && seg.tagged && !seg.sof {
                back.len += seg.len;
                back.eof = seg.eof;
                back.abort |= seg.abort;
                // A continuation inherits the open frame's id; an id
                // arriving on the continuation (e.g. the tail of a frame
                // split by `move_from`) fills in an untracked head.
                if back.id == 0 {
                    back.id = seg.id;
                }
                return;
            }
        }
        self.segs.push_back(seg);
    }

    /// Append raw (untagged) wire octets in one batched copy.
    pub fn push_slice(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.data.extend_from_slice(bytes);
        self.merge_or_push(Seg {
            len: bytes.len(),
            tagged: false,
            sof: false,
            eof: false,
            abort: false,
            id: 0,
        });
    }

    /// Append one tagged word/run — the software image of driving the data
    /// lanes with `sof`/`eof`/`abort` strobes for one or more beats.
    pub fn push_tagged(&mut self, bytes: &[u8], sof: bool, eof: bool, abort: bool) {
        self.push_tagged_id(bytes, sof, eof, abort, 0);
    }

    /// [`WireBuf::push_tagged`] with an explicit trace id riding the run.
    pub fn push_tagged_id(&mut self, bytes: &[u8], sof: bool, eof: bool, abort: bool, id: u32) {
        self.data.extend_from_slice(bytes);
        self.merge_or_push(Seg {
            len: bytes.len(),
            tagged: true,
            sof,
            eof,
            abort,
            id,
        });
    }

    /// Append one complete frame (SOF+EOF in a single call).
    pub fn push_frame(&mut self, bytes: &[u8]) {
        self.push_frame_with_id(bytes, 0);
    }

    /// Append one complete frame carrying a trace id.
    pub fn push_frame_with_id(&mut self, bytes: &[u8], id: u32) {
        debug_assert!(
            !bytes.is_empty(),
            "zero-length frames are not representable"
        );
        self.push_tagged_id(bytes, true, true, false, id);
    }

    /// Open a frame to be built incrementally with [`WireBuf::extend_frame`]
    /// and closed by [`WireBuf::end_frame`].
    pub fn begin_frame(&mut self) {
        self.begin_frame_with_id(0);
    }

    /// [`WireBuf::begin_frame`] with a trace id that will tag every run of
    /// the frame until [`WireBuf::end_frame`].
    pub fn begin_frame_with_id(&mut self, id: u32) {
        self.building_sof = true;
        self.building_id = id;
    }

    pub fn extend_frame(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let sof = self.building_sof;
        self.building_sof = false;
        self.push_tagged_id(bytes, sof, false, false, self.building_id);
    }

    pub fn end_frame(&mut self, abort: bool) {
        self.building_sof = false;
        let id = self.building_id;
        self.building_id = 0;
        self.push_tagged_id(&[], false, true, abort, id);
    }

    /// Discard `n` unconsumed bytes from the front (cursor bump; the
    /// backing storage is compacted amortised, never per byte).
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consume past end of WireBuf");
        self.read += n;
        let mut rem = n;
        while rem > 0 {
            let front = self
                .segs
                .front_mut()
                .expect("WireBuf segment accounting out of sync");
            if front.len <= rem {
                rem -= front.len;
                self.segs.pop_front();
            } else {
                front.len -= rem;
                // A partially consumed frame no longer starts here.
                front.sof = false;
                rem = 0;
            }
        }
        if self.read == self.data.len() {
            self.data.clear();
            self.read = 0;
        } else if self.read >= COMPACT_MIN_DEAD && self.read >= self.data.len() / 2 {
            self.data.drain(..self.read);
            self.read = 0;
        }
    }

    /// Does the front of the buffer hold a complete (EOF-terminated) frame?
    pub fn frame_ready(&self) -> bool {
        matches!(self.segs.front(), Some(s) if s.tagged && s.eof)
    }

    /// Number of complete frames currently delineated in the buffer.
    pub fn frames_ready(&self) -> usize {
        self.segs.iter().filter(|s| s.tagged && s.eof).count()
    }

    /// Pop the front frame into a caller-provided buffer (cleared first),
    /// or return `None` if the front of the stream is not a complete frame.
    pub fn pop_frame_into(&mut self, out: &mut Vec<u8>) -> Option<FrameMeta> {
        let seg = *self.segs.front()?;
        if !seg.tagged || !seg.eof {
            return None;
        }
        out.clear();
        out.extend_from_slice(&self.as_slice()[..seg.len]);
        self.consume(seg.len);
        Some(FrameMeta {
            len: seg.len,
            abort: seg.abort,
            id: seg.id,
        })
    }

    /// Pop the front frame, allocating (convenience for tests).
    pub fn pop_frame(&mut self) -> Option<(Vec<u8>, FrameMeta)> {
        let mut v = Vec::new();
        let meta = self.pop_frame_into(&mut v)?;
        Some((v, meta))
    }

    /// Move up to `max` bytes from `src` into `self`, preserving tags.  A
    /// frame split by the byte budget stays reassemblable: the head arrives
    /// with SOF but no EOF, and the continuation merges into it on the next
    /// call.  Returns the number of bytes moved.
    pub fn move_from(&mut self, src: &mut WireBuf, max: usize) -> usize {
        let total = src.len().min(max);
        if total == 0 {
            return 0;
        }
        let bytes = &src.data[src.read..src.read + total];
        let mut moved = 0;
        for seg in src.segs.iter() {
            if moved == total {
                break;
            }
            let take = seg.len.min(total - moved);
            let whole = take == seg.len;
            self.data.extend_from_slice(&bytes[moved..moved + take]);
            self.merge_or_push(Seg {
                len: take,
                tagged: seg.tagged,
                sof: seg.sof,
                eof: seg.eof && whole,
                abort: seg.abort && whole,
                id: seg.id,
            });
            moved += take;
        }
        src.consume(total);
        total
    }

    /// Append untagged wire octets produced directly into the backing
    /// storage — the zero-copy sibling of [`WireBuf::push_slice`] for
    /// producers that assemble bytes in place (the fused Tx fast path
    /// stuffs a whole frame straight into the wire buffer this way).
    /// `f` may only append to the `Vec`; returns the number of bytes
    /// appended.
    pub fn extend_untagged_with(&mut self, f: impl FnOnce(&mut Vec<u8>)) -> usize {
        let before = self.data.len();
        f(&mut self.data);
        assert!(
            self.data.len() >= before,
            "extend_untagged_with must only append"
        );
        let added = self.data.len() - before;
        self.merge_or_push(Seg {
            len: added,
            tagged: false,
            sof: false,
            eof: false,
            abort: false,
            id: 0,
        });
        added
    }

    /// Take every unconsumed byte as an owned `Vec`, leaving the buffer
    /// empty.  Returns without allocating when empty; otherwise hands out
    /// the backing storage and swaps in recycled capacity (see
    /// [`WireBuf::recycle`]).
    pub fn take_vec(&mut self) -> Vec<u8> {
        if self.is_empty() {
            self.clear();
            return Vec::new();
        }
        if self.read > 0 {
            self.data.drain(..self.read);
            self.read = 0;
        }
        self.segs.clear();
        self.building_sof = false;
        self.building_id = 0;
        std::mem::replace(&mut self.data, std::mem::take(&mut self.spare))
    }

    /// Hand storage back for the next [`WireBuf::take_vec`] to reuse.
    pub fn recycle(&mut self, mut v: Vec<u8>) {
        v.clear();
        if v.capacity() > self.spare.capacity() {
            self.spare = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_pushes_merge_and_consume_batches() {
        let mut b = WireBuf::new();
        b.push_slice(&[1, 2, 3]);
        b.push_slice(&[4, 5]);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(b.segs.len(), 1);
        b.consume(2);
        assert_eq!(b.as_slice(), &[3, 4, 5]);
        b.consume(3);
        assert!(b.is_empty());
        assert_eq!(b.segs.len(), 0);
    }

    #[test]
    fn extend_untagged_with_appends_in_place_and_merges() {
        let mut b = WireBuf::new();
        b.push_slice(&[0x7e]);
        let n = b.extend_untagged_with(|v| v.extend_from_slice(&[1, 2, 3]));
        assert_eq!(n, 3);
        assert_eq!(b.as_slice(), &[0x7e, 1, 2, 3]);
        assert_eq!(b.segs.len(), 1, "untagged runs merge");
        assert_eq!(b.extend_untagged_with(|_| {}), 0);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn frames_round_trip() {
        let mut b = WireBuf::new();
        b.push_frame(&[0x00, 0x21, 9, 9]);
        b.begin_frame();
        b.extend_frame(&[0xc0]);
        b.extend_frame(&[0x21, 1]);
        b.end_frame(false);
        assert_eq!(b.frames_ready(), 2);
        let (f1, m1) = b.pop_frame().unwrap();
        assert_eq!(f1, vec![0x00, 0x21, 9, 9]);
        assert!(!m1.abort);
        let (f2, m2) = b.pop_frame().unwrap();
        assert_eq!(f2, vec![0xc0, 0x21, 1]);
        assert_eq!(m2.len, 3);
        assert!(b.pop_frame().is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn abort_strobe_marks_open_frame() {
        let mut b = WireBuf::new();
        b.begin_frame();
        b.extend_frame(&[1, 2, 3]);
        b.end_frame(true);
        let (_, meta) = b.pop_frame().unwrap();
        assert!(meta.abort);
    }

    #[test]
    fn incomplete_frame_is_not_poppable() {
        let mut b = WireBuf::new();
        b.begin_frame();
        b.extend_frame(&[1, 2]);
        assert!(!b.frame_ready());
        assert!(b.pop_frame().is_none());
        b.end_frame(false);
        assert!(b.frame_ready());
    }

    #[test]
    fn tagged_words_coalesce_into_one_frame() {
        // The way a word-at-a-time producer (the ByteStager) drives it.
        let mut b = WireBuf::new();
        b.push_tagged(&[1, 2, 3, 4], true, false, false);
        b.push_tagged(&[5, 6, 7, 8], false, false, false);
        b.push_tagged(&[9], false, true, false);
        assert_eq!(b.frames_ready(), 1);
        let (f, _) = b.pop_frame().unwrap();
        assert_eq!(f, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn empty_eof_strobe_closes_frame() {
        let mut b = WireBuf::new();
        b.push_tagged(&[1, 2, 3, 4], true, false, false);
        b.push_tagged(&[], false, true, false);
        assert_eq!(b.frames_ready(), 1);
        assert_eq!(b.pop_frame().unwrap().0, vec![1, 2, 3, 4]);
    }

    #[test]
    fn move_from_preserves_frame_boundaries() {
        let mut src = WireBuf::new();
        src.push_frame(&[1, 2, 3]);
        src.push_frame(&[4, 5]);
        let mut dst = WireBuf::new();
        let n = dst.move_from(&mut src, usize::MAX);
        assert_eq!(n, 5);
        assert!(src.is_empty());
        assert_eq!(dst.frames_ready(), 2);
        assert_eq!(dst.pop_frame().unwrap().0, vec![1, 2, 3]);
        assert_eq!(dst.pop_frame().unwrap().0, vec![4, 5]);
    }

    #[test]
    fn move_from_split_frame_reassembles() {
        let mut src = WireBuf::new();
        src.push_frame(&[1, 2, 3, 4, 5, 6]);
        let mut dst = WireBuf::new();
        assert_eq!(dst.move_from(&mut src, 4), 4);
        // Head arrived but is not yet a complete frame.
        assert_eq!(dst.frames_ready(), 0);
        assert!(dst.pop_frame().is_none());
        assert_eq!(dst.move_from(&mut src, usize::MAX), 2);
        assert_eq!(dst.frames_ready(), 1);
        assert_eq!(dst.pop_frame().unwrap().0, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn producer_keeps_extending_after_partial_move() {
        // A frame still being built can be moved downstream; later pushes
        // continue it in the source and merge on the next move.
        let mut src = WireBuf::new();
        src.begin_frame();
        src.extend_frame(&[1, 2, 3]);
        let mut dst = WireBuf::new();
        assert_eq!(dst.move_from(&mut src, usize::MAX), 3);
        src.extend_frame(&[4, 5]);
        src.end_frame(false);
        assert_eq!(dst.move_from(&mut src, usize::MAX), 2);
        assert_eq!(dst.pop_frame().unwrap().0, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn take_vec_is_cheap_when_empty_and_reuses_capacity() {
        let mut b = WireBuf::new();
        let v = b.take_vec();
        assert!(v.is_empty() && v.capacity() == 0);
        b.push_slice(&[1, 2, 3]);
        let v = b.take_vec();
        assert_eq!(v, vec![1, 2, 3]);
        let cap = v.capacity();
        b.recycle(v);
        b.push_slice(&[9]);
        let v2 = b.take_vec();
        assert_eq!(v2, vec![9]);
        assert!(v2.capacity() >= cap);
    }

    #[test]
    fn take_vec_respects_consumed_prefix() {
        let mut b = WireBuf::new();
        b.push_slice(&[1, 2, 3, 4]);
        b.consume(2);
        assert_eq!(b.take_vec(), vec![3, 4]);
        assert!(b.is_empty());
    }

    #[test]
    fn compaction_keeps_contents_intact() {
        let mut b = WireBuf::new();
        let payload: Vec<u8> = (0..32u32).flat_map(|i| [i as u8; 1024]).collect();
        b.push_slice(&payload);
        let mut seen = Vec::new();
        while !b.is_empty() {
            let take = b.len().min(700);
            seen.extend_from_slice(&b.as_slice()[..take]);
            b.consume(take);
        }
        assert_eq!(seen, payload);
    }

    #[test]
    fn frame_ids_ride_the_tags() {
        let mut b = WireBuf::new();
        b.push_frame_with_id(&[1, 2, 3], 41);
        b.begin_frame_with_id(42);
        b.extend_frame(&[4]);
        b.extend_frame(&[5, 6]);
        b.end_frame(false);
        b.push_frame(&[7]);
        assert_eq!(b.pop_frame().unwrap().1.id, 41);
        assert_eq!(b.pop_frame().unwrap().1.id, 42);
        assert_eq!(b.pop_frame().unwrap().1.id, 0, "untracked stays 0");
    }

    #[test]
    fn frame_id_survives_split_move() {
        let mut src = WireBuf::new();
        src.push_frame_with_id(&[1, 2, 3, 4, 5, 6], 9);
        let mut dst = WireBuf::new();
        assert_eq!(dst.move_from(&mut src, 4), 4);
        assert_eq!(dst.move_from(&mut src, usize::MAX), 2);
        let (frame, meta) = dst.pop_frame().unwrap();
        assert_eq!(frame, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(meta.id, 9);
    }

    #[test]
    fn word_at_a_time_producer_keeps_the_id() {
        // The way the rx side tags a delineated frame: id on every word.
        let mut b = WireBuf::new();
        b.push_tagged_id(&[1, 2], true, false, false, 5);
        b.push_tagged_id(&[3], false, false, false, 5);
        b.push_tagged_id(&[], false, true, false, 5);
        assert_eq!(b.pop_frame().unwrap().1.id, 5);
    }

    #[test]
    fn partial_consume_clears_sof_but_keeps_eof() {
        let mut b = WireBuf::new();
        b.push_frame(&[1, 2, 3, 4]);
        b.consume(1);
        // The remainder is a frame tail: complete (EOF) but headless.
        assert!(b.frame_ready());
        let (f, _) = b.pop_frame().unwrap();
        assert_eq!(f, vec![2, 3, 4]);
    }
}
