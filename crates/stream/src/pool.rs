//! Recycled frame-buffer pool — the zero-copy backbone of the line-rate
//! datapath.
//!
//! Every stage boundary in the staged pipeline used to allocate a fresh
//! `Vec` per frame (submit payloads, reassembled Rx bodies, framer
//! scratch).  [`BufPool`] replaces those with a shelf of cleared,
//! capacity-retaining buffers: lease one, fill it, hand it downstream,
//! and the consumer recycles the storage when the bytes have moved on.
//! A shelf has one owner — the unit that leases from it — so leasing
//! and recycling are plain `Vec` pushes and pops, with no lock.
//!
//! The shelf applies the scratch high-water policy on every recycle, so
//! a single jumbo frame cannot pin megabytes of capacity for the rest of
//! the run (see [`shrink_scratch`]).
//!
//! [`alloc_count`] rides along: a process-wide counter of per-frame heap
//! allocations the datapath could not avoid.  It is compiled to a no-op
//! unless the `alloc-count` cargo feature is enabled (the bench harness
//! turns it on to gate `allocs_per_frame` in the smoke report).

/// Scratch buffers shrink back to this capacity after servicing a jumbo
/// frame.  Comfortably above every normal MTU (a stuffed worst-case
/// 9 KiB jumbo doubles to ~18 KiB), far below pathological growth.
pub const SCRATCH_HIGH_WATER: usize = 64 * 1024;

/// Apply the high-water policy to a long-lived scratch `Vec`: capacity
/// above [`SCRATCH_HIGH_WATER`] is released (down to the live length if
/// the buffer is currently holding more).  Cheap no-op in steady state.
pub fn shrink_scratch(v: &mut Vec<u8>) {
    if v.capacity() > SCRATCH_HIGH_WATER {
        v.shrink_to(SCRATCH_HIGH_WATER.max(v.len()));
    }
}

/// Heap-allocation event accounting for the datapath.
///
/// Call [`alloc_count::note_alloc`] wherever the datapath falls back to
/// a fresh heap allocation (pool miss, cold scratch).  With the
/// `alloc-count` feature off (the default) every call compiles to
/// nothing; the bench harness enables it and reads [`alloc_count::events`]
/// around a steady-state window to compute `allocs_per_frame`.
pub mod alloc_count {
    #[cfg(feature = "alloc-count")]
    mod imp {
        use std::sync::atomic::{AtomicU64, Ordering};

        static EVENTS: AtomicU64 = AtomicU64::new(0);

        pub const ENABLED: bool = true;

        #[inline]
        pub fn note_alloc() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn events() -> u64 {
            EVENTS.load(Ordering::Relaxed)
        }
    }

    #[cfg(not(feature = "alloc-count"))]
    mod imp {
        pub const ENABLED: bool = false;

        #[inline]
        pub fn note_alloc() {}

        #[inline]
        pub fn events() -> u64 {
            0
        }
    }

    pub use imp::{events, note_alloc, ENABLED};
}

/// A single-owner shelf of recycled byte buffers.
#[derive(Debug, Default)]
pub struct BufPool {
    shelf: Vec<Vec<u8>>,
    leases: u64,
    misses: u64,
}

/// Snapshot of a pool's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out (hits + misses).
    pub leases: u64,
    /// Leases that had to allocate because the shelf was empty.
    pub misses: u64,
    /// Buffers currently resting on the shelf.
    pub shelved: usize,
}

impl BufPool {
    /// Shelf depth cap: beyond this, recycled buffers are simply dropped
    /// rather than hoarded.
    pub const MAX_SHELVED: usize = 64;

    pub fn new() -> Self {
        Self::default()
    }

    /// Lease a cleared buffer, reusing shelved capacity when available.
    /// A shelf miss allocates (and is counted as an allocation event).
    pub fn lease_vec(&mut self) -> Vec<u8> {
        self.leases += 1;
        if let Some(v) = self.shelf.pop() {
            return v;
        }
        self.misses += 1;
        alloc_count::note_alloc();
        Vec::new()
    }

    /// Return storage to the shelf (cleared, high-water-shrunk).  Buffers
    /// with no capacity and overflow beyond [`BufPool::MAX_SHELVED`] are
    /// dropped instead.
    pub fn recycle_vec(&mut self, mut v: Vec<u8>) {
        if v.capacity() == 0 || self.shelf.len() >= Self::MAX_SHELVED {
            return;
        }
        v.clear();
        shrink_scratch(&mut v);
        self.shelf.push(v);
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            leases: self.leases,
            misses: self.misses,
            shelved: self.shelf.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycles_capacity() {
        let mut pool = BufPool::new();
        let mut a = pool.lease_vec();
        a.extend_from_slice(&[7u8; 1500]);
        let cap = a.capacity();
        pool.recycle_vec(a);
        let b = pool.lease_vec();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "shelved storage is reused");
        let s = pool.stats();
        assert_eq!((s.leases, s.misses, s.shelved), (2, 1, 0));
    }

    #[test]
    fn recycle_applies_high_water_shrink() {
        let mut pool = BufPool::new();
        let mut jumbo = pool.lease_vec();
        jumbo.reserve(4 * SCRATCH_HIGH_WATER);
        pool.recycle_vec(jumbo);
        let back = pool.lease_vec();
        assert!(
            back.capacity() <= SCRATCH_HIGH_WATER,
            "jumbo capacity {} must shrink to the high-water mark",
            back.capacity()
        );
    }

    #[test]
    fn shrink_scratch_respects_live_length() {
        let mut v = vec![0u8; 2 * SCRATCH_HIGH_WATER];
        v.reserve(2 * SCRATCH_HIGH_WATER);
        shrink_scratch(&mut v);
        assert_eq!(v.len(), 2 * SCRATCH_HIGH_WATER, "contents untouched");
        assert!(v.capacity() >= v.len());
        v.clear();
        shrink_scratch(&mut v);
        assert!(v.capacity() <= SCRATCH_HIGH_WATER);
        let mut small = Vec::with_capacity(128);
        shrink_scratch(&mut small);
        assert_eq!(small.capacity(), 128, "small scratch is left alone");
    }

    #[test]
    fn shelf_depth_is_bounded() {
        let mut pool = BufPool::new();
        for _ in 0..2 * BufPool::MAX_SHELVED {
            pool.recycle_vec(Vec::with_capacity(64));
        }
        assert_eq!(pool.stats().shelved, BufPool::MAX_SHELVED);
    }

    #[test]
    fn alloc_count_is_wired() {
        // With the feature off this is the no-op shim; either way the
        // calls must be safe and monotone.
        let before = alloc_count::events();
        alloc_count::note_alloc();
        let after = alloc_count::events();
        if alloc_count::ENABLED {
            assert!(after > before);
        } else {
            assert_eq!(after, 0);
        }
    }
}
