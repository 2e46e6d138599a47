//! Carving the persistent address space.
//!
//! A Parallel-PM machine's persistent memory holds several logically
//! distinct structures: the scheduler's per-processor deques and restart
//! pointers, per-processor allocation pools (§4.1), and the user's data
//! arrays. [`LayoutBuilder`] hands out non-overlapping [`Region`]s from the
//! front of the address space, block-aligned so that block transfers of one
//! region can never touch another (which would create spurious
//! write-after-read conflicts at block granularity).

use crate::word::{round_up_to_block, Addr};

/// A contiguous, exclusively-owned range of persistent words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First word address of the region.
    pub start: Addr,
    /// Length in words.
    pub len: usize,
}

impl Region {
    /// Address of the `i`-th word of the region (bounds-checked in debug).
    #[inline]
    pub fn at(&self, i: usize) -> Addr {
        debug_assert!(i < self.len, "region index {i} out of bounds {}", self.len);
        self.start + i
    }

    /// Address of the `i`-th word as a *cursor* position: unlike
    /// [`Region::at`], `i == len` is allowed. A scatter destination for
    /// an empty run legitimately sits one past the end (every element
    /// landed in earlier buckets); nothing is ever read or written
    /// through the saturated cursor.
    #[inline]
    pub fn cursor(&self, i: usize) -> Addr {
        debug_assert!(
            i <= self.len,
            "region cursor {i} out of bounds {}",
            self.len
        );
        self.start + i
    }

    /// One-past-the-end address.
    #[inline]
    pub fn end(&self) -> Addr {
        self.start + self.len
    }

    /// Whether `addr` falls inside the region.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Splits the region into `n` equal consecutive sub-regions (the
    /// remainder, if any, is left unused at the tail).
    pub fn split(&self, n: usize) -> Vec<Region> {
        assert!(n > 0);
        let each = self.len / n;
        (0..n)
            .map(|i| Region {
                start: self.start + i * each,
                len: each,
            })
            .collect()
    }
}

/// Sequential allocator over a persistent memory's address space. Used at
/// machine-construction time only; runtime allocation goes through the
/// restart-stable per-processor pools in `ppm-core`.
#[derive(Debug)]
pub struct LayoutBuilder {
    next: Addr,
    capacity: usize,
    block_size: usize,
}

impl LayoutBuilder {
    /// Starts carving an address space of `capacity` words with block size
    /// `block_size`.
    pub fn new(capacity: usize, block_size: usize) -> Self {
        assert!(block_size > 0);
        LayoutBuilder {
            next: 0,
            capacity,
            block_size,
        }
    }

    /// Reserves `len` words, rounded up to whole blocks, block-aligned.
    ///
    /// # Panics
    /// Panics if the address space is exhausted — a configuration error
    /// (make the machine's `persistent_words` larger), not a runtime
    /// condition.
    pub fn region(&mut self, len: usize) -> Region {
        let start = round_up_to_block(self.next, self.block_size);
        let rounded = round_up_to_block(len.max(1), self.block_size);
        assert!(
            start + rounded <= self.capacity,
            "persistent memory exhausted: need {} words at {}, capacity {}",
            rounded,
            start,
            self.capacity
        );
        self.next = start + rounded;
        Region {
            start,
            len: rounded,
        }
    }

    /// Where the next region would start, before block alignment: the
    /// end of the last one handed out.
    pub fn cursor(&self) -> Addr {
        self.next
    }

    /// Words not yet handed out.
    pub fn remaining(&self) -> usize {
        self.capacity
            .saturating_sub(round_up_to_block(self.next, self.block_size))
    }

    /// All remaining words as one region.
    pub fn rest(&mut self) -> Region {
        let len = self.remaining();
        self.region(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_block_aligned() {
        let mut lb = LayoutBuilder::new(1024, 8);
        let a = lb.region(10); // rounds to 16
        let b = lb.region(8);
        let c = lb.region(1); // rounds to 8
        assert_eq!(a, Region { start: 0, len: 16 });
        assert_eq!(b, Region { start: 16, len: 8 });
        assert_eq!(c, Region { start: 24, len: 8 });
        assert!(a.end() <= b.start && b.end() <= c.start);
        for r in [a, b, c] {
            assert_eq!(r.start % 8, 0);
            assert_eq!(r.len % 8, 0);
        }
    }

    #[test]
    #[should_panic(expected = "persistent memory exhausted")]
    fn exhaustion_panics() {
        let mut lb = LayoutBuilder::new(16, 8);
        let _ = lb.region(8);
        let _ = lb.region(16);
    }

    #[test]
    fn contains_and_at() {
        let r = Region { start: 8, len: 8 };
        assert!(r.contains(8));
        assert!(r.contains(15));
        assert!(!r.contains(16));
        assert!(!r.contains(7));
        assert_eq!(r.at(3), 11);
    }

    #[test]
    fn split_partitions_region() {
        let r = Region { start: 0, len: 64 };
        let parts = r.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], Region { start: 0, len: 16 });
        assert_eq!(parts[3], Region { start: 48, len: 16 });
    }

    #[test]
    fn rest_consumes_remaining() {
        let mut lb = LayoutBuilder::new(64, 8);
        let _ = lb.region(8);
        let rest = lb.rest();
        assert_eq!(rest, Region { start: 8, len: 56 });
        assert_eq!(lb.remaining(), 0);
    }
}
