//! Dirty-page tracking for incremental flushes.
//!
//! A durable machine's [`crate::backend::MemBackend::flush`] syncs the
//! *whole* mapping — correct, but wasteful once files grow past a few
//! MiB: a checkpoint that committed a handful of capsules still pays an
//! `msync` over every page. The [`DirtyTracker`] records, at page
//! granularity, which parts of the word array have been mutated since the
//! last drain, so a checkpoint can sync only the touched page runs
//! ([`crate::backend::MemBackend::flush_dirty`]).
//!
//! The tracker is a bitmap of [`PAGE_WORDS`]-word pages (one 4 KiB OS
//! page each, matching the mapping's `msync` granularity) maintained by
//! [`crate::mem::PersistentMemory`]: every applied mutation — costed or
//! uncosted, word or block — marks its page(s): one relaxed load of the
//! bitmap word, and a relaxed `fetch_or` only when the bit reads clear
//! (a bitmap word covers 256 KiB of the file, so an unconditional RMW
//! would bounce its line between every processor writing that range).
//! Marking is monotone and race-free in the "never lose a
//! page" direction at any time; the *drain* ([`DirtyTracker::drain`])
//! clears bits as it collects them and is therefore exact only while the
//! machine is quiescent (no concurrent stores), which is precisely when
//! checkpoints run — the scheduler parks every processor at a capsule
//! boundary first.
//!
//! A drain costs what was dirtied, not the file: one relaxed load per
//! clean bitmap word (64 pages, 256 KiB), and one `swap(0)` per dirty
//! word, whose bits become runs. A service submit that dirtied two pages
//! of a 5,600-page file tests 88 words, not 5,600 bits.
//!
//! The tracker sits outside the model: marking is machine bookkeeping
//! (like statistics), costs no external transfers, and never faults.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::word::Addr;

/// Words per dirty-tracking page: 4096 bytes, the size of one OS page of
/// the mapped word array (and of the superblock page that precedes it).
pub const PAGE_WORDS: usize = 512;

/// A maximal run of consecutive dirty pages: `(first_word, word_len)`,
/// both multiples of [`PAGE_WORDS`] (the final run is clamped to the
/// tracked length).
pub type PageRun = (usize, usize);

/// A page-granular dirty bitmap over a word array.
#[derive(Debug)]
pub struct DirtyTracker {
    /// One bit per page, packed 64 pages per word.
    bits: Vec<AtomicU64>,
    /// Tracked length in words.
    len_words: usize,
    /// Number of whole-or-partial pages covering `len_words`.
    pages: usize,
}

impl DirtyTracker {
    /// A clean tracker over `len_words` words.
    pub fn new(len_words: usize) -> Self {
        let pages = len_words.div_ceil(PAGE_WORDS);
        DirtyTracker {
            bits: (0..pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            len_words,
            pages,
        }
    }

    /// Number of pages tracked.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Marks the page containing `addr` dirty: the one-page case of
    /// [`DirtyTracker::mark_range`], under the same rule.
    #[inline]
    pub fn mark(&self, addr: Addr) {
        self.mark_range(addr, 1);
    }

    /// Marks every page intersecting `[addr, addr + len)` dirty — a store
    /// spanning a page boundary dirties both pages. The part of the range
    /// beyond the tracked length is ignored (the store it describes would
    /// have panicked first).
    ///
    /// **Word first, then the bit.** Test-before-set: the `fetch_or` runs
    /// only when the bit reads clear. Callers mark *after* their write of
    /// the range, whose last (or only) word is a SeqCst store, so a skipped
    /// mark cannot lose the page: the bit read set, so the drain that
    /// clears it does so after this read — hence after the words were
    /// written — and that drain's flush, which follows its clear, covers
    /// them. Which stores a *racing* drain's runs account for is still
    /// exact only under quiescence, as the module docs say.
    #[inline]
    pub fn mark_range(&self, addr: Addr, len: usize) {
        let end = (addr + len).min(self.len_words);
        if addr >= end {
            return;
        }
        for page in addr / PAGE_WORDS..=(end - 1) / PAGE_WORDS {
            let (word, bit) = (&self.bits[page / 64], 1 << (page % 64));
            if word.load(Ordering::Relaxed) & bit == 0 {
                word.fetch_or(bit, Ordering::Relaxed);
            }
        }
    }

    /// Whether the page containing `addr` is currently marked.
    pub fn is_dirty(&self, addr: Addr) -> bool {
        let page = addr / PAGE_WORDS;
        page < self.pages && self.bits[page / 64].load(Ordering::Relaxed) & (1 << (page % 64)) != 0
    }

    /// Number of pages currently marked.
    pub fn dirty_pages(&self) -> usize {
        self.bits
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Collects all dirty pages as maximal word runs and clears the
    /// bitmap. Exact only under quiescence (see the module docs): a store
    /// racing the drain may land on a page whose bit was just cleared, in
    /// which case that page is simply dirty again for the *next* drain —
    /// but the store itself is not covered by *this* drain's runs, so
    /// callers that need "everything stored so far is in the returned
    /// runs" must quiesce first.
    ///
    /// **A drain pays for its dirty pages, not for the file.** The bitmap
    /// is walked one word (64 pages) at a time: a clean word costs one
    /// relaxed load, and a dirty word is taken whole with one `swap(0)`,
    /// whose set bits are then emitted low to high as runs. So a drain
    /// costs O(pages / 64 + runs), and each bit is cleared by the same
    /// atomic read that returns it: a bit set during the drain is either
    /// in the swapped word (returned) or lands after it (left set for the
    /// next drain), never lost.
    pub fn drain(&self) -> Vec<PageRun> {
        let mut runs: Vec<PageRun> = Vec::new();
        let mut open: Option<(usize, usize)> = None; // (first_page, end_page)
        for (i, word) in self.bits.iter().enumerate() {
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::Relaxed);
            while bits != 0 {
                let lo = bits.trailing_zeros();
                let ones = (bits >> lo).trailing_ones();
                bits &= u64::MAX.checked_shl(lo + ones).unwrap_or(0);
                let (first, end) = (i * 64 + lo as usize, i * 64 + (lo + ones) as usize);
                open = match open {
                    Some((f, e)) if e == first => Some((f, end)),
                    other => {
                        if let Some((f, e)) = other {
                            runs.push(page_run_to_words(f, e - f, self.len_words));
                        }
                        Some((first, end))
                    }
                };
            }
        }
        if let Some((first, end)) = open {
            runs.push(page_run_to_words(first, end - first, self.len_words));
        }
        runs
    }

    /// Marks every page dirty (used when a caller must force the next
    /// incremental flush to cover everything, e.g. after an `msync`
    /// error left coverage unknown).
    pub fn mark_all(&self) {
        for (i, w) in self.bits.iter().enumerate() {
            let pages_in_word = self.pages.saturating_sub(i * 64).min(64);
            if pages_in_word == 0 {
                break;
            }
            let mask = if pages_in_word == 64 {
                u64::MAX
            } else {
                (1u64 << pages_in_word) - 1
            };
            w.fetch_or(mask, Ordering::Relaxed);
        }
    }
}

fn page_run_to_words(first_page: usize, pages: usize, len_words: usize) -> PageRun {
    let start = first_page * PAGE_WORDS;
    let len = (pages * PAGE_WORDS).min(len_words - start);
    (start, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference drain: one load per page of the file and a
    /// `fetch_and` per dirty page, coalescing page by page. The word-wise
    /// drain must return exactly its runs.
    fn per_page_drain(t: &DirtyTracker) -> Vec<PageRun> {
        let mut runs = Vec::new();
        let mut open: Option<(usize, usize)> = None; // (first_page, pages)
        for page in 0..t.pages() {
            let (word, bit) = (&t.bits[page / 64], 1 << (page % 64));
            if word.load(Ordering::Relaxed) & bit != 0 {
                word.fetch_and(!bit, Ordering::Relaxed);
                open = match open {
                    Some((first, pages)) if first + pages == page => Some((first, pages + 1)),
                    other => {
                        if let Some((first, pages)) = other {
                            runs.push(page_run_to_words(first, pages, t.len_words));
                        }
                        Some((page, 1))
                    }
                };
            }
        }
        if let Some((first, pages)) = open {
            runs.push(page_run_to_words(first, pages, t.len_words));
        }
        runs
    }

    /// Decodes 64 random bits into one mark on a `len`-word tracker:
    /// a single word, a range across a 64-page bitmap-word boundary, a
    /// short range across a page boundary, or a range over the last
    /// (possibly partial) page that may run off the end.
    fn mark_from_bits(t: &DirtyTracker, len: usize, bits: u64) {
        let r = (bits >> 2) as usize;
        match bits & 3 {
            0 => t.mark(r % len),
            1 => {
                let boundary = (r % (len / (64 * PAGE_WORDS) + 1)) * 64 * PAGE_WORDS;
                let back = (r >> 20) % (3 * PAGE_WORDS);
                t.mark_range(
                    boundary.saturating_sub(back),
                    1 + (r >> 32) % (70 * PAGE_WORDS),
                );
            }
            2 => {
                let boundary = (r % t.pages()) * PAGE_WORDS;
                t.mark_range(boundary.saturating_sub((r >> 24) % 8), 1 + (r >> 40) % 16);
            }
            _ => t.mark_range(
                (t.pages() - 1) * PAGE_WORDS + (r >> 8) % PAGE_WORDS,
                1 + r % 1000,
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random marks over files of 1–200 pages, the last one partial
        /// or whole: the word-wise drain returns exactly the per-page
        /// drain's runs and leaves the tracker clean.
        #[test]
        fn drain_matches_the_per_page_drain(
            pages in 1usize..200,
            tail in 0usize..PAGE_WORDS,
            marks in prop::collection::vec(any::<u64>(), 0..40),
            rounds in 1usize..4,
        ) {
            let len = (pages * PAGE_WORDS - tail).max(1);
            let (t, reference) = (DirtyTracker::new(len), DirtyTracker::new(len));
            for round in 0..rounds {
                for &bits in marks.iter().skip(round) {
                    mark_from_bits(&t, len, bits);
                    mark_from_bits(&reference, len, bits);
                }
                prop_assert_eq!(t.dirty_pages(), reference.dirty_pages());
                prop_assert_eq!(t.drain(), per_page_drain(&reference));
                prop_assert_eq!(t.dirty_pages(), 0);
                prop_assert!(t.drain().is_empty());
            }
        }
    }

    /// One thread marks every page of a 4096-page file exactly once, in a
    /// scattered order, while another drains over and over. Each page
    /// must come back exactly once: from some drain, or still set at the
    /// end — a bit set during a drain is returned or left set, never lost
    /// and never returned twice.
    #[test]
    fn a_drain_racing_marks_loses_no_page() {
        use std::sync::atomic::AtomicBool;
        const PAGES: usize = 4096;
        let t = DirtyTracker::new(PAGES * PAGE_WORDS);
        for round in 0..20 {
            let stop = AtomicBool::new(false);
            let mut seen = vec![0u32; PAGES];
            std::thread::scope(|s| {
                let (t, stop) = (&t, &stop);
                s.spawn(move || {
                    // 1031 is odd, so `i * 1031 mod 4096` visits every page.
                    for i in 0..PAGES {
                        let page = (i * 1031 + round * 17) % PAGES;
                        t.mark_range(page * PAGE_WORDS + i % PAGE_WORDS, 1);
                    }
                    stop.store(true, Ordering::Release);
                });
                while !stop.load(Ordering::Acquire) {
                    for (start, len) in t.drain() {
                        let pages = start / PAGE_WORDS..(start + len) / PAGE_WORDS;
                        seen[pages].iter_mut().for_each(|n| *n += 1);
                    }
                }
            });
            for (page, n) in seen.iter_mut().enumerate() {
                *n += t.is_dirty(page * PAGE_WORDS) as u32;
            }
            assert!(seen.iter().all(|&n| n == 1), "round {round}: {seen:?}");
            t.drain();
        }
    }

    #[test]
    fn fresh_tracker_is_clean() {
        let t = DirtyTracker::new(4 * PAGE_WORDS);
        assert_eq!(t.pages(), 4);
        assert_eq!(t.dirty_pages(), 0);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn mark_and_drain_round_trip() {
        let t = DirtyTracker::new(8 * PAGE_WORDS);
        t.mark(0);
        t.mark(3 * PAGE_WORDS + 7);
        assert_eq!(t.dirty_pages(), 2);
        assert!(t.is_dirty(5));
        assert!(!t.is_dirty(PAGE_WORDS));
        let runs = t.drain();
        assert_eq!(
            runs,
            vec![(0, PAGE_WORDS), (3 * PAGE_WORDS, PAGE_WORDS)],
            "two isolated pages, two runs"
        );
        assert_eq!(t.dirty_pages(), 0, "drain clears");
        assert!(t.drain().is_empty());
    }

    #[test]
    fn adjacent_pages_coalesce_into_one_run() {
        let t = DirtyTracker::new(16 * PAGE_WORDS);
        for page in [2usize, 3, 4] {
            t.mark(page * PAGE_WORDS);
        }
        assert_eq!(t.drain(), vec![(2 * PAGE_WORDS, 3 * PAGE_WORDS)]);
    }

    #[test]
    fn range_spanning_a_page_boundary_dirties_both_pages() {
        let t = DirtyTracker::new(4 * PAGE_WORDS);
        // Words [510, 514): last two words of page 0, first two of page 1.
        t.mark_range(PAGE_WORDS - 2, 4);
        assert_eq!(t.dirty_pages(), 2);
        assert_eq!(t.drain(), vec![(0, 2 * PAGE_WORDS)]);
    }

    #[test]
    fn partial_final_page_is_clamped() {
        let t = DirtyTracker::new(PAGE_WORDS + 100);
        assert_eq!(t.pages(), 2);
        t.mark(PAGE_WORDS + 99);
        assert_eq!(t.drain(), vec![(PAGE_WORDS, 100)]);
    }

    #[test]
    fn out_of_range_marks_are_ignored() {
        let t = DirtyTracker::new(PAGE_WORDS);
        t.mark(PAGE_WORDS + 5);
        t.mark_range(PAGE_WORDS * 3, 10);
        assert_eq!(t.dirty_pages(), 0);
    }

    #[test]
    fn mark_all_covers_exactly_the_tracked_pages() {
        let t = DirtyTracker::new(70 * PAGE_WORDS); // crosses one bitmap word
        t.mark_all();
        assert_eq!(t.dirty_pages(), 70);
        let runs = t.drain();
        assert_eq!(runs, vec![(0, 70 * PAGE_WORDS)]);
    }

    #[test]
    fn zero_length_range_marks_nothing() {
        let t = DirtyTracker::new(4 * PAGE_WORDS);
        t.mark_range(100, 0);
        assert_eq!(t.dirty_pages(), 0);
    }

    #[test]
    fn mark_range_is_test_before_set_and_clamped_to_the_tracked_length() {
        let t = DirtyTracker::new(3 * PAGE_WORDS + 10);
        t.mark_range(PAGE_WORDS - 1, PAGE_WORDS + 2); // pages 0, 1, 2
        t.mark_range(PAGE_WORDS, 5); // bit reads set: skipped
        assert_eq!(t.dirty_pages(), 3);
        assert_eq!(t.drain(), vec![(0, 3 * PAGE_WORDS)]);
        t.mark_range(PAGE_WORDS, 5); // the drain cleared it: dirty again
        assert_eq!(t.drain(), vec![(PAGE_WORDS, PAGE_WORDS)]);
        // A range that runs off the end marks the pages it does cover.
        t.mark_range(3 * PAGE_WORDS + 5, 1000);
        assert_eq!(t.drain(), vec![(3 * PAGE_WORDS, 10)]);
        t.mark_range(3 * PAGE_WORDS + 10, 1); // first word past the end
        assert_eq!(t.dirty_pages(), 0);
    }

    /// Test-before-set under contention: two threads mark different pages
    /// of one bitmap word at the same moment, both with the other's bit
    /// possibly already visible — neither page may be lost, and a mark
    /// after a drain must take the `fetch_or` branch again.
    #[test]
    fn test_before_set_never_loses_a_page() {
        use std::sync::Barrier;
        let t = DirtyTracker::new(64 * PAGE_WORDS); // one bitmap word
        for round in 0..200 {
            let (a, b) = (round % 64, (round + 7) % 64);
            let gate = Barrier::new(2);
            std::thread::scope(|s| {
                for page in [a, b] {
                    let (t, gate) = (&t, &gate);
                    s.spawn(move || {
                        gate.wait();
                        t.mark(page * PAGE_WORDS + 3);
                        t.mark(page * PAGE_WORDS + 4); // bit now reads set: skipped
                    });
                }
            });
            // Seven pages apart: never adjacent, so always two runs.
            let want = [a.min(b), a.max(b)].map(|page| (page * PAGE_WORDS, PAGE_WORDS));
            assert_eq!(t.drain(), want, "round {round}");
            assert_eq!(t.dirty_pages(), 0);
        }
        t.mark(5 * PAGE_WORDS);
        assert_eq!(t.drain(), vec![(5 * PAGE_WORDS, PAGE_WORDS)]);
        t.mark(5 * PAGE_WORDS); // the drain cleared the bit: dirty again
        assert!(t.is_dirty(5 * PAGE_WORDS));
        assert_eq!(t.drain(), vec![(5 * PAGE_WORDS, PAGE_WORDS)]);
    }

    #[test]
    fn concurrent_marks_never_lose_pages() {
        use std::sync::Arc;
        let t = Arc::new(DirtyTracker::new(64 * PAGE_WORDS));
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for page in (k..64).step_by(4) {
                        t.mark(page * PAGE_WORDS + k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.dirty_pages(), 64);
        assert_eq!(t.drain(), vec![(0, 64 * PAGE_WORDS)]);
    }
}
