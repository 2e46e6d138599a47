//! Dynamic validation of the paper's correctness conditions.
//!
//! §3 defines a capsule to have a **write-after-read conflict** "if the
//! first transfer from a block in persistent memory is a read (called an
//! 'exposed' read), and later there is a write to the same block". Avoiding
//! such conflicts (plus well-formedness) makes a capsule idempotent
//! (Theorem 3.1) and, combined with race freedom or the §5 capsule forms,
//! atomically idempotent (Theorem 5.1).
//!
//! [`WarTracker`] checks this property *per capsule run* at word
//! granularity: word-level operations (including CAM) record individual
//! words, and block transfers record every word of the block — so block
//! transfers are checked exactly at the paper's block granularity while
//! word-granularity CAS/CAM operations (which the model explicitly allows
//! "on a single word within a block") are not spuriously flagged against
//! neighbouring words.
//!
//! In `Strict` mode a violation panics with a diagnostic (the test suite's
//! way of proving our capsules satisfy Theorem 3.1's hypothesis); in
//! `Record` mode it increments a counter; in `Off` mode nothing is tracked.
//!
//! **Representation.** The check runs on every costed access of every run
//! (`Strict` is the default), so it has to cost a probe, not a hash-map
//! insert. The first-access map is an open-addressed table of
//! `(address, stamp)` slots probed linearly from a multiplicative hash;
//! a slot belongs to the running capsule iff its stamp carries the
//! current *generation*, so [`WarTracker::reset`] is one increment — not a
//! sweep of a table whose capacity is stuck at the largest capsule ever
//! seen. The generation is 63 bits wide and never wraps. The table doubles
//! (re-inserting only the live generation) when the running capsule fills
//! three quarters of it, and never shrinks: a processor's table settles at
//! the footprint of its largest capsule, `O(M)` slots.

use crate::config::ValidateMode;
use crate::stats::MemStats;
use crate::word::Addr;

/// Slots of a fresh table (a power of two). Scheduler capsules touch a
/// handful of words; algorithm capsules grow it on first use.
const INITIAL_SLOTS: usize = 64;

/// One table slot: a word address and `generation << 1 | written`, where
/// `written` records that the capsule's first access to the word was a
/// write. Stamp 0 (generation 0) is never current, so zeroed slots are
/// empty.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    addr: Addr,
    stamp: u64,
}

/// Per-capsule write-after-read conflict tracker. Owned by a `ProcCtx`;
/// reset at every capsule (re)start.
#[derive(Debug)]
pub struct WarTracker {
    mode: ValidateMode,
    /// First access of the running capsule to each word it touched.
    slots: Box<[Slot]>,
    /// Generation of the running capsule (≥ 1).
    gen: u64,
    /// Slots stamped with `gen`.
    live: usize,
    /// Name of the running capsule, for diagnostics.
    capsule_name: String,
}

impl WarTracker {
    /// Creates a tracker with the given mode.
    pub fn new(mode: ValidateMode) -> Self {
        WarTracker {
            mode,
            slots: vec![Slot::default(); INITIAL_SLOTS].into_boxed_slice(),
            gen: 1,
            live: 0,
            capsule_name: String::new(),
        }
    }

    /// The current validation mode.
    pub fn mode(&self) -> ValidateMode {
        self.mode
    }

    /// Clears state at a capsule boundary (or restart — each run is checked
    /// independently, which is sound because a conflict-free run re-executes
    /// identically). O(1): the old generation's slots become empty by no
    /// longer matching.
    pub fn reset(&mut self, capsule_name: &str) {
        if self.mode == ValidateMode::Off {
            return;
        }
        self.gen += 1;
        self.live = 0;
        if self.capsule_name != capsule_name {
            self.capsule_name.clear();
            self.capsule_name.push_str(capsule_name);
        }
    }

    /// Index of `addr`'s slot if the running capsule touched the word, or
    /// of the empty slot where it belongs.
    #[inline]
    fn probe(&self, addr: Addr) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the top bits of the product mix every
        // address bit, so block-strided and consecutive addresses spread.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot.stamp >> 1 != self.gen || slot.addr == addr {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Stamps the empty slot `i` with the first access to `addr`.
    #[inline]
    fn insert(&mut self, i: usize, addr: Addr, written: bool) {
        self.slots[i] = Slot {
            addr,
            stamp: self.gen << 1 | written as u64,
        };
        self.live += 1;
        if self.live * 4 >= self.slots.len() * 3 {
            self.grow();
        }
    }

    /// Doubles the table, carrying over the running capsule's slots.
    #[cold]
    fn grow(&mut self) {
        let bigger = vec![Slot::default(); self.slots.len() * 2].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, bigger);
        for slot in old.iter().filter(|s| s.stamp >> 1 == self.gen) {
            let i = self.probe(slot.addr);
            self.slots[i] = *slot;
        }
    }

    #[inline]
    fn read(&mut self, addr: Addr) {
        let i = self.probe(addr);
        if self.slots[i].stamp >> 1 != self.gen {
            self.insert(i, addr, false);
        }
    }

    #[inline]
    fn write(&mut self, addr: Addr, stats: &MemStats) -> bool {
        let i = self.probe(addr);
        let stamp = self.slots[i].stamp;
        if stamp >> 1 != self.gen {
            self.insert(i, addr, true);
            false
        } else if stamp & 1 == 0 {
            self.conflict(addr, stats);
            true
        } else {
            false
        }
    }

    /// A write to a word whose first access was a read.
    #[cold]
    fn conflict(&self, addr: Addr, stats: &MemStats) {
        match self.mode {
            ValidateMode::Strict => panic!(
                "write-after-read conflict in capsule `{}` at word {}: \
                 the first access to this word was a read, and the capsule \
                 later wrote it — on restart the capsule would observe its \
                 own partial effects (violates Theorem 3.1's hypothesis)",
                self.capsule_name, addr
            ),
            ValidateMode::Record => stats.record_war_conflict(),
            ValidateMode::Off => unreachable!("Off mode tracks nothing"),
        }
    }

    /// Records a word read.
    #[inline]
    pub fn on_read(&mut self, addr: Addr) {
        if self.mode != ValidateMode::Off {
            self.read(addr);
        }
    }

    /// Records a word write (stores and CAMs alike). Returns `true` if this
    /// write conflicts with an earlier exposed read in the same capsule.
    #[inline]
    pub fn on_write(&mut self, addr: Addr, stats: &MemStats) -> bool {
        self.mode != ValidateMode::Off && self.write(addr, stats)
    }

    /// Records a block read: every word of the block becomes exposed unless
    /// already written.
    #[inline]
    pub fn on_read_block(&mut self, start: Addr, len: usize) {
        if self.mode != ValidateMode::Off {
            for a in start..start + len {
                self.read(a);
            }
        }
    }

    /// Records a block write; checks each word.
    #[inline]
    pub fn on_write_block(&mut self, start: Addr, len: usize, stats: &MemStats) {
        if self.mode != ValidateMode::Off {
            for a in start..start + len {
                self.write(a, stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict() -> (WarTracker, MemStats) {
        (WarTracker::new(ValidateMode::Strict), MemStats::new(1))
    }

    #[test]
    fn read_then_write_other_word_is_fine() {
        let (mut t, s) = strict();
        t.reset("c");
        t.on_read(0);
        assert!(!t.on_write(1, &s));
    }

    #[test]
    #[should_panic(expected = "write-after-read conflict")]
    fn read_then_write_same_word_panics_in_strict() {
        let (mut t, s) = strict();
        t.reset("offender");
        t.on_read(5);
        t.on_write(5, &s);
    }

    #[test]
    fn write_then_read_then_write_is_fine() {
        // First access is a write: the capsule owns the word; later reads
        // and writes of it are not exposed.
        let (mut t, s) = strict();
        t.reset("c");
        assert!(!t.on_write(7, &s));
        t.on_read(7);
        assert!(!t.on_write(7, &s));
    }

    #[test]
    fn reset_clears_exposure() {
        let (mut t, s) = strict();
        t.reset("c1");
        t.on_read(3);
        t.reset("c2"); // capsule boundary
        assert!(
            !t.on_write(3, &s),
            "new capsule may write what old one read"
        );
    }

    #[test]
    fn record_mode_counts_instead_of_panicking() {
        let mut t = WarTracker::new(ValidateMode::Record);
        let s = MemStats::new(1);
        t.reset("c");
        t.on_read(0);
        assert!(t.on_write(0, &s));
        assert!(t.on_write(0, &s)); // still conflicting; counted again
        assert_eq!(s.snapshot().war_conflicts, 2);
    }

    #[test]
    fn off_mode_tracks_nothing() {
        let mut t = WarTracker::new(ValidateMode::Off);
        let s = MemStats::new(1);
        t.reset("c");
        t.on_read(0);
        assert!(!t.on_write(0, &s));
        assert_eq!(s.snapshot().war_conflicts, 0);
    }

    #[test]
    fn block_ops_check_block_granularity() {
        let (mut t, s) = strict();
        t.reset("c");
        t.on_read_block(8, 4); // words 8..12 exposed
        assert!(!t.on_write(12, &s)); // outside the block: fine
    }

    #[test]
    #[should_panic(expected = "write-after-read conflict")]
    fn block_read_then_block_write_overlap_panics() {
        let (mut t, s) = strict();
        t.reset("c");
        t.on_read_block(0, 8);
        t.on_write_block(4, 8, &s); // words 4..8 overlap the exposed read
    }
}
