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
//! (`Strict` is the default), and the paper charges a block transfer one
//! unit, so it has to cost a probe per *block*, not a hash-map insert per
//! word. The first-access map is an open-addressed table with one slot per
//! 64-word *line* (`addr >> 6`) the running capsule touched, probed
//! linearly from a multiplicative hash of the line number. A slot holds
//! two disjoint 64-bit masks: `first_read` has a bit for every word of the
//! line whose first access was a read (the exposed words), `first_write`
//! for every word whose first access was a write. A word operation is one
//! probe and one bit; a range operation is one probe per line the range
//! intersects — one for an aligned `B = 8` block, not eight — with the
//! per-word rule applied to the whole mask at once: a read records
//! `mask & !first_write` as exposed, a write conflicts on
//! `mask & first_read` and owns the rest. The verdicts stay
//! word-granular, so a CAM next to an exposed word is still not flagged.
//!
//! A slot belongs to the running capsule iff it carries the current
//! *generation*, so [`WarTracker::reset`] is one increment — not a sweep
//! of a table whose capacity is stuck at the largest capsule ever seen.
//! The generation is 64 bits wide and never wraps. The table doubles
//! (re-inserting only the live generation) before the running capsule
//! would fill three quarters of it, and never shrinks: a processor's table
//! settles at the footprint of its largest capsule, `O(M / 64)` slots for
//! the contiguous ranges the §7 algorithms transfer.

use crate::config::ValidateMode;
use crate::stats::MemStats;
use crate::word::Addr;

/// Slots of a fresh table (a power of two). Scheduler capsules touch a
/// handful of lines; algorithm capsules grow it on first use.
const INITIAL_SLOTS: usize = 64;

/// Words per line: one bit of a slot's masks each.
const LINE_WORDS: usize = u64::BITS as usize;

/// One table slot: the first accesses of the capsule of generation `gen`
/// to the words of line `line`. Generation 0 is never current, so zeroed
/// slots are empty. Aligned so that a slot never straddles a cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(32))]
struct Slot {
    line: u64,
    gen: u64,
    /// Words whose first access was a read.
    first_read: u64,
    /// Words whose first access was a write; disjoint from `first_read`.
    first_write: u64,
}

/// The lines a word range intersects, in ascending order, each with the
/// mask of its words that lie in the range.
struct Lines {
    at: Addr,
    end: Addr,
}

/// The lines of `[start, start + len)`.
#[inline]
fn lines(start: Addr, len: usize) -> Lines {
    Lines {
        at: start,
        end: start + len,
    }
}

impl Iterator for Lines {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        if self.at >= self.end {
            return None;
        }
        let lo = self.at % LINE_WORDS;
        let n = (LINE_WORDS - lo).min(self.end - self.at);
        let line = (self.at / LINE_WORDS) as u64;
        self.at += n;
        Some((line, (u64::MAX >> (LINE_WORDS - n)) << lo))
    }
}

/// The line of `addr` and the one-bit mask of the word in it.
#[inline]
fn word_bit(addr: Addr) -> (u64, u64) {
    ((addr / LINE_WORDS) as u64, 1 << (addr % LINE_WORDS))
}

/// Per-capsule write-after-read conflict tracker. Owned by a `ProcCtx`;
/// reset at every capsule (re)start.
#[derive(Debug)]
pub struct WarTracker {
    mode: ValidateMode,
    /// First accesses of the running capsule, by line.
    slots: Box<[Slot]>,
    /// Generation of the running capsule (≥ 1).
    gen: u64,
    /// Slots carrying `gen`.
    live: usize,
    /// Name of the running capsule, for diagnostics.
    capsule_name: &'static str,
}

impl WarTracker {
    /// Creates a tracker with the given mode.
    pub fn new(mode: ValidateMode) -> Self {
        WarTracker {
            mode,
            slots: vec![Slot::default(); INITIAL_SLOTS].into_boxed_slice(),
            gen: 1,
            live: 0,
            capsule_name: "",
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
    pub fn reset(&mut self, capsule_name: &'static str) {
        if self.mode == ValidateMode::Off {
            return;
        }
        self.gen += 1;
        self.live = 0;
        self.capsule_name = capsule_name;
    }

    /// `Ok` of the index of `line`'s slot if the running capsule touched
    /// the line, `Err` of the index of the empty slot where it belongs.
    #[inline]
    fn probe(&self, line: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the top bits of the product mix every bit of
        // the line number, so strided and consecutive lines spread.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            let slot = &self.slots[i];
            if slot.gen != self.gen {
                return Err(i);
            }
            if slot.line == line {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Index of `line`'s slot, claimed (with both masks empty) if the
    /// running capsule had not touched the line.
    #[inline]
    fn slot(&mut self, line: u64) -> usize {
        match self.probe(line) {
            Ok(i) => i,
            Err(i) => self.claim(line, i),
        }
    }

    /// Claims the slot `empty` (where [`WarTracker::probe`] put `line`)
    /// for `line`, growing the table first — and probing again — if that
    /// would fill three quarters of it. Returns the slot's index.
    fn claim(&mut self, line: u64, empty: usize) -> usize {
        let i = if (self.live + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
            let (Ok(i) | Err(i)) = self.probe(line);
            i
        } else {
            empty
        };
        self.live += 1;
        self.slots[i] = Slot {
            line,
            gen: self.gen,
            ..Slot::default()
        };
        i
    }

    /// Doubles the table, carrying over the running capsule's slots.
    #[cold]
    fn grow(&mut self) {
        let bigger = vec![Slot::default(); self.slots.len() * 2].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, bigger);
        for slot in old.iter().filter(|s| s.gen == self.gen) {
            let (Ok(i) | Err(i)) = self.probe(slot.line);
            self.slots[i] = *slot;
        }
    }

    /// Reads of the words `mask` of `line`: exposed unless already written.
    #[inline]
    fn read(&mut self, (line, mask): (u64, u64)) {
        let i = self.slot(line);
        let slot = &mut self.slots[i];
        slot.first_read |= mask & !slot.first_write;
    }

    /// Writes of the words `mask` of `line`; `true` if any was exposed.
    #[inline]
    fn write(&mut self, (line, mask): (u64, u64), stats: &MemStats) -> bool {
        let i = self.slot(line);
        let slot = &mut self.slots[i];
        let hit = mask & slot.first_read;
        if hit == 0 {
            slot.first_write |= mask;
            return false;
        }
        self.conflict(i, mask, hit, stats);
        true
    }

    /// A write of the words `mask` of slot `i`'s line, of which the words
    /// `hit` were first read. `Strict` stops at the lowest of them, as a
    /// word-by-word walk would: the words below it are recorded as
    /// written, the panic names it. `Record` counts every one and records
    /// the rest of the range as written.
    #[cold]
    fn conflict(&mut self, i: usize, mask: u64, hit: u64, stats: &MemStats) {
        let slot = &mut self.slots[i];
        match self.mode {
            ValidateMode::Strict => {
                let lowest = hit.trailing_zeros();
                slot.first_write |= mask & ((1 << lowest) - 1);
                panic!(
                    "write-after-read conflict in capsule `{}` at word {}: \
                     the first access to this word was a read, and the capsule \
                     later wrote it — on restart the capsule would observe its \
                     own partial effects (violates Theorem 3.1's hypothesis)",
                    self.capsule_name,
                    slot.line as usize * LINE_WORDS + lowest as usize
                )
            }
            ValidateMode::Record => {
                slot.first_write |= mask & !hit;
                for _ in 0..hit.count_ones() {
                    stats.record_war_conflict();
                }
            }
            ValidateMode::Off => unreachable!("Off mode tracks nothing"),
        }
    }

    /// Records a word read.
    #[inline]
    pub fn on_read(&mut self, addr: Addr) {
        if self.mode != ValidateMode::Off {
            self.read(word_bit(addr));
        }
    }

    /// Records a word write (stores and CAMs alike). Returns `true` if this
    /// write conflicts with an earlier exposed read in the same capsule.
    #[inline]
    pub fn on_write(&mut self, addr: Addr, stats: &MemStats) -> bool {
        self.mode != ValidateMode::Off && self.write(word_bit(addr), stats)
    }

    /// Records a block read: every word of the block becomes exposed unless
    /// already written.
    #[inline]
    pub fn on_read_block(&mut self, start: Addr, len: usize) {
        if self.mode != ValidateMode::Off {
            for line in lines(start, len) {
                self.read(line);
            }
        }
    }

    /// Records a block write; checks each word.
    #[inline]
    pub fn on_write_block(&mut self, start: Addr, len: usize, stats: &MemStats) {
        if self.mode != ValidateMode::Off {
            for line in lines(start, len) {
                self.write(line, stats);
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
    fn lines_cover_exactly_the_words_of_the_range() {
        let high = (1 << 40) + 7;
        for (start, len) in [
            (0, 0),
            (5, 0),
            (64, 0),
            (0, 1),
            (63, 1),
            (63, 2),
            (0, 64),
            (1, 64),
            (60, 200),
            (high, 130),
        ] {
            let words: Vec<usize> = lines(start, len)
                .flat_map(|(line, mask)| {
                    (0..LINE_WORDS)
                        .filter(move |bit| mask >> bit & 1 == 1)
                        .map(move |bit| line as usize * LINE_WORDS + bit)
                })
                .collect();
            assert_eq!(words, (start..start + len).collect::<Vec<_>>());
        }
        assert_eq!(lines(8, 8).count(), 1, "an aligned block is one probe");
        assert_eq!(word_bit(high), (1 << 34, 1 << 7));
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
