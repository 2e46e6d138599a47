//! The shared persistent memory.
//!
//! A flat array of 64-bit words, grouped into blocks of `B` words. The
//! structure itself is *uncosted and fault-free*: cost accounting and
//! fault injection happen in [`crate::ProcCtx`], the only path the runtime
//! uses. Direct access here is for machine setup, test oracles, and result
//! extraction.
//!
//! **One ordering point per instruction.** The model assumes that "all
//! instructions involving the persistent memory are sequentially
//! consistent", and an instruction is a word access *or a block transfer*
//! (§2). Every word instruction — [`PersistentMemory::load`], `store`,
//! `cam`, `cas_unsafe_under_faults`, `fetch_add` — and every word a range
//! read loads is `SeqCst`. A range write ([`PersistentMemory::write_range`],
//! under every costed range and block write, frame persist and journal
//! install) is one instruction and has one ordering point: its interior
//! words are `Release` stores in ascending address order and its **last
//! word is the `SeqCst` store**. That holds for the `k` block transfers of
//! one costed range ([`crate::ProcCtx::write_range`]) as for one block:
//! the model charges each block, and the machine performs the blocks that
//! passed the fault adversary as one range, so a `k`-block range pays one
//! `SeqCst` tail, not `k`. That is enough for what the runtime asks of a
//! range:
//!
//! * *Ascending publication.* A release store orders everything before it,
//!   so whoever observes word `k` of the range (readers load `SeqCst`,
//!   which acquires) also observes words `0..k`. The scheduler journal's
//!   "arguments, then head" rule and a frame's "body, then publish by a
//!   later costed write" rule are exactly this, and a process killed
//!   mid-range leaves a prefix in the file, as it did when every word was
//!   `SeqCst`. The blocks of one costed range publish in the order `k`
//!   separate block writes did, so a kill between them leaves the same
//!   prefix of blocks.
//! * *Program order around the range.* The tail's `SeqCst` store drains
//!   the range before any later instruction of the same processor, and a
//!   release store cannot be reordered before anything that precedes it.
//!
//! What a range write does *not* give its interior words is a place of
//! their own in the single total order of `SeqCst` operations; nothing
//! needs one — the words two processors race on (deque entries, `top`,
//! `bottom`, tickets, leases) are written by word instructions only.
//!
//! **What a word access touches.** A `load`: the word. An applied
//! `store`/`cam`: the word, at most one dirty-bitmap word *load* (durable
//! backends; the `fetch_or` runs once per page per drain, see
//! [`crate::dirty`]) and one read-mostly flag, `has_observer`. A range
//! write pays the bitmap load once per page it touches and the flag once.
//! No lock is taken unless an observer is installed: the instruments must
//! not serialize the processors they measure (`tools/lint_invariants.sh`,
//! 4).
//!
//! Where the words physically live is a [`MemBackend`] decision:
//! [`PersistentMemory::new`] keeps the original in-process atomics
//! ([`crate::backend::VolatileBackend`]), while
//! [`PersistentMemory::with_backend`] accepts any backend — notably the
//! file-mapped [`crate::backend::MmapBackend`], whose words survive the
//! death of the process and make [`PersistentMemory::flush`] a real
//! durability boundary.
//!
//! Two conditional-update primitives are provided, mirroring §5:
//!
//! * [`PersistentMemory::cam`] — **compare-and-modify**: a CAS whose result
//!   is *not observable* by the caller (the method returns `()`), which is
//!   the primitive that remains safe under faults.
//! * [`PersistentMemory::cas_unsafe_under_faults`] — a full CAS returning
//!   success. The paper shows this is **not** safe to use in a faulting
//!   capsule (the local result is lost on restart and cannot be
//!   reconstructed); it exists only so the non-fault-tolerant ABP baseline
//!   scheduler can be implemented for comparison.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::backend::{MemBackend, VolatileBackend};
use crate::control::ControlPage;
use crate::dirty::{DirtyTracker, PAGE_WORDS};
use crate::word::{Addr, Word};

/// An observer invoked on every *applied* mutation of a watched word:
/// `(addr, previous value, new value)`. Used by experiments (e.g. the
/// Figure 4 entry-state transition matrix) and debugging; it sits outside
/// the model and does not affect cost or semantics.
pub type WriteObserver = Arc<dyn Fn(Addr, Word, Word) + Send + Sync>;

/// Dirty runs separated by at most this many clean pages are flushed as
/// one range: an `msync` syscall's fixed cost exceeds the kernel's cost
/// of skipping the clean pages in between.
pub const COALESCE_GAP_PAGES: usize = 32;

/// Most runs an incremental flush will issue as separate syscalls before
/// degrading to one whole-mapping flush.
pub const MAX_DIRTY_RUNS: usize = 8;

/// Merges word runs whose gaps are at most `gap_words` (input runs are
/// sorted and disjoint, as produced by [`DirtyTracker::drain`]).
fn coalesce(runs: Vec<crate::dirty::PageRun>, gap_words: usize) -> Vec<crate::dirty::PageRun> {
    let mut out: Vec<crate::dirty::PageRun> = Vec::with_capacity(runs.len());
    for (start, len) in runs {
        match out.last_mut() {
            Some((s, l)) if start <= *s + *l + gap_words => *l = start + len - *s,
            _ => out.push((start, len)),
        }
    }
    out
}

/// What an incremental flush synced: how many pages, in how many
/// contiguous runs, and whether it degraded to a full flush (backend
/// without dirty tracking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyFlush {
    /// Pages synced.
    pub pages: usize,
    /// Contiguous page runs the pages coalesced into.
    pub runs: usize,
    /// Whether the whole mapping was synced instead of tracked pages.
    pub full: bool,
}

/// The shared persistent memory of one Parallel-PM machine.
pub struct PersistentMemory {
    /// Owner of the storage; `words` borrows from it.
    backend: Box<dyn MemBackend>,
    /// Cached pointer to the backend's word slice, so the per-access hot
    /// path pays no dynamic dispatch. [`MemBackend::words`] guarantees the
    /// slice is stable for the backend's lifetime, and the backend lives
    /// exactly as long as `self`.
    words: *const AtomicU64,
    len: usize,
    block_size: usize,
    observer: RwLock<Option<WriteObserver>>,
    /// Whether `observer` holds `Some`: the one word the mutation path
    /// reads before it may touch the lock. Written only by
    /// [`PersistentMemory::set_observer`], under the write lock.
    has_observer: AtomicBool,
    /// Page-granular dirty bitmap feeding [`PersistentMemory::flush_dirty`].
    /// Present only when the backend asks for it (durable backends whose
    /// flush cost scales with the synced range). A tracked store loads its
    /// page's bitmap word, and `fetch_or`s it the first time the page is
    /// dirtied after a drain; `None` (volatile backends) skips both.
    dirty: Option<DirtyTracker>,
    /// Observability hook: per-run flushed-page counts land here when the
    /// owning machine has wired a registry histogram (see
    /// [`PersistentMemory::set_dirty_histogram`]). Read-locked only on
    /// the flush path, never on word access.
    dirty_hist: RwLock<Option<ppm_obs::Histogram>>,
}

// SAFETY: `words` aliases storage owned by `backend` (kept alive by the
// struct itself), the backend is `Send + Sync`, and all word access goes
// through `&AtomicU64` — so the cached raw pointer adds no thread-safety
// hazard beyond what the backend already guarantees.
unsafe impl Send for PersistentMemory {}
// SAFETY: see the Send justification above.
unsafe impl Sync for PersistentMemory {}

impl std::fmt::Debug for PersistentMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PersistentMemory({} words, B={}, backend={:?})",
            self.len, self.block_size, self.backend
        )
    }
}

impl PersistentMemory {
    /// Allocates `words` zero-initialized in-process words with block size
    /// `block_size` (the [`VolatileBackend`]).
    pub fn new(words: usize, block_size: usize) -> Self {
        Self::with_backend(Box::new(VolatileBackend::new(words)), block_size)
    }

    /// Wraps an arbitrary storage backend.
    pub fn with_backend(backend: Box<dyn MemBackend>, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let slice = backend.words();
        let (words, len) = (slice.as_ptr(), slice.len());
        let dirty = backend
            .wants_dirty_tracking()
            .then(|| DirtyTracker::new(len));
        PersistentMemory {
            backend,
            words,
            len,
            block_size,
            observer: RwLock::new(None),
            has_observer: AtomicBool::new(false),
            dirty,
            dirty_hist: RwLock::new(None),
        }
    }

    /// Wires the histogram that [`PersistentMemory::flush_dirty`] feeds
    /// with the page length of every synced run (the "dirty-run length"
    /// distribution the checkpoint subsystem sizes itself against).
    pub fn set_dirty_histogram(&self, h: ppm_obs::Histogram) {
        *self.dirty_hist.write() = Some(h);
    }

    /// Records synced-run page lengths into the wired histogram, if any.
    fn observe_dirty_runs(&self, page_lens: impl Iterator<Item = usize>) {
        if let Some(h) = &*self.dirty_hist.read() {
            for len in page_lens {
                h.observe(len as u64);
            }
        }
    }

    #[inline]
    fn words(&self) -> &[AtomicU64] {
        // SAFETY: the pointer was taken from the backend's own word slice
        // at construction, is stable (the backend is boxed and never
        // replaced), holds exactly `len` words, and is outlived by the
        // owning backend stored in the same struct.
        unsafe { std::slice::from_raw_parts(self.words, self.len) }
    }

    /// Typed access to the backend's control page: superblock, checkpoint
    /// records, cluster header, leases, service header.
    pub fn control(&self) -> ControlPage<'_> {
        ControlPage::of(&*self.backend)
    }

    /// Forces all stored words to stable storage (the backend's durability
    /// boundary — `msync` for file-mapped memory, no-op for volatile).
    /// Also clears the dirty bitmap: a full flush covers every page.
    pub fn flush(&self) -> std::io::Result<()> {
        self.backend.flush()?;
        if let Some(d) = &self.dirty {
            let _ = d.drain();
        }
        Ok(())
    }

    /// Forces only the pages mutated since the last flush to stable
    /// storage, and reports how much work that was. Exact only while the
    /// machine is quiescent (see [`crate::dirty`]); falls back to a full
    /// [`PersistentMemory::flush`] when the backend tracks no dirty
    /// state. On an `msync` error the bitmap is re-marked in full so the
    /// next attempt cannot under-sync.
    ///
    /// Finding the runs costs what was dirtied, not the file: the drain
    /// ([`DirtyTracker::drain`]) loads each 64-page bitmap word once and
    /// swaps only the dirty ones, so a flush after a one-page submit
    /// tests `pages / 64` words plus that page.
    ///
    /// Each synced run is one `msync` syscall, whose fixed cost dwarfs
    /// the per-clean-page cost of a larger range — so nearby runs are
    /// coalesced across small gaps, and a pathologically scattered
    /// footprint (more than [`MAX_DIRTY_RUNS`] runs even after
    /// coalescing) degrades to one whole-mapping flush, which is never
    /// slower than that many syscalls.
    pub fn flush_dirty(&self) -> std::io::Result<DirtyFlush> {
        let full_pages = self.len.div_ceil(PAGE_WORDS);
        let Some(d) = &self.dirty else {
            self.flush()?;
            self.observe_dirty_runs(std::iter::once(full_pages));
            return Ok(DirtyFlush {
                pages: full_pages,
                runs: 1,
                full: true,
            });
        };
        let runs = coalesce(d.drain(), COALESCE_GAP_PAGES * PAGE_WORDS);
        if runs.len() > MAX_DIRTY_RUNS {
            if let Err(e) = self.backend.flush() {
                d.mark_all();
                return Err(e);
            }
            self.observe_dirty_runs(std::iter::once(full_pages));
            return Ok(DirtyFlush {
                pages: full_pages,
                runs: 1,
                full: true,
            });
        }
        let pages = runs
            .iter()
            .map(|(_, len)| len.div_ceil(PAGE_WORDS))
            .sum::<usize>();
        if let Err(e) = self.backend.flush_dirty(&runs) {
            d.mark_all();
            return Err(e);
        }
        self.observe_dirty_runs(runs.iter().map(|(_, len)| len.div_ceil(PAGE_WORDS)));
        Ok(DirtyFlush {
            pages,
            runs: runs.len(),
            full: false,
        })
    }

    /// The dirty tracker, when the backend maintains one (diagnostics and
    /// tests; flushing goes through [`PersistentMemory::flush_dirty`]).
    pub fn dirty_tracker(&self) -> Option<&DirtyTracker> {
        self.dirty.as_ref()
    }

    /// Marks the pages of `[addr, addr + len)` dirty. Called *after* the
    /// words are written: see [`DirtyTracker::mark_range`].
    #[inline]
    fn mark_dirty(&self, addr: Addr, len: usize) {
        if let Some(d) = &self.dirty {
            d.mark_range(addr, len);
        }
    }

    /// Installs a write observer (see [`WriteObserver`]). Pass `None` to
    /// remove. Observation is best-effort ordering-wise across addresses,
    /// but per-address it sees every applied mutation exactly once with
    /// the true previous value. A mutation that starts after this call
    /// returned is observed (`Some`) / not observed (`None`); one racing
    /// the call may land on either side.
    pub fn set_observer(&self, obs: Option<WriteObserver>) {
        let mut slot = self.observer.write();
        // Release, paired with the Acquire load in `observe`. The flag
        // flips under the write lock: a mutator that reads `true` then
        // finds the slot settled behind the read lock, one that reads
        // `false` counts as before the install (after the removal).
        self.has_observer.store(obs.is_some(), Ordering::Release);
        *slot = obs;
    }

    #[inline]
    fn observe(&self, addr: Addr, prev: Word, new: Word) {
        if self.has_observer.load(Ordering::Acquire) {
            // hot-path-ok: only while an observer is installed; the
            // unobserved path stops at the flag load above.
            if let Some(obs) = self.observer.read().as_ref() {
                obs(addr, prev, new);
            }
        }
    }

    /// Capacity in words (`M_p`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block size `B` in words.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of whole blocks.
    pub fn blocks(&self) -> usize {
        self.len / self.block_size
    }

    /// Sequentially-consistent load of one word.
    #[inline]
    pub fn load(&self, addr: Addr) -> Word {
        self.words()[addr].load(Ordering::SeqCst)
    }

    /// Sequentially-consistent store of one word.
    #[inline]
    pub fn store(&self, addr: Addr, value: Word) {
        let prev = self.words()[addr].swap(value, Ordering::SeqCst);
        self.mark_dirty(addr, 1);
        self.observe(addr, prev, value);
    }

    /// Compare-and-modify (§5): atomically, if the word at `addr` equals
    /// `old`, replace it with `new`. The swap result is deliberately not
    /// returned — a capsule that faults right after a CAS cannot recover
    /// the local result, so any program logic depending on it would not be
    /// idempotent. Success must instead be observed by *reading the
    /// location in a later capsule* (the test-and-set idiom of §5).
    #[inline]
    pub fn cam(&self, addr: Addr, old: Word, new: Word) {
        if self.words()[addr]
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.mark_dirty(addr, 1);
            self.observe(addr, old, new);
        }
    }

    /// Full compare-and-swap returning whether the swap happened.
    ///
    /// **Not safe under faults** (see §5 of the paper and the module docs);
    /// used only by the ABP baseline, which assumes a fault-free machine.
    #[inline]
    pub fn cas_unsafe_under_faults(&self, addr: Addr, old: Word, new: Word) -> bool {
        let ok = self.words()[addr]
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if ok {
            self.mark_dirty(addr, 1);
            self.observe(addr, old, new);
        }
        ok
    }

    /// Atomic fetch-add, used by test oracles and setup code only (the
    /// model's instruction set has no fetch-add; runtime code never calls
    /// this).
    #[inline]
    pub fn fetch_add(&self, addr: Addr, delta: Word) -> Word {
        let prev = self.words()[addr].fetch_add(delta, Ordering::SeqCst);
        self.mark_dirty(addr, 1);
        prev
    }

    /// Reads `dst.len()` consecutive words starting at `addr` into `dst`,
    /// each with a sequentially-consistent load. Uncosted here:
    /// [`crate::ProcCtx::read_block_into`] charges the block transfer and
    /// then calls this; setup code and oracles call it directly.
    pub fn read_range(&self, addr: Addr, dst: &mut [Word]) {
        if dst.is_empty() {
            return;
        }
        let src = &self.words()[addr..addr + dst.len()];
        for (d, w) in dst.iter_mut().zip(src) {
            *d = w.load(Ordering::SeqCst);
        }
    }

    /// Writes `src` into consecutive words starting at `addr`: one
    /// instruction, one ordering point (see the module docs). Interior
    /// words are release stores in ascending address order, the last word
    /// is the sequentially-consistent store, and the touched pages are
    /// marked dirty once, after the words. Uncosted here:
    /// [`crate::ProcCtx::write_range`] and [`crate::ProcCtx::stage_range`]
    /// charge the transfer; setup code and oracles call it directly.
    ///
    /// While an observer is installed (the flag is read once per range)
    /// the range is written word by word through
    /// [`PersistentMemory::store`], which is what reports each word's
    /// previous value.
    pub fn write_range(&self, addr: Addr, src: &[Word]) {
        if self.has_observer.load(Ordering::Acquire) {
            for (i, s) in src.iter().enumerate() {
                self.store(addr + i, *s);
            }
            return;
        }
        let Some((tail, interior)) = src.split_last() else {
            return;
        };
        let words = &self.words()[addr..addr + src.len()];
        for (w, s) in words.iter().zip(interior) {
            w.store(*s, Ordering::Release);
        }
        words[interior.len()].store(*tail, Ordering::SeqCst);
        self.mark_dirty(addr, src.len());
    }

    /// Extracts `len` words starting at `addr` into a `Vec` (oracle use).
    pub fn to_vec(&self, addr: Addr, len: usize) -> Vec<Word> {
        let mut v = vec![0; len];
        self.read_range(addr, &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn memory_is_zero_initialized() {
        let m = PersistentMemory::new(64, 8);
        assert_eq!(m.len(), 64);
        assert_eq!(m.blocks(), 8);
        for a in 0..64 {
            assert_eq!(m.load(a), 0);
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let m = PersistentMemory::new(16, 4);
        m.store(3, 0xDEAD_BEEF);
        assert_eq!(m.load(3), 0xDEAD_BEEF);
        assert_eq!(m.load(2), 0);
    }

    #[test]
    fn cam_swaps_only_on_match() {
        let m = PersistentMemory::new(4, 1);
        m.store(0, 10);
        m.cam(0, 10, 20); // matches
        assert_eq!(m.load(0), 20);
        m.cam(0, 10, 30); // stale expectation: no effect
        assert_eq!(m.load(0), 20);
    }

    #[test]
    fn cam_is_idempotent_when_non_reverting() {
        // Re-running a CAM capsule: the second identical CAM fails silently,
        // leaving memory as if it ran once (Theorem 5.2's mechanism).
        let m = PersistentMemory::new(1, 1);
        m.store(0, 0);
        m.cam(0, 0, 7);
        m.cam(0, 0, 7); // restart replays the same CAM
        assert_eq!(m.load(0), 7);
    }

    #[test]
    fn cas_reports_success_and_failure() {
        let m = PersistentMemory::new(1, 1);
        assert!(m.cas_unsafe_under_faults(0, 0, 5));
        assert!(!m.cas_unsafe_under_faults(0, 0, 6));
        assert_eq!(m.load(0), 5);
    }

    #[test]
    fn ranges_round_trip() {
        let m = PersistentMemory::new(32, 8);
        m.write_range(8, &[1, 2, 3, 4]);
        assert_eq!(m.to_vec(8, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.to_vec(12, 2), vec![0, 0]);
    }

    #[test]
    fn concurrent_cams_from_unset_have_exactly_one_winner() {
        // The test-and-set idiom of §5: N threads CAM the same location
        // from UNSET (0) to their id; exactly one must win.
        let m = Arc::new(PersistentMemory::new(1, 1));
        let threads = 8;
        let mut handles = Vec::new();
        for t in 1..=threads {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                m.cam(0, 0, t as Word);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let winner = m.load(0);
        assert!((1..=threads as Word).contains(&winner));
    }

    #[test]
    fn observer_sees_applied_mutations_with_previous_values() {
        use parking_lot::Mutex;
        let m = PersistentMemory::new(4, 1);
        let log: Arc<Mutex<Vec<(Addr, Word, Word)>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        m.set_observer(Some(Arc::new(move |a, p, n| log2.lock().push((a, p, n)))));
        m.store(0, 5);
        m.cam(0, 5, 6); // applies
        m.cam(0, 5, 7); // does not apply: unobserved
        assert!(m.cas_unsafe_under_faults(1, 0, 9));
        assert_eq!(
            *log.lock(),
            vec![(0, 0, 5), (0, 5, 6), (1, 0, 9)],
            "only applied mutations observed, with true previous values"
        );
        m.set_observer(None);
        m.store(2, 1);
        assert_eq!(log.lock().len(), 3);
    }

    /// The flag-guarded fast path keeps `set_observer`'s contract under
    /// concurrent writers: everything issued after the barrier that
    /// follows `set_observer(Some)` is logged exactly once with its true
    /// previous value, nothing after the barrier that follows
    /// `set_observer(None)`, and mutations racing either call land on one
    /// side or the other — never twice, never with a wrong previous value.
    #[test]
    fn observer_contract_holds_under_concurrent_writers() {
        use parking_lot::Mutex;
        use std::sync::Barrier;
        const WRITERS: usize = 2;
        const N: usize = 64;
        // Each writer owns four N-word phases: racing the install,
        // observed, racing the removal, unobserved.
        let m = PersistentMemory::new(WRITERS * 4 * N, 8);
        let log: Arc<Mutex<Vec<(Addr, Word, Word)>>> = Arc::default();
        let gate = Barrier::new(WRITERS + 1);
        let at = |w: usize, phase: usize, i: usize| (w * 4 + phase) * N + i;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (m, gate) = (&m, &gate);
                s.spawn(move || {
                    gate.wait(); // the installer starts
                    for i in 0..N {
                        m.store(at(w, 0, i), 1);
                    }
                    gate.wait(); // set_observer(Some) has returned
                    for i in 0..N {
                        let a = at(w, 1, i);
                        m.store(a, 10);
                        m.cam(a, 10, 11); // applies
                        m.cam(a, 10, 12); // stale: does not apply
                        assert!(m.cas_unsafe_under_faults(a, 11, 13));
                    }
                    gate.wait(); // the remover starts
                    for i in 0..N {
                        m.store(at(w, 2, i), 1);
                    }
                    gate.wait(); // set_observer(None) has returned
                    for i in 0..N {
                        m.store(at(w, 3, i), 1);
                        m.cam(at(w, 3, i), 1, 2);
                    }
                });
            }
            let sink = log.clone();
            gate.wait();
            m.set_observer(Some(Arc::new(move |a, p, n| sink.lock().push((a, p, n)))));
            gate.wait();
            gate.wait();
            m.set_observer(None);
            gate.wait();
        });
        let log = log.lock();
        let seen = |addr: Addr| -> Vec<(Word, Word)> {
            let of_addr = log.iter().filter(|(a, ..)| *a == addr);
            of_addr.map(|&(_, p, n)| (p, n)).collect()
        };
        for w in 0..WRITERS {
            for i in 0..N {
                assert_eq!(
                    seen(at(w, 1, i)),
                    vec![(0, 10), (10, 11), (11, 13)],
                    "applied mutations only, once each, true previous values"
                );
                assert!(seen(at(w, 3, i)).is_empty(), "observed after removal");
                for racing in [0, 2] {
                    let got = seen(at(w, racing, i));
                    assert!(got.is_empty() || got == vec![(0, 1)], "{got:?}");
                }
            }
        }
    }

    /// A volatile backend that opts into dirty tracking, for exercising
    /// the marking paths without a file.
    #[derive(Debug)]
    struct TrackingBackend(crate::backend::VolatileBackend);

    impl crate::backend::MemBackend for TrackingBackend {
        fn words(&self) -> &[AtomicU64] {
            self.0.words()
        }
        fn control(&self) -> &[AtomicU64] {
            self.0.control()
        }
        fn wants_dirty_tracking(&self) -> bool {
            true
        }
    }

    fn tracked(words: usize) -> PersistentMemory {
        PersistentMemory::with_backend(
            Box::new(TrackingBackend(crate::backend::VolatileBackend::new(words))),
            8,
        )
    }

    #[test]
    fn mutations_mark_their_pages_dirty() {
        use crate::dirty::PAGE_WORDS;
        let m = tracked(4 * PAGE_WORDS);
        let t = m.dirty_tracker().expect("tracking backend has a tracker");
        assert_eq!(t.dirty_pages(), 0);
        m.store(3, 1); // page 0
        m.cam(PAGE_WORDS + 1, 0, 5); // page 1: applies
        m.cam(PAGE_WORDS + 1, 0, 6); // does not apply: no mark
        m.fetch_add(3 * PAGE_WORDS, 1); // page 3
        assert!(m.cas_unsafe_under_faults(PAGE_WORDS + 2, 0, 9));
        assert_eq!(t.dirty_pages(), 3);
        let flush = m.flush_dirty().unwrap();
        assert_eq!(
            (flush.pages, flush.runs),
            (4, 1),
            "pages 0,1,3 coalesce across the 1-page gap into one 4-page run"
        );
        assert!(!flush.full);
        // Nothing stored since: the next incremental flush is free.
        assert_eq!(m.flush_dirty().unwrap().pages, 0);
    }

    #[test]
    fn write_range_spanning_pages_marks_both() {
        use crate::dirty::PAGE_WORDS;
        let m = tracked(2 * PAGE_WORDS);
        m.write_range(PAGE_WORDS - 1, &[1, 2]);
        assert_eq!(m.dirty_tracker().unwrap().dirty_pages(), 2);
    }

    #[test]
    fn empty_and_one_word_ranges_behave_as_store() {
        use crate::dirty::PAGE_WORDS;
        let m = tracked(2 * PAGE_WORDS);
        let t = m.dirty_tracker().unwrap();
        // Nothing to write: nothing stored, nothing marked, no bounds
        // check to fail — at the end of the array or past it.
        m.write_range(5, &[]);
        m.write_range(2 * PAGE_WORDS, &[]);
        m.write_range(usize::MAX, &[]);
        m.read_range(usize::MAX, &mut []);
        assert_eq!(t.dirty_pages(), 0);
        assert_eq!(m.load(5), 0);
        // One word: the word, its page, nothing else.
        m.write_range(PAGE_WORDS + 7, &[42]);
        assert_eq!(m.to_vec(PAGE_WORDS + 6, 3), vec![0, 42, 0]);
        assert!(t.is_dirty(PAGE_WORDS + 7) && !t.is_dirty(0));
        m.flush().unwrap();
        m.store(PAGE_WORDS + 7, 43);
        assert!(t.is_dirty(PAGE_WORDS + 7), "the same page a store marks");
    }

    #[test]
    fn a_range_past_the_end_panics_before_it_stores() {
        let m = PersistentMemory::new(16, 8);
        let run = std::panic::AssertUnwindSafe(|| m.write_range(12, &[1, 2, 3, 4, 5]));
        assert!(std::panic::catch_unwind(run).is_err());
        assert_eq!(m.to_vec(12, 4), vec![0; 4], "one bounds check, up front");
    }

    #[test]
    fn observed_range_write_reports_every_word_once_with_its_previous_value() {
        use parking_lot::Mutex;
        let m = PersistentMemory::new(32, 8);
        m.write_range(4, &[10, 11, 12, 13, 14]); // before the install: unobserved
        let log: Arc<Mutex<Vec<(Addr, Word, Word)>>> = Arc::default();
        let sink = log.clone();
        m.set_observer(Some(Arc::new(move |a, p, n| sink.lock().push((a, p, n)))));
        m.write_range(6, &[20, 21, 22, 23]);
        m.write_range(9, &[30]);
        m.write_range(9, &[]);
        assert_eq!(
            *log.lock(),
            vec![
                (6, 12, 20),
                (7, 13, 21),
                (8, 14, 22),
                (9, 0, 23),
                (9, 23, 30)
            ],
            "ascending, once each, true previous values"
        );
        m.set_observer(None);
        m.write_range(6, &[1, 2]);
        assert_eq!(log.lock().len(), 5);
        assert_eq!(m.to_vec(4, 6), vec![10, 11, 1, 2, 22, 30]);
    }

    /// The journal's shape (`install_sched`: arguments, then head): a
    /// writer rewrites a range with one generation in every word; a reader
    /// loads the *last* word and then the interior. Whatever it catches
    /// mid-rewrite, an interior word is never older than the last word it
    /// was paired with — the release stores are ordered before the tail.
    #[test]
    fn a_reader_never_pairs_a_new_last_word_with_an_old_interior_word() {
        use std::sync::Barrier;
        const WORDS: usize = 7;
        const REWRITES: Word = 100_000;
        // Straddles a block and a cache-line boundary.
        const AT: usize = 5;
        let m = PersistentMemory::new(64, 8);
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.wait();
                for g in 1..=REWRITES {
                    m.write_range(AT, &[g; WORDS]);
                }
            });
            gate.wait();
            let mut interior = [0; WORDS - 1];
            loop {
                let tail = m.load(AT + WORDS - 1);
                m.read_range(AT, &mut interior);
                for (i, w) in interior.iter().enumerate() {
                    assert!(*w >= tail, "word {i} at {w} under a tail at {tail}");
                }
                if tail == REWRITES {
                    break;
                }
            }
        });
    }

    #[test]
    fn widely_scattered_dirty_pages_degrade_to_one_full_flush() {
        use crate::dirty::PAGE_WORDS;
        // More than MAX_DIRTY_RUNS runs, each isolated by > the coalesce
        // gap: one whole-mapping flush beats that many msync calls.
        let pages = (super::MAX_DIRTY_RUNS + 2) * (super::COALESCE_GAP_PAGES + 2);
        let m = tracked(pages * PAGE_WORDS);
        for r in 0..super::MAX_DIRTY_RUNS + 2 {
            m.store(r * (super::COALESCE_GAP_PAGES + 2) * PAGE_WORDS, 1);
        }
        let flush = m.flush_dirty().unwrap();
        assert!(flush.full);
        assert_eq!(flush.runs, 1);
        assert_eq!(m.dirty_tracker().unwrap().dirty_pages(), 0);
    }

    #[test]
    fn full_flush_clears_the_dirty_bitmap() {
        let m = tracked(1024);
        m.store(0, 1);
        m.flush().unwrap();
        assert_eq!(m.flush_dirty().unwrap().pages, 0);
    }

    #[test]
    fn untracked_backends_fall_back_to_full_flush() {
        let m = PersistentMemory::new(1024, 8);
        assert!(m.dirty_tracker().is_none());
        m.store(0, 1);
        let flush = m.flush_dirty().unwrap();
        assert!(flush.full);
        assert_eq!(flush.pages, 2, "1024 words = 2 pages, all covered");
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let m = Arc::new(PersistentMemory::new(1, 1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.fetch_add(0, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.load(0), 4000);
    }
}
