//! The per-processor access handle.
//!
//! Every *costed* external read and write in the entire system flows through
//! a [`ProcCtx`]. It is the embodiment of one processor of the model: it
//! charges unit cost per transfer, consults the fault adversary before each
//! transfer, feeds the write-after-read validator, and carries the
//! processor's restart-stable allocation cursor (§4.1).
//!
//! Capsule bodies receive `&mut ProcCtx` and perform all persistent-memory
//! traffic with the fallible methods ([`ProcCtx::pread`], [`ProcCtx::pwrite`],
//! [`ProcCtx::pcam`], [`ProcCtx::read_range`], ...). A returned
//! [`Fault`] must be propagated out of the capsule (the `?` operator does
//! this naturally); the capsule engine then performs the model's restart.
//!
//! ## A range is one instruction
//!
//! [`ProcCtx::write_range`] and [`ProcCtx::read_range`] move any run of
//! words and cost what the per-block loop over it cost: one unit per
//! block touched, one fault-adversary consultation per block in block
//! order, and every word checked for write-after-read conflicts. A call
//! does four things, in this order:
//!
//! 1. it consults the adversary for every block before touching memory;
//!    the blocks before the first fault pass;
//! 2. it charges `capsule_work` and the counters once per passed block and
//!    runs the WAR check once over their words (one probe per 64-word
//!    line, as for a block);
//! 3. it performs the passed blocks as one [`PersistentMemory`] range;
//! 4. only then does it take the fault: it records it and, for a hard
//!    fault, marks the processor dead.
//!
//! So a kill at block `j` leaves exactly blocks `< j` moved, as `j`
//! block transfers would, and no survivor can see the processor dead while
//! that prefix is still being written. A `k`-block write is one ordering
//! point ([`crate::mem`]): ascending release stores keep the
//! blocks' publication order, the `SeqCst` tail drains the range before
//! the processor's next instruction, and no word two processors race on is
//! ever written by a range. [`ProcCtx::write_block`] and
//! [`ProcCtx::read_block_into`] are the one-block case, with a bounds
//! check.
//!
//! ## Frames die at their join
//!
//! The §4.1 pool only bumps, but the words a fork's subtree allocates are
//! dead once its join's last arrival continues: results leave a subtree
//! only through cells allocated before the fork (`ppm_core::dsl`'s
//! contract). So a capsule that executes a fork records a **mark** — the
//! address of the join cell it allocated first — with a **stamp**, the
//! processor's count of foreign events so far ([`ProcCtx::note_foreign`]:
//! a steal, pull or adoption, a `popBottom` miss on `taken`, a join
//! arrival that continues with the left token). When the pushed branch's
//! arrival continues on this processor and the innermost mark is that
//! cell under an unchanged stamp, every thread of the subtree ran here,
//! one after another, and every capsule of it has committed: the cursor
//! rolls back to the first word at or above the mark that has the
//! cursor's offset within its block ([`ProcCtx::join_reclaim`]), so the
//! frames allocated next cost the block transfers they would have cost
//! without the rollback; never below its floor
//! ([`ProcCtx::pin_floor`]): on a durable machine its
//! value at the last checkpoint quiesce, whose record's frontier may
//! still need the words below it. In every other case nothing is
//! reclaimed until the run ends, and the pool budgets carry those words
//! (`ppm-algs`'s sizing). Marks and reclaims take effect when their
//! capsule commits ([`ProcCtx::complete_capsule`]), so a soft-fault
//! re-run neither registers a fork twice nor reclaims twice, and all of
//! it is ephemeral: a restarted or replacement processor starts with no
//! marks.

use std::sync::Arc;

use crate::config::{PmConfig, ValidateMode};
use crate::error::{Fault, PmError, PmResult};
use crate::fault::{FaultInjector, Liveness};
use crate::layout::Region;
use crate::mem::PersistentMemory;
use crate::stats::MemStats;
use crate::validate::WarTracker;
use crate::word::{Addr, Word};

/// One processor's handle onto the shared machine.
#[derive(Debug)]
pub struct ProcCtx {
    proc: usize,
    mem: Arc<PersistentMemory>,
    stats: Arc<MemStats>,
    liveness: Arc<Liveness>,
    injector: FaultInjector,
    war: WarTracker,
    /// External transfers performed by the current capsule run.
    capsule_work: u64,
    /// The per-processor allocation pool (§4.1), if configured.
    alloc_pool: Option<Region>,
    /// Next free word in the pool.
    alloc_cursor: usize,
    /// Cursor value at the start of the active capsule; restarts roll back
    /// to this, so re-running a capsule re-allocates the same addresses.
    capsule_start_cursor: usize,
    /// Forks whose joins may still roll the pool back, innermost last:
    /// each its mark (the fork's first join-cell address) and the
    /// [`ProcCtx::foreign`] count when its capsule committed.
    marks: Vec<(Addr, u64)>,
    /// Foreign events so far (module docs). Only its changes matter.
    foreign: u64,
    /// No join rolls the pool back below this cursor: set when the pool
    /// is installed and at each durable checkpoint quiesce
    /// ([`ProcCtx::pin_floor`]), so the frames a checkpoint record's
    /// frontier reaches stay as they were (the floor only rises).
    floor: usize,
    /// The mark the running capsule's fork registers when it commits.
    pending_mark: Option<Addr>,
    /// The join cell whose last arrival the running capsule is, when it
    /// continues with the pushed branch's token; matched at commit.
    pending_join: Option<Addr>,
    /// Why this processor stopped, when it was not a fault.
    error: Option<PmError>,
    /// Persistent word mirroring the committed allocation cursor, when
    /// configured. Written (uncosted) at every capsule completion so a
    /// recovering process knows how much of the pool holds live closure
    /// frames — see `ppm-core`'s machine docs.
    watermark_addr: Option<Addr>,
    /// Ephemeral memory capacity `M` (words), for algorithms sizing their
    /// base cases.
    ephemeral_words: usize,
    /// When set, word accesses bypass write-after-read tracking. Used for
    /// the Figure 3 scheduler capsules whose idempotence the paper proves
    /// directly (via entry tags) rather than via conflict freedom.
    war_exempt: bool,
    /// Write-combining staging buffer: contiguous pool ranges stored by
    /// [`ProcCtx::stage_write`] whose transfer cost has not been charged
    /// yet. Flushed as whole-block persists at the capsule boundary;
    /// cleared on capsule begin/restart (the §4.1 cursor rollback makes a
    /// re-run re-stage identical words at identical addresses).
    staged: Vec<(Addr, usize)>,
    /// Causal span sink, when span tracing is on for this process. All
    /// span fields below stay zero when absent — the disabled path costs
    /// one `Option` check per capsule.
    span_sink: Option<Arc<ppm_obs::SpanSink>>,
    /// Span id of the currently running traced capsule execution
    /// (0 = none / untraced). Minted once per execution — soft-fault
    /// restarts keep it — and stamped into every frame the capsule
    /// writes ([`crate::frame::write_frame`]).
    cur_span: u64,
    /// Last traced span in an unbroken same-thread continuation chain.
    /// A traced capsule's begin uses it as the parent (the enablement
    /// edge of a `jump_to`/fork arm run in place); any untraced
    /// scheduler capsule in between breaks the chain, forcing the
    /// parent to come from the persistent frame word instead — which is
    /// exactly the steal/adoption/recovery cross-process edge.
    chain_span: u64,
    /// Parent span read from the frame word of the next capsule to be
    /// installed via a frame handle (set by the engine at resolve time,
    /// consumed by the next traced begin).
    pending_parent: u64,
    /// Frame address the next capsule will run from (reported in its
    /// span-start record; consumed with `pending_parent`).
    pending_frame: u64,
    /// Wall-clock start of the current span, for the duration field.
    span_started: Option<std::time::Instant>,
}

impl ProcCtx {
    /// Creates processor `proc`'s context for a machine with the given
    /// shared state.
    pub fn new(
        cfg: &PmConfig,
        proc: usize,
        mem: Arc<PersistentMemory>,
        stats: Arc<MemStats>,
        liveness: Arc<Liveness>,
    ) -> Self {
        assert!(
            proc < cfg.procs,
            "proc id {proc} out of range {}",
            cfg.procs
        );
        ProcCtx {
            proc,
            mem,
            stats,
            liveness,
            injector: FaultInjector::new(&cfg.fault, proc),
            war: WarTracker::new(cfg.validate),
            capsule_work: 0,
            alloc_pool: None,
            alloc_cursor: 0,
            capsule_start_cursor: 0,
            marks: Vec::new(),
            foreign: 0,
            floor: 0,
            pending_mark: None,
            pending_join: None,
            error: None,
            watermark_addr: None,
            ephemeral_words: cfg.ephemeral_words,
            war_exempt: false,
            staged: Vec::new(),
            span_sink: None,
            cur_span: 0,
            chain_span: 0,
            pending_parent: 0,
            pending_frame: 0,
            span_started: None,
        }
    }

    /// This processor's id.
    #[inline]
    pub fn proc(&self) -> usize {
        self.proc
    }

    /// The machine's block size `B`.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.mem.block_size()
    }

    /// The ephemeral memory capacity `M` in words.
    #[inline]
    pub fn ephemeral_words(&self) -> usize {
        self.ephemeral_words
    }

    /// Direct (uncosted, fault-free) access to the persistent memory, for
    /// engine internals and oracles. Capsule bodies must not use this.
    #[inline]
    pub fn raw_mem(&self) -> &PersistentMemory {
        &self.mem
    }

    /// The liveness oracle `isLive(procId)` (free, per the model).
    #[inline]
    pub fn is_live(&self, proc: usize) -> bool {
        self.liveness.is_live(proc)
    }

    /// Shared liveness oracle handle.
    #[inline]
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// Shared statistics handle.
    #[inline]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Whether this processor has hard-faulted.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.injector.is_dead()
    }

    /// Fault-adversary consultations so far: one per word access and one
    /// per block of a range (including the one a fault pre-empted).
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.injector.accesses()
    }

    /// The validation mode this context runs under.
    #[inline]
    pub fn validate_mode(&self) -> ValidateMode {
        self.war.mode()
    }

    /// Enables or disables write-after-read tracking for subsequent
    /// accesses. The engine sets this per capsule from the capsule trait's
    /// `war_checked` hook (see `ppm-core`): the handful of Figure 3
    /// capsules that intentionally read-then-CAM the same entry are
    /// exempt, their idempotence being Lemma A.6/A.12's tag argument. A
    /// body may also scope an exemption around a prefix of its own
    /// accesses; it must then set it on every attempt, since a soft-fault
    /// re-run starts with whatever the faulted attempt left.
    #[inline]
    pub fn set_war_exempt(&mut self, exempt: bool) {
        self.war_exempt = exempt;
    }

    // ------------------------------------------------------------------
    // Capsule lifecycle (called by the engine, not by capsule bodies)
    // ------------------------------------------------------------------

    /// Begins a *new* capsule: commits the allocation cursor and resets the
    /// validator and work counter. Called when a capsule is installed.
    pub fn begin_capsule(&mut self, name: &'static str) {
        self.capsule_start_cursor = self.alloc_cursor;
        self.pending_mark = None;
        self.pending_join = None;
        self.capsule_work = 0;
        self.staged.clear();
        self.war.reset(name);
        self.stats.record_capsule_run(self.proc);
    }

    /// Restarts the active capsule after a soft fault: ephemeral state is
    /// gone (the capsule body's locals are simply dropped by the engine),
    /// the allocation cursor rolls back so the rerun allocates identical
    /// addresses, and validation restarts.
    pub fn restart_capsule(&mut self, name: &'static str) {
        self.alloc_cursor = self.capsule_start_cursor;
        self.pending_mark = None;
        self.pending_join = None;
        self.capsule_work = 0;
        self.staged.clear();
        self.war.reset(name);
        self.stats.record_capsule_run(self.proc);
    }

    /// Completes the active capsule, recording its capsule work. Returns
    /// that work (the quantity whose maximum is the paper's `C`).
    ///
    /// A fork the capsule executed registers its mark here, and a join it
    /// ended rolls the cursor back here (module docs): both only once the
    /// capsule's successor is installed.
    ///
    /// If a watermark word is configured, the committed allocation cursor
    /// is mirrored there with an uncosted store (machine bookkeeping, like
    /// statistics — the model's closure write is the costed install). The
    /// mirror is exact at every capsule boundary: anything a crashed run
    /// published (a frame handle in a deque entry or restart pointer) was
    /// allocated by an already-completed capsule and so sits below the
    /// persisted watermark.
    pub fn complete_capsule(&mut self) -> u64 {
        let w = self.capsule_work;
        self.stats.record_capsule_completion(self.proc, w);
        self.commit_marks();
        self.publish_watermark();
        if self.cur_span != 0 {
            if let Some(sink) = &self.span_sink {
                let dur_us = self
                    .span_started
                    .map(|t| t.elapsed().as_micros() as u64)
                    .unwrap_or(0);
                sink.end(self.cur_span, w, dur_us);
            }
            self.cur_span = 0;
            self.span_started = None;
        }
        w
    }

    // ------------------------------------------------------------------
    // Causal span tracing (called by the engine, not by capsule bodies)
    // ------------------------------------------------------------------

    /// Installs (or removes) the process-wide span sink for this context.
    /// Engine use: the machine injects it into every context it mints.
    pub fn set_span_sink(&mut self, sink: Option<Arc<ppm_obs::SpanSink>>) {
        self.span_sink = sink;
    }

    /// Opens a span for a new capsule execution, resolving its causal
    /// parent. Called by the engine once per execution, right after
    /// [`ProcCtx::begin_capsule`] and **before** the soft-fault retry
    /// loop — the span id is restart-stable, like the §4.1 allocation
    /// cursor.
    ///
    /// Parent resolution: an unbroken same-thread chain wins (the
    /// previous traced capsule jumped here); otherwise the parent comes
    /// from the pending frame word set at handle-resolve time — the
    /// cross-process steal/adoption/recovery edge. An *untraced* begin
    /// (scheduler capsules) breaks the chain and clears any stale
    /// pending edge; the engine re-sets the pending edge after the
    /// scheduler body picks its target frame, so the handoff survives.
    pub fn span_begin(&mut self, name: &str, traced: bool) {
        if !traced {
            self.cur_span = 0;
            self.chain_span = 0;
            self.pending_parent = 0;
            self.pending_frame = 0;
            return;
        }
        let Some(sink) = &self.span_sink else {
            return;
        };
        let parent = if self.chain_span != 0 {
            self.chain_span
        } else {
            self.pending_parent
        };
        let (frame, writer) = (self.pending_frame, self.pending_parent);
        self.pending_parent = 0;
        self.pending_frame = 0;
        let id = sink.mint();
        sink.start(id, parent, frame, writer, name, self.proc);
        self.cur_span = id;
        self.chain_span = id;
        self.span_started = Some(std::time::Instant::now());
    }

    /// Records the causal edge for the next frame-handle install: the
    /// frame address and the span `parent` reads from the frame's parent
    /// word — read only when a span sink is attached, so an untraced
    /// install costs this check. Consumed by the next traced
    /// [`ProcCtx::span_begin`]. Engine use (uncosted — provenance, not
    /// program state).
    pub fn set_pending_parent(&mut self, frame: Addr, parent: impl FnOnce() -> u64) {
        if self.span_sink.is_some() {
            self.pending_parent = parent();
            self.pending_frame = frame as u64;
        }
    }

    /// The span id of the running traced capsule execution (0 = none).
    /// Stamped into frames by [`crate::frame::write_frame`].
    #[inline]
    pub fn cur_span(&self) -> u64 {
        self.cur_span
    }

    /// Forces the current span id (tests of the frame format only).
    #[cfg(test)]
    pub(crate) fn set_span_for_test(&mut self, span: u64) {
        self.cur_span = span;
    }

    /// External transfers performed so far by the current capsule run.
    #[inline]
    pub fn capsule_work(&self) -> u64 {
        self.capsule_work
    }

    // ------------------------------------------------------------------
    // Join-time reclamation (module docs)
    // ------------------------------------------------------------------

    /// Records that the running capsule executes a fork whose first
    /// allocated join cell is `cell`: a capsule that allocates the fork's
    /// frames and forks in one body. A capsule that forks frames an
    /// earlier capsule planted (an inner node of `fork_many`'s tree) must
    /// not call this: words above its cell hold sibling subtrees that
    /// have not run yet.
    pub fn mark_fork(&mut self, cell: Addr) {
        self.pending_mark = Some(cell);
    }

    /// Records that the running capsule is the last arrival at the join
    /// cell `cell` and continues with the pushed branch's token. At commit
    /// the cursor rolls back to the cell, up to the cursor's offset within
    /// its block, if it is the innermost mark and no foreign event happened
    /// since its fork committed.
    pub fn join_reclaim(&mut self, cell: Addr) {
        self.pending_join = Some(cell);
    }

    /// Counts a foreign event: from here on no join of a fork registered
    /// before it rolls the pool back.
    #[inline]
    pub fn note_foreign(&mut self) {
        self.foreign += 1;
    }

    /// The registered fork marks, innermost last, each with whether its
    /// stamp is still current — whether its join could still reclaim
    /// (diagnostics, tests and the engine explorer's state key).
    pub fn fork_marks(&self) -> impl Iterator<Item = (Addr, bool)> + '_ {
        self.marks
            .iter()
            .map(|&(mark, stamp)| (mark, stamp == self.foreign))
    }

    /// Applies the committed capsule's fork mark and join reclaim.
    fn commit_marks(&mut self) {
        if let Some(cell) = self.pending_join.take() {
            if self.marks.last() == Some(&(cell, self.foreign)) {
                self.marks.pop();
                if let Some(pool) = self.alloc_pool {
                    let mark = (cell - pool.start).max(self.floor);
                    if mark < self.alloc_cursor {
                        // Keep the cursor's offset within its block: the
                        // frames allocated next straddle exactly the
                        // blocks they would have without the rollback,
                        // so every staged persist, and with it every
                        // capsule's work, is what it was.
                        let b = self.mem.block_size();
                        self.alloc_cursor = mark + (self.alloc_cursor - mark) % b;
                    }
                }
            }
        }
        if let Some(cell) = self.pending_mark.take() {
            // Marks under an older stamp can never match again.
            if self
                .marks
                .last()
                .is_some_and(|&(_, stamp)| stamp != self.foreign)
            {
                self.marks.clear();
            }
            self.marks.push((cell, self.foreign));
        }
    }

    /// Why this processor stopped, when it was not a fault: set when an
    /// access returned [`Fault::Exhausted`].
    pub fn error(&self) -> Option<PmError> {
        self.error
    }

    // ------------------------------------------------------------------
    // Fault plumbing
    // ------------------------------------------------------------------

    /// One adversary consultation; on a fault, records it, updates the
    /// liveness oracle for hard faults, and returns `Err`.
    #[inline]
    fn fault_point(&mut self) -> PmResult<()> {
        let fault = self.injector.check();
        self.take_fault(fault)
    }

    /// Consults the adversary once per block of `addr..addr + len`, in
    /// block order, stopping at the first fault: the blocks that proceed,
    /// the words of the range they hold, and the fault, not yet taken.
    #[inline]
    fn consult_range(&mut self, addr: Addr, len: usize) -> (u64, usize, Option<Fault>) {
        if len == 0 {
            return (0, 0, None);
        }
        // One division for a range inside a block, the common case (a
        // block transfer, a journal install): a 64-bit `div` is among the
        // dearest instructions of a one-block call.
        let b = self.mem.block_size();
        let off = addr % b;
        let blocks = match off + len <= b {
            true => 1,
            false => (off + len).div_ceil(b) as u64,
        };
        let (passed, fault) = self.injector.check_run(blocks);
        let words = match fault {
            None => len,
            Some(_) => (passed as usize * b).saturating_sub(off),
        };
        (passed, words, fault)
    }

    /// Takes a fault the adversary reported: records it and, for a hard
    /// fault, updates the liveness oracle. A range calls this only after
    /// it has performed the blocks before the fault (module docs).
    #[inline]
    fn take_fault(&mut self, fault: Option<Fault>) -> PmResult<()> {
        match fault {
            None => Ok(()),
            Some(Fault::Soft) => {
                self.stats.record_soft_fault(self.proc);
                Err(Fault::Soft)
            }
            Some(Fault::Hard) => {
                self.stats.record_hard_fault(self.proc);
                self.liveness.mark_dead(self.proc);
                Err(Fault::Hard)
            }
            Some(Fault::Exhausted) => unreachable!("the adversary injects only faults"),
        }
    }

    /// Charges the model's restart overhead: on restart the processor
    /// loads the restart pointer and the start instruction — "a constant
    /// number of external memory transfers" (§2). Charged as one external
    /// read; may itself fault (a restart can be interrupted by another
    /// fault), in which case the engine retries. Not WAR-tracked: the
    /// restart sequence is machine-level, not part of the capsule body.
    #[inline]
    pub fn charge_restart(&mut self) -> PmResult<()> {
        self.fault_point()?;
        self.stats.record_read(self.proc);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Costed word operations
    // ------------------------------------------------------------------

    /// External read of one word (unit cost; may fault).
    #[inline]
    pub fn pread(&mut self, addr: Addr) -> PmResult<Word> {
        self.fault_point()?;
        self.capsule_work += 1;
        self.stats.record_read(self.proc);
        if !self.war_exempt {
            self.war.on_read(addr);
        }
        Ok(self.mem.load(addr))
    }

    /// External write of one word (unit cost; may fault).
    #[inline]
    pub fn pwrite(&mut self, addr: Addr, value: Word) -> PmResult<()> {
        self.fault_point()?;
        self.capsule_work += 1;
        self.stats.record_write(self.proc);
        if !self.war_exempt {
            self.war.on_write(addr, &self.stats);
        }
        self.mem.store(addr, value);
        Ok(())
    }

    /// Compare-and-modify (unit cost; may fault). The swap result is not
    /// observable — see [`PersistentMemory::cam`].
    #[inline]
    pub fn pcam(&mut self, addr: Addr, old: Word, new: Word) -> PmResult<()> {
        self.fault_point()?;
        self.capsule_work += 1;
        self.stats.record_write(self.proc);
        if !self.war_exempt {
            self.war.on_write(addr, &self.stats);
        }
        self.mem.cam(addr, old, new);
        Ok(())
    }

    /// Full CAS returning success (unit cost; may fault). **Unsafe under
    /// faults** — provided only for the ABP baseline scheduler; see §5 of
    /// the paper for why a faulting capsule cannot use the result.
    #[inline]
    pub fn pcas_baseline(&mut self, addr: Addr, old: Word, new: Word) -> PmResult<bool> {
        self.fault_point()?;
        self.capsule_work += 1;
        self.stats.record_write(self.proc);
        if !self.war_exempt {
            self.war.on_write(addr, &self.stats);
        }
        Ok(self.mem.cas_unsafe_under_faults(addr, old, new))
    }

    // ------------------------------------------------------------------
    // Costed block operations
    // ------------------------------------------------------------------

    /// External read of the words `addr..addr + dst.len()` into `dst`:
    /// one unit per block the range touches, and one instruction (module
    /// docs). A fault at its `j`-th block leaves the words of blocks
    /// before it read and the rest of `dst` as it was.
    pub fn read_range(&mut self, addr: Addr, dst: &mut [Word]) -> PmResult<()> {
        let (blocks, words, fault) = self.consult_range(addr, dst.len());
        self.capsule_work += blocks;
        self.stats.record_reads(self.proc, blocks);
        if !self.war_exempt {
            self.war.on_read_block(addr, words);
        }
        self.mem.read_range(addr, &mut dst[..words]);
        self.take_fault(fault)
    }

    /// External write of `src` to the words `addr..addr + src.len()`: one
    /// unit per block the range touches, and one instruction (module
    /// docs). A fault at its `j`-th block leaves exactly the blocks before
    /// it written.
    pub fn write_range(&mut self, addr: Addr, src: &[Word]) -> PmResult<()> {
        let (blocks, words, fault) = self.consult_range(addr, src.len());
        self.capsule_work += blocks;
        self.stats.record_writes(self.proc, blocks);
        if !self.war_exempt {
            self.war.on_write_block(addr, words, &self.stats);
        }
        self.mem.write_range(addr, &src[..words]);
        self.take_fault(fault)
    }

    /// External read of one block into `dst` (unit cost; may fault).
    /// `dst.len()` must not exceed the block size, and the range must not
    /// cross a block boundary.
    pub fn read_block_into(&mut self, addr: Addr, dst: &mut [Word]) -> PmResult<()> {
        self.check_block_bounds(addr, dst.len());
        self.read_range(addr, dst)
    }

    /// External write of one block from `src` (unit cost; may fault).
    /// Same bounds rules as [`ProcCtx::read_block_into`].
    pub fn write_block(&mut self, addr: Addr, src: &[Word]) -> PmResult<()> {
        self.check_block_bounds(addr, src.len());
        self.write_range(addr, src)
    }

    // ------------------------------------------------------------------
    // Write-combining staging (frame-pool writes)
    // ------------------------------------------------------------------

    /// Stores one word through the write-combining buffer. The word hits
    /// memory **immediately** — same-capsule reads, frame rehydration and
    /// recovery-time decoding always see current words — but the model's
    /// unit transfer cost (and its fault point) is deferred to
    /// [`ProcCtx::flush_staged`] at the capsule boundary, where adjacent
    /// staged words coalesce into whole-block persists. Intended for
    /// frame-pool writes: §4.1 bump allocation makes consecutive frames
    /// contiguous, so an entire capsule boundary's closures persist as a
    /// handful of sequential block transfers instead of one random write
    /// per word. WAR-tracked like a plain [`ProcCtx::pwrite`].
    ///
    /// Crash-safe by publication ordering: a staged frame's handle only
    /// escapes through a costed install or deque write, which the engine
    /// performs *after* the boundary flush.
    #[inline]
    pub fn stage_write(&mut self, addr: Addr, value: Word) {
        self.stage_range(addr, &[value]);
    }

    /// [`ProcCtx::stage_write`] for a run of consecutive words — a whole
    /// frame — at the price of one of each step: one WAR range check, one
    /// counter add, one staging-buffer entry (extended in place when the
    /// run continues the previous one, as §4.1 bump allocation makes
    /// consecutive frames do) and one range store.
    #[inline]
    pub fn stage_range(&mut self, addr: Addr, words: &[Word]) {
        if !self.war_exempt {
            self.war.on_write_block(addr, words.len(), &self.stats);
        }
        self.stats
            .record_staged_words(self.proc, words.len() as u64);
        match self.staged.last_mut() {
            Some((start, len)) if *start + *len == addr => *len += words.len(),
            _ => self.staged.push((addr, words.len())),
        }
        self.mem.write_range(addr, words);
    }

    /// Charges the staged writes of the current capsule as coalesced block
    /// transfers — one unit cost per touched block per contiguous range —
    /// and drains the staging buffer. Each block transfer consults the
    /// fault adversary; on a fault the engine restarts the capsule, whose
    /// re-run re-stages identical words at identical addresses (cursor
    /// rollback), so the flush is idempotent. Called by the capsule engine
    /// after the body returns, before the successor is installed.
    pub fn flush_staged(&mut self) -> PmResult<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let mut ranges = std::mem::take(&mut self.staged);
        for (start, len) in ranges.drain(..) {
            let (blocks, _, fault) = self.consult_range(start, len);
            self.capsule_work += blocks;
            self.stats.record_writes(self.proc, blocks);
            self.stats.record_staged_persists(self.proc, blocks);
            self.take_fault(fault)?;
        }
        self.staged = ranges; // keep the (now empty) allocation
        Ok(())
    }

    /// Words currently sitting in the write-combining buffer (diagnostics).
    #[inline]
    pub fn staged_words(&self) -> usize {
        self.staged.iter().map(|(_, len)| len).sum()
    }

    #[inline]
    fn check_block_bounds(&self, addr: Addr, len: usize) {
        let b = self.mem.block_size();
        assert!(len <= b, "transfer of {len} words exceeds block size {b}");
        assert!(
            addr % b + len <= b,
            "block transfer at {addr} len {len} crosses a block boundary"
        );
    }

    // ------------------------------------------------------------------
    // Restart-stable allocation (§4.1)
    // ------------------------------------------------------------------

    /// Installs this processor's allocation pool and cursor (engine use).
    /// Any fork marks are dropped: they belong to the old cursor. No join
    /// rolls the pool back below `cursor` (a resumed run's checkpoint
    /// record may still need those words).
    pub fn set_alloc_pool(&mut self, pool: Region, cursor: usize) {
        self.alloc_pool = Some(pool);
        self.alloc_cursor = cursor;
        self.capsule_start_cursor = cursor;
        self.floor = cursor;
        self.marks.clear();
    }

    /// Current allocation cursor (persisted at capsule boundaries by the
    /// engine).
    pub fn alloc_cursor(&self) -> usize {
        self.alloc_cursor
    }

    /// From here on no join rolls the pool back below the current cursor.
    /// A durable machine's checkpoint quiesce calls this: the record it
    /// may have written reaches frames under the cursor, and recovery can
    /// fall back to that record until a newer one replaces it.
    pub fn pin_floor(&mut self) {
        self.floor = self.alloc_cursor;
    }

    /// Configures the persistent word that mirrors the committed
    /// allocation cursor (`None` disables mirroring). Engine use.
    pub fn set_watermark_addr(&mut self, addr: Option<Addr>) {
        self.watermark_addr = addr;
    }

    /// Mirrors the *current* allocation cursor to the watermark word
    /// immediately (uncosted). The engine calls this after a capsule body
    /// returns and **before** installing its successor: an install may
    /// publish a frame the body just allocated (as the new restart
    /// pointer), and a crash between that publication and the next
    /// capsule boundary must not leave the watermark below a reachable
    /// frame. A subsequent soft-fault restart rolls the cursor back below
    /// the mirrored value, which is harmless — an over-high watermark
    /// only wastes pool words on resume, never corrupts live frames.
    ///
    /// The store is skipped when the word already holds the cursor (most
    /// capsules allocate nothing — none of the scheduler capsules of a
    /// fork does). That keeps the ordering argument intact: a skipped
    /// store would have written the value the word has, so after this
    /// call the persisted watermark equals the cursor either way, and
    /// therefore still covers every frame an install can publish. The
    /// comparison reads the word itself, not a cached copy, so a recovery
    /// that rewrote the word before this context was minted cannot make
    /// it stale.
    pub fn publish_watermark(&mut self) {
        if let Some(wm) = self.watermark_addr {
            let cursor = self.alloc_cursor as Word;
            if self.mem.load(wm) != cursor {
                self.mem.store(wm, cursor);
            }
        }
    }

    /// Allocates `words` fresh persistent words from the processor's pool.
    ///
    /// No external transfer is charged here: per §4.1 the bump pointer is
    /// "kept in local memory", and its final value is written into the next
    /// capsule's closure at the capsule boundary (the engine charges that
    /// write as part of installing the capsule). Because the cursor rolls
    /// back on restart, a re-run allocates exactly the same addresses —
    /// allocation is idempotent.
    ///
    /// A pool too small for the allocation (or no pool at all) returns
    /// [`Fault::Exhausted`] and keeps the [`PmError::PoolExhausted`] for
    /// [`ProcCtx::error`]: the session ends with it instead of unwinding.
    pub fn palloc(&mut self, words: usize) -> PmResult<Addr> {
        // A processor without a pool has a pool of no words.
        let pool = self.alloc_pool.unwrap_or(Region { start: 0, len: 0 });
        if self.alloc_cursor + words > pool.len {
            self.error = Some(PmError::PoolExhausted {
                proc: self.proc,
                cursor: self.alloc_cursor,
                words,
                pool: pool.len,
            });
            return Err(Fault::Exhausted);
        }
        let addr = pool.start + self.alloc_cursor;
        self.alloc_cursor += words;
        self.stats
            .record_pool_cursor(self.proc, self.alloc_cursor as u64);
        Ok(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultConfig;

    fn machine(cfg: &PmConfig) -> (Arc<PersistentMemory>, Arc<MemStats>, Arc<Liveness>) {
        (
            Arc::new(PersistentMemory::new(cfg.persistent_words, cfg.block_size)),
            Arc::new(MemStats::new(cfg.procs)),
            Arc::new(Liveness::new(cfg.procs)),
        )
    }

    fn ctx(cfg: &PmConfig) -> ProcCtx {
        let (m, s, l) = machine(cfg);
        ProcCtx::new(cfg, 0, m, s, l)
    }

    #[test]
    fn reads_and_writes_cost_one_each() {
        let cfg = PmConfig::small_single();
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        c.pwrite(0, 42).unwrap();
        assert_eq!(c.pread(0).unwrap(), 42);
        assert_eq!(c.capsule_work(), 2);
        let snap = c.stats().snapshot();
        assert_eq!(snap.total_reads, 1);
        assert_eq!(snap.total_writes, 1);
    }

    #[test]
    fn block_ops_cost_one_per_block() {
        let cfg = PmConfig::small_single(); // B = 8
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        c.write_block(8, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut buf = [0u64; 8];
        c.read_block_into(8, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.capsule_work(), 2);
    }

    /// 37 words at offset 3 with B = 8: words 3..40, blocks 0..=4.
    const RANGE: (Addr, usize) = (3, 37);

    fn range_words() -> Vec<Word> {
        (100..100 + RANGE.1 as Word).collect()
    }

    #[test]
    fn an_unaligned_range_costs_its_blocks() {
        let cfg = PmConfig::small_single(); // B = 8
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        c.write_range(RANGE.0, &range_words()).unwrap();
        let mut back = vec![0; RANGE.1];
        c.read_range(RANGE.0, &mut back).unwrap();
        assert_eq!(back, range_words());
        assert_eq!((c.capsule_work(), c.accesses()), (10, 10));
        let snap = c.stats().snapshot();
        assert_eq!((snap.total_reads, snap.total_writes), (5, 5));
        assert_eq!(c.raw_mem().load(2), 0);
        assert_eq!(c.raw_mem().load(40), 0);
    }

    #[test]
    fn an_empty_range_costs_nothing() {
        let cfg = PmConfig::small_single();
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        c.write_range(5, &[]).unwrap();
        c.read_range(5, &mut []).unwrap();
        assert_eq!((c.capsule_work(), c.accesses()), (0, 0));
    }

    #[test]
    fn a_hard_fault_at_block_j_leaves_the_blocks_before_it_written() {
        for j in 0..5u64 {
            let cfg = PmConfig::small_single()
                .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, j + 1));
            let (m, s, l) = machine(&cfg);
            // Every word the range stores must land while the processor is
            // still live: the oracle flips only after the prefix.
            let live = l.clone();
            m.set_observer(Some(Arc::new(move |_, _, _| assert!(live.is_live(0)))));
            let mut c = ProcCtx::new(&cfg, 0, m, s, l.clone());
            c.begin_capsule("t");
            assert_eq!(c.write_range(RANGE.0, &range_words()), Err(Fault::Hard));
            assert!(!l.is_live(0) && c.is_dead());
            assert_eq!((c.capsule_work(), c.accesses()), (j, j + 1));
            let end = (8 * j as usize).max(RANGE.0);
            for a in 0..48 {
                let want = match (RANGE.0..end).contains(&a) {
                    true => 100 + (a - RANGE.0) as Word,
                    false => 0,
                };
                assert_eq!(c.raw_mem().load(a), want, "word {a}, death at block {j}");
            }
        }
    }

    #[test]
    fn a_scheduled_death_lands_at_its_access_through_words_and_ranges() {
        let cfg = PmConfig::small_single()
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, 7));
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        for a in 0..6 {
            c.pwrite(a, 1).unwrap();
        }
        assert_eq!(c.pread(0), Err(Fault::Hard));
        assert_eq!(c.accesses(), 7);
        // Through a range: three word writes, then blocks 0..=2 pass at
        // accesses 4..=6 and block 3 dies at access 7.
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        for a in 0..3 {
            c.pwrite(a, 1).unwrap();
        }
        assert_eq!(c.write_range(RANGE.0, &range_words()), Err(Fault::Hard));
        assert_eq!((c.accesses(), c.capsule_work()), (7, 6));
        assert_eq!(c.raw_mem().load(23), 120);
        assert_eq!(c.raw_mem().load(24), 0);
    }

    #[test]
    fn a_soft_fault_rerun_writes_the_identical_image() {
        let cfg = PmConfig::small_single().with_fault(FaultConfig::soft(0.3, 5));
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        let mut faults = 0;
        while let Err(fault) = c.write_range(RANGE.0, &range_words()) {
            assert_eq!(fault, Fault::Soft);
            faults += 1;
            c.restart_capsule("t");
        }
        assert!(faults > 0, "f = 0.3 over five blocks faults on this seed");
        assert_eq!(c.capsule_work(), 5);
        let clean = ctx(&PmConfig::small_single());
        clean.raw_mem().write_range(RANGE.0, &range_words());
        assert_eq!(c.raw_mem().to_vec(0, 48), clean.raw_mem().to_vec(0, 48));
    }

    #[test]
    #[should_panic(expected = "write-after-read conflict in capsule `war` at word 20")]
    fn strict_panics_on_a_conflict_inside_a_multi_block_range() {
        let cfg = PmConfig::small_single();
        let mut c = ctx(&cfg);
        c.begin_capsule("war");
        let _ = c.pread(20).unwrap();
        let _ = c.write_range(RANGE.0, &range_words());
    }

    #[test]
    fn record_counts_the_conflicts_the_per_block_loop_counts() {
        let cfg = PmConfig::small_single().with_validate(ValidateMode::Record);
        let conflicts = |per_block: bool| {
            let mut c = ctx(&cfg);
            c.begin_capsule("war");
            let mut exposed = [0; 6];
            c.read_range(14, &mut exposed).unwrap();
            c.pread(30).unwrap();
            c.pwrite(15, 0).unwrap(); // exposed: conflicts on its own
            let words = range_words();
            match per_block {
                false => c.write_range(RANGE.0, &words).unwrap(),
                true => {
                    let (mut at, mut rest) = RANGE;
                    while rest > 0 {
                        let n = (8 - at % 8).min(rest);
                        let i = at - RANGE.0;
                        c.write_block(at, &words[i..i + n]).unwrap();
                        (at, rest) = (at + n, rest - n);
                    }
                }
            }
            (c.stats().snapshot().war_conflicts, c.capsule_work())
        };
        assert_eq!(conflicts(false), (8, 9));
        assert_eq!(conflicts(true), conflicts(false));
    }

    #[test]
    #[should_panic(expected = "crosses a block boundary")]
    fn cross_block_transfer_rejected() {
        let cfg = PmConfig::small_single();
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        let mut buf = [0u64; 4];
        let _ = c.read_block_into(6, &mut buf); // words 6..10 cross block 0/1
    }

    #[test]
    #[should_panic(expected = "write-after-read conflict")]
    fn war_conflict_detected_through_ctx() {
        let cfg = PmConfig::small_single();
        let mut c = ctx(&cfg);
        c.begin_capsule("war-capsule");
        let _ = c.pread(3).unwrap();
        let _ = c.pwrite(3, 1);
    }

    #[test]
    fn capsule_boundary_clears_war_exposure() {
        let cfg = PmConfig::small_single();
        let mut c = ctx(&cfg);
        c.begin_capsule("c1");
        let _ = c.pread(3).unwrap();
        c.complete_capsule();
        c.begin_capsule("c2");
        c.pwrite(3, 1).unwrap(); // fine: different capsule
    }

    #[test]
    fn faults_interrupt_accesses_and_are_counted() {
        let cfg = PmConfig::small_single().with_fault(FaultConfig::soft(0.5, 11));
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        let mut faults = 0;
        let mut oks = 0;
        for _ in 0..200 {
            match c.pwrite(0, 1) {
                Ok(()) => oks += 1,
                Err(Fault::Soft) => {
                    faults += 1;
                    c.restart_capsule("t");
                }
                Err(stop) => unreachable!("soft-only config, got {stop}"),
            }
        }
        assert!(faults > 0, "with f=0.5 faults must occur");
        assert!(oks > 0);
        let snap = c.stats().snapshot();
        assert_eq!(snap.soft_faults, faults);
        // Cost is charged only for performed accesses.
        assert_eq!(snap.total_writes, oks);
    }

    #[test]
    fn hard_fault_marks_liveness_dead() {
        let cfg = PmConfig::small_single()
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, 3));
        let (m, s, l) = machine(&cfg);
        let mut c = ProcCtx::new(&cfg, 0, m, s, l.clone());
        c.begin_capsule("t");
        assert!(c.pwrite(0, 1).is_ok());
        assert!(c.pwrite(1, 1).is_ok());
        assert_eq!(c.pwrite(2, 1), Err(Fault::Hard));
        assert!(!l.is_live(0));
        assert!(c.is_dead());
    }

    #[test]
    fn allocation_is_restart_stable() {
        let cfg = PmConfig::small_single();
        let mut c = ctx(&cfg);
        c.set_alloc_pool(
            Region {
                start: 100,
                len: 64,
            },
            0,
        );

        c.begin_capsule("alloc");
        let a1 = c.palloc(4).unwrap();
        let a2 = c.palloc(2).unwrap();
        // Soft fault: rerun must yield identical addresses.
        c.restart_capsule("alloc");
        let b1 = c.palloc(4).unwrap();
        let b2 = c.palloc(2).unwrap();
        assert_eq!((a1, a2), (b1, b2));
        c.complete_capsule();

        // Next capsule continues from the committed cursor.
        c.begin_capsule("next");
        let a3 = c.palloc(1).unwrap();
        assert_eq!(a3, 106);
    }

    fn pooled(len: usize) -> ProcCtx {
        let mut c = ctx(&PmConfig::small_single());
        c.set_alloc_pool(Region { start: 100, len }, 0);
        c
    }

    #[test]
    fn an_exhausted_pool_is_an_error_not_a_panic() {
        let mut c = pooled(8);
        c.begin_capsule("alloc");
        assert_eq!(c.palloc(6), Ok(100));
        assert_eq!(c.error(), None);
        assert_eq!(c.palloc(3), Err(Fault::Exhausted));
        assert_eq!(
            c.error(),
            Some(PmError::PoolExhausted {
                proc: 0,
                cursor: 6,
                words: 3,
                pool: 8
            })
        );
        assert_eq!(c.alloc_cursor(), 6, "a refused allocation moves nothing");
    }

    /// One forking capsule: the fork's cell and `frames` more words;
    /// returns the cell.
    fn fork(c: &mut ProcCtx, frames: usize) -> Addr {
        c.begin_capsule("fork");
        let cell = c.palloc(1).unwrap();
        c.palloc(frames).unwrap();
        c.mark_fork(cell);
        c.complete_capsule();
        cell
    }

    fn arrive_right(c: &mut ProcCtx, cell: Addr) {
        c.begin_capsule("arrive");
        c.join_reclaim(cell);
        c.complete_capsule();
    }

    #[test]
    fn a_join_rolls_the_cursor_back_to_its_mark_at_commit() {
        let mut c = pooled(64);
        c.begin_capsule("before");
        c.palloc(3).unwrap();
        c.complete_capsule();
        // Forks of one block each (B = 8), so a rollback lands on the mark.
        let outer = fork(&mut c, 7);
        let inner = fork(&mut c, 7);
        assert_eq!((outer, inner, c.alloc_cursor()), (103, 111, 19));
        c.begin_capsule("arrive");
        c.join_reclaim(inner);
        assert_eq!(c.alloc_cursor(), 19, "nothing moves before the commit");
        // A soft fault drops the pending reclaim; the re-run asks again.
        c.restart_capsule("arrive");
        c.join_reclaim(inner);
        c.complete_capsule();
        assert_eq!(c.alloc_cursor(), 11);
        arrive_right(&mut c, outer);
        assert_eq!((c.alloc_cursor(), c.fork_marks().count()), (3, 0));
        // A second commit of the same join finds no mark: no reclaim twice.
        c.begin_capsule("more");
        c.palloc(5).unwrap();
        c.complete_capsule();
        arrive_right(&mut c, outer);
        assert_eq!(c.alloc_cursor(), 8);
    }

    #[test]
    fn a_rollback_keeps_the_cursors_offset_within_its_block() {
        let mut c = pooled(64);
        let cell = fork(&mut c, 4);
        c.begin_capsule("subtree");
        c.palloc(14).unwrap();
        c.complete_capsule();
        assert_eq!(c.alloc_cursor(), 19);
        arrive_right(&mut c, cell);
        // Not 0: the next frame must start 3 words into its block, as it
        // would at 19, so it touches the blocks it would have touched.
        assert_eq!(c.alloc_cursor(), 3);
        // A subtree shorter than a block frees nothing.
        let cell = fork(&mut c, 4);
        arrive_right(&mut c, cell);
        assert_eq!(c.alloc_cursor(), 8);
    }

    #[test]
    fn a_foreign_event_or_another_cell_keeps_every_word() {
        let mut c = pooled(64);
        let outer = fork(&mut c, 7);
        let inner = fork(&mut c, 7);
        arrive_right(&mut c, outer);
        assert_eq!(c.alloc_cursor(), 16, "only the innermost mark matches");
        c.note_foreign();
        arrive_right(&mut c, inner);
        assert_eq!(c.alloc_cursor(), 16, "the stamp changed");
        // A fork after the foreign event drops the stale marks and
        // reclaims on its own.
        let next = fork(&mut c, 7);
        assert_eq!(c.fork_marks().count(), 1);
        arrive_right(&mut c, next);
        assert_eq!(c.alloc_cursor(), 16);
    }

    #[test]
    fn a_pending_mark_dies_with_a_soft_fault() {
        let mut c = pooled(64);
        c.begin_capsule("fork");
        let cell = c.palloc(1).unwrap();
        c.mark_fork(cell);
        c.restart_capsule("fork");
        let again = c.palloc(1).unwrap();
        assert_eq!(cell, again);
        c.complete_capsule();
        assert_eq!(c.fork_marks().count(), 0, "the re-run did not mark");
    }

    #[test]
    fn no_join_reclaims_below_the_last_quiesce() {
        let mut c = pooled(64);
        let outer = fork(&mut c, 7);
        let inner = fork(&mut c, 7);
        arrive_right(&mut c, inner);
        // A durable quiesce pins the cursor as a floor.
        c.pin_floor();
        let next = fork(&mut c, 7);
        arrive_right(&mut c, next);
        assert_eq!(
            c.alloc_cursor(),
            8,
            "a fork after the quiesce frees its words"
        );
        arrive_right(&mut c, outer);
        assert_eq!(c.alloc_cursor(), 8, "but not the words under the floor");
        assert_eq!(c.fork_marks().count(), 0);
    }

    #[test]
    fn cam_through_ctx_applies_conditionally() {
        let cfg = PmConfig::small_single();
        let mut c = ctx(&cfg);
        c.begin_capsule("t");
        c.pwrite(0, 5).unwrap();
        c.complete_capsule();
        c.begin_capsule("cam");
        c.pcam(0, 5, 9).unwrap();
        c.complete_capsule();
        assert_eq!(c.raw_mem().load(0), 9);
        c.begin_capsule("cam2");
        c.pcam(0, 5, 11).unwrap(); // stale: no effect
        assert_eq!(c.raw_mem().load(0), 9);
    }
}
