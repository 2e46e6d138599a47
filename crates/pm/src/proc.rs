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
//! [`ProcCtx::pcam`], [`ProcCtx::read_block_into`], ...). A returned
//! [`Fault`] must be propagated out of the capsule (the `?` operator does
//! this naturally); the capsule engine then performs the model's restart.

use std::sync::Arc;

use crate::config::{PmConfig, ValidateMode};
use crate::error::{Fault, PmResult};
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
        self.capsule_work = 0;
        self.staged.clear();
        self.war.reset(name);
        self.stats.record_capsule_run(self.proc);
    }

    /// Completes the active capsule, recording its capsule work. Returns
    /// that work (the quantity whose maximum is the paper's `C`).
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
        let frame = self.pending_frame;
        self.pending_parent = 0;
        self.pending_frame = 0;
        let id = sink.mint();
        sink.start(id, parent, frame, name, self.proc);
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
    // Fault plumbing
    // ------------------------------------------------------------------

    /// One adversary consultation; on a fault, records it, updates the
    /// liveness oracle for hard faults, and returns `Err`.
    #[inline]
    fn fault_point(&mut self) -> PmResult<()> {
        match self.injector.check() {
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

    /// External read of one block into `dst` (unit cost; may fault).
    /// `dst.len()` must not exceed the block size, and the range must not
    /// cross a block boundary.
    pub fn read_block_into(&mut self, addr: Addr, dst: &mut [Word]) -> PmResult<()> {
        self.check_block_bounds(addr, dst.len());
        self.fault_point()?;
        self.capsule_work += 1;
        self.stats.record_read(self.proc);
        if !self.war_exempt {
            self.war.on_read_block(addr, dst.len());
        }
        self.mem.read_range(addr, dst);
        Ok(())
    }

    /// External write of one block from `src` (unit cost; may fault).
    /// Same bounds rules as [`ProcCtx::read_block_into`].
    pub fn write_block(&mut self, addr: Addr, src: &[Word]) -> PmResult<()> {
        self.check_block_bounds(addr, src.len());
        self.fault_point()?;
        self.capsule_work += 1;
        self.stats.record_write(self.proc);
        if !self.war_exempt {
            self.war.on_write_block(addr, src.len(), &self.stats);
        }
        self.mem.write_range(addr, src);
        Ok(())
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
        let b = self.mem.block_size();
        let mut ranges = std::mem::take(&mut self.staged);
        for (start, len) in ranges.drain(..) {
            let first = start / b;
            let last = (start + len - 1) / b;
            for _ in first..=last {
                self.fault_point()?;
                self.capsule_work += 1;
                self.stats.record_write(self.proc);
                self.stats.record_staged_persist(self.proc);
            }
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
        assert_eq!(
            addr / b,
            (addr + len.max(1) - 1) / b,
            "block transfer at {addr} len {len} crosses a block boundary"
        );
    }

    // ------------------------------------------------------------------
    // Restart-stable allocation (§4.1)
    // ------------------------------------------------------------------

    /// Installs this processor's allocation pool and cursor (engine use).
    pub fn set_alloc_pool(&mut self, pool: Region, cursor: usize) {
        self.alloc_pool = Some(pool);
        self.alloc_cursor = cursor;
        self.capsule_start_cursor = cursor;
    }

    /// Current allocation cursor (persisted at capsule boundaries by the
    /// engine).
    pub fn alloc_cursor(&self) -> usize {
        self.alloc_cursor
    }

    /// Moves the allocation cursor to `cursor` at a capsule boundary.
    /// Checkpoint GC uses this after a quiesced reclamation rolled the
    /// persisted watermark back below the old cursor: subsequent
    /// allocations reuse the pool words whose frames are dead. Must only
    /// be called between capsules (the committed cursor moves too).
    pub fn set_pool_cursor(&mut self, cursor: usize) {
        self.alloc_cursor = cursor;
        self.capsule_start_cursor = cursor;
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
    /// capsules allocate nothing — none of the ten scheduler capsules of a
    /// fork does). That keeps the ordering argument intact: a skipped
    /// store would have written the value the word has, so after this
    /// call the persisted watermark equals the cursor either way, and
    /// therefore still covers every frame an install can publish. The
    /// comparison reads the word itself, not a cached copy, so the one
    /// other writer — checkpoint GC rolling the watermark back while this
    /// processor is parked — cannot make it stale.
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
    pub fn palloc(&mut self, words: usize) -> Addr {
        let pool = self
            .alloc_pool
            .expect("processor has no allocation pool configured");
        assert!(
            self.alloc_cursor + words <= pool.len,
            "processor {} allocation pool exhausted ({} + {} > {})",
            self.proc,
            self.alloc_cursor,
            words,
            pool.len
        );
        let addr = pool.start + self.alloc_cursor;
        self.alloc_cursor += words;
        self.stats
            .record_pool_cursor(self.proc, self.alloc_cursor as u64);
        addr
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
                Err(Fault::Hard) => unreachable!("soft-only config"),
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
        let a1 = c.palloc(4);
        let a2 = c.palloc(2);
        // Soft fault: rerun must yield identical addresses.
        c.restart_capsule("alloc");
        let b1 = c.palloc(4);
        let b2 = c.palloc(2);
        assert_eq!((a1, a2), (b1, b2));
        c.complete_capsule();

        // Next capsule continues from the committed cursor.
        c.begin_capsule("next");
        let a3 = c.palloc(1);
        assert_eq!(a3, 106);
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
