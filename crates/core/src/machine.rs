//! A Parallel-PM machine instance.
//!
//! [`Machine`] bundles the shared persistent memory, statistics, liveness
//! oracle and continuation arena, carves the persistent address space
//! (per-processor metadata, per-processor allocation pools, user regions),
//! and mints [`ProcCtx`] handles for processor threads.

use std::sync::Arc;

use parking_lot::Mutex;
use ppm_obs::Obs;
use ppm_pm::{
    Addr, LayoutBuilder, Liveness, MemStats, PersistentMemory, PmConfig, ProcCtx, Region,
    StatsSnapshot, Word,
};

use crate::arena::ContArena;
use crate::registry::{register_core_capsules, CapsuleId, CapsuleRegistry};

/// Persistent words of per-processor metadata: a two-record journal of
/// scheduler capsules, the restart pointer, and the pool watermark.
///
/// ```text
///   offset  0..5   record A, argument words
///           5      record A, head word
///           6      active: the restart pointer (§2)
///           7      reserved (zero)
///           8..13  record B, argument words
///          13      record B, head word
///          14      watermark
///          15      reserved (zero)
/// ```
///
/// * `active` — the handle of the capsule the processor is executing,
///   read by thieves via `getActiveCapsule` when it hard-faults. It holds
///   a frame address (a user capsule: the frame's words are the closure)
///   or **its own address** — the journal pointer: "my capsule is the
///   live record of this block". A word that holds its own small address
///   can never carry [`ppm_pm::frame::FRAME_MAGIC`], so code that only
///   knows frames reads a journal pointer as "not a frame".
/// * records A and B — the scheduler's own capsules, as words
///   ([`crate::capsule::SchedRecord`]): the **live** record is the one whose head carries
///   the higher generation. Any attachment to the machine resolves a
///   journal pointer from these words alone
///   ([`crate::runner::live_record`]), which is what lets a survivor
///   adopt a processor killed *inside* scheduler code.
/// * `watermark` — mirror of the processor's committed pool-allocation
///   cursor, refreshed (uncosted) at every capsule boundary. A recovering
///   process reads it to resume allocation *above* the dead run's live
///   frames and join cells instead of overwriting them.
///
/// Fourteen words would do, but the stride that keeps processors
/// block-separated would round them back up to sixteen at B = 4, 8 and
/// 16, so the reserved words cost nothing and the file format stays put.
///
/// ## Store order (why a SIGKILL between any two stores is safe)
///
/// An install is one ascending run of stores
/// ([`crate::runner::InstallCtx::install_sched`]):
///
/// * record → record: the five argument words, then the head, into the
///   slot that is *not* live. Until the head lands the slot's old, lower
///   generation keeps it dead, whatever its arguments hold; once it
///   lands the slot is complete and live. `active` is not touched.
/// * anything else → record: record A's arguments, its head, then
///   `active` — seven adjacent words. Until `active` lands it denotes the
///   old capsule; the head before it already outranks record B.
///
/// At B ≥ 8 either run lies inside one block — one `write_block`, the
/// cost an install always had. At B = 4 a six-word record cannot, and
/// the run is two block writes.
pub const PROC_META_WORDS: usize = 16;

/// Offsets within a processor's metadata block.
pub mod meta {
    use crate::capsule::SCHED_ARG_WORDS;

    /// Journal record A: argument words, then its head at [`HEAD_A`].
    pub const REC_A: usize = 0;
    /// Head word of record A.
    pub const HEAD_A: usize = REC_A + SCHED_ARG_WORDS;
    /// Restart-pointer location, right behind record A so
    /// `(record, head, active)` is one contiguous run.
    pub const ACTIVE: usize = HEAD_A + 1;
    /// Journal record B.
    pub const REC_B: usize = 8;
    /// Head word of record B.
    pub const HEAD_B: usize = REC_B + SCHED_ARG_WORDS;
    /// Committed pool-allocation cursor mirror.
    pub const WATERMARK: usize = HEAD_B + 1;
}

// Record A and its pointer swing end before record B starts, and the
// block holds both.
const _: () = assert!(meta::ACTIVE < meta::REC_B && meta::WATERMARK < PROC_META_WORDS);

/// Addresses of one processor's metadata words.
#[derive(Debug, Clone, Copy)]
pub struct ProcMeta {
    /// Address of the block (record A's first argument word).
    pub base: Addr,
    /// Address of the restart-pointer word.
    pub active: Addr,
    /// Address of the pool-cursor watermark word.
    pub watermark: Addr,
}

/// Where the processors' metadata blocks lie: maps a processor to its
/// block and a journal pointer back to the block it points into.
#[derive(Debug, Clone, Copy)]
pub struct MetaMap {
    start: Addr,
    stride: usize,
    procs: usize,
}

impl MetaMap {
    /// Metadata addresses of processor `proc`.
    pub fn of(&self, proc: usize) -> ProcMeta {
        assert!(proc < self.procs);
        let base = self.start + proc * self.stride;
        ProcMeta {
            base,
            active: base + meta::ACTIVE,
            watermark: base + meta::WATERMARK,
        }
    }

    /// The block `handle` points into, if `handle` is a journal pointer
    /// (the address of some processor's `active` word).
    #[inline]
    pub fn journal_of(&self, handle: Word) -> Option<Addr> {
        let off = (handle as Addr).checked_sub(self.start + meta::ACTIVE)?;
        (off % self.stride == 0 && off / self.stride < self.procs)
            .then(|| handle as Addr - meta::ACTIVE)
    }
}

/// One Parallel-PM machine: shared state plus address-space layout.
#[derive(Debug)]
pub struct Machine {
    cfg: PmConfig,
    mem: Arc<PersistentMemory>,
    stats: Arc<MemStats>,
    obs: Arc<Obs>,
    liveness: Arc<Liveness>,
    arena: Arc<ContArena>,
    registry: Arc<CapsuleRegistry>,
    layout: Mutex<LayoutBuilder>,
    metas: MetaMap,
    pools: Vec<Region>,
    pool_words: usize,
    /// Durable-backend run epoch (1 for the creating run, +1 per reopen);
    /// 0 for volatile machines.
    epoch: u64,
}

/// Default per-processor allocation pool size in words. A fork consumes
/// its join cell, two six-word arrival frames and its two branch frames —
/// 29 words a leaf of a `map_grain` over a region — so this holds on the
/// order of 9·10^3 forks per processor that neither their joins (which
/// free a subtree that ran on its processor) nor a checkpoint have
/// handed back; construct with [`Machine::with_pool_words`] for larger
/// workloads.
pub const DEFAULT_POOL_WORDS: usize = 1 << 18;

impl Machine {
    /// Builds a machine from `cfg` with default pool sizing: up to
    /// [`DEFAULT_POOL_WORDS`] per processor, but never more than half the
    /// address space in total (the rest is left for user data).
    pub fn new(cfg: PmConfig) -> Self {
        let budget = cfg.persistent_words / 2 / cfg.procs.max(1);
        Self::with_pool_words(cfg, DEFAULT_POOL_WORDS.min(budget).max(1))
    }

    /// Builds a machine with `pool_words` of allocation pool per processor.
    ///
    /// # Panics
    /// Panics if the persistent memory cannot hold the metadata and pools —
    /// a configuration error.
    pub fn with_pool_words(cfg: PmConfig, pool_words: usize) -> Self {
        let mem = Arc::new(PersistentMemory::new(cfg.persistent_words, cfg.block_size));
        Self::from_mem(cfg, pool_words, mem, 0)
    }

    /// Builds a machine over already-constructed memory, replaying the
    /// deterministic address-space layout (null guard, processor metadata,
    /// pools). Every construction path funnels through here, which is what
    /// makes a reopened durable machine's layout line up with the layout
    /// of the run that created the file.
    fn from_mem(cfg: PmConfig, pool_words: usize, mem: Arc<PersistentMemory>, epoch: u64) -> Self {
        let mut layout = LayoutBuilder::new(cfg.persistent_words, cfg.block_size);
        // Reserve the first block so that address 0 is never a valid handle
        // (the arena's null handle).
        let _null_guard = layout.region(1);
        // Blocks are block-separated so installs by one processor never
        // share a block with another's restart pointer.
        let stride = PROC_META_WORDS.max(cfg.block_size);
        let metas = MetaMap {
            start: layout.region(cfg.procs * stride).start,
            stride,
            procs: cfg.procs,
        };
        let pools = (0..cfg.procs).map(|_| layout.region(pool_words)).collect();
        let registry = Arc::new(CapsuleRegistry::new());
        register_core_capsules(&registry);
        let obs = Arc::new(Obs::new());
        let stats = Arc::new(MemStats::new(cfg.procs));
        // Every subsystem built over this machine exports through this
        // one handle: the cost-model counters now, the scheduler and
        // checkpoint layers as they are constructed.
        stats.register_into(obs.registry());
        mem.set_dirty_histogram(obs.registry().histogram(
            "ppm_dirty_run_pages",
            "page length of each run synced by an incremental flush",
        ));
        let epoch_val = epoch;
        obs.registry().gauge_fn(
            "ppm_epoch",
            "durable run epoch (0 volatile, 1 creating run, +1 per reopen)",
            &[],
            move || epoch_val as f64,
        );
        Machine {
            stats,
            obs,
            liveness: Arc::new(Liveness::new(cfg.procs)),
            arena: Arc::new(ContArena::with_rehydration(
                mem.clone(),
                registry.clone(),
                metas,
            )),
            registry,
            layout: Mutex::new(layout),
            metas,
            pools,
            pool_words,
            epoch,
            mem,
            cfg,
        }
    }

    /// Creates a machine whose persistent memory is a durable file at
    /// `path` (truncating anything already there), with default pool
    /// sizing. The file records the machine shape in its superblock so
    /// [`Machine::reopen`] can rebuild the machine in a later process.
    ///
    /// The fault adversary and validation mode of `cfg` apply to this run
    /// but are not persisted.
    #[cfg(unix)]
    pub fn create_durable(
        cfg: PmConfig,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        let budget = cfg.persistent_words / 2 / cfg.procs.max(1);
        Self::create_durable_with_pool_words(cfg, DEFAULT_POOL_WORDS.min(budget).max(1), path)
    }

    /// [`Machine::create_durable`] with explicit per-processor pool sizing.
    #[cfg(unix)]
    pub fn create_durable_with_pool_words(
        cfg: PmConfig,
        pool_words: usize,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        let sb = ppm_pm::Superblock::describe(&cfg, pool_words);
        let backend = ppm_pm::MmapBackend::create(path, sb)?;
        Ok(Self::from_backend(backend, sb, cfg.fault, cfg.validate, 1))
    }

    /// The shared tail of the durable constructors: `backend`, whose file
    /// carries superblock `sb`, becomes the machine's memory at run epoch
    /// `epoch`. Shape and pool sizing come from `sb`; the fault adversary
    /// and validation mode are the run's.
    #[cfg(unix)]
    fn from_backend(
        backend: ppm_pm::MmapBackend,
        sb: ppm_pm::Superblock,
        fault: ppm_pm::FaultConfig,
        validate: ppm_pm::ValidateMode,
        epoch: u64,
    ) -> Self {
        let cfg = sb.to_config().with_fault(fault).with_validate(validate);
        let mem = PersistentMemory::with_backend(Box::new(backend), cfg.block_size);
        Self::from_mem(cfg, sb.pool_words as usize, Arc::new(mem), epoch)
    }

    /// Reconstructs a machine from a durable file written by an earlier
    /// process: validates the superblock, bumps the run epoch, and replays
    /// the deterministic layout so every machine-owned region (processor
    /// metadata, pools) is exactly where the creating run put it. The
    /// memory contents are whatever the previous run last stored — no
    /// words are zeroed.
    ///
    /// The reopened run is fault-free and strictly validated; use
    /// [`Machine::reopen_with`] to override.
    #[cfg(unix)]
    pub fn reopen(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Self::reopen_with(
            path,
            ppm_pm::FaultConfig::none(),
            ppm_pm::ValidateMode::Strict,
        )
    }

    /// [`Machine::reopen`] with an explicit fault adversary and validation
    /// mode for the recovering run.
    #[cfg(unix)]
    pub fn reopen_with(
        path: impl AsRef<std::path::Path>,
        fault: ppm_pm::FaultConfig,
        validate: ppm_pm::ValidateMode,
    ) -> std::io::Result<Self> {
        let (backend, found) = ppm_pm::MmapBackend::open(path)?;
        let epoch = found.epoch + 1; // open() recorded this run's attach
        Ok(Self::from_backend(backend, found, fault, validate, epoch))
    }

    /// Attaches to a durable file as a **secondary attacher** — the
    /// sharded runtime's worker-process entry point. Unlike
    /// [`Machine::reopen`], the superblock is left exactly as the
    /// creating process wrote it: no epoch bump, no state rewrite. The
    /// attaching machine shares the creator's run epoch, so "is this a
    /// recovery?" stays a property of the *run* (file lifecycle), not of
    /// how many worker processes serve it. The deterministic layout is
    /// replayed from the superblock like every other construction path.
    #[cfg(unix)]
    pub fn attach(
        path: impl AsRef<std::path::Path>,
        fault: ppm_pm::FaultConfig,
        validate: ppm_pm::ValidateMode,
    ) -> std::io::Result<Self> {
        let (backend, found) = ppm_pm::MmapBackend::attach(path)?;
        let epoch = found.epoch; // shared with the creating run
        Ok(Self::from_backend(backend, found, fault, validate, epoch))
    }

    /// The machine the next process finds after a kill of every processor
    /// of this one: the same words and control page, the layout replayed,
    /// fault adversary `fault`, and the run epoch of a reopen (at least
    /// 2, so a session over it recovers). [`Machine::reopen`] without the
    /// file: a volatile machine's memory plays the persistent memory, so
    /// a test can kill a run anywhere and recover it in one process.
    pub fn restarted(&self, fault: ppm_pm::FaultConfig) -> Machine {
        let cfg = self.cfg.clone().with_fault(fault);
        Self::from_mem(
            cfg,
            self.pool_words,
            self.mem.clone(),
            self.epoch.max(1) + 1,
        )
    }

    /// Forces all stored words to stable storage (the backend's durability
    /// boundary; no-op for volatile machines).
    pub fn flush(&self) -> std::io::Result<()> {
        self.mem.flush()
    }

    /// Flushes and records a clean shutdown in the durable superblock, so
    /// a later [`Machine::reopen`] can tell this run did not crash.
    pub fn mark_clean(&self) -> std::io::Result<()> {
        self.mem.control().mark_clean()
    }

    /// Syncs only the pages mutated since the last flush (falls back to a
    /// full flush for backends without dirty tracking). The incremental
    /// durability boundary checkpoints use; exact under quiescence.
    pub fn flush_dirty(&self) -> std::io::Result<ppm_pm::DirtyFlush> {
        self.mem.flush_dirty()
    }

    /// Durably stores an epoch-checkpoint record (`false`, writing
    /// nothing, when it outgrows a record slot). See
    /// [`ppm_pm::CheckpointRecord`].
    pub fn write_checkpoint_record(
        &self,
        record: &ppm_pm::CheckpointRecord,
    ) -> std::io::Result<bool> {
        self.mem.control().write_checkpoint(record)
    }

    /// The newest valid checkpoint record on stable storage, if any.
    pub fn latest_checkpoint_record(&self) -> Option<ppm_pm::CheckpointRecord> {
        self.mem.control().latest_checkpoint()
    }

    /// Invalidates all stored checkpoint records (a replay-from-root
    /// recovery resets pool cursors, so old checkpoint frontiers no
    /// longer denote live frames).
    pub fn clear_checkpoint_records(&self) -> std::io::Result<()> {
        self.mem.control().clear_checkpoints()
    }

    /// Durable run epoch: 1 for the creating run, incremented on every
    /// reopen; 0 for volatile machines.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-processor allocation-pool words.
    pub fn pool_words(&self) -> usize {
        self.pool_words
    }

    /// The machine's configuration.
    pub fn cfg(&self) -> &PmConfig {
        &self.cfg
    }

    /// Number of processors `P`.
    pub fn procs(&self) -> usize {
        self.cfg.procs
    }

    /// The shared persistent memory (uncosted access: setup and oracles).
    pub fn mem(&self) -> &Arc<PersistentMemory> {
        &self.mem
    }

    /// The machine's statistics.
    pub fn stats(&self) -> &Arc<MemStats> {
        &self.stats
    }

    /// The machine's observability handle: the metrics registry every
    /// subsystem over this machine registers into (scraped by
    /// [`ppm_obs::MetricsServer`]) plus the process's trace stream.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Snapshot of the statistics.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The liveness oracle.
    pub fn liveness(&self) -> &Arc<Liveness> {
        &self.liveness
    }

    /// The continuation arena.
    pub fn arena(&self) -> &Arc<ContArena> {
        &self.arena
    }

    /// The capsule registry: the decode and body of persistent
    /// capsule frames, keyed by stable [`CapsuleId`]. Computations
    /// register their capsules here at construction time (both in the
    /// creating run and, identically, in a recovering run).
    pub fn registry(&self) -> &Arc<CapsuleRegistry> {
        &self.registry
    }

    /// Writes a persistent capsule frame with uncosted setup stores into
    /// a freshly carved region, returning its handle. Machine-setup use
    /// (e.g. a computation's root frame, written before the processors
    /// start); runtime frames come from [`ppm_pm::write_frame`] inside
    /// capsules. Deterministic: a recovering run replaying the same setup
    /// calls produces the same handles and the same words.
    pub fn setup_frame(&self, id: CapsuleId, args: &[ppm_pm::Word]) -> Word {
        let r = self.alloc_region(ppm_pm::frame_words(args.len()));
        ppm_pm::store_frame(&self.mem, r.start, id, args);
        r.start as Word
    }

    /// Carves a fresh block-aligned region of `len` words for user data.
    pub fn alloc_region(&self, len: usize) -> Region {
        self.layout.lock().region(len)
    }

    /// The region-allocation cursor: the end of the last region
    /// [`Machine::alloc_region`] carved. Construction replayed exactly
    /// (same regions, same order) reproduces it, which is what a
    /// checkpoint record pins.
    pub fn region_cursor(&self) -> usize {
        self.layout.lock().cursor()
    }

    /// Words still unallocated in the address space.
    pub fn remaining_words(&self) -> usize {
        self.layout.lock().remaining()
    }

    /// Metadata addresses for processor `proc`.
    pub fn proc_meta(&self, proc: usize) -> ProcMeta {
        self.metas.of(proc)
    }

    /// The allocation pool of processor `proc`.
    pub fn pool(&self, proc: usize) -> Region {
        self.pools[proc]
    }

    /// Mints the context for processor `proc`, with its pool installed
    /// from offset 0 (a fresh run).
    pub fn ctx(&self, proc: usize) -> ProcCtx {
        self.ctx_with_pool_cursor(proc, 0)
    }

    /// Mints the context for processor `proc` with the pool cursor at
    /// `cursor`. Recovery uses this with the persisted watermark so a
    /// resumed run allocates above the dead run's live frames.
    pub fn ctx_with_pool_cursor(&self, proc: usize, cursor: usize) -> ProcCtx {
        let mut ctx = ProcCtx::new(
            &self.cfg,
            proc,
            self.mem.clone(),
            self.stats.clone(),
            self.liveness.clone(),
        );
        ctx.set_alloc_pool(self.pools[proc], cursor);
        ctx.set_watermark_addr(Some(self.proc_meta(proc).watermark));
        // Causal span tracing: every context minted after the session
        // opened the trace stream emits span records (traced capsules
        // only). `None` when tracing is off — the per-capsule cost is
        // one Option check.
        ctx.set_span_sink(self.obs.span_sink().cloned());
        ctx
    }

    /// The persisted pool-cursor watermark of `proc` (oracle read).
    pub fn pool_watermark(&self, proc: usize) -> usize {
        self.mem.load(self.proc_meta(proc).watermark) as usize
    }

    /// Reads the active-capsule handle of `proc` directly (oracle use; the
    /// costed path is a normal `pread` of [`ProcMeta::active`]).
    pub fn active_handle(&self, proc: usize) -> Word {
        self.mem.load(self.proc_meta(proc).active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_pm::FaultConfig;

    #[test]
    fn layout_reserves_null_guard_and_metadata() {
        let m = Machine::new(PmConfig::parallel(4, 1 << 20));
        // Address 0 is inside the null guard; no metadata or pool may
        // start at 0.
        for p in 0..4 {
            let meta = m.proc_meta(p);
            assert!(meta.active > 0);
            assert!(m.pool(p).start > 0);
        }
    }

    #[test]
    fn proc_metadata_areas_are_disjoint_across_blocks() {
        let m = Machine::new(PmConfig::parallel(4, 1 << 20));
        let b = m.cfg().block_size;
        let mut blocks: Vec<usize> = (0..4).map(|p| m.proc_meta(p).active / b).collect();
        blocks.dedup();
        assert_eq!(blocks.len(), 4, "each proc's metadata in its own block");
    }

    #[test]
    fn pools_are_disjoint() {
        let m = Machine::with_pool_words(PmConfig::parallel(3, 1 << 20), 1 << 10);
        for i in 0..3 {
            for j in (i + 1)..3 {
                let (a, b) = (m.pool(i), m.pool(j));
                assert!(a.end() <= b.start || b.end() <= a.start);
            }
        }
    }

    #[test]
    fn user_regions_do_not_overlap_machine_state() {
        let m = Machine::with_pool_words(PmConfig::parallel(2, 1 << 16), 1 << 10);
        let r1 = m.alloc_region(100);
        let r2 = m.alloc_region(100);
        assert!(r1.end() <= r2.start);
        for p in 0..2 {
            assert!(m.pool(p).end() <= r1.start);
        }
    }

    #[test]
    fn ctx_has_pool_installed() {
        let m = Machine::new(PmConfig::parallel(2, 1 << 20));
        let mut ctx = m.ctx(1);
        ctx.begin_capsule("t");
        let a = ctx.palloc(4).unwrap();
        assert!(m.pool(1).contains(a));
    }

    #[test]
    fn fault_config_reaches_ctx() {
        let cfg = PmConfig::parallel(1, 1 << 16)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, 1));
        let m = Machine::new(cfg);
        let mut ctx = m.ctx(0);
        ctx.begin_capsule("t");
        assert!(ctx.pwrite(1, 1).is_err());
        assert!(!m.liveness().is_live(0));
    }

    #[test]
    #[should_panic(expected = "persistent memory exhausted")]
    fn oversized_machine_panics_at_construction_or_alloc() {
        let m = Machine::with_pool_words(PmConfig::parallel(1, 1 << 12), 1 << 10);
        let _ = m.alloc_region(1 << 12);
    }

    #[test]
    fn volatile_machines_report_epoch_zero_and_flush_trivially() {
        let m = Machine::new(PmConfig::parallel(2, 1 << 16));
        assert_eq!(m.epoch(), 0);
        m.flush().unwrap();
        m.mark_clean().unwrap();
    }

    #[cfg(unix)]
    fn tmp(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ppm-machine-test-{}-{tag}.ppm", std::process::id()));
        p
    }

    #[cfg(unix)]
    #[test]
    fn durable_reopen_reproduces_layout_and_data() {
        let path = tmp("layout");
        let cfg = PmConfig::parallel(3, 1 << 16).with_block_size(16);
        let (region_created, meta_created, pool_created) = {
            let m = Machine::create_durable_with_pool_words(cfg, 1 << 10, &path).unwrap();
            assert_eq!(m.epoch(), 1);
            let r = m.alloc_region(64);
            m.mem().write_range(r.start, &[11, 22, 33]);
            m.mem().store(m.proc_meta(1).active, 777);
            m.flush().unwrap();
            (r, m.proc_meta(1).active, m.pool(2))
        };
        let m = Machine::reopen(&path).unwrap();
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.procs(), 3);
        assert_eq!(m.cfg().block_size, 16);
        assert_eq!(m.pool_words(), 1 << 10);
        // Same deterministic layout as the creating run.
        assert_eq!(m.proc_meta(1).active, meta_created);
        assert_eq!(m.pool(2), pool_created);
        let r = m.alloc_region(64);
        assert_eq!(r, region_created);
        // Same words.
        assert_eq!(m.mem().to_vec(r.start, 3), vec![11, 22, 33]);
        assert_eq!(m.mem().load(m.proc_meta(1).active), 777);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn attach_shares_epoch_and_layout_with_the_creator() {
        let path = tmp("attach");
        let cfg = PmConfig::parallel(2, 1 << 14);
        let creator = Machine::create_durable_with_pool_words(cfg, 1 << 8, &path).unwrap();
        assert_eq!(creator.epoch(), 1);
        let r = creator.alloc_region(32);
        creator.mem().store(r.at(3), 99);

        let worker =
            Machine::attach(&path, FaultConfig::none(), ppm_pm::ValidateMode::Strict).unwrap();
        // Same epoch (no bump), same deterministic layout, same words.
        assert_eq!(worker.epoch(), 1);
        assert_eq!(worker.procs(), 2);
        assert_eq!(worker.proc_meta(1).active, creator.proc_meta(1).active);
        assert_eq!(worker.pool(0), creator.pool(0));
        let r2 = worker.alloc_region(32);
        assert_eq!(r2, r);
        assert_eq!(worker.mem().load(r2.at(3)), 99);
        // Stores propagate both ways through the shared mapping.
        worker.mem().store(r.at(5), 55);
        assert_eq!(creator.mem().load(r.at(5)), 55);

        drop(worker);
        drop(creator);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn reopen_with_overrides_run_properties() {
        let path = tmp("overrides");
        {
            let m = Machine::create_durable(PmConfig::parallel(1, 1 << 14), &path).unwrap();
            m.mark_clean().unwrap();
        }
        let m = Machine::reopen_with(
            &path,
            FaultConfig::none().with_scheduled_hard_fault(0, 1),
            ppm_pm::ValidateMode::Record,
        )
        .unwrap();
        assert_eq!(m.cfg().validate, ppm_pm::ValidateMode::Record);
        let mut ctx = m.ctx(0);
        ctx.begin_capsule("t");
        assert!(ctx.pwrite(1, 1).is_err(), "overridden fault config applies");
        std::fs::remove_file(&path).unwrap();
    }
}
