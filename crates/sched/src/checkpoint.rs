//! Epoch checkpoints: incremental persist boundaries with frame-pool GC.
//!
//! # Design, mapped to the paper's persist-boundary semantics
//!
//! In the Parallel-PM model (conf_spaa_BlellochG0MS18), a fault costs at
//! most the work since the last point at which the computation's state
//! was *persistently consistent*: capsule boundaries bound the cost of a
//! processor fault, and the explicit flush boundary bounds the cost of a
//! machine failure. Before this module the runtime had exactly two
//! machine-level persist boundaries — the initial state and the final
//! [`crate::Runtime::flush`] — so a machine failure (or any crash whose
//! frontier falls in one of the narrow unresumable windows) replayed the
//! *whole* run. A **checkpoint** inserts periodic machine-level persist
//! boundaries, each one doing three things at a quiesced capsule
//! boundary:
//!
//! 1. **Dirty-block incremental flush.** Instead of `msync`ing the whole
//!    mapping, [`ppm_pm::PersistentMemory::flush_dirty`] syncs only the
//!    pages mutated since the previous boundary (the page-run bitmap of
//!    [`ppm_pm::dirty`]). The flush cost is proportional to the epoch's
//!    write footprint, not the file size — which is what makes frequent
//!    boundaries affordable (`ppm-e2e` measures both:
//!    `pm.backend.flush_dirty_us_per_page` and
//!    `pm.backend.flush_full_ms`).
//! 2. **A versioned checkpoint record** ([`ppm_pm::CheckpointRecord`]) in
//!    the control page: sequence number, run epoch, capsule count, the
//!    per-processor *stable pool watermarks*, and the quiesced **deque
//!    frontier** (every in-flight `job` handle plus every running
//!    thread's restart pointer — exactly the §6.3 state a recovering
//!    process needs). Records alternate between two checksummed slots, so
//!    a write torn by a machine failure leaves the previous record
//!    intact; and because records are only written under quiescence,
//!    *before* any post-checkpoint pool allocation, the surviving older
//!    record's frames are always still unclobbered when it is needed.
//! 3. **Frame-pool GC, the backstop for joins that cannot reclaim.** A
//!    join frees its subtree's pool words when the subtree ran on the
//!    forking processor alone (`ppm_pm::proc`'s join-time reclamation),
//!    so at P = 1 the pool stays at O(depth) and a quiesce finds nothing
//!    dead above the live words. A subtree a steal split, an inner
//!    `fork_many` join, a chain's dead scratch and the words a resumed
//!    run re-allocates are left to the checkpoint: without it the §4.1
//!    allocator only bumps past them — O(total work) pool footprint in
//!    the worst case (samplesort's old sizing carried a 72·n frame term
//!    for exactly this reason). At a quiesced boundary the *live* pool
//!    contents are precisely what is
//!    reachable from the frontier: the checkpoint traces frame handles
//!    and typed state extents ([`ppm_core::Persist::pool_refs`], via
//!    [`ppm_core::CapsuleRegistry::trace_refs`]) transitively from the
//!    frontier, finds the highest live word of each processor's pool, and
//!    rolls the pool cursors (and their persisted watermark mirrors) back
//!    to it. Everything above — completed continuations, dead join
//!    cells, abandoned scratch — is reused by later allocations, turning
//!    the retained footprint into O(live frontier + one epoch's churn)
//!    and capping a resumed run's re-allocation at one epoch's worth.
//!
//! ## Why the rollback is sound
//!
//! The bump discipline gives the key invariant: a frame's words are
//! written when it is created, so every pool address a frame carries was
//! allocated *no later than* the frame itself. Any live object is
//! therefore at or below some frame that references it in the same pool,
//! and keeping every traced frame/extent keeps everything below the
//! per-pool maximum automatically — suffix reclamation needs an upper
//! bound on live addresses, not an exact live set. Tracing is refused
//! (and the checkpoint skipped, never wrong) whenever a reachable frame's
//! capsule id has no tracer, and reclamation only happens when the
//! frontier capture succeeds, so quiesces that catch a steal
//! mid-transfer or a fork mid-push are skipped and retried later.
//!
//! A rollback drops the processor's fork marks at or above its new
//! cursor (their cells were dead and may be handed out again), and on a
//! durable machine the resynced cursor becomes a floor no join reclaims
//! below until the next quiesce: the record just written reaches frames
//! under it, and recovery may fall back to that record
//! (`resync_pool`).
//!
//! ## Recovery
//!
//! Recovery ([`crate::driver`]) restarts every processor where the crash
//! left it (replay distance ≈ 0). When a deque entry or restart pointer
//! does not decode, it plants the newest valid record's frontier with
//! pool cursors at its watermarks; the §5 CAM discipline makes re-running
//! the span after the checkpoint safe, and replay distance is bounded by
//! one epoch. With no valid record it replays from the root and clears
//! the stale records (a root replay resets the pool cursors their
//! frontiers live above). Records need every processor quiesced, so only
//! a section seating them all takes checkpoints.
//!
//! ## Quiescing
//!
//! Processors check the checkpoint request at every capsule boundary (the
//! driver loop runs one capsule per iteration, and every scheduler
//! operation is itself capsules, so no processor can be more than one
//! capsule away from parking). The last processor to park performs the
//! checkpoint while the others wait; processors that hard-fault or halt
//! deregister so the barrier never deadlocks. The checkpoint itself
//! performs only uncosted machine maintenance — no costed transfers, no
//! fault-adversary consultations — so deterministic fault schedules are
//! unchanged by enabling it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use ppm_core::{DoneFlag, Machine, PoolRefs};
use ppm_obs::TraceKind;
use ppm_pm::{frame_words, read_frame, CheckpointRecord, ProcCtx, Region, Word};

use crate::capsules::Sched;
use crate::driver::FallbackReason;
use crate::entry::{pack, unpack, EntryVal};
use crate::service::InjectorQueue;

/// Default capsule interval between checkpoints when a policy is not
/// explicitly configured.
pub const DEFAULT_CHECKPOINT_CAPSULES: u64 = 1024;

/// Capsules to wait before re-quiescing after a checkpoint, and after
/// the first busy skip: long enough that an in-flight scheduler
/// operation has completed, short enough that a due policy is delayed,
/// not starved. Each further consecutive busy skip doubles the wait, up
/// to the policy's interval (`CheckpointPolicy::interval_capsules`); a
/// completed checkpoint resets it.
const BUSY_RETRY_CAPSULES: u64 = 8;

/// Capsules a due checkpoint waits for a join boundary before it takes
/// any boundary. Right after a join's last arrival continues, everything
/// the forking capsule allocated above the join's `after` frame is dead,
/// so a checkpoint there reclaims it; elsewhere the top of the pool is
/// usually a live frame just written. The wait is bounded so a stretch
/// of work with no join (one long chain, a fan-out still forking) still
/// checkpoints.
const JOIN_WAIT_CAPSULES: u64 = 64;

/// Backoff after a quiesce found an untraceable frame: the offending
/// capsule is usually still reachable at the next boundary, so hammering
/// the barrier would quiesce every few capsules with zero reclamation.
const UNTRACED_RETRY_CAPSULES: u64 = 256;

/// When a session writes checkpoints.
///
/// Construct with [`CheckpointPolicy::every_capsules`],
/// [`CheckpointPolicy::every_pool_words`], [`CheckpointPolicy::manual`]
/// or [`CheckpointPolicy::disabled`]. The default checkpoints every
/// [`DEFAULT_CHECKPOINT_CAPSULES`] capsules.
#[derive(Debug, Clone)]
pub enum CheckpointPolicy {
    /// Never checkpoint.
    Disabled,
    /// Checkpoint after every `k` completed capsules (machine-wide).
    EveryCapsules(u64),
    /// Checkpoint after every `d` pool words allocated (machine-wide).
    EveryPoolWords(u64),
    /// Checkpoint only when the paired [`CheckpointTrigger`] is fired.
    Manual(Arc<AtomicBool>),
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::EveryCapsules(DEFAULT_CHECKPOINT_CAPSULES)
    }
}

impl CheckpointPolicy {
    /// Checkpoint after every `k` completed capsules.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn every_capsules(k: u64) -> Self {
        assert!(k > 0, "checkpoint interval must be positive");
        CheckpointPolicy::EveryCapsules(k)
    }

    /// Checkpoint after every `d` pool words allocated.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn every_pool_words(d: u64) -> Self {
        assert!(d > 0, "checkpoint pool-word budget must be positive");
        CheckpointPolicy::EveryPoolWords(d)
    }

    /// No automatic checkpoints.
    pub fn disabled() -> Self {
        CheckpointPolicy::Disabled
    }

    /// Manual checkpoints: the returned trigger requests one checkpoint
    /// per [`CheckpointTrigger::request`] call (taken at the next capsule
    /// boundary quiesce). The trigger is `Send + Sync` — fire it from a
    /// monitoring thread while the run is in flight.
    pub fn manual() -> (Self, CheckpointTrigger) {
        let flag = Arc::new(AtomicBool::new(false));
        (
            CheckpointPolicy::Manual(flag.clone()),
            CheckpointTrigger(flag),
        )
    }

    /// Whether this policy can ever request a checkpoint.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, CheckpointPolicy::Disabled)
    }

    /// The longest busy-skip backoff, in capsules: the interval of
    /// [`CheckpointPolicy::EveryCapsules`], and
    /// [`DEFAULT_CHECKPOINT_CAPSULES`] for the policies that do not count
    /// capsules.
    fn interval_capsules(&self) -> u64 {
        match self {
            CheckpointPolicy::EveryCapsules(k) => *k,
            _ => DEFAULT_CHECKPOINT_CAPSULES,
        }
    }
}

/// Requests checkpoints under [`CheckpointPolicy::manual`].
#[derive(Debug, Clone)]
pub struct CheckpointTrigger(Arc<AtomicBool>);

impl CheckpointTrigger {
    /// Requests one checkpoint at the next capsule-boundary quiesce.
    pub fn request(&self) {
        self.0.store(true, Ordering::Release);
    }
}

/// What a run's checkpointing did (part of [`crate::RunReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Quiesces that reached the coordinator.
    pub attempted: u64,
    /// Checkpoints fully taken (GC + flush + record when durable).
    pub completed: u64,
    /// Quiesces skipped because the frontier was not harvestable at this
    /// boundary (a steal or push in flight, a restart pointer parked on a
    /// scheduler record) — retried at a later boundary.
    pub skipped_busy: u64,
    /// Quiesces skipped because a reachable frame's capsule had no GC
    /// tracer that understood its words (see [`ppm_core::CapsuleTracer`]).
    pub skipped_untraced: u64,
    /// Checkpoint records durably written (0 on volatile machines).
    pub records_written: u64,
    /// Records skipped because the frontier outgrew a record slot.
    pub records_oversized: u64,
    /// Pages synced by incremental flushes.
    pub pages_flushed: u64,
    /// Pool words reclaimed by frame-pool GC, summed over processors and
    /// checkpoints.
    pub words_reclaimed: u64,
}

struct Barrier {
    /// Processors currently parked at the checkpoint barrier.
    parked: usize,
    /// Processor threads still running their driver loop.
    live: usize,
}

/// Shared per-run checkpoint state: trigger counters, the quiesce
/// barrier, and the coordinator. Created by the driver for each parallel
/// section; processors call [`CheckpointCtl::at_boundary`] between
/// capsules.
pub(crate) struct CheckpointCtl {
    policy: CheckpointPolicy,
    sched: Arc<Sched>,
    done: DoneFlag,
    requested: AtomicBool,
    /// Completed capsules, machine-wide (also recorded in checkpoint
    /// records for replay-distance accounting).
    capsules: AtomicU64,
    /// Next capsule count at which [`CheckpointPolicy::EveryCapsules`]
    /// fires. Only advances when a checkpoint *completes*: a quiesce that
    /// lands in a busy window (steal or push in flight) leaves the policy
    /// due, and the short `retry_at` backoff re-quiesces a few capsules
    /// later — reclamation is delayed, never lost.
    next_due: AtomicU64,
    /// Pool words allocated since the last *completed* checkpoint
    /// ([`CheckpointPolicy::EveryPoolWords`]).
    words_since: AtomicU64,
    /// A manual request that has been taken from the trigger but not yet
    /// served by a completed checkpoint.
    manual_pending: AtomicBool,
    /// Earliest capsule count at which a due-but-busy policy may
    /// re-request (quiesces retry at this backoff, not every boundary).
    retry_at: AtomicU64,
    /// The backoff the next busy skip waits out: [`BUSY_RETRY_CAPSULES`],
    /// doubled by each consecutive busy skip up to the policy interval.
    busy_backoff: AtomicU64,
    /// Capsule count from which a due policy takes any boundary, not
    /// only a join boundary (`u64::MAX` while the policy is not due).
    any_boundary_at: AtomicU64,
    /// Last seen pool cursor per processor (delta base for `words_since`).
    last_cursor: Vec<AtomicU64>,
    /// Sequence number the next record will carry.
    next_seq: AtomicU64,
    barrier: Mutex<Barrier>,
    cv: Condvar,
    /// Shared with the machine's metrics registry: scrape-time collector
    /// closures read the same accounting the run report snapshots.
    summary: Arc<Mutex<CheckpointSummary>>,
    /// Microseconds the machine spends quiesced per checkpoint attempt
    /// (including skipped ones — a busy quiesce still parks everyone).
    quiesce_us: ppm_obs::Histogram,
}

impl CheckpointCtl {
    /// The control of a parallel section whose quiesce barrier counts
    /// `live_procs` driver threads. Only a section that seats every
    /// processor runs an enabled policy (see
    /// `driver::run_attached_seats`): a process can never quiesce
    /// processors living in sibling processes.
    pub(crate) fn new(
        machine: &Machine,
        sched: Arc<Sched>,
        policy: CheckpointPolicy,
        live_procs: usize,
    ) -> Arc<Self> {
        let next_seq = machine
            .latest_checkpoint_record()
            .map(|r| r.seq + 1)
            .unwrap_or(1);
        let first_due = match &policy {
            CheckpointPolicy::EveryCapsules(k) => *k,
            _ => u64::MAX,
        };
        let done = sched.done();
        let summary = Arc::new(Mutex::new(CheckpointSummary::default()));
        let reg = machine.obs().registry();
        let quiesce_us = reg.histogram(
            "ppm_checkpoint_quiesce_us",
            "microseconds the machine spent quiesced per checkpoint attempt",
        );
        // Skip/retry accounting as scrape-time collectors over the same
        // summary the run report snapshots. Replace semantics: each run's
        // control (including recovery's rebuild) supersedes the last.
        let register = |name: &str, help: &str, field: fn(&CheckpointSummary) -> u64| {
            let s = summary.clone();
            reg.counter_fn(name, help, &[], move || {
                field(&s.lock().expect("checkpoint summary poisoned"))
            });
        };
        register(
            "ppm_checkpoints_attempted_total",
            "quiesces that reached the checkpoint coordinator",
            |s| s.attempted,
        );
        register(
            "ppm_checkpoints_completed_total",
            "checkpoints fully taken (GC + flush + record when durable)",
            |s| s.completed,
        );
        register(
            "ppm_checkpoint_skips_busy_total",
            "quiesces skipped on an unharvestable boundary, retried later",
            |s| s.skipped_busy,
        );
        register(
            "ppm_checkpoint_skips_untraced_total",
            "quiesces skipped because a reachable frame had no GC tracer",
            |s| s.skipped_untraced,
        );
        register(
            "ppm_checkpoint_records_written_total",
            "checkpoint records durably written",
            |s| s.records_written,
        );
        register(
            "ppm_checkpoint_pages_flushed_total",
            "pages synced by incremental checkpoint flushes",
            |s| s.pages_flushed,
        );
        register(
            "ppm_checkpoint_words_reclaimed_total",
            "pool words reclaimed by frame-pool GC",
            |s| s.words_reclaimed,
        );
        Arc::new(CheckpointCtl {
            policy,
            done,
            requested: AtomicBool::new(false),
            capsules: AtomicU64::new(0),
            next_due: AtomicU64::new(first_due),
            words_since: AtomicU64::new(0),
            manual_pending: AtomicBool::new(false),
            retry_at: AtomicU64::new(0),
            busy_backoff: AtomicU64::new(BUSY_RETRY_CAPSULES),
            any_boundary_at: AtomicU64::new(u64::MAX),
            last_cursor: (0..machine.procs()).map(|_| AtomicU64::new(0)).collect(),
            next_seq: AtomicU64::new(next_seq),
            barrier: Mutex::new(Barrier {
                parked: 0,
                live: live_procs,
            }),
            cv: Condvar::new(),
            summary,
            quiesce_us,
            sched,
        })
    }

    /// Snapshot of the run's checkpoint accounting.
    pub(crate) fn summary(&self) -> CheckpointSummary {
        *self.summary.lock().expect("checkpoint summary poisoned")
    }

    /// Called once by each processor thread when it leaves the driver
    /// loop (halt, hard fault or panic), so the quiesce barrier stops
    /// waiting for it. It runs during unwinding too, so it takes the lock
    /// even when a panicking coordinator poisoned it (a second panic there
    /// would abort the process); the barrier's two counters are each
    /// updated in one step, so the recovered guard holds valid counts.
    pub(crate) fn proc_exit(&self) {
        let mut bar = self.barrier.lock().unwrap_or_else(PoisonError::into_inner);
        bar.live -= 1;
        drop(bar);
        self.cv.notify_all();
    }

    /// Capsule-boundary hook: updates the trigger counters, and — when a
    /// checkpoint is requested — parks until every live processor is
    /// parked, runs the checkpoint on the last arriver, and resynces the
    /// processor's pool cursor from its (possibly rolled-back) watermark.
    /// `joined` says that the capsule just run was a join's last arrival
    /// and its thread now continues after the join: a due policy prefers
    /// that boundary for `JOIN_WAIT_CAPSULES` capsules.
    pub(crate) fn at_boundary(
        &self,
        machine: &Machine,
        proc: usize,
        ctx: &mut ProcCtx,
        joined: bool,
    ) {
        if !self.policy.is_enabled() {
            return;
        }
        let capsules = self.capsules.fetch_add(1, Ordering::Relaxed) + 1;
        let due = match &self.policy {
            CheckpointPolicy::EveryCapsules(_) => capsules >= self.next_due.load(Ordering::Relaxed),
            CheckpointPolicy::EveryPoolWords(d) => {
                let cursor = ctx.alloc_cursor() as u64;
                let last = self.last_cursor[proc].swap(cursor, Ordering::Relaxed);
                let delta = cursor.saturating_sub(last);
                if delta > 0 {
                    self.words_since.fetch_add(delta, Ordering::Relaxed);
                }
                self.words_since.load(Ordering::Relaxed) >= *d
            }
            CheckpointPolicy::Manual(flag) => {
                if flag.swap(false, Ordering::AcqRel) {
                    self.manual_pending.store(true, Ordering::Release);
                }
                self.manual_pending.load(Ordering::Acquire)
            }
            CheckpointPolicy::Disabled => unreachable!("early-returned above"),
        };
        // A due policy re-requests only past the busy-skip backoff — the
        // frequent case is a fork boundary (allocations happen in forking
        // capsules), which is exactly a mid-push window where the quiesce
        // must skip; a few capsules later the push has completed. Past the
        // backoff it waits for a join boundary, where the forking
        // capsule's frames are dead, for a bounded number of capsules.
        if due && capsules >= self.retry_at.load(Ordering::Relaxed) {
            let wait_from = self
                .any_boundary_at
                .fetch_min(capsules + JOIN_WAIT_CAPSULES, Ordering::Relaxed);
            if joined || capsules >= wait_from {
                self.requested.store(true, Ordering::Release);
            }
        }
        // Pool-pressure failsafe, independent of the configured cadence:
        // when this processor's pool is ⅞ full, request a checkpoint. The
        // tightened pool-sizing formulas in `ppm-algs` budget the live
        // set plus one epoch of churn; under a burst (e.g. a resumed run
        // re-driving a big span) this collects the dead churn before the
        // bump allocator can run off the end. The retry backoff applies
        // here too, so a pool whose *live* set is what crossed the
        // threshold (nothing to reclaim) costs one quiesce per backoff
        // window, not one per capsule.
        if ctx.alloc_cursor() * 8 >= machine.pool(proc).len * 7
            && capsules >= self.retry_at.load(Ordering::Relaxed)
        {
            self.requested.store(true, Ordering::Release);
        }
        if self.requested.load(Ordering::Acquire) {
            self.park(machine, proc, ctx);
        }
    }

    /// The quiesce barrier. The last processor to park coordinates.
    fn park(&self, machine: &Machine, proc: usize, ctx: &mut ProcCtx) {
        let mut bar = self.barrier.lock().expect("checkpoint barrier poisoned");
        bar.parked += 1;
        while self.requested.load(Ordering::Acquire) {
            if bar.parked == bar.live {
                // Everyone still running is parked: the machine is
                // quiescent and this thread is the coordinator.
                self.run_checkpoint(machine);
                self.requested.store(false, Ordering::Release);
                self.cv.notify_all();
                break;
            }
            bar = self.cv.wait(bar).expect("checkpoint barrier poisoned");
        }
        bar.parked -= 1;
        drop(bar);
        // A completed checkpoint may have rolled this processor's
        // watermark back; resume allocating from it either way.
        resync_pool(machine, proc, ctx);
    }

    /// Runs one checkpoint directly, bypassing the quiesce barrier. Only
    /// sound when the caller guarantees every seated processor is parked
    /// at a capsule boundary — the single-threaded [`crate::sim`]
    /// stepper, which holds every processor between capsules by
    /// construction. The caller must resync each processor's pool cursor
    /// from its (possibly rolled-back) watermark afterwards, as
    /// [`CheckpointCtl::at_boundary`]'s park path does.
    pub(crate) fn quiesced_checkpoint(&self, machine: &Machine) {
        self.run_checkpoint(machine);
    }

    /// The checkpoint itself, timed and traced: the quiesce-time
    /// histogram sees every attempt (a busy skip still parked everyone),
    /// and each attempt leaves one `checkpoint` trace event.
    fn run_checkpoint(&self, machine: &Machine) {
        let t0 = Instant::now();
        let outcome = self.run_checkpoint_inner(machine);
        let us = t0.elapsed().as_micros() as u64;
        self.quiesce_us.observe(us);
        machine.obs().event(TraceKind::Checkpoint, None, None, || {
            format!("{outcome}; quiesced {us} us")
        });
    }

    /// Runs under the barrier lock with every live processor parked at a
    /// capsule boundary — the machine is quiescent, so oracle reads and
    /// uncosted stores are exact and race-free. Returns the outcome line
    /// for the trace event.
    fn run_checkpoint_inner(&self, machine: &Machine) -> String {
        let mut summary = self.summary.lock().expect("checkpoint summary poisoned");
        summary.attempted += 1;
        if self.done.is_set(machine.mem()) {
            // The computation finished while the request was in flight.
            self.rearm(true, BUSY_RETRY_CAPSULES);
            summary.skipped_busy += 1;
            return "skipped: run already complete".into();
        }
        // The frontier a fallback would plant. A boundary with none to
        // capture (steal/push in flight somewhere) skips this
        // checkpoint; a near boundary retries (short re-arm), so a busy
        // quiesce delays reclamation instead of losing it.
        let seeds = match capture_frontier(machine, &self.sched) {
            Some(seeds) => seeds,
            None => {
                let backoff = self.busy_backoff.load(Ordering::Relaxed);
                let next = (backoff * 2).min(self.policy.interval_capsules());
                self.busy_backoff
                    .store(next.max(BUSY_RETRY_CAPSULES), Ordering::Relaxed);
                self.rearm(false, backoff);
                summary.skipped_busy += 1;
                return format!("skipped: busy boundary (next retry in {backoff} capsules)");
            }
        };
        // Frame-pool GC: highest live word per pool, traced from the
        // frontier. Refused (conservatively) if any reachable frame is
        // untraceable — and retried only after a long backoff, since the
        // untraceable capsule is usually still reachable at the next
        // boundary too.
        let Some(maxima) = trace_live_maxima(machine, &seeds) else {
            self.rearm(false, UNTRACED_RETRY_CAPSULES);
            summary.skipped_untraced += 1;
            return "skipped: untraced frame".into();
        };
        self.rearm(true, BUSY_RETRY_CAPSULES);
        let mut reclaimed_now = 0u64;
        let mut watermarks = Vec::with_capacity(machine.procs());
        for (p, live_words) in maxima.iter().enumerate() {
            let old = machine.pool_watermark(p);
            let new = (*live_words).min(old);
            if new < old {
                reclaimed_now += (old - new) as u64;
                machine
                    .mem()
                    .store(machine.proc_meta(p).watermark, new as Word);
            }
            watermarks.push(new as u64);
        }
        summary.words_reclaimed += reclaimed_now;
        // Persist boundary: sync the epoch's dirty pages, then the record
        // describing the now-durable state. Volatile machines keep the GC
        // but skip the durability work.
        if machine.epoch() > 0 {
            let mut record_written = false;
            // On a flush error, durability stays best-effort mid-run
            // (MAP_SHARED words already survive process death) and no
            // record is written, so a record can never describe
            // unflushed state.
            let flushed = machine.flush_dirty();
            if let Ok(flush) = &flushed {
                summary.pages_flushed += flush.pages as u64;
                let record = CheckpointRecord {
                    seq: self.next_seq.load(Ordering::Relaxed),
                    epoch: machine.epoch(),
                    capsules: self.capsules.load(Ordering::Relaxed),
                    region_cursor: machine.region_cursor() as u64,
                    watermarks,
                    frontier: seeds,
                };
                if record.fits() {
                    if machine.write_checkpoint_record(&record).is_ok() {
                        self.next_seq.fetch_add(1, Ordering::Relaxed);
                        summary.records_written += 1;
                        record_written = true;
                    }
                } else {
                    summary.records_oversized += 1;
                }
            }
            // Stored records stay resumable only while every reclaiming
            // checkpoint pairs with a *fresh* record: the rollback lets
            // the run overwrite pool words an older record's frontier
            // still reaches. If this reclaim produced no durable record
            // (oversized frontier, flush or write error), invalidate the
            // stale ones rather than leave a trap for recovery.
            if reclaimed_now > 0 && !record_written {
                let _ = machine.clear_checkpoint_records();
            }
        }
        summary.completed += 1;
        format!(
            "completed ({reclaimed_now} words reclaimed, {} pages flushed so far)",
            summary.pages_flushed
        )
    }

    /// Re-arms the trigger state after a quiesce: a completed checkpoint
    /// resets the policy counters for a full interval and the busy
    /// backoff to its start, a skipped one leaves the policy due; either
    /// way the next quiesce request (including the pool-pressure
    /// failsafe) waits out `backoff` capsules, and a due policy then
    /// prefers a join boundary again, so futile quiesces are paced, and
    /// reclamation is delayed a little, never lost.
    fn rearm(&self, completed: bool, backoff: u64) {
        let capsules = self.capsules.load(Ordering::Relaxed);
        if completed {
            if let CheckpointPolicy::EveryCapsules(k) = &self.policy {
                self.next_due.store(capsules + k, Ordering::Relaxed);
            }
            self.words_since.store(0, Ordering::Relaxed);
            self.manual_pending.store(false, Ordering::Release);
            self.busy_backoff
                .store(BUSY_RETRY_CAPSULES, Ordering::Relaxed);
        }
        self.any_boundary_at.store(u64::MAX, Ordering::Relaxed);
        self.retry_at.store(capsules + backoff, Ordering::Relaxed);
    }
}

/// Resumes processor `proc` after a quiesce: its cursor returns to its
/// (possibly rolled-back) watermark, and on a durable machine — where
/// the quiesce may have written a record — no join reclaims below it.
pub(crate) fn resync_pool(machine: &Machine, proc: usize, ctx: &mut ProcCtx) {
    ctx.set_pool_cursor(machine.pool_watermark(proc));
    if machine.epoch() > 0 {
        ctx.pin_floor();
    }
}

/// Traces the transitive closure of the frontier and returns, per
/// processor, the pool-relative end of its highest live word (0 when the
/// pool holds nothing live). `None` when any reachable frame's capsule
/// has no registered tracer — the caller must then skip reclamation.
///
/// Soundness (see the module docs): the §4.1 bump allocator means every
/// pool address a frame carries was allocated no later than the frame,
/// so keeping everything below the per-pool maximum of the traced
/// frames/extents keeps every live object.
pub(crate) fn trace_live_maxima(machine: &Machine, roots: &[Word]) -> Option<Vec<usize>> {
    let mem = machine.mem();
    let registry = machine.registry();
    let pools: Vec<Region> = (0..machine.procs()).map(|p| machine.pool(p)).collect();
    let mut max_end = vec![0usize; pools.len()];
    let keep = |max_end: &mut [usize], start: usize, len: usize| {
        for (p, pool) in pools.iter().enumerate() {
            if start < pool.end() && start.saturating_add(len) > pool.start {
                max_end[p] = max_end[p].max(start.saturating_add(len).min(pool.end()));
            }
        }
    };
    let mut visited = std::collections::HashSet::new();
    let mut stack: Vec<Word> = roots.to_vec();
    while let Some(handle) = stack.pop() {
        if handle == 0 || !visited.insert(handle) {
            continue;
        }
        // A typed handle that no longer parses would mean a live frame
        // was corrupted; refuse to reclaim anything.
        let frame = read_frame(mem, handle as usize).ok()?;
        keep(&mut max_end, frame.addr, frame_words(frame.args.len()));
        let mut refs = PoolRefs::new();
        if !registry.trace_refs(frame.capsule_id, &frame.args, &mut refs) {
            return None;
        }
        for h in refs.handles {
            stack.push(h);
        }
        for (start, len) in refs.extents {
            keep(&mut max_end, start, len);
        }
        // Belt and suspenders: any raw argument word that happens to land
        // in a pool keeps its word — covers hand-written states that
        // carry a bare cell address without a pool_refs override.
        for &w in &frame.args {
            let a = w as usize;
            if pools.iter().any(|pool| pool.contains(a)) {
                keep(&mut max_end, a, 1);
            }
        }
    }
    Some(
        max_end
            .iter()
            .zip(&pools)
            .map(|(end, pool)| end.saturating_sub(pool.start))
            .collect(),
    )
}

/// The quiesced frontier a checkpoint record stores: every `job`
/// entry's handle, plus the restart pointer of every processor whose
/// deque holds its thread's one `local` entry. `None` — skip this
/// boundary — when there is none, a handle does not rehydrate, a steal
/// is between its victim-entry CAM and its thief-entry CAM (the handle
/// is only in the thief's record), or a `pushBottom` is mid-commit.
fn capture_frontier(machine: &Machine, sched: &Sched) -> Option<Vec<Word>> {
    let mem = machine.mem();
    let mut seeds = Vec::new();
    for d in sched.deques() {
        let mut locals = 0;
        for i in 0..d.slots {
            match unpack(mem.load(d.entry(i))) {
                (_, EntryVal::Job { handle }) => seeds.push(handle),
                (_, EntryVal::Local) => locals += 1,
                (_, EntryVal::Taken { proc, slot, tag }) => {
                    let thief = sched.deques().get(proc).filter(|t| slot < t.slots)?;
                    if mem.load(thief.entry(slot)) == pack(tag, EntryVal::Empty) {
                        return None;
                    }
                }
                (_, EntryVal::Empty) => {}
            }
        }
        match locals {
            0 => {}
            1 => seeds.push(machine.active_handle(d.owner)),
            _ => return None,
        }
    }
    let registry = machine.registry();
    let rehydrates = seeds.iter().all(|h| registry.rehydrate(mem, *h).is_ok());
    (rehydrates && !seeds.is_empty()).then_some(seeds)
}

/// [`FallbackReason::LayoutMoved`] when the dead run's words were laid
/// out by another construction than `machine`'s: checkpoint `record`'s
/// region cursor, or the service header's ring base against this
/// construction's `ring`, disagrees. Then every setup word — ring, flag,
/// deques, a record's frontier and watermarks — names other words.
pub(crate) fn layout_moved(
    machine: &Machine,
    ring: Option<&InjectorQueue>,
    record: Option<&CheckpointRecord>,
) -> Option<FallbackReason> {
    let found = machine.region_cursor() as u64;
    if let Some(rec) = record.filter(|r| r.region_cursor != found) {
        let (seq, recorded) = (Some(rec.seq), rec.region_cursor);
        return Some(FallbackReason::LayoutMoved {
            seq,
            recorded,
            found,
        });
    }
    let (h, q) = machine.mem().control().service_header().zip(ring)?;
    let ours = q.header(h.state);
    let moved = (h.ring_base, h.workspace_base) != (ours.ring_base, ours.workspace_base);
    let (seq, recorded, found) = (None, h.ring_base, ours.ring_base);
    moved.then_some(FallbackReason::LayoutMoved {
        seq,
        recorded,
        found,
    })
}

/// Validates `record` against `machine` and rehydrates its frontier.
/// Returns the planted-ready seeds on success; `None` when the record
/// was taken over another layout ([`layout_moved`]), does not match the
/// machine shape, or any handle fails to rehydrate.
pub(crate) fn checkpoint_seeds(machine: &Machine, record: &CheckpointRecord) -> Option<Vec<Word>> {
    let shape = record.watermarks.len() == machine.procs() && !record.frontier.is_empty();
    if !shape || layout_moved(machine, None, Some(record)).is_some() {
        return None;
    }
    for (p, wm) in record.watermarks.iter().enumerate() {
        if *wm as usize > machine.pool(p).len {
            return None;
        }
    }
    let registry = machine.registry();
    for handle in &record.frontier {
        registry.rehydrate(machine.mem(), *handle).ok()?;
    }
    Some(record.frontier.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_constructors_and_default() {
        assert!(matches!(
            CheckpointPolicy::default(),
            CheckpointPolicy::EveryCapsules(DEFAULT_CHECKPOINT_CAPSULES)
        ));
        assert!(!CheckpointPolicy::disabled().is_enabled());
        assert!(CheckpointPolicy::every_capsules(8).is_enabled());
        assert!(CheckpointPolicy::every_pool_words(1 << 12).is_enabled());
        let (policy, trigger) = CheckpointPolicy::manual();
        assert!(policy.is_enabled());
        trigger.request();
        match policy {
            CheckpointPolicy::Manual(flag) => assert!(flag.load(Ordering::Acquire)),
            other => panic!("expected manual policy, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capsule_interval_rejected() {
        let _ = CheckpointPolicy::every_capsules(0);
    }

    #[test]
    fn trace_refuses_untraced_capsules_and_accepts_core_frames() {
        use ppm_core::{Machine, CORE_ID_FORK_PAIR};
        use ppm_pm::{store_frame, PmConfig};
        let m = Machine::with_pool_words(PmConfig::parallel(1, 1 << 16), 1 << 10);
        let pool = m.pool(0);

        // A fork-pair frame in the pool referencing two end frames above.
        let end_a = pool.start + 100;
        let end_b = pool.start + 200;
        store_frame(m.mem(), end_a, ppm_core::CORE_ID_END, &[]);
        store_frame(m.mem(), end_b, ppm_core::CORE_ID_END, &[]);
        let pair = pool.start + 300;
        store_frame(
            m.mem(),
            pair,
            CORE_ID_FORK_PAIR,
            &[end_a as Word, end_b as Word],
        );
        let maxima = trace_live_maxima(&m, &[pair as Word]).expect("core frames are traceable");
        // Highest live: the pair frame itself at offset 300.
        assert_eq!(maxima[0], 300 + frame_words(2));

        // An unregistered capsule id makes tracing refuse.
        let rogue = pool.start + 400;
        store_frame(m.mem(), rogue, 0xDEAD_BEEF, &[]);
        assert_eq!(trace_live_maxima(&m, &[rogue as Word]), None);
    }

    #[test]
    fn undecodable_typed_frame_refuses_the_trace() {
        use ppm_core::dsl::{CapsuleSet, Step};
        use ppm_core::Machine;
        use ppm_pm::{store_frame, PmConfig};
        let m = Machine::with_pool_words(PmConfig::parallel(1, 1 << 16), 1 << 10);
        let mut set = CapsuleSet::new(&m);
        let def = set.define("ckpt-test/flagged", |_st: &bool, k, _ctx| Ok(Step::Jump(k)));
        let pool = m.pool(0);
        // Word 5 is not a bool: the derived tracer must report the frame
        // as untraceable (None), not silently trace zero references —
        // its live children would otherwise be reclaimed.
        let bad = pool.start + 100;
        store_frame(m.mem(), bad, def.id(), &[5, 0]);
        assert_eq!(trace_live_maxima(&m, &[bad as Word]), None);
        // The well-formed twin traces fine.
        let good = pool.start + 200;
        store_frame(m.mem(), good, def.id(), &[1, 0]);
        let maxima = trace_live_maxima(&m, &[good as Word]).expect("decodes");
        assert_eq!(maxima[0], 200 + frame_words(2));
    }

    /// A boundary held busy (an empty frontier: nothing to harvest)
    /// re-quiesces after 8, 16, 32, … capsules, so the attempts over `k`
    /// capsules grow as log₂ k, not as k / 8; the first completed
    /// checkpoint resets the backoff.
    #[test]
    fn consecutive_busy_skips_back_off_exponentially() {
        use ppm_core::{Machine, CORE_ID_END};
        use ppm_pm::PmConfig;
        let attempts_over = |k: u64| {
            let m = Machine::new(PmConfig::parallel(1, 1 << 16));
            let sched = Sched::new(&m, DoneFlag::new(&m), &crate::SchedConfig::with_slots(8));
            let (policy, trigger) = CheckpointPolicy::manual();
            let ctl = CheckpointCtl::new(&m, sched.clone(), policy, 1);
            let mut ctx = m.ctx(0);
            trigger.request();
            // Every boundary is a join boundary: only the backoff paces.
            for _ in 0..k {
                ctl.at_boundary(&m, 0, &mut ctx, true);
            }
            let held = ctl.summary();
            assert_eq!(held.completed, 0);
            assert_eq!(held.attempted, held.skipped_busy);
            // Something to harvest: the next quiesce completes.
            crate::driver::plant_seeds(&m, &sched, &[m.setup_frame(CORE_ID_END, &[])]);
            for _ in 0..DEFAULT_CHECKPOINT_CAPSULES + JOIN_WAIT_CAPSULES {
                ctl.at_boundary(&m, 0, &mut ctx, true);
            }
            assert_eq!(ctl.summary().completed, 1);
            assert_eq!(
                ctl.busy_backoff.load(Ordering::Relaxed),
                BUSY_RETRY_CAPSULES
            );
            held.attempted
        };
        // Quiesces at capsules 1, 9, 25, 57, …: 2^(i+3) − 7.
        assert_eq!(attempts_over(256), 6);
        assert_eq!(attempts_over(1024), 8);
        // Past the policy interval the backoff stops growing.
        assert_eq!(attempts_over(4 * 1024), 8 + 3);
    }

    #[test]
    fn checkpoint_seeds_validate_shape_and_rehydration() {
        use ppm_core::Machine;
        use ppm_pm::{store_frame, PmConfig};
        let m = Machine::with_pool_words(PmConfig::parallel(2, 1 << 16), 1 << 10);
        let f = m.pool(0).start + 64;
        store_frame(m.mem(), f, ppm_core::CORE_ID_END, &[]);
        let good = CheckpointRecord {
            seq: 1,
            epoch: 1,
            capsules: 10,
            region_cursor: m.region_cursor() as u64,
            watermarks: vec![128, 0],
            frontier: vec![f as Word],
        };
        assert_eq!(checkpoint_seeds(&m, &good), Some(vec![f as Word]));

        let wrong_procs = CheckpointRecord {
            watermarks: vec![128],
            ..good.clone()
        };
        assert_eq!(checkpoint_seeds(&m, &wrong_procs), None);

        let oversized_wm = CheckpointRecord {
            watermarks: vec![1 << 20, 0],
            ..good.clone()
        };
        assert_eq!(checkpoint_seeds(&m, &oversized_wm), None);

        let dangling = CheckpointRecord {
            frontier: vec![3],
            ..good.clone()
        };
        assert_eq!(checkpoint_seeds(&m, &dangling), None);

        // One region more carved before the run: the record names
        // another layout, and is refused though every word of it fits.
        assert_eq!(layout_moved(&m, None, Some(&good)), None);
        m.alloc_region(1);
        assert_eq!(checkpoint_seeds(&m, &good), None);
        assert_eq!(
            layout_moved(&m, None, Some(&good)),
            Some(FallbackReason::LayoutMoved {
                seq: Some(1),
                recorded: good.region_cursor,
                found: m.region_cursor() as u64,
            })
        );
    }
}
