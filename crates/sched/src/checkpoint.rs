//! Epoch checkpoints: incremental persist boundaries.
//!
//! # Design, mapped to the paper's persist-boundary semantics
//!
//! In the Parallel-PM model (conf_spaa_BlellochG0MS18), a fault costs at
//! most the work since the last point at which the computation's state
//! was *persistently consistent*: capsule boundaries bound the cost of a
//! processor fault, and the explicit flush boundary bounds the cost of a
//! machine failure. Without checkpoints the runtime has exactly two
//! machine-level persist boundaries — the initial state and the final
//! [`crate::Runtime::flush`] — so a machine failure (or any crash whose
//! frontier falls in one of the narrow unresumable windows) replays the
//! *whole* run. A **checkpoint** inserts periodic machine-level persist
//! boundaries on a durable machine, each one doing two things at a
//! quiesced capsule boundary:
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
//!    per-processor pool watermarks, and the quiesced **deque frontier**
//!    (every in-flight `job` handle plus every running thread's restart
//!    pointer — exactly the §6.3 state a recovering process needs).
//!    Records alternate between two checksummed slots, so a write torn by
//!    a machine failure leaves the previous record intact.
//!
//! Then each processor pins its **floor** ([`ProcCtx::pin_floor`]) at its
//! pool cursor: no join reclaims below it, so the frames the record's
//! frontier reaches stay as they were. A volatile machine has no persist
//! boundary to insert: there a checkpoint does nothing, and a volatile
//! session never quiesces.
//!
//! ## Why the pool needs no collector here
//!
//! The §4.1 pool only bumps, and its words die at joins: a join whose
//! subtree ran on the forking processor alone rolls the cursor back
//! (`ppm_pm::proc`'s join-time reclamation). The words a steal split, a
//! `fork_many`'s inner cells, a chain's scratch and a restarted run's
//! pre-crash words stay until the run ends; the pool budgets in
//! `ppm-algs` carry them as stated terms.
//!
//! A checkpoint moves no cursor, so nothing a stored record reaches is
//! ever handed out again:
//!
//! - **The cursor and the watermark agree at a quiesce.** Every parked
//!   processor has just completed a capsule, and
//!   [`ProcCtx::complete_capsule`] mirrors its cursor to the watermark
//!   word; nothing else writes that word during a run. So a record's
//!   watermarks are its processors' cursors, and resuming a processor
//!   after the quiesce needs no resync, only the floor pin.
//! - **The floor only rises.** A cursor never drops below its floor, so
//!   the next quiesce pins a floor at or above the last one. A record's
//!   frontier lies below the floor pinned with it, hence below every
//!   later floor: an older record stays resumable when a newer one could
//!   not be written (an oversized frontier, a flush or write error).
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
//! capsule away from parking). A due checkpoint is requested at a
//! boundary where the requesting processor's restart pointer is a frame,
//! which a record can name. The last processor to park performs the
//! checkpoint while the others wait; processors that hard-fault or halt
//! deregister so the barrier never deadlocks. The checkpoint itself
//! performs only uncosted machine maintenance — no costed transfers, no
//! fault-adversary consultations — so deterministic fault schedules are
//! unchanged by enabling it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use ppm_core::{DoneFlag, Machine};
use ppm_obs::TraceKind;
use ppm_pm::{CheckpointRecord, ProcCtx, Word};

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

/// When a session writes checkpoints.
///
/// Construct with [`CheckpointPolicy::every_capsules`],
/// [`CheckpointPolicy::manual`] or [`CheckpointPolicy::disabled`]. The
/// default checkpoints every [`DEFAULT_CHECKPOINT_CAPSULES`] capsules. A
/// volatile machine takes no checkpoints under any policy.
#[derive(Debug, Clone)]
pub enum CheckpointPolicy {
    /// Never checkpoint.
    Disabled,
    /// Checkpoint after every `k` completed capsules (machine-wide).
    EveryCapsules(u64),
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
    /// [`DEFAULT_CHECKPOINT_CAPSULES`] for a manual policy.
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

/// What a run's checkpointing did (part of [`crate::RunReport`]); all
/// zeros on a volatile machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Quiesces that reached the coordinator.
    pub attempted: u64,
    /// Checkpoints fully taken (flush + record).
    pub completed: u64,
    /// Quiesces skipped because the frontier was not harvestable at this
    /// boundary (a steal or push in flight, a restart pointer parked on a
    /// scheduler record) — retried at a later boundary.
    pub skipped_busy: u64,
    /// Checkpoint records durably written.
    pub records_written: u64,
    /// Records skipped because the frontier outgrew a record slot.
    pub records_oversized: u64,
    /// Pages synced by incremental flushes.
    pub pages_flushed: u64,
    /// Always 0: a checkpoint reclaims no pool words (module docs). Kept
    /// while the end-to-end benchmark still reports it.
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
    /// later — the persist boundary is delayed, never lost.
    next_due: AtomicU64,
    /// A manual request that has been taken from the trigger but not yet
    /// served by a completed checkpoint.
    manual_pending: AtomicBool,
    /// Earliest capsule count at which a due-but-busy policy may
    /// re-request (quiesces retry at this backoff, not every boundary).
    retry_at: AtomicU64,
    /// The backoff the next busy skip waits out: [`BUSY_RETRY_CAPSULES`],
    /// doubled by each consecutive busy skip up to the policy interval.
    busy_backoff: AtomicU64,
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
    /// processor of a durable machine runs an enabled policy (see
    /// `driver::run_attached_seats`): a process can never quiesce
    /// processors living in sibling processes, and a volatile machine has
    /// no persist boundary to take.
    pub(crate) fn new(
        machine: &Machine,
        sched: Arc<Sched>,
        policy: CheckpointPolicy,
        live_procs: usize,
    ) -> Arc<Self> {
        let policy = match machine.epoch() {
            0 => CheckpointPolicy::Disabled,
            _ => policy,
        };
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
            "checkpoints fully taken (flush + record)",
            |s| s.completed,
        );
        register(
            "ppm_checkpoint_skips_busy_total",
            "quiesces skipped on an unharvestable boundary, retried later",
            |s| s.skipped_busy,
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
        Arc::new(CheckpointCtl {
            policy,
            done,
            requested: AtomicBool::new(false),
            capsules: AtomicU64::new(0),
            next_due: AtomicU64::new(first_due),
            manual_pending: AtomicBool::new(false),
            retry_at: AtomicU64::new(0),
            busy_backoff: AtomicU64::new(BUSY_RETRY_CAPSULES),
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
    /// parked, runs the checkpoint on the last arriver, and pins the
    /// processor's floor.
    ///
    /// `at_frame` says the processor's restart pointer is a frame. Only
    /// such a boundary requests a quiesce: a restart pointer on a
    /// scheduler record does not rehydrate, so a record's frontier
    /// cannot name it, and a quiesce requested there skips (about two
    /// in five of a `sort_durable` run's quiesces did).
    pub(crate) fn at_boundary(&self, machine: &Machine, ctx: &mut ProcCtx, at_frame: bool) {
        if !self.policy.is_enabled() {
            return;
        }
        let capsules = self.capsules.fetch_add(1, Ordering::Relaxed) + 1;
        let due = match &self.policy {
            CheckpointPolicy::EveryCapsules(_) => capsules >= self.next_due.load(Ordering::Relaxed),
            CheckpointPolicy::Manual(flag) => {
                if flag.swap(false, Ordering::AcqRel) {
                    self.manual_pending.store(true, Ordering::Release);
                }
                self.manual_pending.load(Ordering::Acquire)
            }
            CheckpointPolicy::Disabled => unreachable!("early-returned above"),
        };
        // A due policy re-requests only past the busy-skip backoff: a
        // quiesce that skipped on another processor's push or steal in
        // flight finds it completed a few capsules later.
        if due && at_frame && capsules >= self.retry_at.load(Ordering::Relaxed) {
            self.requested.store(true, Ordering::Release);
        }
        if self.requested.load(Ordering::Acquire) {
            self.park(machine, ctx);
        }
    }

    /// The quiesce barrier. The last processor to park coordinates.
    fn park(&self, machine: &Machine, ctx: &mut ProcCtx) {
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
        ctx.pin_floor();
    }

    /// Runs one checkpoint directly, bypassing the quiesce barrier, and
    /// pins the floor of each of `ctxs`, as [`CheckpointCtl::at_boundary`]'s
    /// park path does. Only sound when the caller guarantees every seated
    /// processor is parked at a capsule boundary — the single-threaded
    /// [`crate::sim`] stepper, which holds every processor between
    /// capsules by construction. Does nothing on a volatile machine.
    pub(crate) fn quiesced_checkpoint<'a>(
        &self,
        machine: &Machine,
        ctxs: impl Iterator<Item = &'a mut ProcCtx>,
    ) {
        if machine.epoch() == 0 {
            return;
        }
        self.run_checkpoint(machine);
        ctxs.for_each(ProcCtx::pin_floor);
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
        // quiesce delays the persist boundary instead of losing it.
        let Some(frontier) = capture_frontier(machine, &self.sched) else {
            let backoff = self.busy_backoff.load(Ordering::Relaxed);
            let next = (backoff * 2).min(self.policy.interval_capsules());
            self.busy_backoff
                .store(next.max(BUSY_RETRY_CAPSULES), Ordering::Relaxed);
            self.rearm(false, backoff);
            summary.skipped_busy += 1;
            return format!("skipped: busy boundary (next retry in {backoff} capsules)");
        };
        self.rearm(true, BUSY_RETRY_CAPSULES);
        // Persist boundary: sync the epoch's dirty pages, then the record
        // describing the now-durable state. On a flush error, durability
        // stays best-effort mid-run (MAP_SHARED words already survive
        // process death) and no record is written, so a record can never
        // describe unflushed state; the older record stays valid (module
        // docs: the floor only rises).
        if let Ok(flush) = machine.flush_dirty() {
            summary.pages_flushed += flush.pages as u64;
            let record = CheckpointRecord {
                seq: self.next_seq.load(Ordering::Relaxed),
                epoch: machine.epoch(),
                capsules: self.capsules.load(Ordering::Relaxed),
                region_cursor: machine.region_cursor() as u64,
                watermarks: (0..machine.procs())
                    .map(|p| machine.pool_watermark(p) as u64)
                    .collect(),
                frontier,
            };
            if !record.fits() {
                summary.records_oversized += 1;
            } else if machine.write_checkpoint_record(&record).is_ok() {
                self.next_seq.fetch_add(1, Ordering::Relaxed);
                summary.records_written += 1;
            }
        }
        summary.completed += 1;
        format!("completed ({} pages flushed so far)", summary.pages_flushed)
    }

    /// Re-arms the trigger state after a quiesce: a completed checkpoint
    /// resets the policy counters for a full interval and the busy
    /// backoff to its start, a skipped one leaves the policy due; either
    /// way the next quiesce request waits out `backoff` capsules, so
    /// futile quiesces are paced, and a persist boundary is delayed a
    /// little, never lost.
    fn rearm(&self, completed: bool, backoff: u64) {
        let capsules = self.capsules.load(Ordering::Relaxed);
        if completed {
            if let CheckpointPolicy::EveryCapsules(k) = &self.policy {
                self.next_due.store(capsules + k, Ordering::Relaxed);
            }
            self.manual_pending.store(false, Ordering::Release);
            self.busy_backoff
                .store(BUSY_RETRY_CAPSULES, Ordering::Relaxed);
        }
        self.retry_at.store(capsules + backoff, Ordering::Relaxed);
    }
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

    /// A boundary held busy (an empty frontier: nothing to harvest)
    /// re-quiesces after 8, 16, 32, … capsules, so the attempts over `k`
    /// capsules grow as log₂ k, not as k / 8; the first completed
    /// checkpoint resets the backoff.
    #[cfg(unix)]
    #[test]
    fn consecutive_busy_skips_back_off_exponentially() {
        use ppm_core::{Machine, CORE_ID_END};
        use ppm_pm::{PmConfig, TempMachineFile};
        let attempts_over = |k: u64| {
            let file = TempMachineFile::new("ckpt-backoff");
            let m = Machine::create_durable(PmConfig::parallel(1, 1 << 16), &file).unwrap();
            let sched = Sched::new(&m, DoneFlag::new(&m), &crate::SchedConfig::with_slots(8));
            let (policy, trigger) = CheckpointPolicy::manual();
            let ctl = CheckpointCtl::new(&m, sched.clone(), policy, 1);
            let mut ctx = m.ctx(0);
            trigger.request();
            for _ in 0..k {
                ctl.at_boundary(&m, &mut ctx, true);
            }
            let held = ctl.summary();
            assert_eq!(held.completed, 0);
            assert_eq!(held.attempted, held.skipped_busy);
            // Something to harvest: the next quiesce completes.
            crate::driver::plant_seeds(&m, &sched, &[m.setup_frame(CORE_ID_END, &[])]);
            for _ in 0..DEFAULT_CHECKPOINT_CAPSULES {
                ctl.at_boundary(&m, &mut ctx, true);
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
