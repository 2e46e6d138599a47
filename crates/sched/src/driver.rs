//! Running computations on the fault-tolerant scheduler.
//!
//! One OS thread per model processor. Each thread drives the capsule
//! engine: run the active capsule (restarting on soft faults), install the
//! successor, repeat — under the one [`Sched`], which turns a `fork` into
//! its `pushBottom` sequence and a thread `End` into `scheduler()`. A
//! hard fault ends the thread; the processor's deque and restart pointer
//! stay in persistent memory for thieves.
//!
//! ## Entry points
//!
//! A [`crate::Runtime`] session is a one-worker cluster
//! ([`crate::cluster`]) over a one-slot injector ring, seating every
//! processor. `Runtime::run_or_recover` either runs its computation fresh
//! — session build, the root published as ticket 1 with admission
//! closed, every processor seated at `findWork` — or hands the machine to
//! `recover`, the one function that recovers a machine, which
//! `cluster::recover` calls too. A run completes by the drain rule: the
//! `service/done/check` that wins the last done CAM of a closed ring sets
//! the done flag ([`crate::service`]); nothing polls for completion.
//!
//! ## One deviation from §6.3
//!
//! §6.3: "One process is assigned the root thread. This process installs
//! the first capsule of this thread, and sets its first entry to local.
//! All other processes install the findWork capsule." Here *every*
//! processor installs `findWork`, and the root is pulled from the ring:
//! whichever processor wins its claim CAM seats its own `Local` entry and
//! enters the slot's entry frame, one chain of capsules later than §6.3's
//! start. So a run starts, finishes and recovers the same way however
//! many workers it has.
//!
//! ## Crash recovery across process lifetimes
//!
//! Recovery extends the paper's hard-fault story to the death of the
//! *whole process*: a durable machine is reopened by a fresh process,
//! whose threads re-attach to the persisted deques, restart pointers and
//! ring. An unfinished run takes one of three routes:
//!
//! * **Resume the crash frontier**: every persisted `job` entry and every
//!   running thread's restart pointer is a frame address
//!   ([`ppm_pm::frame`]), rehydrated through the machine's
//!   [`ppm_core::CapsuleRegistry`] and re-planted as a job. Recovery cost
//!   is bounded by the work in flight, not by total work.
//! * **Resume a checkpoint** when the crash frontier is unharvestable:
//!   the newest valid record's frontier is planted instead
//!   ([`crate::checkpoint`]); replay is bounded by one checkpoint epoch.
//! * **Replay** (see [`FallbackReason`]): the deques are scrubbed, the
//!   ring is normalized and its jobs are pulled again from their roots.
//!   The §5 discipline (write-after-read conflict freedom, CAM
//!   test-and-set for once-only effects) keeps applied effects from
//!   applying twice; replay costs work, never correctness.
//!
//! The machine is flushed before recovery returns, so a second crash
//! during recovery recovers the same way.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm_core::persist::FrameDecodeError;
pub use ppm_core::registry::PComp;
use ppm_core::registry::RehydrateError;
use ppm_core::{run_capsule, Active, InstallCtx, Machine, CORE_ID_JOIN_CAM};
use ppm_obs::TraceKind;
use ppm_pm::{Fault, PmError, StatsSnapshot, Word};

use crate::capsules::{Sched, SchedConfig};
use crate::checkpoint::{
    checkpoint_seeds, layout_moved, CheckpointCtl, CheckpointPolicy, CheckpointSummary,
};
use crate::cluster::{build_session, ClusterSession, ShardBuild};
use crate::deque::check_invariant;
use crate::entry::{kind_of, pack, unpack, EntryKind, EntryVal};
use crate::service::ServiceConfig;

/// How one processor's loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcOutcome {
    /// Saw the completion flag and halted.
    Halted,
    /// Hard-faulted.
    Dead,
    /// Stopped by an error no restart would change: its pool ran out.
    /// The session's other processors stop at their next steal attempt.
    Failed(PmError),
}

/// The result of one parallel section (the inner run of a session).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Whether the computation's completion flag was set (always true
    /// unless every processor hard-faulted first).
    pub completed: bool,
    /// Per-processor outcomes.
    pub outcomes: Vec<ProcOutcome>,
    /// Machine statistics for the run (total work `W_f`, faults, capsule
    /// counts, max capsule work `C`, ...).
    pub stats: StatsSnapshot,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// A rendered snapshot of every WS-deque at the end of the run
    /// (compact form: `T` taken, `J` job, `L` local, `.` empty).
    pub deque_dump: Vec<String>,
    /// What the run's checkpointing did (all zeros when the policy is
    /// disabled).
    pub checkpoints: CheckpointSummary,
}

impl RunReport {
    /// The error that ended the run early, if a processor stopped on one.
    pub fn error(&self) -> Option<PmError> {
        self.outcomes.iter().find_map(|o| match o {
            ProcOutcome::Failed(e) => Some(*e),
            _ => None,
        })
    }

    /// Processors that hard-faulted.
    pub fn dead_procs(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| **o == ProcOutcome::Dead)
            .count()
    }
}

/// How a session re-drove (or first drove) its computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// A fresh run on a machine with no crashed predecessor.
    FreshRun,
    /// The persisted completion flag was already set; nothing re-ran.
    AlreadyComplete,
    /// Persisted deque entries and restart pointers were rehydrated
    /// through the capsule registry and re-planted: the run resumed from
    /// the crash frontier.
    Resumed,
    /// State was scrubbed and the computation replayed from its root
    /// (an unrehydratable frontier or an ambiguous crash window, with no
    /// checkpoint to fall back to — see
    /// [`SessionReport::fallback_reason`]).
    Replayed,
}

/// Why a recovery could not resume the crash frontier and fell back to
/// replay-from-root. Carries the structured rehydration failure — down to
/// the typed [`FrameDecodeError`] — when decoding is what failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FallbackReason {
    /// No in-flight entries were found; the computation restarts from the
    /// root (it had barely begun, or its frontier died with its thieves).
    NoFrontier,
    /// A persisted handle did not rehydrate through the capsule registry.
    Rehydrate {
        /// Which persisted handle failed (deque entry or restart
        /// pointer, with its location).
        what: String,
        /// The rehydration failure, carrying the typed decode error when
        /// the capsule's decode rejected the argument words.
        error: RehydrateError,
    },
    /// A `taken` entry references a thief coordinate outside the machine
    /// (corrupt state).
    InvalidTakenRef {
        /// Victim deque owner.
        victim: usize,
        /// Victim slot index.
        slot: usize,
        /// Referenced thief processor.
        thief: usize,
        /// Referenced thief slot.
        thief_slot: usize,
    },
    /// The crash caught a steal between the victim-entry CAM and the
    /// thief-entry CAM; the stolen thread's handle lives only in the dead
    /// thief's scheduler record, which recovery does not resume yet.
    StealInFlight {
        /// Victim deque owner.
        victim: usize,
        /// Victim slot index.
        slot: usize,
        /// Thief processor.
        thief: usize,
        /// Thief slot the steal was transferring into.
        thief_slot: usize,
    },
    /// A deque held two `local` entries: the crash landed mid-`pushBottom`.
    MidPush {
        /// The deque's owner.
        deque: usize,
    },
    /// The newest checkpoint record was taken over another setup layout:
    /// this process's construction left the region-allocation cursor
    /// elsewhere than the run that wrote the record, so the record's
    /// frontier and watermarks name other words.
    CheckpointLayout {
        /// Sequence number of the refused record.
        seq: u64,
        /// The region cursor the record was taken over.
        recorded: u64,
        /// This construction's region cursor.
        found: u64,
    },
}

impl FallbackReason {
    /// The typed frame-argument decode error, when the fallback was a
    /// capsule's decode rejecting a frame's words.
    pub fn decode_error(&self) -> Option<&FrameDecodeError> {
        match self {
            FallbackReason::Rehydrate { error, .. } => error.decode_error(),
            _ => None,
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::NoFrontier => {
                write!(f, "no in-flight entries found; restarting from the root")
            }
            FallbackReason::Rehydrate { what, error } => write!(f, "{what}: {error}"),
            FallbackReason::InvalidTakenRef {
                victim,
                slot,
                thief,
                thief_slot,
            } => write!(
                f,
                "taken entry {slot} of deque {victim} references invalid thief \
                 ({thief}, {thief_slot})"
            ),
            FallbackReason::StealInFlight {
                victim,
                slot,
                thief,
                thief_slot,
            } => write!(
                f,
                "steal of entry {slot} of deque {victim} was in flight (thief {thief} \
                 slot {thief_slot} not yet claimed)"
            ),
            FallbackReason::MidPush { deque } => {
                write!(f, "deque {deque} was mid-pushBottom (two local entries)")
            }
            FallbackReason::CheckpointLayout {
                seq,
                recorded,
                found,
            } => write!(
                f,
                "checkpoint record {seq} was taken over another setup layout \
                 (region cursor {recorded}, this construction's {found})"
            ),
        }
    }
}

/// The unified report of every session: what it found on the machine,
/// how it drove the computation, and the inner run's statistics.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Durable run epoch of the machine (0 volatile, 1 creating run,
    /// +1 per reopen).
    pub epoch: u64,
    /// How the computation was driven.
    pub mode: SessionMode,
    /// In-flight `job` entries found across the persisted deques (0 on a
    /// fresh run).
    pub found_jobs: usize,
    /// `local` entries (threads that were running when the crash hit).
    pub found_locals: usize,
    /// `taken` entries (completed or in-progress steals).
    pub found_taken: usize,
    /// Processors whose persisted restart pointer was non-null.
    pub live_restart_pointers: usize,
    /// Continuations rehydrated from persistent frames and re-planted as
    /// jobs (0 unless [`SessionMode::Resumed`]); the resumed run executes
    /// only these threads' remaining work plus their joins.
    pub resumed: usize,
    /// Why resume was not possible, when `mode` is
    /// [`SessionMode::Replayed`].
    pub fallback_reason: Option<FallbackReason>,
    /// Present when the crash frontier was unharvestable but the session
    /// resumed from a durable checkpoint record instead of replaying from
    /// the root (`mode` is [`SessionMode::Resumed`]). Replay distance is
    /// bounded by the work done after that checkpoint.
    pub checkpoint_resume: Option<CheckpointResume>,
    /// Present when this session coordinated (or served one shard of) a
    /// multi-process sharded run — see [`crate::cluster`]. Carries the
    /// per-shard outcomes, adoption counts, and which fault domains died.
    pub cluster: Option<crate::cluster::ClusterSummary>,
    /// The driven run's report (`None` only when
    /// [`SessionMode::AlreadyComplete`]).
    pub run: Option<RunReport>,
}

/// How a session resumed from an epoch checkpoint (see
/// [`crate::checkpoint`]): which record, how far the dead run had
/// progressed when it was written, and why the crash frontier itself was
/// not resumable.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointResume {
    /// Sequence number of the checkpoint record resumed from.
    pub seq: u64,
    /// Capsules the dead run had completed when the record was written
    /// (replay-distance accounting: the resumed run re-drives everything
    /// after this point).
    pub capsules_at_checkpoint: u64,
    /// Why the crash frontier could not be resumed directly.
    pub crash_frontier: FallbackReason,
}

impl SessionReport {
    /// A report with nothing found on the machine; recovery fills in what
    /// it found.
    pub(crate) fn new(
        epoch: u64,
        mode: SessionMode,
        cluster: Option<crate::cluster::ClusterSummary>,
        run: Option<RunReport>,
    ) -> Self {
        SessionReport {
            epoch,
            mode,
            found_jobs: 0,
            found_locals: 0,
            found_taken: 0,
            live_restart_pointers: 0,
            resumed: 0,
            fallback_reason: None,
            checkpoint_resume: None,
            cluster,
            run,
        }
    }

    /// Whether the computation is complete after this session.
    pub fn completed(&self) -> bool {
        self.mode == SessionMode::AlreadyComplete
            || self.run.as_ref().map(|r| r.completed).unwrap_or(false)
    }

    /// Total frontier entries adopted from dead shards, cluster-wide
    /// (0 for single-process sessions). Same accessor shape as
    /// [`crate::service::JobReport::adopted`], so batch and service
    /// reporting read alike.
    pub fn adopted(&self) -> u64 {
        self.cluster.as_ref().map(|c| c.adopted()).unwrap_or(0)
    }

    /// Total refused adoptions, cluster-wide (0 for single-process
    /// sessions).
    pub fn blocked(&self) -> u64 {
        self.cluster.as_ref().map(|c| c.blocked()).unwrap_or(0)
    }

    /// Per-shard outcome rows, empty for single-process sessions.
    pub fn shard_reports(&self) -> &[crate::cluster::ShardReport] {
        self.cluster
            .as_ref()
            .map(|c| c.shard_reports.as_slice())
            .unwrap_or(&[])
    }

    /// The persisted completion flag was already set when the session
    /// started: the previous run finished and nothing was re-driven.
    pub fn already_complete(&self) -> bool {
        self.mode == SessionMode::AlreadyComplete
    }

    /// Whether this session resumed a crash frontier instead of running
    /// or replaying from the root.
    pub fn resumed_run(&self) -> bool {
        self.mode == SessionMode::Resumed
    }

    /// Total in-flight deque entries found at session start.
    pub fn found_in_flight(&self) -> usize {
        self.found_jobs + self.found_locals + self.found_taken
    }

    /// The inner run's report.
    ///
    /// # Panics
    /// Panics when the session was [`SessionMode::AlreadyComplete`] (no
    /// run happened); check [`SessionReport::run`] first in that case.
    pub fn run_report(&self) -> &RunReport {
        self.run
            .as_ref()
            .expect("session was AlreadyComplete: no run to report")
    }

    /// The inner run's statistics (see [`SessionReport::run_report`] for
    /// the panic condition).
    pub fn stats(&self) -> &StatsSnapshot {
        &self.run_report().stats
    }

    /// The inner run's wall-clock duration (zero when already complete).
    pub fn elapsed(&self) -> Duration {
        self.run
            .as_ref()
            .map(|r| r.elapsed)
            .unwrap_or(Duration::ZERO)
    }

    /// Processors that hard-faulted during the inner run.
    pub fn dead_procs(&self) -> usize {
        self.run.as_ref().map(|r| r.dead_procs()).unwrap_or(0)
    }

    /// The error that ended the driven run early (a processor's pool ran
    /// out): the session returns it instead of unwinding.
    pub fn error(&self) -> Option<PmError> {
        self.run.as_ref().and_then(RunReport::error)
    }
}

// ====================================================================
// Sessions
// ====================================================================

/// A fresh [`crate::Runtime`] session: a one-shard cluster session over
/// a one-slot ring ([`ServiceConfig::SESSION`]), with no shard domain,
/// its root published as ticket 1 and admission closed. The `finale`
/// `pcomp` receives is slot 0's done frame.
pub(crate) fn fresh_session(machine: &Machine, pcomp: &PComp, cfg: &SchedConfig) -> ClusterSession {
    let build = runtime_build(pcomp);
    let session = build_session(machine, 1, cfg, ServiceConfig::SESSION, None, &build);
    session.publish(machine).expect("publishing the root");
    session
}

/// `pcomp` as the [`ShardBuild`] of a one-shard session.
pub(crate) fn runtime_build(pcomp: &PComp) -> ShardBuild {
    let pcomp = pcomp.clone();
    Arc::new(move |m, _, k| pcomp(m, k))
}

/// The shared parallel section: spawns one OS thread per seated
/// processor at `findWork` with its pool cursor at 0 or, when `resume`,
/// at its persisted watermark and at its own restart pointer if that
/// denotes a capsule (§6's restart; recovery scrubs them first); joins
/// them, checks the deque invariant, and assembles the report. A
/// processor's panic is re-raised once every thread has been joined. A
/// single-process session seats every model processor; a cluster worker
/// seats only its own shard's processors (its fault domain) while the
/// sibling processors are driven by other OS processes attached to the
/// same machine file. Only the seated processors' deques are
/// invariant-checked and rendered: remote deques are live in other
/// processes, so reading them here would race their owners.
///
/// Checkpoints need every seat: `policy` applies iff the seats cover
/// every processor, since a process can quiesce only the processors it
/// runs. Otherwise checkpoints are off.
pub(crate) fn run_attached_seats(
    machine: &Machine,
    session: &ClusterSession,
    seats: std::ops::Range<usize>,
    resume: bool,
    policy: &CheckpointPolicy,
) -> RunReport {
    let (sched, done) = (&session.sched, session.done);
    let policy = match seats.len() == machine.procs() {
        true => policy.clone(),
        false => CheckpointPolicy::disabled(),
    };
    let ctl = &CheckpointCtl::new(machine, sched.clone(), policy, seats.len());
    let start = Instant::now();
    // Every thread is joined before the first panic is re-raised: a
    // panicking processor releases the barrier and stops its siblings
    // (`ExitGuard`), so the joins return.
    let joined: Vec<std::thread::Result<ProcOutcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = seats
            .clone()
            .map(|p| s.spawn(move || proc_loop(machine, sched, p, resume, ctl)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let outcomes: Vec<ProcOutcome> = joined
        .into_iter()
        .collect::<std::thread::Result<_>>()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    let elapsed = start.elapsed();

    // Post-run structural check (quiescent among the seated processors,
    // so exact for their deques).
    let mut deque_dump = Vec::with_capacity(seats.len());
    for p in seats {
        let d = &sched.deques()[p];
        if let Err(e) = check_invariant(machine.mem(), d) {
            panic!("WS-deque invariant violated after run: {e}");
        }
        deque_dump.push(crate::deque::render(machine.mem(), d));
    }
    // Detach the transition observer (if any) so later setup stores by
    // other runs on this machine are not checked.
    machine.mem().set_observer(None);

    RunReport {
        completed: done.is_set(machine.mem()),
        outcomes,
        stats: machine.stats().snapshot(),
        elapsed,
        deque_dump,
        checkpoints: ctl.summary(),
    }
}

// ====================================================================
// Recovery
// ====================================================================

/// A report of what the crash left in the deques and restart pointers.
fn crash_forensics(machine: &Machine, sched: &Sched) -> SessionReport {
    let mut found = SessionReport::new(machine.epoch(), SessionMode::FreshRun, None, None);
    for d in sched.deques() {
        for i in 0..d.slots {
            match kind_of(machine.mem().load(d.entry(i))) {
                EntryKind::Job => found.found_jobs += 1,
                EntryKind::Local => found.found_locals += 1,
                EntryKind::Taken => found.found_taken += 1,
                EntryKind::Empty => {}
            }
        }
    }
    found.live_restart_pointers = (0..machine.procs())
        .filter(|p| machine.active_handle(*p) != 0)
        .count();
    found
}

/// Scrubs scheduler state back to the §6.3 initial shape: all entries
/// empty with tag 0, `top = bot = 0`, restart pointers and journals
/// null. Pool watermarks are zeroed only when replaying from the root —
/// a resumed run keeps allocating above the dead run's live frames.
pub(crate) fn scrub_scheduler_state(machine: &Machine, sched: &Arc<Sched>, keep_watermarks: bool) {
    for d in sched.deques() {
        for i in 0..d.slots {
            if machine.mem().load(d.entry(i)) != 0 {
                machine.mem().store(d.entry(i), 0);
            }
        }
        machine.mem().store(d.top, 0);
        machine.mem().store(d.bot, 0);
    }
    for p in 0..machine.procs() {
        let meta = machine.proc_meta(p);
        for addr in meta.base..meta.base + ppm_core::PROC_META_WORDS {
            if addr != meta.watermark || !keep_watermarks {
                machine.mem().store(addr, 0);
            }
        }
    }
}

/// Harvests the crash frontier for resume: every persisted `job` entry's
/// handle, plus — for every deque holding a `local` entry — the owning
/// processor's restart pointer. Errors with a structured
/// [`FallbackReason`] if any handle does not rehydrate through the
/// registry or if the crash caught a steal mid-transfer, in which case
/// the caller falls back to root replay.
pub(crate) fn harvest_frontier(
    machine: &Machine,
    sched: &Arc<Sched>,
) -> Result<Vec<Word>, FallbackReason> {
    let mem = machine.mem();
    // Validate-only: every check a dispatch of the frame will make, and
    // nothing kept — if this harvest later aborts into the
    // replay-from-root path, which resets pool cursors to 0, the same
    // addresses will hold different frames. The resumed run reads the
    // (intact, watermark-protected) frames again when it runs them.
    let registry = machine.registry();
    let mut seeds = Vec::new();
    for d in sched.deques() {
        let mut locals = 0usize;
        for i in 0..d.slots {
            let word = mem.load(d.entry(i));
            match unpack(word) {
                (_, EntryVal::Empty) => {}
                (_, EntryVal::Job { handle }) => {
                    registry
                        .rehydrate(mem, handle)
                        .map_err(|error| FallbackReason::Rehydrate {
                            what: format!("job entry {i} of deque {}", d.owner),
                            error,
                        })?;
                    seeds.push(handle);
                }
                (_, EntryVal::Local) => locals += 1,
                (_, EntryVal::Taken { proc, slot, tag }) => {
                    // A completed steal's thread is accounted at the thief
                    // side (as a local or later state). A steal caught
                    // between the victim-entry CAM and the thief-entry CAM
                    // holds the thread's handle only in the dead thief's
                    // scheduler record, which recovery does not resume
                    // (a live thief would; see `Sched::run`).
                    if proc >= machine.procs() || slot >= sched.deques()[proc].slots {
                        return Err(FallbackReason::InvalidTakenRef {
                            victim: d.owner,
                            slot: i,
                            thief: proc,
                            thief_slot: slot,
                        });
                    }
                    let thief_word = mem.load(sched.deques()[proc].entry(slot));
                    if thief_word == pack(tag, EntryVal::Empty) {
                        return Err(FallbackReason::StealInFlight {
                            victim: d.owner,
                            slot: i,
                            thief: proc,
                            thief_slot: slot,
                        });
                    }
                }
            }
        }
        match locals {
            0 => {}
            1 => {
                // The thread running on this deque's processor at crash
                // time; its state is the persisted restart pointer.
                let handle = machine.active_handle(d.owner);
                registry
                    .rehydrate(mem, handle)
                    .map_err(|error| FallbackReason::Rehydrate {
                        what: format!(
                            "local entry of deque {} (restart pointer {handle})",
                            d.owner
                        ),
                        error,
                    })?;
                seeds.push(handle);
            }
            _ => return Err(FallbackReason::MidPush { deque: d.owner }),
        }
    }
    Ok(seeds)
}

/// Plants rehydrated frontier handles as `job` entries, round-robin
/// across the (scrubbed) deques, so every processor's ordinary `findWork`
/// picks them up.
pub(crate) fn plant_seeds(machine: &Machine, sched: &Arc<Sched>, seeds: &[Word]) {
    let procs = machine.procs();
    let mut counts = vec![0usize; procs];
    for (i, handle) in seeds.iter().enumerate() {
        let p = i % procs;
        let d = sched.deques()[p];
        machine.mem().store(
            d.entry(counts[p]),
            pack(1, EntryVal::Job { handle: *handle }),
        );
        counts[p] += 1;
    }
    for (p, d) in sched.deques().iter().enumerate() {
        machine.mem().store(d.bot, counts[p] as Word);
        machine.mem().store(d.top, 0);
    }
}

/// Recovers a machine that came back from [`Machine::reopen`], a
/// `Runtime` file or a cluster file alike. `shards`, `cfg`, `ring` and
/// `build` must replay the crashed session's construction exactly (same
/// `alloc_region` calls in the same order, same capsules under the same
/// ids). In order:
///
/// 1. Replay the session construction.
/// 2. Count what the crash left (`found_*`). A ring with no header was
///    never handed to a processor: clear it and publish its job set. A
///    newest checkpoint record taken over another setup layout
///    ([`FallbackReason::CheckpointLayout`]) means nothing the dead run
///    wrote is where this construction looks: clear the flag and the
///    ring, publish afresh, and replay from the root (step 7).
/// 3. Done flag set → [`SessionMode::AlreadyComplete`].
/// 4. Close admission (`InjectorQueue::close`); a ring the close finds
///    drained (a crash after the last done CAM, before the flag, or an
///    open ring whose jobs had all finished) → the same.
/// 5. Harvest the crash frontier;
/// 6. if that fails, take the newest valid checkpoint record
///    ([`SessionReport::checkpoint_resume`]; a cluster file has none);
/// 7. otherwise clear the stale records and replay
///    ([`SessionReport::fallback_reason`]).
/// 8. Scrub the deques, normalize the ring (`InjectorQueue::scavenge`),
///    plant the seeds, seat every processor at `findWork` and run.
pub(crate) fn recover(
    machine: &Machine,
    shards: usize,
    cfg: &SchedConfig,
    ring: ServiceConfig,
    build: &ShardBuild,
) -> io::Result<(ClusterSession, SessionReport)> {
    // The transition checker is installed after the scrub: scrub stores
    // are machine maintenance, not Figure 4 transitions.
    let quiet = SchedConfig {
        check_transitions: false,
        ..cfg.clone()
    };
    let session = build_session(machine, shards, &quiet, ring, None, build);
    let found = crash_forensics(machine, &session.sched);
    machine.obs().event(TraceKind::Recovery, None, None, || {
        format!(
            "recovery of a {shards}-shard session, epoch {}: {} in-flight entries, \
             {} live restart pointers",
            found.epoch,
            found.found_in_flight(),
            found.live_restart_pointers
        )
    });
    let report = |mode, run| SessionReport {
        mode,
        run,
        ..found.clone()
    };
    let (q, page) = (&session.service, machine.mem().control());
    // A checkpoint record pins the layout its run's construction carved.
    // A construction that carved differently finds none of that run's
    // words where it looks — not its ring, flag or deques — so, like a
    // ring never handed out, the file starts over: a clear flag, a fresh
    // ring, and (below) a replay from the root.
    let moved = machine
        .latest_checkpoint_record()
        .and_then(|rec| layout_moved(machine, &rec));
    if moved.is_some() || page.service_header().is_none() {
        machine.mem().store(session.done.addr(), 0);
        q.clear();
        session.publish(machine)?;
    }
    if session.done.is_set(machine.mem()) || q.close(session.done)? {
        machine.flush()?;
        return Ok((session, report(SessionMode::AlreadyComplete, None)));
    }

    let mut checkpoint_resume = None;
    let harvest = moved.map_or_else(|| harvest_frontier(machine, &session.sched), Err);
    let (seeds, fallback_reason) = match harvest {
        Ok(seeds) if !seeds.is_empty() => (seeds, None),
        other => {
            let reason = other.err().unwrap_or(FallbackReason::NoFrontier);
            match machine
                .latest_checkpoint_record()
                .and_then(|rec| checkpoint_seeds(machine, &rec).map(|s| (rec, s)))
            {
                Some((rec, seeds)) => {
                    // Pool cursors return to the checkpoint's stable
                    // watermarks; the resumed run re-allocates (and
                    // re-drives) only the span after the checkpoint.
                    for (p, wm) in rec.watermarks.iter().enumerate() {
                        machine.mem().store(machine.proc_meta(p).watermark, *wm);
                    }
                    checkpoint_resume = Some(CheckpointResume {
                        seq: rec.seq,
                        capsules_at_checkpoint: rec.capsules,
                        crash_frontier: reason,
                    });
                    (seeds, None)
                }
                None => (Vec::new(), Some(reason)),
            }
        }
    };
    let resume = fallback_reason.is_none();
    if !resume {
        let _ = machine.clear_checkpoint_records();
    }

    scrub_scheduler_state(machine, &session.sched, resume);
    let touched = q.scavenge(resume);
    machine.obs().event(TraceKind::Recovery, None, None, || {
        format!("injector ring scavenged: {touched} slots normalized")
    });
    // A ring the normalization emptied (its last published slot failed
    // its checksum and was dropped) has no done CAM left to run the drain
    // rule: evaluate it here, once.
    q.settle(session.done);
    plant_seeds(machine, &session.sched, &seeds);
    if cfg.check_transitions {
        crate::capsules::install_transition_checker(machine, session.sched.deques());
    }
    let every = 0..machine.procs();
    let run = run_attached_seats(machine, &session, every, resume, &cfg.checkpoint);
    machine.flush()?;
    let mode = if resume {
        SessionMode::Resumed
    } else {
        SessionMode::Replayed
    };
    let report = SessionReport {
        resumed: if resume { seeds.len() } else { 0 },
        fallback_reason,
        checkpoint_resume,
        ..report(mode, Some(run))
    };
    Ok((session, report))
}

/// Leaves the quiesce barrier when a processor thread ends, by halt, by
/// hard fault or by panic. On a panic it also aborts the process's steal
/// loops, so a sibling waiting for the dead thread's work halts instead
/// of spinning, and a sibling parked at a quiesce is not left waiting for
/// a processor that will never park.
struct ExitGuard<'a> {
    sched: &'a Sched,
    ctl: &'a CheckpointCtl,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.sched.abort();
        }
        self.ctl.proc_exit();
    }
}

fn proc_loop(
    machine: &Machine,
    sched: &Sched,
    p: usize,
    resume: bool,
    ctl: &CheckpointCtl,
) -> ProcOutcome {
    let _exit = ExitGuard { sched, ctl };
    let cursor = if resume { machine.pool_watermark(p) } else { 0 };
    let mut ctx = machine.ctx_with_pool_cursor(p, cursor);
    let mut install = InstallCtx::new(machine.mem(), machine.proc_meta(p));
    let restart = resume.then(|| sched.restart_point(p, machine.arena()));
    let mut cur = restart
        .flatten()
        .unwrap_or(Active::Sched(sched.find_work()));
    let outcome = loop {
        let next = match run_capsule(&mut ctx, machine.arena(), &mut install, &cur, Some(sched)) {
            Ok(Some(c)) => c,
            Ok(None) => break ProcOutcome::Halted,
            Err(Fault::Exhausted) => {
                sched.abort();
                break ProcOutcome::Failed(ctx.error().expect("an exhausted pool says why"));
            }
            Err(_) => break ProcOutcome::Dead,
        };
        // A join arrival that continues to a frame (not to the scheduler)
        // was the join's last: the forking capsule's frames are dead.
        let joined = matches!((&cur, &next), (Active::Frame(f), Active::Frame(_)) if f.id == CORE_ID_JOIN_CAM);
        cur = next;
        // Capsule boundary: the committed state is self-consistent here,
        // so this is where checkpoint quiesces park.
        ctl.at_boundary(machine, p, &mut ctx, joined);
    };
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::marker_comp;
    use crate::{Runtime, RuntimeConfig};
    use ppm_pm::{FaultConfig, PmConfig};

    /// A volatile session on `p` processors, checkpoints off.
    fn session(p: usize, f: FaultConfig, slots: usize) -> Runtime {
        Runtime::volatile(
            RuntimeConfig::new(PmConfig::parallel(p, 1 << 21).with_fault(f))
                .with_slots(slots)
                .with_checkpoint(CheckpointPolicy::disabled()),
        )
    }

    /// Runs `n` markers on `rt`; returns the report and whether every
    /// marker was written exactly once.
    fn run_markers(rt: &Runtime, n: usize) -> (SessionReport, bool) {
        let r = rt.machine().alloc_region(n);
        let rep = rt.run_or_recover(&marker_comp(r, n));
        let mem = rt.machine().mem();
        (rep, (0..n).all(|i| mem.load(r.at(i)) == i as u64 + 1))
    }

    #[test]
    fn single_proc_runs_flat_computation() {
        let (rep, marked) = run_markers(&session(1, FaultConfig::none(), 256), 8);
        assert!(rep.completed() && marked);
        assert_eq!(rep.run_report().outcomes, vec![ProcOutcome::Halted]);
    }

    #[test]
    fn two_procs_share_forked_work() {
        let (rep, marked) = run_markers(&session(2, FaultConfig::none(), 256), 2);
        assert!(rep.completed() && marked);
    }

    #[test]
    fn wide_fanout_on_four_procs_all_tasks_run_exactly_once() {
        let mut cfg = SchedConfig::with_slots(1024);
        cfg.check_transitions = true;
        cfg.checkpoint = CheckpointPolicy::disabled();
        let m = Machine::new(PmConfig::parallel(4, 1 << 21));
        let (rep, marked) = run_markers(&Runtime::new(m, cfg), 64);
        assert!(rep.completed() && marked);
    }

    #[test]
    fn soft_faults_do_not_lose_or_duplicate_work() {
        for seed in 0..5 {
            let rt = session(4, FaultConfig::soft(0.02, seed), 1024);
            let (rep, marked) = run_markers(&rt, 48);
            assert!(rep.completed() && marked, "seed {seed}");
            assert!(rep.stats().soft_faults > 0, "seed {seed} should see faults");
        }
    }

    #[test]
    fn hard_fault_on_root_proc_is_recovered_by_thieves() {
        // Proc 0 pulls the root and dies early; the root thread must be
        // stolen and finished. Lockstep, so proc 0 is the one that pulls
        // it and reaches its scheduled access.
        let m = Machine::new(
            PmConfig::parallel(4, 1 << 21)
                .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, 40)),
        );
        let n = 32;
        let r = m.alloc_region(n);
        let cfg = SchedConfig::with_slots(1024);
        let mut sim = crate::sim::SimSched::new_persistent(&m, &marker_comp(r, n), &cfg);
        sim.run_to_completion(1 << 20);
        let rep = sim.finish();
        assert!(rep.completed);
        assert_eq!(rep.outcomes[0], Some(ProcOutcome::Dead));
        let dead = rep
            .outcomes
            .iter()
            .filter(|o| **o == Some(ProcOutcome::Dead));
        assert_eq!(dead.count(), 1);
        for i in 0..n {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1, "task {i}");
        }
    }

    #[test]
    fn all_but_one_proc_dying_still_completes() {
        let m = Machine::new(
            PmConfig::parallel(4, 1 << 21).with_fault(
                FaultConfig::none()
                    .with_scheduled_hard_fault(0, 60)
                    .with_scheduled_hard_fault(1, 45)
                    .with_scheduled_hard_fault(2, 80),
            ),
        );
        let n = 32;
        let r = m.alloc_region(n);
        // Lockstep on the single-threaded stepper: on OS threads the
        // survivor can finish the work before a doomed processor reaches
        // its scheduled access, and the death count becomes a race.
        let cfg = SchedConfig::with_slots(1024);
        let mut sim = crate::sim::SimSched::new_persistent(&m, &marker_comp(r, n), &cfg);
        sim.run_to_completion(1 << 20);
        let rep = sim.finish();
        assert!(rep.completed);
        let dead = rep
            .outcomes
            .iter()
            .filter(|o| **o == Some(ProcOutcome::Dead));
        assert_eq!(dead.count(), 3);
        assert_eq!(rep.outcomes[3], Some(ProcOutcome::Halted));
        for i in 0..n {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1, "task {i}");
        }
    }

    #[test]
    fn all_procs_dying_reports_incomplete() {
        let f = FaultConfig::none()
            .with_scheduled_hard_fault(0, 10)
            .with_scheduled_hard_fault(1, 10);
        let (rep, _) = run_markers(&session(2, f, 512), 16);
        assert!(!rep.completed());
        assert_eq!(rep.dead_procs(), 2);
    }

    #[test]
    fn fallback_reasons_render_and_expose_decode_errors() {
        let reasons = [
            FallbackReason::NoFrontier,
            FallbackReason::StealInFlight {
                victim: 0,
                slot: 3,
                thief: 1,
                thief_slot: 2,
            },
            FallbackReason::InvalidTakenRef {
                victim: 1,
                slot: 0,
                thief: 9,
                thief_slot: 9,
            },
            FallbackReason::MidPush { deque: 2 },
        ];
        for r in &reasons {
            assert!(!r.to_string().is_empty());
            assert!(r.decode_error().is_none());
        }
        let decode = ppm_core::persist::FrameDecodeError {
            capsule: "prefix/up",
            kind: ppm_core::persist::FrameDecodeKind::Arity {
                expected: 12,
                got: 3,
            },
        };
        let r = FallbackReason::Rehydrate {
            what: "job entry 0 of deque 1".into(),
            error: RehydrateError::BadArgs {
                addr: 64,
                capsule_id: 0x100,
                error: decode,
            },
        };
        assert_eq!(r.decode_error().unwrap().capsule, "prefix/up");
        let msg = r.to_string();
        assert!(msg.contains("prefix/up"), "{msg}");
        assert!(msg.contains("job entry 0"), "{msg}");
    }
}
