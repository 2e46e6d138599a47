//! Running computations on the fault-tolerant scheduler.
//!
//! One OS thread per model processor. Each thread drives the capsule
//! engine: run the active capsule (restarting on soft faults), install the
//! successor, repeat — under the one [`Sched`], which turns a `fork` into
//! its `pushBottom` sequence and a thread `End` into `scheduler()`. A
//! hard fault ends the thread; the processor's deque and restart pointer
//! stay in persistent memory for thieves.
//!
//! Setup follows §6.3: "Each process is initialized with an empty WS-Deque
//! ... One process is assigned the root thread. This process installs the
//! first capsule of this thread, and sets its first entry to local. All
//! other processes install the findWork capsule."
//!
//! ## Entry points
//!
//! The session object [`crate::Runtime`] is the one entry point for
//! sessions: `Runtime::run_or_recover` takes a registered persistent
//! computation and dispatches to the fresh-run, persistent-resume,
//! checkpoint-resume, or replay-fallback paths in this module, returning
//! a unified [`SessionReport`]. [`run_root_on`] runs a root frame on a
//! prebuilt scheduler, for callers that instrument its deques.
//!
//! ## Crash recovery across process lifetimes
//!
//! Recovery extends the paper's hard-fault story to the death of the
//! *whole process*: a machine whose words live in a durable backend is
//! reopened by a fresh process, and fresh OS threads re-attach to the
//! persisted WS-deques and restart pointers.
//!
//! Recovery takes one of two routes:
//!
//! * **Resume**: every persisted `job` entry and every running thread's
//!   restart pointer is a frame address ([`ppm_pm::frame`]), so the
//!   recovering process rehydrates each one through the machine's
//!   [`ppm_core::CapsuleRegistry`] and re-plants them as jobs on fresh
//!   deques. Only in-flight work is re-driven; recovery cost is bounded
//!   by what was lost, not by total work.
//! * **Replay** (the fallback whenever the persisted state is not fully
//!   rehydratable — see [`FallbackReason`]): the deques are scrubbed back
//!   to the §6.3 initial state and the computation re-runs from its root.
//!   Idempotence (write-after-read conflict freedom plus CAM test-and-set
//!   for once-only effects — the §5 discipline) guarantees effects
//!   already applied by the dead run are not applied again; replay costs
//!   work, never correctness.
//!
//! Either way the machine is flushed before recovery returns, so a second
//! crash during recovery recovers the same way.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm_core::persist::FrameDecodeError;
pub use ppm_core::registry::PComp;
use ppm_core::registry::RehydrateError;
use ppm_core::{run_capsule, Active, DoneFlag, InstallCtx, Machine, CORE_ID_FINALE};
use ppm_pm::{StatsSnapshot, Word};

use crate::capsules::{Sched, SchedConfig};
use crate::checkpoint::{checkpoint_seeds, CheckpointCtl, CheckpointPolicy, CheckpointSummary};
use crate::deque::check_invariant;
use crate::entry::{kind_of, pack, unpack, EntryKind, EntryVal};

/// How one processor's loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcOutcome {
    /// Saw the completion flag and halted.
    Halted,
    /// Hard-faulted.
    Dead,
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
        }
    }
}

/// The unified report of a [`crate::Runtime`] session: what the session
/// found on the machine, how it drove the computation, and the inner
/// run's statistics. Subsumes the pre-session `RunReport`-plus-
/// `RecoveryReport` pair.
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
    pub(crate) fn fresh_run(epoch: u64, run: RunReport) -> Self {
        SessionReport {
            epoch,
            mode: SessionMode::FreshRun,
            found_jobs: 0,
            found_locals: 0,
            found_taken: 0,
            live_restart_pointers: 0,
            resumed: 0,
            fallback_reason: None,
            checkpoint_resume: None,
            cluster: None,
            run: Some(run),
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
}

// ====================================================================
// Fresh runs
// ====================================================================

/// Fresh run of a persistent-capsule computation: the root thread — and
/// every continuation it forks — is denoted by persistent frame
/// addresses, so a crash of the whole process leaves a machine file that
/// a recovering session can *resume* instead of replaying from the root.
/// Checkpoints per `cfg.checkpoint`.
pub(crate) fn run_persistent_impl(
    machine: &Machine,
    pcomp: &PComp,
    cfg: &SchedConfig,
) -> RunReport {
    let done = DoneFlag::new(machine);
    let sched = Sched::new(machine, done, cfg);
    let finale = machine.setup_frame(CORE_ID_FINALE, &[done.addr() as Word]);
    let root_handle = pcomp(machine, finale);
    let ctl = CheckpointCtl::new(machine, sched.clone(), cfg.checkpoint.clone());
    launch_root(machine, &sched, root_handle, done, &ctl)
}

/// Runs the root frame `root_handle` on a *prebuilt* scheduler (so
/// callers can inspect or instrument its deques) until `done` is set.
/// No checkpoint policy applies here.
pub fn run_root_on(
    machine: &Machine,
    sched: &Arc<Sched>,
    root_handle: Word,
    done: DoneFlag,
) -> RunReport {
    let ctl = CheckpointCtl::new(machine, sched.clone(), CheckpointPolicy::Disabled);
    launch_root(machine, sched, root_handle, done, &ctl)
}

/// §6.3 initialization: the root processor's first deque entry is local
/// (it is running the root thread) and its restart pointer is the root
/// *frame address*, meaningful to any future process, so the thread
/// survives an immediate hard fault; all other processors start at
/// `findWork`.
fn launch_root(
    machine: &Machine,
    sched: &Arc<Sched>,
    root_handle: Word,
    done: DoneFlag,
    ctl: &Arc<CheckpointCtl>,
) -> RunReport {
    let root = machine.arena().resolve(root_handle).unwrap_or_else(|| {
        panic!(
            "root frame handle {root_handle} does not rehydrate — the PComp must \
             register its capsules before returning"
        )
    });
    machine
        .mem()
        .store(machine.proc_meta(0).active, root_handle);
    machine
        .mem()
        .store(sched.deques()[0].entry(0), pack(1, EntryVal::Local));

    let seats = (0..machine.procs())
        .map(|proc| match proc {
            0 => ProcSeat {
                proc,
                first: root,
                cursor: 0,
            },
            _ => ProcSeat::idle(sched, proc, 0),
        })
        .collect();
    run_attached_seats(machine, sched, seats, done, ctl)
}

/// One processor's seat in a parallel section: which model processor to
/// drive, its first capsule, and its starting pool cursor.
pub(crate) struct ProcSeat {
    /// The model processor index this OS thread embodies.
    pub proc: usize,
    /// First capsule of the thread's driver loop.
    pub first: Active,
    /// Starting pool-allocation cursor (0 fresh, the persisted watermark
    /// on resume).
    pub cursor: usize,
}

impl ProcSeat {
    /// A seat that starts at `findWork` — every processor without a
    /// thread of its own (§6.3).
    pub(crate) fn idle(sched: &Sched, proc: usize, cursor: usize) -> Self {
        ProcSeat {
            proc,
            first: Active::Sched(sched.find_work()),
            cursor,
        }
    }
}

/// The shared parallel section: spawns one OS thread per seat, joins
/// them, checks the deque invariant, and assembles the report. A
/// single-process session seats every model processor; a cluster worker
/// seats only its own shard's processors (its fault domain) while the
/// sibling processors are driven by other OS processes attached to the
/// same machine file. Only the seated processors' deques are
/// invariant-checked and rendered: remote deques are live in other
/// processes, so reading them here would race their owners.
pub(crate) fn run_attached_seats(
    machine: &Machine,
    sched: &Arc<Sched>,
    seats: Vec<ProcSeat>,
    done: DoneFlag,
    ctl: &Arc<CheckpointCtl>,
) -> RunReport {
    let seated: Vec<usize> = seats.iter().map(|s| s.proc).collect();
    let start = Instant::now();
    let outcomes: Vec<ProcOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = seats
            .into_iter()
            .map(|seat| {
                s.spawn(move || proc_loop(machine, sched, seat.proc, seat.first, seat.cursor, ctl))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("processor thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    // Post-run structural check (quiescent among the seated processors,
    // so exact for their deques).
    let mut deque_dump = Vec::with_capacity(seated.len());
    for p in &seated {
        let d = &sched.deques()[*p];
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

/// Entry counts found in the persisted deques, plus live restart pointers.
pub(crate) fn crash_forensics(
    machine: &Machine,
    sched: &Arc<Sched>,
) -> (usize, usize, usize, usize) {
    let (mut jobs, mut locals, mut taken) = (0usize, 0usize, 0usize);
    for d in sched.deques() {
        for i in 0..d.slots {
            match kind_of(machine.mem().load(d.entry(i))) {
                EntryKind::Job => jobs += 1,
                EntryKind::Local => locals += 1,
                EntryKind::Taken => taken += 1,
                EntryKind::Empty => {}
            }
        }
    }
    let live = (0..machine.procs())
        .filter(|p| machine.active_handle(*p) != 0)
        .count();
    (jobs, locals, taken, live)
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

/// Resumes a crashed run of a persistent-capsule computation from a
/// machine that came back from [`Machine::reopen`].
///
/// The caller must rebuild the machine-setup sequence of the crashed run
/// deterministically before/within `pcomp`: the same user
/// [`Machine::alloc_region`] calls in the same order, the same capsules
/// registered under the same ids, and the same `cfg`.
///
/// Recovery then:
///
/// 1. Returns immediately if the persisted completion flag is set.
/// 2. Otherwise harvests the crash frontier — every persisted `job` entry
///    and every running thread's restart pointer — rehydrating each
///    handle through the capsule registry, and re-plants the frontier as
///    jobs on freshly scrubbed deques. Processor pool cursors resume from
///    the persisted watermarks, above the dead run's live frames. The
///    resumed run executes only the threads that were in flight (plus
///    their joins up the spine), so recovery cost is proportional to
///    lost work, not total work.
/// 3. When the crash frontier is *not* fully resumable — a handle that
///    does not rehydrate, or one of the narrow ambiguous windows (a steal
///    mid-transfer, a fork mid-push, a restart pointer parked on a
///    scheduler-internal capsule) — resumes instead from the newest valid
///    **checkpoint record** (see [`crate::checkpoint`]): the record's
///    frontier is planted, pool cursors return to the recorded
///    watermarks, and replay distance is bounded by one checkpoint epoch.
///    [`SessionReport::checkpoint_resume`] carries the record identity
///    and the structured reason the crash frontier was rejected.
/// 4. Falls back to scrub-and-replay from the root only when no valid
///    checkpoint exists either (and then invalidates any stale records,
///    since the replay resets the pool cursors their frontiers live
///    above). [`SessionReport::fallback_reason`] says why, as a
///    structured [`FallbackReason`].
///
/// Either way every effect is applied exactly once: rehydrated capsules
/// are the same idempotent bodies, and replay relies on the §5 CAM
/// discipline. The machine is flushed before this returns.
pub(crate) fn recover_persistent_impl(
    machine: &Machine,
    pcomp: &PComp,
    cfg: &SchedConfig,
) -> SessionReport {
    // Replay the construction order of a fresh persistent run: completion
    // flag, scheduler deques, finale frame, then the computation's own
    // frames (all deterministic, all rewriting identical words).
    let done = DoneFlag::new(machine);
    let sched = Sched::new(
        machine,
        done,
        &SchedConfig {
            check_transitions: false,
            ..cfg.clone()
        },
    );
    let (found_jobs, found_locals, found_taken, live_restart_pointers) =
        crash_forensics(machine, &sched);
    machine
        .obs()
        .event(ppm_obs::TraceKind::Recovery, None, None, || {
            format!(
                "persistent recovery, epoch {}: {found_jobs} jobs, {found_locals} locals, \
                 {found_taken} taken, {live_restart_pointers} live restart pointers",
                machine.epoch()
            )
        });
    let finale = machine.setup_frame(CORE_ID_FINALE, &[done.addr() as Word]);
    let root_handle = pcomp(machine, finale);

    if done.is_set(machine.mem()) {
        return SessionReport {
            epoch: machine.epoch(),
            mode: SessionMode::AlreadyComplete,
            found_jobs,
            found_locals,
            found_taken,
            live_restart_pointers,
            resumed: 0,
            fallback_reason: None,
            checkpoint_resume: None,
            cluster: None,
            run: None,
        };
    }

    let harvest = harvest_frontier(machine, &sched);
    let mut checkpoint_resume = None;
    let (seeds, fallback_reason) = match harvest {
        Ok(seeds) if !seeds.is_empty() => (seeds, None),
        other => {
            let reason = match other {
                Ok(_) => FallbackReason::NoFrontier,
                Err(r) => r,
            };
            // The crash frontier is unresumable; try the newest durable
            // checkpoint before degrading to replay-from-root.
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
        // A root replay resets pool cursors to 0, so any stored
        // checkpoint frontier would dangle above reused words.
        let _ = machine.clear_checkpoint_records();
    }

    scrub_scheduler_state(machine, &sched, resume);
    if cfg.check_transitions {
        crate::capsules::install_transition_checker(machine, sched.deques());
    }

    let ctl = CheckpointCtl::new(machine, sched.clone(), cfg.checkpoint.clone());
    let run = if resume {
        plant_seeds(machine, &sched, &seeds);
        let seats = (0..machine.procs())
            .map(|p| ProcSeat::idle(&sched, p, machine.pool_watermark(p)))
            .collect();
        run_attached_seats(machine, &sched, seats, done, &ctl)
    } else {
        launch_root(machine, &sched, root_handle, done, &ctl)
    };
    machine
        .flush()
        .expect("flushing recovered machine to stable storage");
    SessionReport {
        epoch: machine.epoch(),
        mode: if resume {
            SessionMode::Resumed
        } else {
            SessionMode::Replayed
        },
        found_jobs,
        found_locals,
        found_taken,
        live_restart_pointers,
        resumed: if resume { seeds.len() } else { 0 },
        fallback_reason,
        checkpoint_resume,
        cluster: None,
        run: Some(run),
    }
}

fn proc_loop(
    machine: &Machine,
    sched: &Sched,
    p: usize,
    first: Active,
    pool_cursor: usize,
    ctl: &CheckpointCtl,
) -> ProcOutcome {
    let mut ctx = machine.ctx_with_pool_cursor(p, pool_cursor);
    let mut install = InstallCtx::new(machine.mem(), machine.proc_meta(p));
    let mut cur = first;
    let outcome = loop {
        match run_capsule(&mut ctx, machine.arena(), &mut install, &cur, Some(sched)) {
            Ok(Some(c)) => cur = c,
            Ok(None) => break ProcOutcome::Halted,
            Err(_) => break ProcOutcome::Dead,
        }
        // Capsule boundary: the committed state is self-consistent here,
        // so this is where checkpoint quiesces park.
        ctl.at_boundary(machine, p, &mut ctx);
    };
    ctl.proc_exit();
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
        // Proc 0 dies early; the root thread must be stolen and finished.
        let rt = session(
            4,
            FaultConfig::none().with_scheduled_hard_fault(0, 40),
            1024,
        );
        let (rep, marked) = run_markers(&rt, 32);
        assert!(rep.completed() && marked);
        assert_eq!(rep.dead_procs(), 1);
        assert_eq!(rep.run_report().outcomes[0], ProcOutcome::Dead);
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
