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
//! A whole-process kill on persistent memory is §6's fault of every
//! processor at once, and recovery is §6's restart: a fresh process
//! reopens the machine, and each processor resumes at its own persisted
//! restart pointer, its pool cursor at its watermark, over the deques and
//! the ring as the crash left them. A capsule is atomically idempotent
//! (§5), so re-running the one each processor was in is a soft fault's
//! restart; recovery costs the capsules in flight, not the work done.
//! `restart_seats` carries the argument, including the one processor a
//! soft fault never meets — one whose thread a survivor took over before
//! the crash, which restarts at `findWork`, or stays down while its
//! adopter still reads its words. Words that do not decode take one of
//! two fallbacks:
//!
//! * **Resume a checkpoint**: the newest valid record's frontier is
//!   planted instead ([`crate::checkpoint`]); replay is bounded by one
//!   checkpoint epoch.
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
use ppm_core::{run_capsule, Active, InstallCtx, Machine, CORE_ID_JOIN_CAM, NULL_HANDLE};
use ppm_obs::TraceKind;
use ppm_pm::service::{slot_claimant, slot_phase};
use ppm_pm::{Fault, FrameError, PmError, SlotPhase, StatsSnapshot, Word};

use crate::capsules::{Sched, SchedConfig};
use crate::checkpoint::{
    checkpoint_seeds, layout_moved, CheckpointCtl, CheckpointPolicy, CheckpointSummary,
};
use crate::cluster::{build_session, ClusterSession, ShardBuild};
use crate::deque::check_invariant;
use crate::entry::{kind_of, pack, tag_of, unpack, EntryKind, EntryVal};
use crate::service::{HeldClaims, ServiceConfig};
use crate::step::{SchedStep, Then};

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
    /// (compact form: `T` taken, `J` job, `L` local; the empty slots
    /// after them are left out).
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
    /// Every processor restarted at its own persisted restart pointer
    /// (§6), over the deques as the crash left them — or, when those did
    /// not decode, at a checkpoint record's frontier
    /// ([`SessionReport::checkpoint_resume`]).
    Resumed,
    /// The computation ran from its root: state was scrubbed because
    /// words did not decode, or the layout moved, with no checkpoint to
    /// fall back to ([`SessionReport::fallback_reason`]), or the dead
    /// process never published the root and recovery published it
    /// (`fallback_reason` is `None`).
    Replayed,
}

/// Why a recovery could not restart the processors where the crash left
/// them and fell back to a checkpoint or to replay-from-root. Carries the
/// structured rehydration failure — down to the typed
/// [`FrameDecodeError`] — when decoding is what failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FallbackReason {
    /// A persisted handle — a deque entry or a restart pointer — did not
    /// decode: a frame the capsule registry does not rehydrate, a
    /// scheduler record this codec refuses, or a `taken` entry naming no
    /// deque slot.
    Rehydrate {
        /// Which persisted word failed, with its location.
        what: String,
        /// The rehydration failure, carrying the typed decode error when
        /// the capsule's decode rejected the argument words.
        error: RehydrateError,
    },
    /// The dead run's construction carved its setup regions elsewhere
    /// than this one, so its ring, flag, deques and checkpoint frontier
    /// name other words ([`crate::checkpoint`]'s `layout_moved`).
    LayoutMoved {
        /// `None` when the service header's ring base disagrees
        /// (`recorded` and `found` are ring bases); the sequence number
        /// of the newest checkpoint record when its region cursor does
        /// (`recorded` and `found` are region cursors).
        seq: Option<u64>,
        /// What the dead run persisted.
        recorded: u64,
        /// What this construction carved.
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
            FallbackReason::Rehydrate { what, error } => write!(f, "{what}: {error}"),
            FallbackReason::LayoutMoved {
                seq: None,
                recorded,
                found,
            } => write!(
                f,
                "the service header's ring lies at word {recorded}, this \
                 construction's at {found}: the setup layout moved"
            ),
            FallbackReason::LayoutMoved {
                seq: Some(seq),
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
    /// What a [`SessionMode::Resumed`] run picked up where the crash left
    /// it (0 otherwise): the processors seated at a restart point other
    /// than `findWork` plus the `job` entries found — or, resuming a
    /// checkpoint, the record's frontier handles planted as jobs.
    pub resumed: usize,
    /// Why resume was not possible, when `mode` is
    /// [`SessionMode::Replayed`] (`None` when the dead process never
    /// published the root).
    pub fallback_reason: Option<FallbackReason>,
    /// Present when the crash state did not decode but the session
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
/// progressed when it was written, and why the crash state itself could
/// not be restarted.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointResume {
    /// Sequence number of the checkpoint record resumed from.
    pub seq: u64,
    /// Capsules the dead run had completed when the record was written
    /// (replay-distance accounting: the resumed run re-drives everything
    /// after this point).
    pub capsules_at_checkpoint: u64,
    /// Why the processors could not restart where the crash left them.
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

    /// Whether this session resumed where the crash left off (or from a
    /// checkpoint) instead of running or replaying from the root.
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
/// processor `p`, where `seat(p)` puts it ([`Seat`]); joins them, checks
/// the deque invariant, and assembles the report. A processor that stays
/// down is marked dead first, so no sibling waits on it. A processor's
/// panic is re-raised once every thread has been joined. A
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
    seat: impl Fn(usize) -> Seat,
    policy: &CheckpointPolicy,
) -> RunReport {
    let (sched, done) = (&session.sched, session.done);
    let policy = match seats.len() == machine.procs() {
        true => policy.clone(),
        false => CheckpointPolicy::disabled(),
    };
    let ctl = &CheckpointCtl::new(machine, sched.clone(), policy, seats.len());
    let starts: Vec<_> = (seats.clone())
        .map(|p| (p, seat(p).start(machine, sched, p)))
        .collect();
    let start = Instant::now();
    // Every thread is joined before the first panic is re-raised: a
    // panicking processor releases the barrier and stops its siblings
    // (`ExitGuard`), so the joins return.
    let joined: Vec<std::thread::Result<ProcOutcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = starts
            .into_iter()
            .map(|(p, start)| s.spawn(move || proc_loop(machine, sched, p, start, ctl)))
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

/// Where a processor starts a session's run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seat {
    /// `findWork` on an empty pool: a fresh run, or a replay from the root.
    Fresh,
    /// `at`, with the pool cursor at the processor's persisted watermark:
    /// §6's restart at the restart point, or `findWork` over a planted
    /// checkpoint frontier.
    Resume(Active),
    /// Not seated: its thread was taken over before the crash and its
    /// journal is still read ([`restart_seats`]). It counts as dead, as
    /// §6's hard-faulted processor does.
    Down,
}

impl Seat {
    /// Where processor `p` starts: its pool cursor and first capsule, or
    /// `None` when it stays down — marked dead here, before any sibling
    /// runs, so none waits on it.
    pub(crate) fn start(
        self,
        machine: &Machine,
        sched: &Sched,
        p: usize,
    ) -> Option<(usize, Active)> {
        match self {
            Seat::Fresh => Some((0, Active::Sched(sched.find_work()))),
            Seat::Resume(at) => Some((machine.pool_watermark(p), at)),
            Seat::Down => {
                machine.liveness().mark_dead(p);
                None
            }
        }
    }
}

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
        .filter(|p| machine.active_handle(*p) != NULL_HANDLE)
        .count();
    found
}

/// Scrubs scheduler state back to the §6.3 initial shape: all entries
/// empty with tag 0, `top = bot = 0`, restart pointers and journals
/// null. Pool watermarks are zeroed only when replaying from the root —
/// a run resumed from a checkpoint keeps allocating above its live
/// frames.
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

/// Plants checkpoint frontier handles as `job` entries, round-robin
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

/// Checks that every `job` entry's handle rehydrates and every `taken`
/// entry names a deque slot this machine has (a helper CAMs it).
fn entries_decode(machine: &Machine, sched: &Sched) -> Result<(), FallbackReason> {
    let mem = machine.mem();
    for d in sched.deques() {
        for i in 0..d.slots {
            let word = mem.load(d.entry(i));
            let (what, error) = match unpack(word) {
                (_, EntryVal::Job { handle }) => match machine.registry().rehydrate(mem, handle) {
                    Ok(_) => continue,
                    Err(error) => ("job", error),
                },
                (_, EntryVal::Taken { proc, slot, .. })
                    if sched.deques().get(proc).is_none_or(|t| slot >= t.slots) =>
                {
                    let addr = d.entry(i);
                    ("taken", FrameError::NotAFrame { addr, word }.into())
                }
                _ => continue,
            };
            let what = format!("{what} entry {i} of deque {}", d.owner);
            return Err(FallbackReason::Rehydrate { what, error });
        }
    }
    Ok(())
}

/// The victim of the local steal (lines 54-60) `step` is in, from
/// `clearAbove` to its check.
fn adopting(step: SchedStep) -> Option<usize> {
    use SchedStep::*;
    match step {
        ClearAboveRead(v, ..)
        | ClearAboveWrite(v, ..)
        | PopTopCamLocal(v, ..)
        | PopTopCheckLocal(v, ..)
        | HelpRead(v, Then::CheckLocal, ..)
        | HelpCamThief(v, _, _, Then::CheckLocal, ..)
        | HelpCamTop(v, _, Then::CheckLocal, ..) => Some(v),
        _ => None,
    }
}

/// Whether processor `p`'s thread was taken over before the crash, read
/// off its deque and restart point `at` ([`restart_seats`]).
fn taken_over(machine: &Machine, sched: &Sched, p: usize, at: Option<&Active>) -> bool {
    let (mem, d) = (machine.mem(), sched.deques()[p]);
    let kind = |i: usize| kind_of(mem.load(d.entry(i)));
    if (0..d.slots).any(|i| kind(i) == EntryKind::Local) {
        return false;
    }
    let bot = mem.load(d.bot) as usize;
    if bot < d.slots && kind(bot) == EntryKind::Taken {
        return true;
    }
    use SchedStep::*;
    match at {
        None => false,
        Some(Active::Frame(_)) => true,
        Some(Active::Sched(rec)) => match SchedStep::decode(rec) {
            Some(
                PushBottomCommit(..) | EntryCam(..) | EntryCheck(..) | DoneCam(..) | DoneCheck(..),
            ) => true,
            Some(PopBottomCam(owner, b, old, _)) => {
                let d = sched.deques()[owner];
                let w = (1..=d.slots).contains(&b).then(|| mem.load(d.entry(b - 1)));
                w.is_some_and(|w| {
                    kind_of(w) == EntryKind::Taken && tag_of(w) == tag_of(old).wrapping_add(2)
                })
            }
            _ => false,
        },
    }
}

/// §6's restart of every processor after a whole-machine crash: each
/// one's seat, or why its restart pointer does not decode.
///
/// A capsule is atomically idempotent (§5), so resuming at the restart
/// pointer re-runs one capsule from its start — a soft fault's restart,
/// every processor at once — with the pool cursor at the watermark,
/// above every frame the processor installed (a null pointer restarts at
/// `findWork`). The deques stay as the crash left them: a steal whose
/// victim entry reads `taken` while its seat is `empty` finishes when
/// its thief restarts (the handle is in the thief's record), and a
/// `pushBottom` mid-commit re-runs its commit (Lemma A.6).
///
/// The one state a soft fault never meets is a processor that
/// hard-faulted *before* the crash and whose thread a survivor took
/// over: the adopter turned its `local` entry into `taken` at tag + 2,
/// jumped to its restart pointer (for a record, a handle into the dead
/// processor's journal) and reads that pointer again at its check.
/// Restarted at its stale pointer the dead processor would run the
/// thread twice, so it restarts at `findWork` instead (§6.3: a
/// processor with no thread), its `bot` moved off the `taken` entry
/// ([`reseat_bottom`]). It stays down ([`Seat::Down`]) only while its
/// adopter still reads its words or its death: some restarting
/// processor's pointer is its journal pointer (the adopter runs the
/// record there, and installs its next one in its own journal); an
/// adoption of it is in flight — some restart point is a local steal's
/// step on it, from `clearAbove` to its check, and the adopter finishes
/// against its frozen words; or a ring slot is still `CLAIMED` in its
/// name (the adopter's `service/entry` re-claims a slot only from a dead
/// claimant). A recovery after the adopter moved on revives it.
///
/// Its words show the takeover — no `local` entry is left (an adoption
/// takes the only one, or the lower of a commit's two and clears the
/// upper) — and its bottom entry is `taken` (a running thread's, or a
/// won steal's or pull's seat), or its restart point holds a thread (a
/// frame, `pushBottom/commit`, the service's entry or done steps,
/// installed only under a `local`), or it is `popBottom/cam` whose entry
/// reads `taken` at tag + 2 (Lemma A.10's adoption before the owner
/// moved `bot`). Any other pointer without a `local` has no thread to
/// lose and restarts. A taken-over processor's own pointer is never run
/// again (its adopter runs a copy), so it names no journal.
pub(crate) fn restart_seats(machine: &Machine, sched: &Sched) -> Vec<Result<Seat, FallbackReason>> {
    let (arena, procs) = (machine.arena(), machine.procs());
    let points: Vec<Result<Option<Active>, FallbackReason>> = (0..procs)
        .map(|p| match machine.active_handle(p) {
            NULL_HANDLE => Ok(None),
            handle => sched.restart_point(p, arena).map(Some).ok_or_else(|| {
                let at = format!("restart pointer {handle:#x} of processor {p}");
                let (what, error) = match arena.try_resolve(handle) {
                    Err(error) => (at, error),
                    // A journal pointer — the word holds its own address
                    // — whose live record no step of this machine decodes.
                    Ok(rec) => {
                        let (addr, what) = (handle as usize, format!("{rec:?} behind {at}"));
                        (
                            what,
                            FrameError::NotAFrame {
                                addr,
                                word: machine.mem().load(addr),
                            }
                            .into(),
                        )
                    }
                };
                FallbackReason::Rehydrate { what, error }
            }),
        })
        .collect();
    let taken: Vec<bool> = (points.iter().enumerate())
        .map(|(p, at)| matches!(at, Ok(at) if taken_over(machine, sched, p, at.as_ref())))
        .collect();
    let victims: Vec<usize> = points
        .iter()
        .filter_map(|at| match at {
            Ok(Some(Active::Sched(rec))) => SchedStep::decode(rec).and_then(adopting),
            _ => None,
        })
        .collect();
    let read: Vec<Word> = (0..procs)
        .filter(|&q| !taken[q])
        .map(|q| machine.active_handle(q))
        .collect();
    let claims: Vec<usize> = sched.injector().map_or(Vec::new(), |q| {
        (0..q.slots())
            .map(|i| machine.mem().load(q.state_addr(i)))
            .filter(|&w| slot_phase(w) == Some(SlotPhase::Claimed))
            .map(slot_claimant)
            .collect()
    });
    let find_work = Seat::Resume(Active::Sched(sched.find_work()));
    points
        .into_iter()
        .enumerate()
        .map(|(p, at)| {
            let at = at?;
            if victims.contains(&p) {
                return Ok(Seat::Down);
            }
            if !taken[p] {
                return Ok(at.map_or(find_work, Seat::Resume));
            }
            let journal = machine.proc_meta(p).active as Word;
            let held = read.contains(&journal) || claims.contains(&p);
            match !held && reseat_bottom(machine, sched, p) {
                true => Ok(find_work),
                false => Ok(Seat::Down),
            }
        })
        .collect()
}

/// [`restart_seats`] for a process with no fallback to take (a lone
/// cluster worker): a restart pointer that does not decode restarts at
/// `findWork`.
pub(crate) fn restart_seats_or_find_work(machine: &Machine, sched: &Sched) -> Vec<Seat> {
    let find_work = Seat::Resume(Active::Sched(sched.find_work()));
    (restart_seats(machine, sched).into_iter())
        .map(|seat| seat.unwrap_or(find_work))
        .collect()
}

/// Restarts taken-over processor `p` at `findWork` on an empty bottom
/// entry, as a processor with no thread sits, or says it cannot (no
/// empty entry to sit on). First `findWork` is journaled as its restart
/// point, so a crash from here on never finds the stale pointer again;
/// then its `bot` moves off the `taken` entry its adopter left there onto
/// the entry above, which the adoption's `clearAbove` emptied (a crash
/// between the two repeats the move). The stolen entries stay `taken` and
/// `top` stays put, so no CAM a helper or thief read earlier can succeed
/// twice.
fn reseat_bottom(machine: &Machine, sched: &Sched, p: usize) -> bool {
    let (mem, d) = (machine.mem(), sched.deques()[p]);
    let kind = |i: usize| (i < d.slots).then(|| kind_of(mem.load(d.entry(i))));
    let bot = mem.load(d.bot) as usize;
    let seat = bot + usize::from(kind(bot) == Some(EntryKind::Taken));
    if kind(seat) != Some(EntryKind::Empty) {
        return false;
    }
    InstallCtx::new(mem, machine.proc_meta(p)).install_sched_uncosted(mem, &sched.find_work());
    if seat != bot {
        mem.store(d.bot, seat as Word);
    }
    true
}

/// Recovers a machine that came back from [`Machine::reopen`], a
/// `Runtime` file or a cluster file alike, up to its run: the session,
/// the report so far, and every processor's seat — `None` when the
/// computation is already complete. `shards`, `cfg`, `ring` and `build`
/// must replay the crashed session's construction exactly (same
/// `alloc_region` calls in the same order, same capsules under the same
/// ids). In order:
///
/// 1. Replay the session construction; count what the crash left
///    (`found_*`). A ring with no header was never handed to a
///    processor: publish its job set, and report the run
///    [`SessionMode::Replayed`]. A moved layout ([`layout_moved`]:
///    the newest checkpoint record's region cursor, or the service
///    header's ring base, is not this construction's) means nothing the
///    dead run wrote is where this construction looks: clear the flag,
///    publish a fresh ring and replay from the root (step 4).
/// 2. Done flag set, or a ring that closing admission finds drained (a
///    crash after the last done CAM, before the flag) →
///    [`SessionMode::AlreadyComplete`].
/// 3. §6's restart ([`restart_seats`]): if every deque entry and restart
///    pointer decodes, each processor is seated at its own restart point;
///    one whose thread was taken over restarts at `findWork`, or stays
///    down while its adopter still reads its words.
/// 4. Otherwise plant the newest valid checkpoint record's frontier on
///    scrubbed deques ([`SessionReport::checkpoint_resume`]; a cluster
///    file has none), or replay from the root
///    ([`SessionReport::fallback_reason`]).
///
/// * **The ring.** `InjectorQueue::scavenge` still reclaims torn staging
///   slots and published slots whose checksum fails, but a restart keeps
///   every `CLAIMED` and `RUNNING` slot: its claimant, or its thread's
///   adopter, restarts at its own pull record, entry frame or job, and a
///   republish would hand the job to a second puller.
/// * **Shards.** A cluster file needs no shard-level step: a seat is read
///   from the processor's own deque and restart pointer, the same in
///   every shard, and recovery seats every processor in one process. A
///   shard adopted before the crash has its processors taken over, so
///   they restart at `findWork`; leases steer only adoption between live
///   workers.
/// * **Figure 4's checker** may stay on across the restart: the restart
///   stores no deque entry, so every transition it sees is a capsule's,
///   and a restarted capsule repeats its first attempt's stores — the
///   soft-fault re-run the checker admits. It is installed after the
///   fallbacks' scrub and after a taken-over processor's `bot` moved,
///   stores that are maintenance.
pub(crate) fn prepare_recovery(
    machine: &Machine,
    shards: usize,
    cfg: &SchedConfig,
    ring: ServiceConfig,
    build: &ShardBuild,
) -> io::Result<(ClusterSession, SessionReport, Option<Vec<Seat>>)> {
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
    let (q, page) = (&session.service, machine.mem().control());
    let latest = machine.latest_checkpoint_record();
    let moved = layout_moved(machine, Some(q.as_ref()), latest.as_ref());
    let unpublished = page.service_header().is_none();
    if moved.is_some() || unpublished {
        machine.mem().store(session.done.addr(), 0);
        q.clear();
        session.publish(machine)?;
    }
    if session.done.is_set(machine.mem()) || q.close(session.done)? {
        machine.flush()?;
        let report = SessionReport {
            mode: SessionMode::AlreadyComplete,
            ..found
        };
        return Ok((session, report, None));
    }

    let sched = &session.sched;
    let restart: Result<Vec<Seat>, _> = moved.map_or(Ok(()), Err).and_then(|()| {
        entries_decode(machine, sched)?;
        restart_seats(machine, sched).into_iter().collect()
    });
    let (seats, report, held) = match restart {
        Ok(seats) => {
            let find_work = Active::Sched(sched.find_work());
            let in_flight = |seat: &&Seat| matches!(seat, Seat::Resume(at) if *at != find_work);
            // A root this recovery published has run nothing yet: every
            // processor starts at `findWork` and the run is a replay.
            let mode = match unpublished {
                true => SessionMode::Replayed,
                false => SessionMode::Resumed,
            };
            let report = SessionReport {
                mode,
                resumed: seats.iter().filter(in_flight).count() + found.found_jobs,
                ..found
            };
            (seats, report, HeldClaims::All)
        }
        Err(reason) => fall_back(machine, &session, reason, found),
    };
    let touched = q.scavenge(held);
    machine.obs().event(TraceKind::Recovery, None, None, || {
        format!("injector ring scavenged: {touched} slots normalized")
    });
    // A ring the normalization emptied (its last published slot failed
    // its checksum and was dropped) has no done CAM left to run the drain
    // rule: evaluate it here, once.
    q.settle(session.done);
    if cfg.check_transitions {
        crate::capsules::install_transition_checker(machine, session.sched.deques());
    }
    Ok((session, report, Some(seats)))
}

/// Step 6 of [`prepare_recovery`]: the newest valid checkpoint record's
/// frontier, planted on scrubbed deques, or a replay from the root.
fn fall_back(
    machine: &Machine,
    session: &ClusterSession,
    reason: FallbackReason,
    found: SessionReport,
) -> (Vec<Seat>, SessionReport, HeldClaims) {
    let record = machine
        .latest_checkpoint_record()
        .and_then(|rec| checkpoint_seeds(machine, &rec).map(|s| (rec, s)));
    let procs = machine.procs();
    let Some((rec, seeds)) = record else {
        let _ = machine.clear_checkpoint_records();
        scrub_scheduler_state(machine, &session.sched, false);
        let report = SessionReport {
            mode: SessionMode::Replayed,
            fallback_reason: Some(reason),
            ..found
        };
        return (vec![Seat::Fresh; procs], report, HeldClaims::Nothing);
    };
    // Pool cursors return to the checkpoint's stable watermarks; the
    // resumed run re-allocates (and re-drives) only the span after the
    // checkpoint.
    for (p, wm) in rec.watermarks.iter().enumerate() {
        machine.mem().store(machine.proc_meta(p).watermark, *wm);
    }
    scrub_scheduler_state(machine, &session.sched, true);
    plant_seeds(machine, &session.sched, &seeds);
    let report = SessionReport {
        mode: SessionMode::Resumed,
        resumed: seeds.len(),
        checkpoint_resume: Some(CheckpointResume {
            seq: rec.seq,
            capsules_at_checkpoint: rec.capsules,
            crash_frontier: reason,
        }),
        ..found
    };
    let find_work = Seat::Resume(Active::Sched(session.sched.find_work()));
    (vec![find_work; procs], report, HeldClaims::Running)
}

/// Recovers a machine ([`prepare_recovery`]) and runs it to completion
/// on every processor the recovery seats. The machine is flushed before
/// this returns, so a second crash during recovery recovers the same
/// way.
pub(crate) fn recover(
    machine: &Machine,
    shards: usize,
    cfg: &SchedConfig,
    ring: ServiceConfig,
    build: &ShardBuild,
) -> io::Result<(ClusterSession, SessionReport)> {
    let (session, report, seats) = prepare_recovery(machine, shards, cfg, ring, build)?;
    let Some(seats) = seats else {
        return Ok((session, report));
    };
    let every = 0..machine.procs();
    let run = run_attached_seats(machine, &session, every, |p| seats[p], &cfg.checkpoint);
    machine.flush()?;
    let report = SessionReport {
        run: Some(run),
        ..report
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
    start: Option<(usize, Active)>,
    ctl: &CheckpointCtl,
) -> ProcOutcome {
    let _exit = ExitGuard { sched, ctl };
    let Some((cursor, mut cur)) = start else {
        return ProcOutcome::Dead;
    };
    let mut ctx = machine.ctx_with_pool_cursor(p, cursor);
    let mut install = InstallCtx::new(machine.mem(), machine.proc_meta(p));
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
            FallbackReason::LayoutMoved {
                seq: None,
                recorded: 4096,
                found: 4160,
            },
            FallbackReason::LayoutMoved {
                seq: Some(3),
                recorded: 5000,
                found: 5064,
            },
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
