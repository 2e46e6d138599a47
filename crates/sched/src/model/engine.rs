//! The Figure 3 scheduler, checked as it runs: a [`ppm_check::Model`]
//! whose transitions are capsules of the real engine.
//!
//! A state is an action prefix over [`SimSched`]: [`EngineAction::Step`]
//! runs one capsule of the production code (`Sched::run`, the frames,
//! the service chain) on a processor, [`EngineAction::Crash`] kills one
//! at a capsule boundary, and [`EngineAction::Restart`] kills every
//! processor at its boundary and recovers the machine the way a reopening
//! process does — the same words ([`Machine::restarted`]) re-seated
//! through `driver`'s recovery, each processor at its restart point or
//! down. A state is restored by replaying its prefix on a fresh, small,
//! volatile machine — nothing is snapshotted, so pool cursors, the
//! write-after-read tracker, contention counters and the liveness oracle
//! need no capture. Its visited-set key is [`SimSched::fingerprint`] (the
//! engine's own words, each processor's next capsule and outcome) folded
//! with the leaves' run counts and the faults spent. Each state caches
//! what its replay saw — the runnable processors, the fault count, the
//! invariant verdict and whether it is a goal — so an edge costs one
//! replay.
//!
//! ## Scopes
//!
//! Fixed here, like the fault budget (P = 2; two faults, of which at most
//! one boundary crash, so a processor always survives the crashes):
//!
//! * [`EngineModel::fork`]`(k)` — [`SimSched::new_persistent`], a
//!   `Runtime` session whose root is `map_grain` over `k` leaves at grain
//!   1: the ring pull race, fork, steal, join, local adoption and the
//!   done chain (the Lemma A.10 window lies inside one capsule; see
//!   Mutants). Each processor's pool holds two nested forks, not three:
//!   over four leaves (`ppm-check`'s scope) a processor that runs the
//!   root's two subtrees one after the other completes only because the
//!   first one's join freed its words (`ppm_pm::proc`), so every
//!   explored schedule runs on reused pool words — a thief in flight
//!   meets a recycled handle, an adopter a recycled frame — and one that
//!   exhausts a pool stops its processor and fails progress.
//! * [`EngineModel::service`] — [`SimSched::new_service`] with a 2-slot
//!   ring, two published one-leaf jobs and admission closed: two claim
//!   chains, their adoption, and the drain rule.
//!
//! The attempt counter `n` is folded modulo the ring's slot count (see
//! [`SimSched::fingerprint`]); without the fold a spinning thief makes
//! the space infinite. The fold is exact only because at P = 2
//! `pick_victim` is forced and `backoff` only sleeps: a P = 3 scope would
//! need the victim draw as an action, and none is defined.
//!
//! ## Properties
//!
//! * **W2 NoDoubleExecution** — each leaf's body runs at most once.
//!   Leaves count their runs, across a restart too; with boundary faults
//!   only, a second run is a double execution.
//! * **Every step is checked** — the Figure 4 transition checker is on
//!   (`check_transitions`) and the WS-deque invariant
//!   ([`crate::deque::check_invariant`]) holds on every deque after every
//!   step. A panic inside a replayed step — a Figure 4 or strict
//!   write-after-read violation — is caught and becomes a violation with
//!   its trace.
//! * **Completion at quiescence** ([`Model::on_terminal`]) — when no
//!   processor can run, the done flag is set, every leaf ran exactly
//!   once and every ticket is `DONE`.
//! * **W5 Progress** ([`Model::goal`]) — from every reachable state a
//!   complete one (the three facts above) is reachable. The explorer
//!   checks it after an exhausted run; a truncated run reports progress
//!   unchecked.
//!
//! ## Mutants
//!
//! A [`Mutant`] swaps one step's arm through a [`Scheduler`] wrapper that
//! delegates every other step to `Sched::run`; the production code is
//! not edited for them. Each reintroduces one bug the faithful engine
//! guards against, and `tests/model_check.rs` pins the counterexample
//! the explorer finds for each.
//!
//! A bug inside one capsule is out of reach: crashes land only at
//! capsule boundaries and a step runs a capsule whole, so, e.g., a join
//! arrival that reads its cell before its CAM explores exactly like the
//! faithful one. So does most of join-time reclamation's rule: a join
//! whose first arriver has committed leaves nothing of the subtree in
//! use, so reclaiming on a left-token continue, or past a changed stamp,
//! is harmful only while the first arriver sits between its CAM and its
//! read (or died there), and an inner `fork_many` cell registered as a
//! mark needs a `fork_many` whose leaves allocate. `tests/join_reclaim.rs`
//! pins those three mutants with scheduled mid-capsule hard faults and a
//! P = 1 `fork_many`. `tests/capsule_forms.rs` catches that mutant with soft
//! faults instead (see `ppm_core::join`), and a `popBottom/cam` that
//! reads before its CAM is refused by the write-after-read check
//! (`crate::capsules`' tests).
//!
//! The Lemma A.10 window is such a case since `popBottom`'s check joined
//! its CAM: the owner must die between the two, inside the capsule. The
//! faithful engine is checked there by the named `SimSched` test
//! `tests/capsule_forms.rs::a_hard_fault_between_pop_bottoms_cam_and_its_read_runs_the_thread_once`,
//! a scheduled mid-capsule hard fault. `drop-lemma-a10` keeps the
//! explorer's reach by turning that window into a boundary: its
//! `popBottom/cam` ends a capsule after the CAM and re-runs itself, as a
//! restart would, and only then drops the arm.
//!
//! Two mutants break the restart rather than a step:
//! `restart-at-find-work` seats a processor whose restart point is a
//! scheduler record at `findWork`, as recovery did before it restarted
//! records, so the record's effects are lost; `restart-adopted` restarts
//! every processor at the pointer the crash left, a taken-over one too,
//! so the adopted thread runs twice.
//!
//! `specs/tla/FrontierAdoption.tla` states the same protocol abstractly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ppm_check::Model;
use ppm_core::dsl::{self, CapsuleDef, CapsuleSet, Span};
use ppm_core::registry::PComp;
use ppm_core::{Active, ContArena, Machine, Next, Persist, SchedRecord, Scheduler};
use ppm_pm::service::slot_phase;
use ppm_pm::{
    FaultConfig, PersistentMemory, PmConfig, PmResult, ProcCtx, ServiceState, SlotPhase, Word,
};

use crate::capsules::{go, Sched, SchedConfig};
use crate::checkpoint::CheckpointPolicy;
use crate::cluster::ShardBuild;
use crate::deque::check_invariant;
use crate::driver::{runtime_build, Seat};
use crate::entry::{kind_of, pack, tag_of, EntryKind, EntryVal};
use crate::service::ServiceConfig;
use crate::sim::SimSched;
use crate::step::{SchedStep, SchedStep::*, Then};

/// Processors in every scope.
const PROCS: usize = 2;
/// Faults the explorer may inject: boundary crashes and restarts.
const FAULT_BUDGET: u8 = 2;
/// Boundary crashes among them: fewer than `PROCS`, so one processor
/// always survives until a restart.
const CRASH_BUDGET: u8 = 1;
/// Persistent words of the replay machine (everything is fingerprinted).
const WORDS: usize = 1 << 10;
/// Frame-pool words per processor: two nested forks' worth (27 words a
/// fork over these leaves) and change. The third fork of a four-leaf
/// root fits only in words a join freed.
const POOL_WORDS: usize = 64;
/// Frame-pool words per processor when the prefix restarts: a restart
/// forfeits the join-time reclaims of the forks open at the crash (the
/// marks are the processor's, not the machine's), so the pools hold two
/// nested forks more.
const RESTART_POOL_WORDS: usize = 2 * POOL_WORDS;
/// Deque slots per processor: the forks of three leaves, their steals
/// and the clear-above slot.
const DEQUE_SLOTS: usize = 8;

/// One transition of the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineAction {
    /// Run one capsule on processor `p` ([`SimSched::step`]).
    Step(usize),
    /// Kill processor `p` at its capsule boundary ([`SimSched::crash`]).
    Crash(usize),
    /// Kill every processor at its boundary and recover the machine on
    /// the same words, as a reopening process does.
    Restart,
}

/// What the explorer runs: a `Runtime` session whose root is
/// `map_grain` over `leaves` leaves, or two one-leaf service jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    Fork { leaves: usize },
    Service,
}

/// A deliberately broken step arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutant {
    /// `popBottom/cam` without the Lemma A.10 arm: an adopter that
    /// finds its own `Taken` one tag on abandons the claimed thread. The
    /// faithful capsule opens that window only between its CAM and its
    /// read, where no boundary crash lands, so the mutant also ends a
    /// capsule after its CAM (see the module docs).
    DropLemmaA10,
    /// `popTop/read` ignores `isLive`: a thief adopts a live owner's
    /// `Local`, and both run the thread.
    AdoptLiveLocal,
    /// The pull chain claims before it seats (`pull/read → pull/cam`, a
    /// won `pull/check` seats, then jumps): a puller dead between its won
    /// CAM and the seat leaves a claimed job nothing can adopt.
    ClaimBeforeSeat,
    /// `service/done/cam` stores the done flag first and re-installs
    /// itself: a crash between the store and the CAM halts the survivors
    /// on an unfinished ticket.
    DoneEarly,
    /// `popBottom` as Figure 3 has it: a miss on `Taken` — at
    /// `clearBottom`'s or `popBottom/read`'s read, or at `popBottom/cam` —
    /// steals without helping, so a thief dead before its help capsules
    /// leaves the survivor spinning.
    VictimNeverHelps,
    /// A restart seats a processor whose restart point is a scheduler
    /// record at `findWork`: the record's effects are lost — a skipped
    /// `clearBottom` leaves its ended thread's `Local` in the deque.
    RestartAtFindWork,
    /// A restart re-seats every processor at the pointer the crash left,
    /// one whose thread was taken over too: it runs the thread its
    /// adopter runs.
    RestartAdopted,
}

impl Mutant {
    /// Every mutant.
    pub const ALL: [Mutant; 7] = [
        Mutant::DropLemmaA10,
        Mutant::AdoptLiveLocal,
        Mutant::ClaimBeforeSeat,
        Mutant::DoneEarly,
        Mutant::VictimNeverHelps,
        Mutant::RestartAtFindWork,
        Mutant::RestartAdopted,
    ];

    /// The mutant's name in `ppm-check` output.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::DropLemmaA10 => "drop-lemma-a10",
            Mutant::AdoptLiveLocal => "adopt-live-local",
            Mutant::ClaimBeforeSeat => "claim-before-seat",
            Mutant::DoneEarly => "done-early",
            Mutant::VictimNeverHelps => "victim-never-helps",
            Mutant::RestartAtFindWork => "restart-at-find-work",
            Mutant::RestartAdopted => "restart-adopted",
        }
    }
}

/// A state: the prefix that reaches it and what its replay saw.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EngineSt {
    prefix: Vec<EngineAction>,
    runnable: Vec<usize>,
    crashes: u8,
    faults: u8,
    verdict: Result<(), String>,
    complete: Result<(), String>,
    fingerprint: u64,
    at: Vec<&'static str>,
    runs: Vec<u32>,
}

impl EngineSt {
    /// Whether the computation is complete here (the explorer's goal).
    pub fn is_complete(&self) -> bool {
        self.complete.is_ok()
    }
}

impl std::fmt::Debug for EngineSt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (p, at) in self.at.iter().enumerate() {
            write!(f, "p{p} {at}, ")?;
        }
        write!(f, "runs {:?}", self.runs)
    }
}

/// The engine under one scope, optionally with one mutant.
#[derive(Clone, Copy, Debug)]
pub struct EngineModel {
    scope: Scope,
    mutant: Option<Mutant>,
}

impl EngineModel {
    /// The `engine-fork` scope over `leaves` leaves.
    pub fn fork(leaves: usize) -> Self {
        EngineModel {
            scope: Scope::Fork { leaves },
            mutant: None,
        }
    }

    /// The `engine-service` scope.
    pub fn service() -> Self {
        EngineModel {
            scope: Scope::Service,
            mutant: None,
        }
    }

    /// This scope with `mutant`'s arm swapped in.
    pub fn mutated(self, mutant: Mutant) -> Self {
        EngineModel {
            mutant: Some(mutant),
            ..self
        }
    }

    fn leaves(&self) -> usize {
        match self.scope {
            Scope::Fork { leaves } => leaves,
            Scope::Service => 2,
        }
    }

    fn cfg() -> SchedConfig {
        SchedConfig {
            deque_slots: DEQUE_SLOTS,
            check_transitions: true,
            checkpoint: CheckpointPolicy::Disabled,
            ..SchedConfig::default()
        }
    }

    /// The root of the `engine-fork` scope: `map_grain` over `leaves`
    /// counting leaves.
    fn fork_root(leaves: usize, runs: &Arc<Vec<AtomicU32>>) -> PComp {
        let runs = runs.clone();
        Arc::new(move |m, finale| {
            let mut set = CapsuleSet::new(m);
            let leaf = counting_leaf(&mut set, runs.clone());
            let split = set.map_grain("engine/split", 1, leaf);
            let all = Span {
                env: 0u64,
                lo: 0,
                hi: leaves,
            };
            split.setup(m, &all, dsl::K(finale)).0
        })
    }

    /// The service scope's ring.
    fn ring() -> ServiceConfig {
        ServiceConfig::default().with_slots(2).with_job_words(24)
    }

    /// The simulator of this scope on `machine`, its leaves counting into
    /// `runs`.
    fn build<'m>(&self, machine: &'m Machine, runs: &Arc<Vec<AtomicU32>>) -> SimSched<'m> {
        let cfg = Self::cfg();
        let sim = match self.scope {
            Scope::Fork { leaves } => {
                SimSched::new_persistent(machine, &Self::fork_root(leaves, runs), &cfg)
            }
            Scope::Service => {
                let (sim, queue) = SimSched::new_service(machine, &cfg, Self::ring(), None);
                let leaf = counting_leaf(&mut CapsuleSet::new(machine), runs.clone());
                for j in 0..2 {
                    let mut args = Vec::new();
                    Span {
                        env: 0u64,
                        lo: j,
                        hi: j + 1,
                    }
                    .encode(&mut args);
                    queue.submit(leaf.id(), &args).expect("a free slot");
                }
                machine
                    .mem()
                    .control()
                    .write_service_header(&queue.header(ServiceState::Draining))
                    .expect("closing admission");
                sim
            }
        };
        self.runner(sim)
    }

    /// The simulator over `machine` recovered after a restart: the
    /// crashed words re-seated through the recovery path, with this
    /// scope's restart mutant, if any, bending the seats.
    fn recover<'m>(&self, machine: &'m Machine, runs: &Arc<Vec<AtomicU32>>) -> SimSched<'m> {
        // The construction `build` replays: the same regions, and the
        // same capsules under the same ids (the service scope registers
        // its leaf right after the session's, as `build` did).
        let (ring, build) = match self.scope {
            Scope::Fork { leaves } => (
                ServiceConfig::SESSION,
                runtime_build(&Self::fork_root(leaves, runs)),
            ),
            Scope::Service => {
                let runs = runs.clone();
                let build: ShardBuild = Arc::new(move |m, _, done| {
                    counting_leaf(&mut CapsuleSet::new(m), runs.clone());
                    done
                });
                (Self::ring(), build)
            }
        };
        let mutant = self.mutant;
        // The pointers the crash left: a journal record is read now,
        // before recovery journals `findWork` over it, a frame once the
        // replayed construction has registered its capsule.
        let handles: Vec<Word> = (0..PROCS).map(|p| machine.active_handle(p)).collect();
        let resolve = |h| machine.arena().try_resolve(h).ok();
        let records: Vec<Option<Active>> = handles.iter().map(|&h| resolve(h)).collect();
        let reseat = |sched: &Sched, p: usize, seat: Seat| match (mutant, seat) {
            (Some(Mutant::RestartAtFindWork), Seat::Resume(Active::Sched(_))) => {
                Seat::Resume(Active::Sched(sched.find_work()))
            }
            (Some(Mutant::RestartAdopted), _) => {
                (records[p].or_else(|| resolve(handles[p]))).map_or(seat, Seat::Resume)
            }
            _ => seat,
        };
        let sim = SimSched::recovered(machine, &Self::cfg(), ring, &build, reseat)
            .expect("a volatile recovery does no I/O");
        self.runner(sim)
    }

    /// `sim` running this scope's mutant arm, if any.
    fn runner<'m>(&self, sim: SimSched<'m>) -> SimSched<'m> {
        match self.mutant {
            None => sim,
            Some(mutant) => sim.with_runner(|sched| Arc::new(MutantSched { sched, mutant })),
        }
    }

    /// Replays `prefix` on a fresh machine and records what it reaches.
    fn replay(&self, prefix: Vec<EngineAction>) -> EngineSt {
        let pool = match prefix.contains(&EngineAction::Restart) {
            true => RESTART_POOL_WORDS,
            false => POOL_WORDS,
        };
        let machine = Machine::with_pool_words(PmConfig::parallel(PROCS, WORDS), pool);
        let runs: Arc<Vec<AtomicU32>> =
            Arc::new((0..self.leaves()).map(|_| AtomicU32::new(0)).collect());
        let count =
            |fault: fn(&EngineAction) -> bool| prefix.iter().filter(|a| fault(a)).count() as u8;
        let mut st = EngineSt {
            crashes: count(|a| matches!(a, EngineAction::Crash(_))),
            faults: count(|a| !matches!(a, EngineAction::Step(_))),
            prefix,
            runnable: Vec::new(),
            verdict: Ok(()),
            complete: Ok(()),
            fingerprint: 0,
            at: vec!["panicked"; PROCS],
            runs: Vec::new(),
        };
        let seen = catch_unwind(AssertUnwindSafe(|| {
            let prefix = std::mem::take(&mut st.prefix);
            self.play(&machine, &runs, false, &prefix, &mut st);
            st.prefix = prefix;
        }));
        if let Err(panic) = seen {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("a non-string panic");
            st.verdict = Err(format!("a step panicked: {why}"));
            st.complete = Err("a step panicked".into());
            st.runnable.clear();
        }
        st.runs = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        st
    }

    /// Runs `actions` on this scope over `machine` — built fresh, or
    /// `recovering` a restarted machine — and records what the state
    /// after the last one holds in `st`. A restart drops the simulator
    /// (every processor stops at its boundary) and goes on over the same
    /// words in a new one.
    fn play(
        &self,
        machine: &Machine,
        runs: &Arc<Vec<AtomicU32>>,
        recovering: bool,
        actions: &[EngineAction],
        st: &mut EngineSt,
    ) {
        let mut sim = match recovering {
            true => self.recover(machine, runs),
            false => self.build(machine, runs),
        };
        let restart = actions.iter().position(|a| *a == EngineAction::Restart);
        let (now, later) = actions.split_at(restart.unwrap_or(actions.len()));
        for a in now {
            match *a {
                EngineAction::Step(p) => drop(sim.step(p)),
                EngineAction::Crash(p) => sim.crash(p),
                EngineAction::Restart => unreachable!("split off above"),
            }
        }
        if let Some((_, later)) = later.split_first() {
            drop(sim);
            let next = machine.restarted(FaultConfig::none());
            return self.play(&next, runs, true, later, st);
        }
        let counts: Vec<u32> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        st.verdict = safety(&sim, machine.mem(), &counts);
        st.complete = completion(&sim, machine.mem(), &counts);
        let seen = counts.iter().fold(sim.fingerprint(), |h, &r| {
            (h ^ r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        st.fingerprint = (seen ^ st.faults as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        st.at = (0..PROCS).map(|p| sim.at(p)).collect();
        st.runnable = sim.runnable();
    }
}

/// The leaf every scope runs: it counts its runs host-side, outside the
/// machine, so a second run of one leaf is visible whatever it wrote.
fn counting_leaf(set: &mut CapsuleSet, runs: Arc<Vec<AtomicU32>>) -> CapsuleDef<Span<Word>> {
    set.define("engine/leaf", move |st: &Span<Word>, k, _| {
        runs[st.lo].fetch_add(1, Ordering::Relaxed);
        Ok(dsl::Step::Jump(k))
    })
}

/// W2 and the WS-deque invariant, in the state `sim` reached.
fn safety(sim: &SimSched<'_>, mem: &PersistentMemory, runs: &[u32]) -> Result<(), String> {
    if let Some((leaf, n)) = runs.iter().enumerate().find(|(_, &n)| n > 1) {
        return Err(format!("NoDoubleExecution: leaf {leaf} ran {n} times"));
    }
    for (p, d) in sim.sched().deques().iter().enumerate() {
        check_invariant(mem, d).map_err(|e| format!("WS-deque invariant of deque {p}: {e}"))?;
    }
    Ok(())
}

/// Whether the computation is complete: every leaf ran once, every
/// ticket is `DONE` and the done flag is set.
fn completion(sim: &SimSched<'_>, mem: &PersistentMemory, runs: &[u32]) -> Result<(), String> {
    if let Some((leaf, n)) = runs.iter().enumerate().find(|(_, &n)| n != 1) {
        return Err(format!("leaf {leaf} ran {n} times"));
    }
    let q = sim.sched().injector().expect("every session has a ring");
    for slot in 0..q.slots() {
        match slot_phase(mem.load(q.state_addr(slot))) {
            Some(SlotPhase::Done) => {}
            phase => return Err(format!("ticket of slot {slot} is {phase:?}, not Done")),
        }
    }
    if !sim.completed() {
        return Err("the done flag is unset".into());
    }
    Ok(())
}

impl Model for EngineModel {
    type State = EngineSt;
    type Action = EngineAction;

    fn initial(&self) -> Vec<EngineSt> {
        vec![self.replay(Vec::new())]
    }

    fn actions(&self, s: &EngineSt) -> Vec<EngineAction> {
        let steps = s.runnable.iter().map(|&p| EngineAction::Step(p));
        let budget = s.faults < FAULT_BUDGET;
        let crashes = s.runnable.iter().map(|&p| EngineAction::Crash(p));
        let crashes = crashes.take(if budget && s.crashes < CRASH_BUDGET {
            PROCS
        } else {
            0
        });
        let restart = budget && !s.runnable.is_empty();
        let restart = restart.then_some(EngineAction::Restart);
        steps.chain(crashes).chain(restart).collect()
    }

    fn step(&self, s: &EngineSt, a: &EngineAction) -> EngineSt {
        let mut prefix = Vec::with_capacity(s.prefix.len() + 1);
        prefix.extend_from_slice(&s.prefix);
        prefix.push(*a);
        self.replay(prefix)
    }

    fn invariant(&self, s: &EngineSt) -> Result<(), String> {
        s.verdict.clone()
    }

    fn on_terminal(&self, s: &EngineSt) -> Result<(), String> {
        s.complete
            .clone()
            .map_err(|why| format!("no processor can run, but {why}"))
    }

    fn goal(&self, s: &EngineSt) -> bool {
        s.is_complete()
    }

    fn fingerprint(&self, s: &EngineSt) -> u64 {
        s.fingerprint
    }
}

/// The scheduler a mutated scope runs: `sched`, with one step's arm
/// swapped for `mutant`'s.
struct MutantSched {
    sched: Arc<Sched>,
    mutant: Mutant,
}

/// The step a `Next` installs, if it is a scheduler step.
fn successor(next: &Next) -> Option<SchedStep> {
    match next {
        Next::Sched(rec) => SchedStep::decode(rec),
        _ => None,
    }
}

impl Scheduler for MutantSched {
    fn run(&self, rec: &SchedRecord, ctx: &mut ProcCtx, handles: &ContArena) -> PmResult<Next> {
        let s = &*self.sched;
        let Some(step) = SchedStep::decode(rec) else {
            return Scheduler::run(s, rec, ctx, handles);
        };
        match (self.mutant, step) {
            (Mutant::DropLemmaA10, PopBottomCam(owner, b, old, _)) => {
                let entry = s.deques()[owner].entry(b - 1);
                let new = pack(tag_of(old).wrapping_add(1), EntryVal::Local);
                if ctx.raw_mem().load(entry) == old {
                    // The CAM alone, then the step again: a boundary where
                    // the faithful capsule has only the access between its
                    // CAM and its read. The re-run's CAM is a no-op.
                    ctx.pcam(entry, old, new)?;
                    return Ok(go(step));
                }
                let next = s.run(step, ctx, handles)?;
                if matches!(next, Next::JumpHandle(_)) && ctx.raw_mem().load(entry) != new {
                    // The Lemma A.10 arm fired: treat it as any miss.
                    return Ok(s.help_then_steal(ctx, owner));
                }
                Ok(next)
            }
            (Mutant::AdoptLiveLocal, PopTopRead(v, thief, e_slot, c, n)) => {
                let d = s.deques()[v];
                let i = ctx.raw_mem().load(d.top) as usize;
                let old = ctx.raw_mem().load(d.entry(i));
                if kind_of(old) != EntryKind::Local || !ctx.is_live(v) {
                    return s.run(step, ctx, handles);
                }
                // Lines 51-63 with the `isLive` gate dropped.
                ctx.pread(d.top)?;
                ctx.pread(d.entry(i))?;
                let taken = EntryVal::Taken {
                    proc: thief,
                    slot: e_slot,
                    tag: c,
                };
                let new = pack(tag_of(old).wrapping_add(1), taken);
                Ok(go(ClearAboveRead(v, i, old, new, n)))
            }
            (Mutant::ClaimBeforeSeat, PullRead(..)) => {
                let next = s.run(step, ctx, handles)?;
                match successor(&next) {
                    Some(PullSeat(slot, claimant, old, entry, ticket)) => {
                        Ok(go(PullCam(slot, claimant, old, entry, ticket)))
                    }
                    _ => Ok(next),
                }
            }
            (Mutant::ClaimBeforeSeat, PullCheck(slot, claimed, _, ticket)) => {
                match s.run(step, ctx, handles)? {
                    Next::JumpHandle(entry) => {
                        Ok(go(PullSeat(slot, ctx.proc(), claimed, entry, ticket)))
                    }
                    next => Ok(next),
                }
            }
            (Mutant::ClaimBeforeSeat, PullSeat(_, _, _, entry, _)) => {
                s.run(step, ctx, handles)?;
                Ok(Next::JumpHandle(entry))
            }
            (Mutant::DoneEarly, DoneCam(..)) if !s.done().is_set(ctx.raw_mem()) => {
                ctx.raw_mem().store(s.done().addr(), 1);
                Ok(go(step))
            }
            (Mutant::VictimNeverHelps, ClearBottom() | PopBottomRead() | PopBottomCam(..)) => {
                let next = s.run(step, ctx, handles)?;
                match successor(&next) {
                    Some(HelpRead(_, Then::Steal, _, _, _, n)) => Ok(go(Steal(n))),
                    _ => Ok(next),
                }
            }
            _ => s.run(step, ctx, handles),
        }
    }

    fn on_fork(&self, ctx: &mut ProcCtx, child: Word, cont: Word) -> PmResult<SchedRecord> {
        self.sched.on_fork(ctx, child, cont)
    }

    fn on_end(&self) -> SchedRecord {
        self.sched.on_end()
    }

    fn name(&self, rec: &SchedRecord) -> &'static str {
        Scheduler::name(&*self.sched, rec)
    }

    fn war_checked(&self, rec: &SchedRecord) -> bool {
        self.sched.war_checked(rec)
    }
}
