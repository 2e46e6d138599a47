//! Deterministic fault-injection simulator over the **real** capsule
//! engine.
//!
//! [`SimSched`] drives the actual production code — `run_capsule`,
//! `InstallCtx`, the scheduler's `pushBottom`/`findWork`/`popTop`
//! capsules, persistent frames, checkpoints — through **scripted
//! interleavings** on a single OS thread. Each [`SimSched::step`] runs
//! exactly one capsule on one chosen processor, so a test can place a
//! crash or a checkpoint between any two capsules of any processor and
//! replay the schedule forever: the same seed and script produce a
//! byte-identical event trace and a bit-identical final machine state
//! ([`SimSched::digest`]).
//!
//! The same stepper is the scheduler's model checker: `crate::model::engine`
//! enumerates *every* schedule of a small scope — each state an action
//! prefix replayed here, keyed by [`SimSched::fingerprint`] — so what is
//! checked is the engine itself, not a restatement of it. The scripted
//! tests below pin schedules that explorer found.
//!
//! Faults compose from both layers:
//!
//! * **Boundary crashes** — [`SimSched::crash`] marks the processor dead
//!   in the liveness oracle at a capsule boundary, leaving its restart
//!   pointer and deque for thieves, exactly like a hard fault between
//!   capsules.
//! * **Mid-capsule crashes** — build the machine with
//!   [`ppm_pm::FaultConfig::with_scheduled_hard_fault`]; the fault fires
//!   inside `run_capsule` at the scheduled persistent access and the
//!   step reports the processor dead.
//! * **Checkpoints** — [`SimSched::checkpoint`] runs a quiesced
//!   checkpoint directly (the single-threaded stepper holds every
//!   processor at a boundary by construction): on a durable machine the
//!   flush, the record and the floor pins.
//!
//! The seeded driver [`SimSched::run_seeded`] generates the schedule
//! from a xorshift stream, which is what the determinism property tests
//! replay across many seeds (`tests/proptest_sim.rs`).

use std::sync::Arc;

use ppm_core::registry::PComp;
use ppm_core::{run_capsule, Active, DoneFlag, InstallCtx, Machine, Scheduler};
use ppm_pm::{Fault, ProcCtx};

use crate::capsules::{Sched, SchedConfig};
use crate::checkpoint::{CheckpointCtl, CheckpointPolicy};
use crate::cluster::ShardDomain;
use crate::deque::check_invariant;
use crate::driver::{fresh_session, prepare_recovery, runtime_build, ProcOutcome, Seat};
use crate::service::{InjectorQueue, ServiceConfig};
use crate::step::SchedStep;

/// One scripted operation of a simulated schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOp {
    /// Run one capsule on processor `p`.
    Step(usize),
    /// Run up to `n` capsules on processor `p` (stops early if it halts
    /// or dies).
    Run(usize, usize),
    /// Hard-kill processor `p` at its current capsule boundary: the
    /// liveness oracle marks it dead, its restart pointer and deque stay
    /// in persistent memory for thieves.
    Crash(usize),
    /// Take a quiesced checkpoint (frontier capture, flush, record,
    /// floor pins) with every processor parked between capsules.
    Checkpoint,
}

/// What happened at one simulated step; the rendered lines of these are
/// the determinism-checked event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// Processor `proc` ran capsule `capsule` and installed a successor.
    Ran {
        /// Global step index.
        step: usize,
        /// Which processor.
        proc: usize,
        /// Name of the capsule that ran.
        capsule: String,
        /// Name of the installed successor.
        next: String,
    },
    /// Processor `proc` ran `capsule` and halted (saw the done flag).
    Halted {
        /// Global step index.
        step: usize,
        /// Which processor.
        proc: usize,
        /// Name of the final capsule.
        capsule: String,
    },
    /// Processor `proc` hard-faulted inside `capsule` (scheduled
    /// mid-capsule fault from the machine's [`ppm_pm::FaultConfig`]).
    Died {
        /// Global step index.
        step: usize,
        /// Which processor.
        proc: usize,
        /// Capsule it died in.
        capsule: String,
    },
    /// Processor `proc` stopped inside `capsule` on `error` (its pool ran
    /// out).
    Failed {
        /// Global step index.
        step: usize,
        /// Which processor.
        proc: usize,
        /// Capsule it stopped in.
        capsule: String,
        /// Why.
        error: ppm_pm::PmError,
    },
    /// Processor `proc` was killed by a scripted [`SimOp::Crash`].
    Crashed {
        /// Global step index.
        step: usize,
        /// Which processor.
        proc: usize,
    },
    /// A scripted quiesced checkpoint ran.
    Checkpoint {
        /// Global step index.
        step: usize,
    },
    /// A step was scripted for a processor that already halted or died.
    Noop {
        /// Global step index.
        step: usize,
        /// Which processor.
        proc: usize,
    },
}

impl std::fmt::Display for SimEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimEvent::Ran {
                step,
                proc,
                capsule,
                next,
            } => write!(f, "{step:5} p{proc} run  {capsule} -> {next}"),
            SimEvent::Halted {
                step,
                proc,
                capsule,
            } => write!(f, "{step:5} p{proc} halt {capsule}"),
            SimEvent::Died {
                step,
                proc,
                capsule,
            } => write!(f, "{step:5} p{proc} died in {capsule}"),
            SimEvent::Failed {
                step,
                proc,
                capsule,
                error,
            } => write!(f, "{step:5} p{proc} stopped in {capsule}: {error}"),
            SimEvent::Crashed { step, proc } => write!(f, "{step:5} p{proc} crash (scripted)"),
            SimEvent::Checkpoint { step } => write!(f, "{step:5} -- checkpoint"),
            SimEvent::Noop { step, proc } => write!(f, "{step:5} p{proc} noop (not running)"),
        }
    }
}

/// Summary of a finished (or abandoned) simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The computation's completion flag is set.
    pub completed: bool,
    /// Per-processor outcomes (`None` = still runnable when the sim
    /// stopped).
    pub outcomes: Vec<Option<ProcOutcome>>,
    /// Total capsule-steps executed.
    pub steps: usize,
    /// FNV-1a digest over the event trace and every machine word — the
    /// determinism witness (same seed + script ⇒ same digest).
    pub digest: u64,
}

struct SimProc {
    ctx: ProcCtx,
    install: InstallCtx,
    cur: Option<Active>,
    outcome: Option<ProcOutcome>,
}

/// The single-threaded scripted stepper. See the module docs.
pub struct SimSched<'m> {
    machine: &'m Machine,
    sched: Arc<Sched>,
    /// What runs the scheduler records: `sched` itself, or a wrapper
    /// around it ([`SimSched::with_runner`]).
    runner: Arc<dyn Scheduler + Send + Sync>,
    done: DoneFlag,
    ctl: Arc<CheckpointCtl>,
    procs: Vec<SimProc>,
    events: Vec<SimEvent>,
    steps: usize,
}

impl<'m> SimSched<'m> {
    /// A simulator over a persistent-capsule computation, started the
    /// way a threaded [`crate::Runtime`] session starts: the same
    /// one-slot-ring session build and publish, then every processor at
    /// `findWork`, the root pulled from the ring by whichever processor
    /// claims it first. The root (and every fork) is frame-denoted, so
    /// scripted checkpoints record a resumable frontier, and crashes
    /// leave a resumable machine.
    pub fn new_persistent(machine: &'m Machine, pcomp: &PComp, cfg: &SchedConfig) -> Self {
        let session = fresh_session(machine, pcomp, cfg);
        Self::seated(machine, session.sched, session.done, |_| Some(Seat::Fresh))
    }

    /// A simulator over a recovering [`crate::Runtime`] session:
    /// `machine` holds a crashed session's words (a reopened file or a
    /// [`Machine::restarted`] twin) and `pcomp` replays its construction.
    /// The session is recovered as `Runtime::run_or_recover` recovers it,
    /// but stepped by the script.
    pub fn recover(
        machine: &'m Machine,
        pcomp: &PComp,
        cfg: &SchedConfig,
    ) -> std::io::Result<Self> {
        let build = runtime_build(pcomp);
        Self::recovered(machine, cfg, ServiceConfig::SESSION, &build, |_, _, s| s)
    }

    /// A simulator over a session recovered by `driver`'s recovery —
    /// construction replayed through `build` over a ring shaped `ring`,
    /// each processor seated where the recovery seats it as `reseat`
    /// bends it (the explorer's restart mutants). A complete computation
    /// seats nobody.
    pub(crate) fn recovered(
        machine: &'m Machine,
        cfg: &SchedConfig,
        ring: ServiceConfig,
        build: &crate::cluster::ShardBuild,
        reseat: impl Fn(&Sched, usize, Seat) -> Seat,
    ) -> std::io::Result<Self> {
        let (session, _, seats) = prepare_recovery(machine, 1, cfg, ring, build)?;
        let seats: Vec<_> = (0..machine.procs())
            .map(|p| seats.as_ref().map(|s| reseat(&session.sched, p, s[p])))
            .collect();
        Ok(Self::seated(machine, session.sched, session.done, |p| {
            seats[p]
        }))
    }

    /// A simulator over a **service-mode** scheduler: every processor
    /// starts at `findWork` and work arrives through a durable injector
    /// ring allocated here (the in-process twin of a service session's
    /// queue), open until the script closes it. Submit host-side through
    /// the returned [`InjectorQueue`] handle; the steal loop consults the
    /// ring before probing victim deques, so a script can place a claim
    /// race or a live-shard steal between any two capsules.
    ///
    /// Pass a [`ShardDomain`] to run the scheduler as a cluster shard's
    /// (ring scans start at the shard's slot, steals across a shard
    /// boundary are counted); `None` simulates a plain single-shard
    /// service process.
    ///
    /// The run completes the way every session does: once the script
    /// writes a `Draining` service header (admission closed), the done
    /// check of the job that drains the ring sets the completion flag and
    /// the steal loops halt.
    pub fn new_service(
        machine: &'m Machine,
        cfg: &SchedConfig,
        service: ServiceConfig,
        domain: Option<Arc<ShardDomain>>,
    ) -> (Self, Arc<InjectorQueue>) {
        let build: crate::cluster::ShardBuild = Arc::new(|_, _, done| done);
        let session = crate::cluster::build_session(machine, 1, cfg, service, domain, &build);
        let queue = session.service.clone();
        (
            Self::seated(machine, session.sched, session.done, |_| Some(Seat::Fresh)),
            queue,
        )
    }

    /// A simulator over **one shard of a cluster**: `machine` is an
    /// attachment to an initialised cluster file
    /// ([`crate::ClusterBuilder::init`]), and the shard's processors are
    /// seated exactly as [`crate::cluster::run_worker`] seats them — at
    /// `findWork`, under the shard's [`ShardDomain`] — but stepped by the
    /// script instead of by threads. Sibling shards' processors are not
    /// seated: stepping one is a no-op. Dropping the simulator and its
    /// machine mid-script is a SIGKILL of that worker at a chosen capsule
    /// boundary, with no lease renewed since attach.
    #[cfg(unix)]
    pub fn new_worker(
        machine: &'m Machine,
        shard: usize,
        build: &crate::cluster::ShardBuild,
    ) -> std::io::Result<Self> {
        let (_, domain, session) = crate::cluster::shard_session(machine, shard, build, |_| ())?;
        let own = domain.own_procs();
        let seat = |p| own.contains(&p).then_some(Seat::Fresh);
        Ok(Self::seated(machine, session.sched, session.done, seat))
    }

    /// The scheduler under simulation (its deques, for observers and
    /// assertions).
    pub fn sched(&self) -> &Arc<Sched> {
        &self.sched
    }

    /// Runs every scheduler record through `wrap(sched)` instead of the
    /// scheduler itself — how the engine explorer's mutants swap one
    /// step's arm without touching [`Sched`], and how a test puts a
    /// foreign event where no real schedule at its P would.
    pub fn with_runner(
        mut self,
        wrap: impl FnOnce(Arc<Sched>) -> Arc<dyn Scheduler + Send + Sync>,
    ) -> Self {
        self.runner = wrap(self.sched.clone());
        self
    }

    /// The stepper over `sched`: processor `p` is seated where `seat(p)`
    /// puts it ([`Seat`]), or not at all when it is `None`; one that
    /// stays down starts dead.
    fn seated(
        machine: &'m Machine,
        sched: Arc<Sched>,
        done: DoneFlag,
        seat: impl Fn(usize) -> Option<Seat>,
    ) -> Self {
        let procs = (0..machine.procs())
            .map(|p| {
                let (cursor, cur, outcome) = match seat(p).map(|s| s.start(machine, &sched, p)) {
                    Some(Some((cursor, at))) => (cursor, Some(at), None),
                    Some(None) => (0, None, Some(ProcOutcome::Dead)),
                    None => (0, None, None),
                };
                SimProc {
                    ctx: machine.ctx_with_pool_cursor(p, cursor),
                    install: InstallCtx::new(machine.mem(), machine.proc_meta(p)),
                    cur,
                    outcome,
                }
            })
            .collect();
        SimSched {
            machine,
            ctl: CheckpointCtl::new(
                machine,
                sched.clone(),
                CheckpointPolicy::Disabled,
                machine.procs(),
            ),
            runner: sched.clone(),
            sched,
            done,
            procs,
            events: Vec::new(),
            steps: 0,
        }
    }

    /// Runs exactly one capsule on processor `p` (a no-op event if it
    /// already halted or died). Returns the recorded event.
    pub fn step(&mut self, p: usize) -> SimEvent {
        let step = self.steps;
        self.steps += 1;
        let ev = if self.procs[p].outcome.is_some() || self.procs[p].cur.is_none() {
            SimEvent::Noop { step, proc: p }
        } else {
            let sched: &dyn Scheduler = &*self.runner;
            let sp = &mut self.procs[p];
            let cur = sp.cur.take().expect("checked above");
            let capsule = cur.name(Some(sched)).to_string();
            let arena = self.machine.arena();
            match run_capsule(&mut sp.ctx, arena, &mut sp.install, &cur, Some(sched)) {
                Ok(Some(c)) => {
                    let next = c.name(Some(sched)).to_string();
                    sp.cur = Some(c);
                    SimEvent::Ran {
                        step,
                        proc: p,
                        capsule,
                        next,
                    }
                }
                Ok(None) => {
                    sp.outcome = Some(ProcOutcome::Halted);
                    SimEvent::Halted {
                        step,
                        proc: p,
                        capsule,
                    }
                }
                Err(Fault::Exhausted) => {
                    let error = sp.ctx.error().expect("an exhausted pool says why");
                    sp.outcome = Some(ProcOutcome::Failed(error));
                    SimEvent::Failed {
                        step,
                        proc: p,
                        capsule,
                        error,
                    }
                }
                Err(_) => {
                    sp.outcome = Some(ProcOutcome::Dead);
                    SimEvent::Died {
                        step,
                        proc: p,
                        capsule,
                    }
                }
            }
        };
        self.events.push(ev.clone());
        ev
    }

    /// Scripted boundary crash: marks `p` dead in the liveness oracle and
    /// stops stepping it. Its restart pointer and deque entries remain —
    /// live processors adopt them through the ordinary steal protocol.
    pub fn crash(&mut self, p: usize) {
        let step = self.steps;
        self.steps += 1;
        self.machine.liveness().mark_dead(p);
        self.procs[p].cur = None;
        self.procs[p].outcome = Some(ProcOutcome::Dead);
        self.events.push(SimEvent::Crashed { step, proc: p });
    }

    /// Scripted quiesced checkpoint. Sound here without the barrier: the
    /// stepper is single-threaded, so every processor *is* parked at a
    /// capsule boundary right now. Each running processor pins its floor,
    /// as the real barrier's unpark path does. A no-op event on a volatile
    /// machine.
    pub fn checkpoint(&mut self) {
        let step = self.steps;
        self.steps += 1;
        let running = self.procs.iter_mut().filter(|sp| sp.outcome.is_none());
        self.ctl
            .quiesced_checkpoint(self.machine, running.map(|sp| &mut sp.ctx));
        self.events.push(SimEvent::Checkpoint { step });
    }

    /// Executes a script in order.
    pub fn run_script(&mut self, script: &[SimOp]) {
        for op in script {
            match *op {
                SimOp::Step(p) => {
                    self.step(p);
                }
                SimOp::Run(p, n) => {
                    for _ in 0..n {
                        if self.procs[p].outcome.is_some() {
                            break;
                        }
                        self.step(p);
                    }
                }
                SimOp::Crash(p) => self.crash(p),
                SimOp::Checkpoint => self.checkpoint(),
            }
        }
    }

    /// Drives a seeded random schedule: each step picks a uniformly
    /// pseudo-random runnable processor from a xorshift64* stream. Stops
    /// when the computation completes, nobody is runnable, or `max_steps`
    /// is hit. Same seed ⇒ same schedule ⇒ same trace and digest.
    pub fn run_seeded(&mut self, seed: u64, max_steps: usize) {
        // One splitmix64 round separates adjacent seeds (and maps no two
        // seeds to the same stream, unlike e.g. `seed | 1`).
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x |= 1;
        for _ in 0..max_steps {
            if self.done.is_set(self.machine.mem()) {
                break;
            }
            let runnable = self.runnable();
            if runnable.is_empty() {
                break;
            }
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let pick = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % runnable.len();
            self.step(runnable[pick]);
        }
    }

    /// Round-robin steps every runnable processor until the computation
    /// completes, everyone halts/dies, or `max_steps` is hit.
    pub fn run_to_completion(&mut self, max_steps: usize) {
        let mut budget = max_steps;
        'outer: while budget > 0 {
            let mut progressed = false;
            for p in 0..self.procs.len() {
                if budget == 0 {
                    break 'outer;
                }
                if self.procs[p].outcome.is_none() {
                    self.step(p);
                    progressed = true;
                    budget -= 1;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// The processors a [`SimSched::step`] would run a capsule on: seated,
    /// neither halted nor dead.
    pub fn runnable(&self) -> Vec<usize> {
        (0..self.procs.len())
            .filter(|&p| self.procs[p].outcome.is_none() && self.procs[p].cur.is_some())
            .collect()
    }

    /// Where processor `p` stands: the capsule it runs next, or `halted`,
    /// `dead` or `unseated`.
    pub fn at(&self, p: usize) -> &'static str {
        match (&self.procs[p].outcome, &self.procs[p].cur) {
            (Some(ProcOutcome::Halted), _) => "halted",
            (Some(ProcOutcome::Dead), _) => "dead",
            (Some(ProcOutcome::Failed(_)), _) => "failed",
            (None, Some(cur)) => cur.name(Some(&*self.runner)),
            (None, None) => "unseated",
        }
    }

    /// The recorded event trace.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// The trace rendered one line per event (what the determinism tests
    /// compare and what counterexample artifacts contain).
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest over the rendered trace and every machine word: the
    /// determinism witness. Two runs with the same machine construction,
    /// script, and seed must produce equal digests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.render_trace().as_bytes());
        let mem = self.machine.mem();
        for w in mem.to_vec(0, mem.len()) {
            eat(&w.to_le_bytes());
        }
        h
    }

    /// A digest of the simulated machine's *state*, not of the path to
    /// it: every word outside the processors' metadata blocks, then per
    /// processor its outcome, its pool cursor and the capsule it runs
    /// next — a dead one's restart point — with a scheduler record's
    /// generation dropped (the engine's journal slot and generation count
    /// installs, which differ between paths to one state). The attempt
    /// counter `n` a scheduler step carries is kept modulo the injector
    /// ring's slot count: that residue is all `ring_start` observes,
    /// since `n`'s epoch part is a multiple of 2³². Victim selection and
    /// backoff read `n` too; at P = 2 the victim is forced and backoff
    /// only sleeps, so the fold is exact there and the explorer
    /// (`crate::model::engine`) uses it only there.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
        let mem = self.machine.mem();
        let mut words = mem.to_vec(0, mem.len());
        for p in 0..self.procs.len() {
            let base = self.machine.proc_meta(p).base;
            words[base..base + ppm_core::PROC_META_WORDS].fill(0);
        }
        words.into_iter().for_each(&mut eat);
        let slots = self.sched.injector().map_or(1, |q| q.slots()) as u64;
        for (p, sp) in self.procs.iter().enumerate() {
            eat(match sp.outcome {
                None => 0,
                Some(ProcOutcome::Halted) => 1,
                Some(ProcOutcome::Dead) => 2,
                Some(ProcOutcome::Failed(_)) => 3,
            });
            eat(sp.ctx.alloc_cursor() as u64);
            // The fork marks steer later reclaims: each mark and whether
            // its stamp is still the processor's.
            for (mark, fresh) in sp.ctx.fork_marks() {
                eat(mark as u64);
                eat(u64::from(fresh));
            }
            let next = match sp.outcome {
                Some(ProcOutcome::Dead) => self.sched.restart_point(p, self.machine.arena()),
                _ => sp.cur,
            };
            match next {
                None => eat(0),
                Some(Active::Frame(f)) => eat(f.addr as u64),
                Some(Active::Sched(rec)) => {
                    let rec = match SchedStep::decode(&rec) {
                        Some(step) => step.with_attempts(|n| n % slots).encode(),
                        None => rec,
                    };
                    rec.words(0).into_iter().for_each(&mut eat);
                }
            }
        }
        h
    }

    /// What the scripted checkpoints did so far.
    pub fn checkpoints(&self) -> crate::CheckpointSummary {
        self.ctl.summary()
    }

    /// Whether the computation's completion flag is set.
    pub fn completed(&self) -> bool {
        self.done.is_set(self.machine.mem())
    }

    /// Finishes the run: checks the WS-deque structural invariant on
    /// every deque (the machine is quiescent) and returns the report.
    ///
    /// # Panics
    /// Panics if any deque violates the §6.2 structural invariant — in a
    /// simulated schedule that is always a scheduler bug worth a trace.
    pub fn finish(self) -> SimReport {
        for d in self.sched.deques() {
            if let Err(e) = check_invariant(self.machine.mem(), d) {
                panic!(
                    "WS-deque invariant violated after simulated run: {e}\ntrace:\n{}",
                    self.render_trace()
                );
            }
        }
        let digest = self.digest();
        SimReport {
            completed: self.done.is_set(self.machine.mem()),
            outcomes: self.procs.iter().map(|p| p.outcome).collect(),
            steps: self.steps,
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::marker_comp as markers;
    use ppm_pm::{FaultConfig, PmConfig, ProcCtx, Region};

    fn machine(p: usize, f: FaultConfig) -> Machine {
        Machine::new(PmConfig::parallel(p, 1 << 21).with_fault(f))
    }

    #[test]
    fn round_robin_schedule_completes_the_computation() {
        let m = machine(2, FaultConfig::none());
        let r = m.alloc_region(64);
        let comp = markers(r, 8);
        let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(256));
        sim.run_to_completion(10_000);
        let rep = sim.finish();
        assert!(rep.completed);
        for i in 0..8 {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1);
        }
    }

    #[test]
    fn scripted_boundary_crash_is_adopted_by_the_survivor() {
        let m = machine(2, FaultConfig::none());
        let r = m.alloc_region(64);
        let comp = markers(r, 8);
        let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(256));
        // Let the root processor fork a bit, then kill it; processor 1
        // must finish everything through steals and adoption.
        sim.run_script(&[SimOp::Run(0, 6), SimOp::Crash(0)]);
        sim.run_to_completion(10_000);
        let rep = sim.finish();
        assert!(rep.completed, "survivor finishes:\n{}", sim_trace(&m));
        assert_eq!(rep.outcomes[0], Some(ProcOutcome::Dead));
        assert_eq!(rep.outcomes[1], Some(ProcOutcome::Halted));
        for i in 0..8 {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1, "task {i}");
        }
    }

    /// The two shortest livelocks the engine explorer's progress check
    /// found before `popBottom` helped on a `Taken` miss. p0 pulls the
    /// root and forks; p1 wins `popTop/cam` on the forked job — p0's
    /// last — and dies before its help capsules, so its seat never turns
    /// `Local` and nothing of it is adoptable. p0 then misses on the
    /// `Taken` entry: at `clearBottom`'s read once its own leaf is done
    /// (p1 stole after p0's 11th capsule), or at `popBottom/cam`, its CAM
    /// having lost to p1's (after p0's 14th). Figure 3 has only thieves
    /// of p0 help p0's deque, so the survivor spun `steal → help/read →
    /// popTop/read` forever; now its own miss helps, p1's seat turns
    /// `Local`, and p0 adopts p1's thread and finishes within a budget.
    #[test]
    fn a_survivor_whose_thief_died_mid_steal_finishes() {
        const CASES: [(usize, &str, &str); 2] = [
            (11, "mark", "sched/clearBottom"),
            (14, "sched/popBottom/cam", "sched/popBottom/cam"),
        ];
        for (owner_steps, owner_at, misses_in) in CASES {
            let m = machine(2, FaultConfig::none());
            let r = m.alloc_region(2);
            let comp = markers(r, 2);
            let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(8));
            sim.run_script(&[SimOp::Run(0, owner_steps), SimOp::Run(1, 5)]);
            assert_eq!(sim.at(0), owner_at);
            assert_eq!(sim.at(1), "sched/help/read", "p1 won the CAM");
            sim.crash(1);
            sim.run_to_completion(100);
            let trace = sim.render_trace();
            assert!(sim.completed(), "the survivor finishes:\n{trace}");
            for line in [
                format!("p0 run  {misses_in} -> sched/help/read"),
                "p0 run  sched/popTop/checkLocal -> sched/help/read".to_string(),
            ] {
                assert!(trace.contains(&line), "{line}:\n{trace}");
            }
            for i in 0..2 {
                assert_eq!(m.mem().load(r.at(i)), i as u64 + 1, "marker {i}");
            }
            sim.finish();
        }
    }

    // finish() consumes the sim; re-render for assertion messages.
    fn sim_trace(_m: &Machine) -> &'static str {
        "(trace consumed)"
    }

    #[test]
    fn mid_capsule_hard_fault_surfaces_as_died_event() {
        let m = machine(2, FaultConfig::none().with_scheduled_hard_fault(0, 12));
        let r = m.alloc_region(64);
        let comp = markers(r, 8);
        let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(256));
        sim.run_to_completion(10_000);
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::Died { proc: 0, .. })));
        let trace = sim.render_trace();
        let rep = sim.finish();
        assert!(rep.completed, "processor 1 must finish alone:\n{trace}");
        for i in 0..8 {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1);
        }
    }

    /// A service-mode interleaving, scripted: both processors race
    /// the published slot's claim CAM step-by-step, the loser falls back
    /// to the deque-steal path and harvests the winner's forked subtasks
    /// across the shard boundary (live-shard stealing), and the ticket
    /// resolves exactly once.
    #[test]
    fn scripted_live_shard_steal_races_the_queue_pull() {
        use crate::cluster::ShardDomain;
        use crate::service::{JobStatus, ServiceConfig};
        use ppm_core::{dsl, Persist};
        use ppm_pm::ShardMap;

        let m = machine(2, FaultConfig::none());
        // Two processors in two one-processor shards; the domain is shard
        // 0's view.
        let domain = ShardDomain::new(ShardMap::new(2, 2), 0);

        let out = m.alloc_region(16);
        let split = {
            let mut set = dsl::CapsuleSet::new(&m);
            let leaf = set.define(
                "simsvc/mark",
                |st: &dsl::Span<Region>, k, ctx: &mut ProcCtx| {
                    for i in st.lo..st.hi {
                        ctx.pwrite(st.env.at(i), i as u64 + 1)?;
                    }
                    Ok(dsl::Step::Jump(k))
                },
            );
            set.map_grain("simsvc/split", 1, leaf)
        };

        let (mut sim, queue) = SimSched::new_service(
            &m,
            &SchedConfig::with_slots(256),
            ServiceConfig::default().with_slots(4),
            Some(domain.clone()),
        );
        let mut args = Vec::new();
        dsl::Span {
            env: out,
            lo: 0usize,
            hi: 8usize,
        }
        .encode(&mut args);
        let ticket = queue.submit(split.id(), &args).expect("submit");
        assert_eq!(queue.depth(), 1, "published slot visible before any pull");
        // Admission closes at once: the job's own done check completes
        // the run.
        m.mem()
            .control()
            .write_service_header(&queue.header(ppm_pm::ServiceState::Draining))
            .unwrap();

        // Strict alternation, one capsule at a time: both pullers scan the
        // ring, both enter the pull chain, exactly one claim CAM wins; the
        // loser's steal loop then probes the winner's deque every other
        // step while the splitter forks.
        for _ in 0..400 {
            if matches!(queue.status(ticket), JobStatus::Done { .. }) {
                break;
            }
            sim.step(1);
            sim.step(0);
        }

        let status = queue.status(ticket);
        assert!(
            matches!(status, JobStatus::Done { .. }),
            "ticket must resolve under alternation, got {status:?}\n{}",
            sim.render_trace()
        );

        // The trailing capsules: the winner's done check drains the
        // closed ring and sets the flag, and both steal loops halt.
        sim.run_to_completion(1_000);

        assert_eq!(queue.completed_total(), 1, "exactly-once resolution");
        assert_eq!(queue.depth(), 0);
        for i in 0..8 {
            assert_eq!(m.mem().load(out.at(i)), i as u64 + 1, "leaf effect {i}");
        }

        // Both processors reached the claim CAM — the scripted race was
        // real, not one puller draining an idle ring.
        let racers: std::collections::BTreeSet<usize> = sim
            .events()
            .iter()
            .filter_map(|e| match e {
                SimEvent::Ran { proc, capsule, .. } if capsule == "service/pull/cam" => Some(*proc),
                _ => None,
            })
            .collect();
        assert_eq!(
            racers.len(),
            2,
            "both processors must race the claim CAM\n{}",
            sim.render_trace()
        );
        // The losing puller crossed the shard boundary for the winner's
        // forked subtasks.
        assert!(
            domain.live_steals() > 0,
            "expected a live-shard steal in the interleaving\n{}",
            sim.render_trace()
        );

        let rep = sim.finish();
        assert!(rep.completed);
        assert!(rep.outcomes.iter().all(|o| *o == Some(ProcOutcome::Halted)));
    }

    /// The one completion rule, decided where it becomes true. With
    /// admission open (`Accepting`) a ring whose only job is done — depth
    /// 0 — never sets the done flag, however long the processors spin;
    /// closing that drained ring (`InjectorQueue::close`) sets it, and
    /// every steal loop halts. When the ring closes *before* the job
    /// finishes, the close does not complete it and the job's own
    /// `service/done/check` sets the flag.
    #[test]
    fn only_a_closed_drained_ring_completes() {
        use crate::service::{JobStatus, ServiceConfig};
        use ppm_core::{dsl, Persist};
        use ppm_pm::ServiceState;

        for close_first in [false, true] {
            let m = machine(2, FaultConfig::none());
            let out = m.alloc_region(8);
            let split = {
                let mut set = dsl::CapsuleSet::new(&m);
                let leaf = set.define(
                    "simsvc/mark",
                    |st: &dsl::Span<Region>, k, ctx: &mut ProcCtx| {
                        for i in st.lo..st.hi {
                            ctx.pwrite(st.env.at(i), i as u64 + 1)?;
                        }
                        Ok(dsl::Step::Jump(k))
                    },
                );
                set.map_grain("simsvc/split", 2, leaf)
            };
            let (mut sim, queue) = SimSched::new_service(
                &m,
                &SchedConfig::with_slots(256),
                ServiceConfig::default().with_slots(4),
                None,
            );
            let page = m.mem().control();
            page.write_service_header(&queue.header(ServiceState::Accepting))
                .unwrap();
            let mut args = Vec::new();
            dsl::Span {
                env: out,
                lo: 0usize,
                hi: 8usize,
            }
            .encode(&mut args);
            let ticket = queue.submit(split.id(), &args).expect("submit");

            if close_first {
                assert!(!queue.close(sim.done).unwrap(), "a job is in flight");
                sim.run_to_completion(10_000);
                assert!(sim.completed(), "the job's done check drains the ring");
            } else {
                for _ in 0..400 {
                    sim.step(0);
                    sim.step(1);
                    assert!(!sim.completed(), "an open ring never completes");
                }
                assert_eq!(queue.depth(), 0);
                assert!(
                    queue.close(sim.done).unwrap(),
                    "closing a drained ring completes it"
                );
                assert!(sim.completed());
                sim.run_to_completion(1_000);
            }
            assert!(matches!(queue.status(ticket), JobStatus::Done { .. }));
            let rep = sim.finish();
            assert!(rep.outcomes.iter().all(|o| *o == Some(ProcOutcome::Halted)));
        }
    }

    /// A pull's crash windows, scripted through the real capsules at
    /// P = 2. The victim dies at a boundary of its pull chain; the
    /// survivor adopts its seated thread (the ring stays open, so the
    /// survivor keeps stealing after the job), the ticket resolves `Done`
    /// once — re-claimed at epoch + 1 only when the dead claim had won —
    /// every marker is written by one leaf run, and `finish` checks the
    /// deque invariant. Each window is bounded by a 30 s watchdog.
    #[test]
    fn a_killed_pullers_seated_thread_is_adopted() {
        use crate::service::{JobStatus, ServiceConfig};
        use ppm_core::{dsl, Persist};
        use ppm_pm::ServiceState;

        // (window, the victim's successor when it dies, whether the other
        // processor reads the slot first so the victim's claim loses, the
        // re-claims the ticket resolves with)
        const WINDOWS: [(&str, &str, bool, u64); 3] = [
            (
                "after its seat, before its CAM",
                "service/pull/cam",
                false,
                0,
            ),
            (
                "after its CAM, before its check",
                "service/pull/check",
                false,
                1,
            ),
            (
                "a losing puller after its seat",
                "service/pull/cam",
                true,
                0,
            ),
        ];
        const LEAVES: usize = 8;

        let run =
            |(window, dies_before, loses, reclaims): (&'static str, &'static str, bool, u64)| {
                let m = machine(2, FaultConfig::none());
                let out = m.alloc_region(LEAVES);
                let split = {
                    let mut set = dsl::CapsuleSet::new(&m);
                    let leaf = set.define(
                        "simsvc/mark",
                        |st: &dsl::Span<Region>, k, ctx: &mut ProcCtx| {
                            for i in st.lo..st.hi {
                                ctx.pwrite(st.env.at(i), i as u64 + 1)?;
                            }
                            Ok(dsl::Step::Jump(k))
                        },
                    );
                    set.map_grain("simsvc/split", 1, leaf)
                };
                let (mut sim, queue) = SimSched::new_service(
                    &m,
                    &SchedConfig::with_slots(256),
                    ServiceConfig::default().with_slots(4),
                    None,
                );
                m.mem()
                    .control()
                    .write_service_header(&queue.header(ServiceState::Accepting))
                    .unwrap();
                let mut args = Vec::new();
                dsl::Span {
                    env: out,
                    lo: 0usize,
                    hi: LEAVES,
                }
                .encode(&mut args);
                let ticket = queue.submit(split.id(), &args).expect("submit");

                let step_until = |sim: &mut SimSched<'_>, p: usize, next_is: &str| {
                    let reached = (0..200).any(
                        |_| matches!(sim.step(p), SimEvent::Ran { next, .. } if next == next_is),
                    );
                    assert!(
                        reached,
                        "{window}: p{p} reaches {next_is}\n{}",
                        sim.render_trace()
                    );
                };
                let victim = usize::from(loses);
                let survivor = 1 - victim;
                if loses {
                    step_until(&mut sim, victim, "service/pull/seat");
                    step_until(&mut sim, survivor, "service/pull/check");
                }
                step_until(&mut sim, victim, dies_before);
                sim.crash(victim);

                let adopted_pull = |sim: &SimSched<'_>| {
                    sim.events().iter().any(|e| {
                        matches!(e, SimEvent::Ran { proc, capsule, next, .. }
                        if *proc == survivor
                            && capsule == "sched/popTop/checkLocal"
                            && next == dies_before)
                    })
                };
                let settled = (0..20_000).any(|_| {
                    sim.step(survivor);
                    adopted_pull(&sim) && matches!(queue.status(ticket), JobStatus::Done { .. })
                });
                assert!(
                    settled,
                    "{window}: the survivor adopts the pull and the ticket resolves\n{}",
                    sim.render_trace()
                );
                assert!(
                    queue.close(sim.done).unwrap(),
                    "{window}: the drained ring completes"
                );
                sim.run_to_completion(1_000);

                match queue.status(ticket) {
                    JobStatus::Done { claim_epoch, .. } => {
                        assert_eq!(claim_epoch - ticket.epoch, reclaims, "{window}")
                    }
                    other => panic!("{window}: {other:?}"),
                }
                assert_eq!(queue.completed_total(), 1, "{window}: one done CAM won");
                let leaf_runs = sim
                    .events()
                    .iter()
                    .filter(
                        |e| matches!(e, SimEvent::Ran { capsule, .. } if capsule == "simsvc/mark"),
                    )
                    .count();
                assert_eq!(
                    leaf_runs, LEAVES,
                    "{window}: each marker written by one leaf run"
                );
                for i in 0..LEAVES {
                    assert_eq!(
                        m.mem().load(out.at(i)),
                        i as u64 + 1,
                        "{window}: marker {i}"
                    );
                }
                let rep = sim.finish();
                assert!(rep.completed);
                assert_eq!(rep.outcomes[victim], Some(ProcOutcome::Dead));
                assert_eq!(rep.outcomes[survivor], Some(ProcOutcome::Halted));
            };

        for case in WINDOWS {
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                run(case);
                let _ = tx.send(());
            });
            match rx.recv_timeout(std::time::Duration::from_secs(30)) {
                Ok(()) => worker.join().unwrap(),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    std::panic::resume_unwind(worker.join().unwrap_err())
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("window {:?} still running after 30 s", case.0)
                }
            }
        }
    }

    /// Same service script, same submission: the trace and final machine
    /// digest are bit-identical across runs — service mode keeps the
    /// simulator's determinism witness.
    #[test]
    fn service_mode_scripts_replay_deterministically() {
        use crate::cluster::ShardDomain;
        use crate::service::ServiceConfig;
        use ppm_core::{dsl, Persist};
        use ppm_pm::ShardMap;

        let run = || {
            let m = machine(2, FaultConfig::none());
            let domain = ShardDomain::new(ShardMap::new(2, 2), 0);
            let out = m.alloc_region(16);
            let mut set = dsl::CapsuleSet::new(&m);
            let leaf = set.define(
                "simsvc/mark",
                |st: &dsl::Span<Region>, k, ctx: &mut ProcCtx| {
                    for i in st.lo..st.hi {
                        ctx.pwrite(st.env.at(i), i as u64 + 1)?;
                    }
                    Ok(dsl::Step::Jump(k))
                },
            );
            let split = set.map_grain("simsvc/split", 1, leaf);
            let (mut sim, queue) = SimSched::new_service(
                &m,
                &SchedConfig::with_slots(256),
                ServiceConfig::default().with_slots(4),
                Some(domain),
            );
            let mut args = Vec::new();
            dsl::Span {
                env: out,
                lo: 0usize,
                hi: 8usize,
            }
            .encode(&mut args);
            queue.submit(split.id(), &args).expect("submit");
            m.mem()
                .control()
                .write_service_header(&queue.header(ppm_pm::ServiceState::Draining))
                .unwrap();
            sim.run_seeded(7, 2_000);
            sim.run_to_completion(1_000);
            (sim.render_trace(), sim.digest())
        };
        let (t1, d1) = run();
        let (t2, d2) = run();
        assert_eq!(t1, t2, "service-mode schedule must replay byte-identically");
        assert_eq!(d1, d2);
    }

    #[test]
    fn same_seed_same_trace_and_digest() {
        let run = |seed: u64| -> (String, u64, bool) {
            let m = machine(3, FaultConfig::none());
            let r = m.alloc_region(64);
            let comp = markers(r, 12);
            let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(256));
            sim.run_seeded(seed, 4_000);
            (sim.render_trace(), sim.digest(), sim.completed())
        };
        let (t1, d1, c1) = run(42);
        let (t2, d2, c2) = run(42);
        assert_eq!(t1, t2, "same seed must replay the identical schedule");
        assert_eq!(d1, d2);
        assert!(c1 && c2, "seeded run should complete within the budget");
        let (_, d3, _) = run(43);
        assert_ne!(d1, d3, "different seeds should interleave differently");
    }
}
