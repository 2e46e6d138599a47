//! The fault-tolerant work-stealing scheduler of Figure 3, as capsules.
//!
//! Every scheduler operation is decomposed into capsules at the paper's
//! `commit` boundaries, with "all CAM instructions ... in separate
//! capsules" (Figure 3's caption), except where §5 does not demand the
//! boundary (the third deviation below). Each capsule is one of §5's
//! atomically idempotent forms — racy-read, racy-write, or CAM capsules —
//! except `pushBottom`'s conditional push and `clearBottom` (and the
//! service mode's `pull/seat`, which is `clearBottom`'s mirror image),
//! which the paper deliberately keeps as single capsules and proves
//! idempotent via the entry tags (Lemmas A.6, A.12); those three are
//! exempt from the dynamic write-after-read check (`clearBottom` only
//! for its own three accesses).
//!
//! ## What a step is
//!
//! A scheduler capsule is a **step**: a kind plus the locals that crossed
//! the last boundary ([`crate::step`] has the enum, the word layout and
//! the codec). Installing a successor writes the step's record — one head
//! word, five argument words — into the processor's metadata block, which
//! is how the paper persists a closure; `Sched::run` is the one `match`
//! that runs a step, and its arms are Figure 3's bodies. Nothing is
//! allocated, locked or reference-counted per capsule, and nothing about
//! a step lives in the process that wrote it: a survivor in another OS
//! process decodes a dead processor's restart pointer from the same
//! words and carries on, exactly as Lemma A.10 has it.
//!
//! Processor identity is *dynamic*, exactly like Figure 3's `getProcNum()`:
//! a step evaluates `ctx.proc()` when it runs, so one resumed by an
//! adopting thief (after the original processor hard-faulted) pushes to
//! and pops from the *thief's* deque, while in-progress operations keep
//! targeting the deque named in their record — the paper's semantics for
//! `states[getProcNum()]` versus a method already executing on a
//! `procState`.
//!
//! ## Three deviations from Figure 3 as written
//!
//! **The Lemma A.10 arm.** In `popBottom`, if the owner hard-faults
//! between the successful CAM (job → local) and the jump to the claimed
//! thread, the local entry is stolen and the adopting thief resumes the
//! capsule that checks the CAM (`popBottom/cam` itself here, see the
//! third deviation) — which then finds the entry `taken` (the thief's own
//! steal) rather than `local`, and Figure 3 as written would return NULL,
//! dropping the thread. Lemma A.10's prose states the intent: the resumed
//! capsule's closure still holds the continuation, "which will then be
//! jumped to". We therefore also jump to the claimed thread when the entry
//! is observed `taken` one tag on; only the uniquely-successful adopting
//! thief can observe that state (gated by `popTop`'s `stack[i] == new`
//! check), so the thread still runs exactly once. The engine explorer's
//! `drop-lemma-a10` mutant ([`crate::model::engine`]) pins it: without
//! the arm the adopted thread is lost and no completion is reachable.
//!
//! **A `popBottom` that misses on `taken` helps.** In Figure 3 only a
//! thief *of* deque `v` runs `helpPopTop(v)`. When a thief wins `popTop`'s
//! CAM on the owner's last job and dies before its help capsules, its own
//! seat never turns `local`, so nothing of it is adoptable; the owner
//! then misses in `popBottom` (the entry at `bot − 1` reads `taken`, or
//! its CAM loses to the `taken`), and at P = 2 no other thief exists to
//! help — the survivor spun `steal → help/read → popTop/read` forever.
//! So a `popBottom` that sees `taken` — at its read (in `clearBottom` or
//! `popBottom/read`), or losing its CAM to it — runs the same three help
//! capsules a thief would (`helpPopTop` on that deque, then the steal
//! loop); the dead thief's seat turns `local` and the survivor adopts
//! it. The Figure 4 transitions are unchanged (the help capsules are the
//! thief's), and an `empty` miss costs nothing extra. The explorer's
//! progress check found the livelock (`victim-never-helps` is that
//! mutant); `sim.rs` pins its two shortest schedules.
//!
//! **Boundaries §5 does not demand are not drawn.** §5 asks two things of
//! a capsule boundary: a capsule holds at most one racy instruction, and
//! a CAM's outcome is learnt by reading the word, never from a local.
//! Figure 3 draws three boundaries more than that, and a fork pays each
//! as a journal install; here a fork pays three scheduler records
//! (`pushBottom/commit`, `clearBottom`, `popBottom/cam`) where Figure 3
//! has six. The retired kinds stay reserved in [`crate::step`].
//!
//! * *`pushBottom`'s reads end the forking capsule.* `bot` and the tags
//!   of `entry(b)` and `entry(b + 1)` of the executing processor's own
//!   deque change only by that processor's steps while it runs a thread
//!   (thieves CAM a `job` at `top`, helpers only a seat that is still
//!   `empty`, and a `local` entry only once its owner is dead), so the
//!   three reads are not racy, and the forking capsule — a frame, re-run
//!   whole on a fault — ends by installing `pushBottom/commit` with what
//!   they saw (`Sched`'s [`ppm_core::Scheduler::on_fork`]). A death
//!   before that install leaves the forking frame as the restart pointer,
//!   which an adopter re-runs whole on its own deque; a death after it
//!   leaves the commit, whose restart is Lemma A.6's. The commit's
//!   adopting-thief arm (lines 75-76) re-pushes on the adopter's own
//!   deque through the same reads.
//! * *`clearBottom` runs `popBottom/read`'s body.* `clearBottom` touches
//!   only the executing processor's own `bot` and bottom entry, and its
//!   three accesses keep Lemma A.12's write-after-read exemption, set on
//!   every attempt. Then `popBottom/read`'s reads run checked: the read
//!   of `entry(b − 1)` is the capsule's one racy access, and nothing but
//!   the successor's install follows it, so a re-run re-clears (another
//!   tag bump, as Lemma A.12 allows) and re-reads, last read wins.
//!   `popBottom/read` stays as `findWork`'s first capsule, for a
//!   processor that has no thread to end.
//! * *`popBottom`'s check joins its CAM.* The CAM (`job → local`, tag + 1)
//!   is the capsule's first access to `entry(b − 1)`, so the read after
//!   it is no exposed read. From that CAM on the entry changes only by
//!   the owner's own later steps — which run after this capsule has
//!   installed its successor — or by an adopter once the owner is dead
//!   (`local → taken` at tag + 2). The check's arms decide both: the
//!   read sees `local` at tag + 1, or the adopter's `taken` one tag on
//!   (the Lemma A.10 arm), and a re-run's CAM is a no-op that leaves the
//!   read's verdict as it was. The Lemma A.10 window is now the access
//!   between the CAM and the read, so only a mid-capsule hard fault
//!   reaches that arm; `tests/capsule_forms.rs` pins it with a scheduled
//!   one, and `drop-lemma-a10` ([`crate::model::engine`]) opens the
//!   window as a boundary for the explorer.
//!
//! ## Foreign events
//!
//! A join frees its subtree's pool words only if the subtree ran on the
//! forking processor alone (`ppm_pm::proc`'s join-time reclamation). The
//! steps that bring another processor's work here, or find that a branch
//! pushed here runs elsewhere, count a foreign event on the executing
//! processor ([`ProcCtx::note_foreign`]): a won steal (`popTop/check`), a
//! won adoption (`popTop/checkLocal`), a won pull (`pull/check`), and a
//! `popBottom` miss on `taken` (`help_then_steal`). A miss on `empty`
//! counts nothing: it only enters the steal loop, which leaves by one of
//! the three wins or by halting. A re-run may count again, which only
//! loses a reclaim.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ppm_core::{
    Active, ContArena, DoneFlag, Machine, Next, ProcMeta, SchedRecord, Scheduler, NULL_HANDLE,
};
use ppm_obs::{Counter, Histogram, Obs, TraceKind};
use ppm_pm::service::{slot_checksum, slot_epoch, slot_state};
use ppm_pm::{is_frame_at, PersistentMemory, PmResult, ProcCtx, SlotPhase, Word};

use crate::cluster::ShardDomain;
use crate::deque::{build_deques, DequeAddrs};
use crate::entry::{kind_of, pack, tag_of, unpack, EntryKind, EntryVal, MAX_PROCS};
use crate::service::claimable;
use crate::step::{seat, SchedStep, SchedStep::*, Then};

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Deque slots per processor. The WS-deque never deletes entries, so
    /// this must cover the computation's forks-per-processor plus steals
    /// (§6.3: "enough empty entries to complete the computation").
    pub deque_slots: usize,
    /// Seed for deterministic victim selection.
    pub seed: u64,
    /// Install a write observer asserting the Figure 4 entry-transition
    /// table on every deque mutation (tests and the E11 experiment).
    pub check_transitions: bool,
    /// Checkpoint cadence for registered persistent runs (see
    /// [`crate::checkpoint`]): periodic quiesced boundaries that flush
    /// dirty pages, write a resume record (durable machines), and reclaim
    /// dead frame-pool words. Defaults to every
    /// [`crate::checkpoint::DEFAULT_CHECKPOINT_CAPSULES`] capsules. It
    /// applies only to a run whose seats cover every processor (see
    /// [`crate::cluster`]).
    pub checkpoint: crate::checkpoint::CheckpointPolicy,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            deque_slots: 1 << 14,
            seed: 0x5EED_CAFE,
            check_transitions: false,
            checkpoint: crate::checkpoint::CheckpointPolicy::default(),
        }
    }
}

impl SchedConfig {
    /// Config with a given deque size.
    pub fn with_slots(slots: usize) -> Self {
        SchedConfig {
            deque_slots: slots,
            ..Default::default()
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared scheduler state: deque addresses, processor metadata, and the
/// computation's completion flag.
pub struct Sched {
    p: usize,
    deques: Vec<DequeAddrs>,
    metas: Vec<ProcMeta>,
    mem: Arc<PersistentMemory>,
    done: DoneFlag,
    seed: u64,
    /// Per-processor steal-attempt epochs (victim-selection stream state;
    /// ephemeral, affects only which victim is probed next).
    epochs: Vec<AtomicU64>,
    /// Sharded-mode domain (see [`crate::cluster`]): names this process's
    /// shard (where its ring scan starts) and counts what crosses a shard
    /// boundary — adoptions from the shards the cross-process liveness
    /// oracle has declared dead, live steals from the rest. `None` for
    /// ordinary single-process schedulers.
    domain: Option<Arc<ShardDomain>>,
    /// The machine's observability handle (steal and adoption events
    /// flow here).
    obs: Arc<Obs>,
    /// Steal attempts entered (registered as `ppm_steal_attempts_total`).
    steal_attempts: Counter,
    /// Steals that won their CAM (registered as `ppm_steals_total`).
    steals: Counter,
    /// Time from entering the steal loop to winning a steal, µs
    /// (registered as `ppm_steal_latency_us`).
    steal_latency: Histogram,
    /// The steal-latency clock's zero.
    clock: Instant,
    /// Per-processor µs reading of `clock` at the current steal-loop
    /// entry (0 = not in the loop). Ephemeral: only feeds the latency
    /// metric.
    steal_since: Vec<AtomicU64>,
    /// Per-processor consecutive failed `popTop` CAMs since the last won
    /// steal or uncontended probe. Ephemeral: drives only the backoff
    /// window, never correctness.
    contention: Vec<AtomicU64>,
    /// Backoff sleeps actually applied, µs (registered as
    /// `ppm_steal_backoff_us`; p99 surfaces as
    /// `ppm_steal_backoff_p99_us`).
    steal_backoff: Histogram,
    /// Injector queue ([`crate::service`]): every session's durable work
    /// source, consulted by the steal loop before probing victim deques.
    /// Unset only for bare schedulers (protocol tests, baselines).
    injector: std::sync::OnceLock<Arc<crate::service::InjectorQueue>>,
    /// Raised when a processor thread of this process panics
    /// ([`Sched::abort`]). Process-local and never set in a healthy run:
    /// the steal loop halts on it as on the done flag, so siblings stop
    /// spinning for work the dead thread held.
    aborted: AtomicBool,
}

/// Longest single backoff sleep, µs. Small enough that a saturated
/// spinner still polls the done flag promptly; large enough that a
/// contended `popTop` CAM stops being re-fired back-to-back.
const BACKOFF_CAP_US: u64 = 64;

impl Sched {
    /// Builds scheduler state on a machine: carves the deques and captures
    /// the shared handles.
    pub fn new(machine: &Machine, done: DoneFlag, cfg: &SchedConfig) -> Arc<Self> {
        Self::with_domain(machine, done, cfg, None)
    }

    /// [`Sched::new`], for one shard of a multi-process cluster when
    /// `domain` names it: the ring scan starts at the shard's slot, and
    /// steals across a shard boundary are counted in `domain`.
    pub(crate) fn with_domain(
        machine: &Machine,
        done: DoneFlag,
        cfg: &SchedConfig,
        domain: Option<Arc<ShardDomain>>,
    ) -> Arc<Self> {
        let p = machine.procs();
        if let Some(d) = &domain {
            assert_eq!(
                d.map().procs(),
                p,
                "shard map must partition the processors"
            );
        }
        assert!((1..=MAX_PROCS).contains(&p), "P must be in 1..={MAX_PROCS}");
        assert!(
            cfg.deque_slots < crate::entry::MAX_SLOTS,
            "deque_slots exceeds taken-payload capacity"
        );
        let deques = build_deques(machine, cfg.deque_slots);
        if cfg.check_transitions {
            install_transition_checker(machine, &deques);
        }
        let obs = machine.obs().clone();
        let reg = obs.registry();
        let steal_attempts = reg.counter("ppm_steal_attempts_total", "steal attempts entered");
        let steals = reg.counter("ppm_steals_total", "steals that won their CAM");
        let steal_latency = reg.histogram(
            "ppm_steal_latency_us",
            "time from entering the steal loop to winning a steal (microseconds)",
        );
        let steal_backoff = reg.histogram(
            "ppm_steal_backoff_us",
            "contention backoff sleeps applied before steal attempts (microseconds)",
        );
        {
            let h = steal_backoff.clone();
            reg.gauge_fn(
                "ppm_steal_backoff_p99_us",
                "99th-percentile contention backoff sleep (microseconds)",
                &[],
                move || h.quantile(0.99).unwrap_or(0) as f64,
            );
        }
        if let Some(d) = &domain {
            d.register_into(reg);
        }
        Arc::new(Sched {
            p,
            metas: (0..p).map(|i| machine.proc_meta(i)).collect(),
            mem: machine.mem().clone(),
            done,
            seed: cfg.seed,
            epochs: (0..p).map(|_| AtomicU64::new(0)).collect(),
            domain,
            deques,
            obs,
            steal_attempts,
            steals,
            steal_latency,
            clock: Instant::now(),
            steal_since: (0..p).map(|_| AtomicU64::new(0)).collect(),
            contention: (0..p).map(|_| AtomicU64::new(0)).collect(),
            steal_backoff,
            injector: std::sync::OnceLock::new(),
            aborted: AtomicBool::new(false),
        })
    }

    /// Attaches an injector queue. The steal loop consults it
    /// (before probing victim deques) from the next attempt on; at most
    /// one queue per scheduler, installed during session construction.
    pub(crate) fn set_injector(&self, queue: Arc<crate::service::InjectorQueue>) {
        self.injector
            .set(queue)
            .expect("injector queue installed twice");
    }

    /// Stops this process's steal loops: every processor halts at its
    /// next `sched/steal`, as when the done flag is set. Raised by a
    /// processor thread that is unwinding from a panic.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// The installed injector queue, if this is a cluster scheduler.
    pub(crate) fn injector(&self) -> Option<&Arc<crate::service::InjectorQueue>> {
        self.injector.get()
    }

    /// Marks `me` as inside the steal loop (first attempt only), so a
    /// later win can report the loop-entry-to-steal latency.
    fn note_steal_enter(&self, me: usize) {
        self.steal_attempts.inc();
        if self.steal_since[me].load(Ordering::Relaxed) == 0 {
            self.steal_since[me].store(self.now_us().max(1), Ordering::Relaxed);
        }
    }

    fn now_us(&self) -> u64 {
        self.clock.elapsed().as_micros() as u64
    }

    /// Reports a won steal: latency histogram, counter, trace event.
    /// `what` distinguishes job steals from dead-owner local adoption in
    /// the trace.
    fn note_steal_win(&self, me: usize, victim: usize, what: &'static str) {
        self.steals.inc();
        self.note_calm(me);
        let since = self.steal_since[me].swap(0, Ordering::Relaxed);
        if since != 0 {
            self.steal_latency
                .observe(self.now_us().saturating_sub(since));
        }
        self.obs.event(TraceKind::Steal, None, Some(me as u32), || {
            format!("{what} from proc {victim}")
        });
    }

    /// Reports a cross-shard adoption of a dead sibling's frontier entry
    /// (the recovery-timeline events).
    fn note_adoption_event(&self, me: usize, owner: usize, what: &'static str) {
        let shard = self.domain.as_ref().map(|d| d.shard_of(owner) as u32);
        self.obs
            .event(TraceKind::Adoption, shard, Some(me as u32), || {
                format!("{what} entry of dead proc {owner}")
            });
    }

    /// The deque addresses (read-only; used by the driver and tests).
    pub fn deques(&self) -> &[DequeAddrs] {
        &self.deques
    }

    /// The completion flag.
    pub fn done(&self) -> DoneFlag {
        self.done
    }

    fn d(&self, p: usize) -> DequeAddrs {
        self.deques[p]
    }

    /// Victim selection: a uniform draw over every other processor — in a
    /// cluster too, where live and dead shards are probed alike.
    fn pick_victim(&self, thief: usize, n: u64) -> Option<usize> {
        if self.p <= 1 {
            return None;
        }
        let r = splitmix64(self.seed ^ ((thief as u64) << 40) ^ n);
        let v = r as usize % (self.p - 1);
        Some(if v >= thief { v + 1 } else { v })
    }

    /// Where `me`'s injector scan starts: a home slot — in a cluster its
    /// shard's, where a batch run publishes the shard's job, else a
    /// processor stagger — advanced by the attempt count in `n`, which
    /// restarts with every findWork entry. A processor's first scan
    /// prefers its own shard's job; a spinning one walks the ring rather
    /// than rescanning from one slot, which would pull the newest job
    /// first, beside the slots the submitter is writing.
    fn ring_start(&self, me: usize, n: u64) -> usize {
        let home = match &self.domain {
            Some(d) => d.shard_of(me),
            None => me.wrapping_mul(7),
        };
        home.wrapping_add(n as usize)
    }

    /// Exponential-backoff sleep before a steal attempt, engaged only
    /// after consecutive failed `popTop` CAMs. The base window is seeded
    /// from the live steal-latency histogram (median loop-entry-to-win
    /// time, clamped to `[1, 8]` µs), doubles per consecutive failure up
    /// to [`BACKOFF_CAP_US`], and the actual sleep is drawn uniformly
    /// from the window — randomized exponential backoff, so colliding
    /// thieves decorrelate instead of re-firing their CAMs in lockstep.
    fn backoff(&self, me: usize, n: u64) {
        let fails = self.contention[me].load(Ordering::Relaxed);
        if fails == 0 {
            return;
        }
        let base = self.steal_latency.quantile(0.5).unwrap_or(1).clamp(1, 8);
        let window = (base << fails.min(16)).min(BACKOFF_CAP_US);
        let jitter = splitmix64(self.seed ^ n ^ ((me as u64) << 52)) % window + 1;
        self.steal_backoff.observe(jitter);
        std::thread::sleep(std::time::Duration::from_micros(jitter));
    }

    /// A failed `popTop` CAM: someone else won the entry — contention.
    fn note_contention(&self, me: usize) {
        self.contention[me].fetch_add(1, Ordering::Relaxed);
    }

    /// An uncontended probe outcome (empty deque, won steal): clear the
    /// backoff window.
    fn note_calm(&self, me: usize) {
        self.contention[me].store(0, Ordering::Relaxed);
    }

    /// Bench/diagnostic hook: drive the backoff policy as if `rounds`
    /// consecutive `popTop` CAMs had failed, observing every sleep into
    /// `ppm_steal_backoff_us`. Real runs engage the identical path from
    /// the CAM-loss arms; this exists so hosts where the OS serializes
    /// the worker threads (and genuine CAM races are vanishingly rare)
    /// can still pin the policy curve — window growth and cap — in a
    /// deterministic benchmark.
    pub fn contention_probe(&self, me: usize, rounds: u64) {
        for n in 0..rounds {
            self.note_contention(me);
            self.backoff(me, n);
        }
        self.note_calm(me);
    }

    /// Pre-steal guard for `local` entries of dead processors, one rule
    /// for every owner: committing the steal (the CAM sequence of lines
    /// 54-60) is only safe when the frozen restart pointer still denotes a
    /// capsule — a frame the registry rehydrates or a record this codec
    /// decodes — because a taken local entry whose thread cannot be
    /// resumed is a lost thread.
    /// A dead owner's words are frozen, so the verdict is stable. What is
    /// being validated is bytes another process may have written: in a
    /// healthy run this never refuses, and a refusal (a corrupt restart
    /// pointer) is recorded rather than silently spun on.
    fn restart_pointer_decodes(&self, owner: usize, handles: &ContArena) -> bool {
        let decodes = self.restart_point(owner, handles).is_some();
        if !decodes {
            let handle = self.mem.load(self.metas[owner].active);
            let shard = self.domain.as_ref().map(|d| {
                d.note_blocked_adoption(owner);
                d.shard_of(owner) as u32
            });
            self.obs.event(TraceKind::BlockedAdoption, shard, None, || {
                format!("corrupt restart pointer {handle:#x} of dead proc {owner}")
            });
        }
        decodes
    }

    /// The capsule processor `p`'s restart pointer denotes, if it is one
    /// this scheduler can run: a frame the registry rehydrates or a
    /// record this codec decodes.
    pub(crate) fn restart_point(&self, p: usize, handles: &ContArena) -> Option<Active> {
        match handles.try_resolve(self.mem.load(self.metas[p].active)) {
            Ok(Active::Sched(rec)) => self.decode(&rec).map(|_| Active::Sched(rec)),
            denoted => denoted.ok(),
        }
    }

    /// The step `rec` denotes, if its words are a step of *this* machine:
    /// the codec accepts them and the deque they name exists.
    fn decode(&self, rec: &SchedRecord) -> Option<SchedStep> {
        SchedStep::decode(rec).filter(|_| crate::step::proc_of(rec) < self.p)
    }

    /// `findWork`, the first capsule of every processor that starts
    /// without a thread (§6.3) — try `popBottom`, then steal.
    pub fn find_work(&self) -> SchedRecord {
        PopBottomRead().encode()
    }

    fn next_epoch(&self, me: usize) -> u64 {
        // A fresh victim-selection stream index per findWork entry. Only
        // steers randomness; re-running the creating capsule may draw a new
        // stream, which is harmless (see module docs).
        self.epochs[me].fetch_add(1 << 32, Ordering::Relaxed)
    }

    /// Leaves `popBottom` empty-handed: into the steal loop on a fresh
    /// victim-selection stream.
    fn steal_afresh(&self, me: usize) -> Next {
        go(Steal(self.next_epoch(me)))
    }

    /// Leaves `popBottom` on a `Taken` miss: `helpPopTop` on deque `v`,
    /// whose top holds the steal in flight, then the steal loop as
    /// [`Sched::steal_afresh`] enters it. The miss is a foreign event
    /// ([`ProcCtx::note_foreign`]): a branch this processor pushed runs
    /// elsewhere, so no join it has open may free its subtree.
    pub(crate) fn help_then_steal(&self, ctx: &mut ProcCtx, v: usize) -> Next {
        ctx.note_foreign();
        go(HelpRead(
            v,
            Then::Steal,
            0,
            0,
            0,
            self.next_epoch(ctx.proc()),
        ))
    }

    /// Runs one scheduler capsule. The arms are Figure 3's bodies — the
    /// reads, writes and CAMs of each, in the paper's order — and every
    /// arm ends by naming its successor step (or a thread handle, or
    /// `Halt`). `handles` is the engine's resolver, asked one question by
    /// one arm: whether a dead owner's restart pointer decodes.
    pub(crate) fn run(
        &self,
        step: SchedStep,
        ctx: &mut ProcCtx,
        handles: &ContArena,
    ) -> PmResult<Next> {
        let s = self;
        match step {
            // ==========================================================
            // scheduler() — entry after a thread finishes (lines 117-122)
            // — and findWork / popBottom (lines 81-93, 95-98).
            //
            // `clearBottom` clears the executing processor's bottom
            // entry, then runs `findWork`'s first capsule, `popBottom`'s
            // reads (lines 82-84), in the same capsule (module docs, third
            // deviation); a processor with no thread to end starts at the
            // reads alone. The clear reads the bottom entry's tag and
            // rewrites it, so exactly those three accesses run unchecked
            // (Lemma A.12's idempotence argument); the exemption is set
            // on every attempt, since a soft-fault re-run starts with
            // whatever the faulted attempt left. The read of `entry(b −
            // 1)` is the one racy access, and the last.
            // ==========================================================
            ClearBottom() | PopBottomRead() => {
                let me = ctx.proc();
                let d = s.d(me);
                if step == ClearBottom() {
                    ctx.set_war_exempt(true);
                    let b = ctx.pread(d.bot)? as usize;
                    let cur = ctx.pread(d.entry(b))?;
                    ctx.pwrite(
                        d.entry(b),
                        pack(tag_of(cur).wrapping_add(1), EntryVal::Empty),
                    )?;
                    ctx.set_war_exempt(false);
                }
                // `popBottom`'s reads, one body for both kinds: a
                // `clearBottom` re-reads `bot` (which it did not move), so a
                // fork reads the words it read with a separate
                // `popBottom/read`.
                let b = ctx.pread(d.bot)? as usize;
                if b == 0 {
                    // Deque empty (nothing was ever pushed, or everything
                    // below was consumed): no local work.
                    return Ok(s.steal_afresh(me));
                }
                let old = ctx.pread(d.entry(b - 1))?;
                match unpack(old) {
                    (_, EntryVal::Job { handle }) => Ok(go(PopBottomCam(me, b, old, handle))),
                    // A thief took our last job: land its steal before
                    // stealing (module docs, second deviation).
                    (_, EntryVal::Taken { .. }) => Ok(s.help_then_steal(ctx, me)),
                    _ => Ok(s.steal_afresh(me)),
                }
            }
            // popBottom capsule 2 (lines 86-92): the CAM, then observe it
            // — take the job or give up. The CAM is the capsule's first
            // access to the entry, so the read after it is no exposed
            // read (module docs, third deviation); a re-run's CAM is a
            // no-op and its read decides alike. Includes the Lemma A.10
            // adoption case (module docs).
            PopBottomCam(owner, b, old, f) => {
                let d = s.d(owner);
                let new = pack(tag_of(old).wrapping_add(1), EntryVal::Local);
                ctx.pcam(d.entry(b - 1), old, new)?;
                let cur = ctx.pread(d.entry(b - 1))?;
                if cur == new {
                    ctx.pwrite(d.bot, (b - 1) as Word)?;
                    // Jump by handle: the engine installs the handle itself
                    // as the restart pointer and runs `f`'s frame where it
                    // lies.
                    return Ok(Next::JumpHandle(f));
                }
                if kind_of(cur) == EntryKind::Taken && tag_of(cur) == tag_of(new).wrapping_add(1) {
                    // Our CAM succeeded, the owner died before this
                    // capsule ended, and we (the uniquely successful
                    // adopting thief) already turned the local entry into
                    // taken. Run the claimed thread (Lemma A.10).
                    return Ok(Next::JumpHandle(f));
                }
                if kind_of(cur) == EntryKind::Taken {
                    // Our CAM lost to a thief: land its steal first.
                    return Ok(s.help_then_steal(ctx, owner));
                }
                Ok(s.steal_afresh(ctx.proc()))
            }

            // ==========================================================
            // Steal loop (findWork lines 100-107): check for termination,
            // pick a victim, read our own bottom entry reference, and
            // enter the victim's `popTop`.
            // ==========================================================
            Steal(n) => {
                if s.done.read(ctx)? || s.aborted.load(Ordering::Relaxed) {
                    return Ok(Next::Halt);
                }
                let me = ctx.proc();
                s.note_steal_enter(me);
                // Published injector jobs are root work — drain the
                // durable queue before probing victim deques. The scan is
                // an uncosted ephemeral peek (like victim selection); the
                // claim itself is the costed read/CAM/check chain below.
                if let Some(inj) = s.injector.get() {
                    if let Some(slot) = inj.scan(s.ring_start(me, n)) {
                        return Ok(go(PullRead(slot, n)));
                    }
                }
                s.backoff(me, n);
                let victim = match s.pick_victim(me, n) {
                    Some(v) => v,
                    None => {
                        // P = 1: nothing to steal; keep polling the flag.
                        return Ok(go(Steal(n + 1)));
                    }
                };
                // yield (Figure 3 line 101): give processors holding work
                // the processor before probing. ABP's yield-to-all keeps
                // steal attempts from starving workers in multiprogrammed
                // settings — essential when model processors outnumber
                // cores.
                std::thread::yield_now();
                let my = s.d(me);
                let b = ctx.pread(my.bot)? as usize;
                let c = tag_of(ctx.pread(my.entry(b))?);
                // popTop begins with helpPopTop (line 33); `(me, b, c)`
                // identify where the stolen thread's local entry will
                // live — our bottom entry and its tag.
                Ok(go(HelpRead(
                    victim,
                    Then::PopTopRead,
                    0,
                    seat(me, b, c),
                    0,
                    n,
                )))
            }

            // ==========================================================
            // helpPopTop (lines 20-27) on deque `v`, then continue with
            // `then` (and the locals `i`, `new`, `f`, `n` it will need)
            // — three capsules.
            // ==========================================================

            // Capsule 1: read `top` and the entry there.
            HelpRead(v, then, i, new, f, n) => {
                let d = s.d(v);
                let t = ctx.pread(d.top)? as usize;
                let w = ctx.pread(d.entry(t))?;
                match unpack(w) {
                    (_, EntryVal::Taken { .. }) => {
                        Ok(go(HelpCamThief(v, t, w, then, i, new, f, n)))
                    }
                    _ => Ok(go(then.step(v, i, new, f, n))),
                }
            }
            // Capsule 2 (line 25): set the thief's entry — the one the
            // `taken` entry `w` names — to local.
            HelpCamThief(v, t, w, then, i, new, f, n) => {
                if let (_, EntryVal::Taken { proc, slot, tag }) = unpack(w) {
                    let ps = s.d(proc).entry(slot);
                    ctx.pcam(
                        ps,
                        pack(tag, EntryVal::Empty),
                        pack(tag.wrapping_add(1), EntryVal::Local),
                    )?;
                }
                Ok(go(HelpCamTop(v, t, then, i, new, f, n)))
            }
            // Capsule 3 (line 26): advance `top`.
            HelpCamTop(v, t, then, i, new, f, n) => {
                ctx.pcam(s.d(v).top, t as Word, (t + 1) as Word)?;
                Ok(go(then.step(v, i, new, f, n)))
            }

            // ==========================================================
            // popTop (lines 32-64)
            // ==========================================================

            // popTop capsule 1 (lines 34-36): read `top` and the entry,
            // commit, then branch. `(thief, e_slot, c)` identify where the
            // stolen thread's local entry will live — the thief's bottom
            // entry and its tag.
            PopTopRead(v, thief, e_slot, c, n) => {
                let d = s.d(v);
                let i = ctx.pread(d.top)? as usize;
                let old = ctx.pread(d.entry(i))?;
                let taken = EntryVal::Taken {
                    proc: thief,
                    slot: e_slot,
                    tag: c,
                };
                match unpack(old) {
                    // Line 39: nothing to steal — an uncontended outcome,
                    // so any backoff window collapses.
                    (_, EntryVal::Empty) => {
                        s.note_calm(ctx.proc());
                        Ok(go(Steal(n + 1)))
                    }
                    // Lines 41-42: a steal is in progress; help it, then
                    // give up.
                    (_, EntryVal::Taken { .. }) => Ok(go(HelpRead(v, Then::Steal, 0, 0, 0, n + 1))),
                    // Lines 44-49: a job; try to take it.
                    (tag, EntryVal::Job { handle }) => {
                        let new = pack(tag.wrapping_add(1), taken);
                        Ok(go(PopTopCam(v, i, old, new, handle, n)))
                    }
                    // Lines 51-63: local work; steal it only from a dead
                    // owner.
                    (tag, EntryVal::Local) => {
                        if !ctx.is_live(v) && s.restart_pointer_decodes(v, handles) {
                            let recheck = ctx.pread(d.entry(i))?;
                            if recheck == old {
                                // commit (line 54), then lines 55-60.
                                let new = pack(tag.wrapping_add(1), taken);
                                return Ok(go(ClearAboveRead(v, i, old, new, n)));
                            }
                        }
                        Ok(go(Steal(n + 1)))
                    }
                }
            }
            // popTop job-steal CAM (line 46), alone in its capsule; then
            // help, then check.
            PopTopCam(v, i, old, new, f, n) => {
                ctx.pcam(s.d(v).entry(i), old, new)?;
                Ok(go(HelpRead(v, Then::CheckJob, i, new, f, n)))
            }
            // popTop job-steal check (lines 48-49): did our CAM win?
            PopTopCheck(v, i, new, f, n) => {
                let cur = ctx.pread(s.d(v).entry(i))?;
                if cur == new {
                    let me = ctx.proc();
                    ctx.note_foreign();
                    s.note_steal_win(me, v, "job");
                    if let Some(d) = &s.domain {
                        if d.is_remote(v) {
                            if d.is_adoptable(d.shard_of(v)) {
                                // The owner's shard is dead: this is
                                // adoption of an orphaned entry, the
                                // recovery path.
                                d.note_adopted_job();
                                s.note_adoption_event(me, v, "job");
                            } else {
                                // The owner's shard is alive: a live-shard
                                // steal — ordinary load balancing that
                                // happens to cross a process boundary.
                                d.note_live_steal();
                            }
                        }
                    }
                    Ok(Next::JumpHandle(f))
                } else {
                    // Our CAM lost to another thief: contention — widen
                    // the backoff window for the next attempt.
                    s.note_contention(ctx.proc());
                    Ok(go(Steal(n + 1)))
                }
            }
            // Local steal, step 1 of line 56: read the tag of the entry
            // *above* the local entry (it will be cleared so it can never
            // be stolen).
            ClearAboveRead(v, i, old, new, n) => {
                let above = ctx.pread(s.d(v).entry(i + 1))?;
                Ok(go(ClearAboveWrite(v, i, old, new, tag_of(above), n)))
            }
            // Local steal, step 2 of line 56: clear the entry above
            // (erases a transient second local left by an interrupted
            // pushBottom).
            ClearAboveWrite(v, i, old, new, above_tag, n) => {
                ctx.pwrite(
                    s.d(v).entry(i + 1),
                    pack(above_tag.wrapping_add(1), EntryVal::Empty),
                )?;
                Ok(go(PopTopCamLocal(v, i, old, new, n)))
            }
            // Local steal CAM (line 57), then help, then check-and-adopt.
            PopTopCamLocal(v, i, old, new, n) => {
                ctx.pcam(s.d(v).entry(i), old, new)?;
                Ok(go(HelpRead(v, Then::CheckLocal, i, new, 0, n)))
            }
            // Local steal check (lines 59-60): on success, adopt the dead
            // owner's active capsule (`getActiveCapsule`).
            PopTopCheckLocal(v, i, new, n) => {
                let cur = ctx.pread(s.d(v).entry(i))?;
                if cur != new {
                    // Lost the adoption CAM to a competing thief.
                    s.note_contention(ctx.proc());
                    return Ok(go(Steal(n + 1)));
                }
                // Frozen since the owner died, and checked to decode
                // before the CAM was committed.
                let handle = ctx.pread(s.metas[v].active)?;
                if handle != NULL_HANDLE {
                    let me = ctx.proc();
                    ctx.note_foreign();
                    s.note_steal_win(me, v, "local");
                    if let Some(d) = &s.domain {
                        if d.is_remote(v) {
                            d.note_adopted_local();
                            s.note_adoption_event(me, v, "local");
                        }
                    }
                    Ok(Next::JumpHandle(handle))
                } else {
                    // The owner died outside threaded code with a cleared
                    // restart pointer; nothing to resume.
                    Ok(go(Steal(n + 1)))
                }
            }

            // ==========================================================
            // pushBottom (lines 66-79) — the fork path: push the forked
            // child `f`, then continue the thread at `cont`.
            // ==========================================================

            // Capsule 1 (lines 67-70) ends the forking capsule (`on_fork`
            // below); this is capsule 2 (lines 71-78). Kept as a single capsule like the paper (the
            // re-evaluated condition is what makes the re-run and the
            // adopting-thief cases work — Lemma A.6); unchecked because it
            // reads the bottom entry and then CAMs it.
            PushBottomCommit(owner, b, t1, t2, f, cont) => {
                let d = s.d(owner);
                let local_b = pack(t2, EntryVal::Local);
                let cur = ctx.pread(d.entry(b))?;
                if cur == local_b {
                    // Lines 72-74: move our local up, then turn the old
                    // local into the forked job.
                    ctx.pwrite(d.entry(b + 1), pack(t1.wrapping_add(1), EntryVal::Local))?;
                    ctx.pwrite(d.bot, (b + 1) as Word)?;
                    ctx.pcam(
                        d.entry(b),
                        local_b,
                        pack(t2.wrapping_add(1), EntryVal::Job { handle: f }),
                    )?;
                    return Ok(Next::JumpHandle(cont));
                }
                let above = ctx.pread(d.entry(b + 1))?;
                if kind_of(above) == EntryKind::Empty {
                    // Lines 75-76: we are an adopting thief — the original
                    // owner died before the CAM and its local entry was
                    // stolen (which also cleared the entry above). Re-push
                    // the fork on the executing processor's own deque.
                    return Ok(Next::Sched(s.on_fork(ctx, f, cont)?));
                }
                // The CAM already happened (a re-run after the push
                // completed): just return to the thread.
                Ok(Next::JumpHandle(cont))
            }

            // ==========================================================
            // Service mode: the injector claim chain, entered from the
            // steal loop (see `crate::service` for the slot protocol).
            // ==========================================================

            // Claim chain capsule 1: re-read the slot (the scan was an
            // uncosted peek), verify the two-phase publish's checksum, and
            // enter the seat. Any mismatch falls back into the steal loop.
            // The puller is latched here as the claimant, so whoever
            // finishes this chain issues the same CAM.
            PullRead(slot, n) => {
                let me = ctx.proc();
                let q = s.injector().expect("pull without an injector queue");
                let st = ctx.pread(q.state_addr(slot))?;
                if !claimable(st) {
                    return Ok(go(Steal(n + 1)));
                }
                let ticket = ctx.pread(q.ticket_addr(slot))?;
                let entry = ctx.pread(q.entry_addr(slot))?;
                let check = ctx.pread(q.check_addr(slot))?;
                if check != slot_checksum(ticket, entry) || !is_frame_at(&s.mem, entry as usize) {
                    // A torn publish cannot happen (publish follows the
                    // flush); this guards scavenge-worthy corruption from
                    // spreading.
                    return Ok(go(Steal(n + 1)));
                }
                Ok(go(PullSeat(slot, me, st, entry, ticket)))
            }
            // Claim chain capsule 2, before the claim: seat the puller's
            // thread marker — `Local` at the bottom of the executing
            // processor's own deque — so that from the claim CAM on, the
            // chain is a thread a thief can adopt (`crate::service`'s
            // crash coverage).
            //
            // A deque steal gets this seat from the helpPopTop protocol
            // (the `Taken` entry names the thief's slot, and helpers CAM
            // that slot to `Local`); a queue pull has no `Taken` entry, so
            // without this step the puller would run the job with an
            // `Empty` bottom entry and the job's first fork would spin
            // forever in `pushBottom`'s adopting-thief arm. Unchecked like
            // `clearBottom`: reads its own bottom tag and rewrites it (the
            // Lemma A.12 idempotence argument — a re-run overwrites with
            // another `Local`, and the tag bump fences any stale helper
            // CAM aimed at this slot from an earlier abandoned steal).
            PullSeat(slot, claimant, old, entry, ticket) => {
                let me = ctx.proc();
                let d = s.d(me);
                let b = ctx.pread(d.bot)? as usize;
                let cur = ctx.pread(d.entry(b))?;
                ctx.pwrite(
                    d.entry(b),
                    pack(tag_of(cur).wrapping_add(1), EntryVal::Local),
                )?;
                Ok(go(PullCam(slot, claimant, old, entry, ticket)))
            }
            // Claim chain capsule 3: the claim CAM. Claimant-distinct
            // payloads keep racing pullers' CAMs non-identical (§5's
            // exactly-once requirement).
            PullCam(slot, claimant, old, entry, ticket) => {
                let q = s.injector().expect("pull without an injector queue");
                let claimed = slot_state(SlotPhase::Claimed, slot_epoch(old), claimant);
                ctx.pcam(q.state_addr(slot), old, claimed)?;
                Ok(go(PullCheck(slot, claimed, entry, ticket)))
            }
            // Claim chain capsule 4: did our CAM win? Winning enters the
            // slot's entry frame (a registered capsule — the restart
            // pointer any adopting process can rehydrate). Losing ends
            // the seated thread: `clearBottom` clears the seat on the
            // executing processor's deque, and its `popBottom/read`
            // re-enters the steal loop on a fresh victim-selection stream
            // (a new findWork epoch: the attempt count restarts).
            PullCheck(slot, claimed, entry, ticket) => {
                let me = ctx.proc();
                let q = s.injector().expect("pull without an injector queue");
                if ctx.pread(q.state_addr(slot))? == claimed {
                    ctx.note_foreign();
                    q.note_claimed(me, slot, ticket);
                    // Out of the steal loop, though by no steal: no
                    // latency to report, but the stamp must go.
                    s.steal_since[me].store(0, Ordering::Relaxed);
                    return Ok(Next::JumpHandle(entry));
                }
                Ok(go(ClearBottom()))
            }
            // `service/entry` tail: the `CLAIMED → RUNNING` CAM and its
            // check.
            EntryCam(state_a, old, new, job) => {
                ctx.pcam(state_a as ppm_pm::Addr, old, new)?;
                Ok(go(EntryCheck(state_a, new, job)))
            }
            EntryCheck(state_a, new, job) => {
                if ctx.pread(state_a as ppm_pm::Addr)? == new {
                    return Ok(Next::JumpHandle(job));
                }
                // Lost: only a claimant declared dead while still running
                // and its adopter can race here (the lease fence's case);
                // safety code — whoever won the slot runs the job.
                Ok(Next::End)
            }
            // `service/done` tail: the exactly-once `RUNNING → DONE` CAM
            // and its check, which counts and traces the completion and
            // runs the drain rule: draining a closed ring sets the flag.
            DoneCam(state_a, old, done_w, ticket) => {
                ctx.pcam(state_a as ppm_pm::Addr, old, done_w)?;
                Ok(go(DoneCheck(state_a, done_w, ticket)))
            }
            DoneCheck(state_a, done_w, ticket) => {
                let me = ctx.proc();
                if ctx.pread(state_a as ppm_pm::Addr)? == done_w {
                    let q = s.injector().expect("job completion without a queue");
                    q.note_completed(me, ticket, done_w);
                    q.settle(s.done);
                }
                Ok(Next::End)
            }
        }
    }
}

/// Names the successor step: its record is what the engine journals.
pub(crate) fn go(step: SchedStep) -> Next {
    Next::Sched(step.encode())
}

impl Scheduler for Sched {
    fn run(&self, rec: &SchedRecord, ctx: &mut ProcCtx, handles: &ContArena) -> PmResult<Next> {
        match self.decode(rec) {
            Some(step) => Sched::run(self, step, ctx, handles),
            None => panic!("scheduler record {rec:?} does not decode — corrupt journal"),
        }
    }

    /// The fork path: `pushBottom(child)`, then continue at `cont`.
    /// `pushBottom`'s reads (lines 67-70) of the executing processor's
    /// own deque — `bot` and the tags at and above it, none racy while it
    /// lives — end the forking capsule, and its commit is the record
    /// (module docs, third deviation). The commit's adopting-thief arm
    /// re-pushes through here too.
    fn on_fork(&self, ctx: &mut ProcCtx, child: Word, cont: Word) -> PmResult<SchedRecord> {
        let me = ctx.proc();
        let d = self.d(me);
        let b = ctx.pread(d.bot)? as usize;
        let t1 = tag_of(ctx.pread(d.entry(b + 1))?);
        let t2 = tag_of(ctx.pread(d.entry(b))?);
        Ok(PushBottomCommit(me, b, t1, t2, child, cont).encode())
    }

    /// `scheduler()`: `clearBottom`, then `findWork`.
    fn on_end(&self) -> SchedRecord {
        ClearBottom().encode()
    }

    fn name(&self, rec: &SchedRecord) -> &'static str {
        crate::step::name(rec)
    }

    fn war_checked(&self, rec: &SchedRecord) -> bool {
        crate::step::war_checked(rec)
    }
}

/// Installs a persistent-memory write observer that panics on any entry
/// mutation violating the Figure 4 transition table. Tag-refreshing
/// rewrites within the same state (e.g. line 56 clearing an already-empty
/// slot) are not state transitions and are allowed.
///
/// `pub(crate)` so the recovery driver can defer installation until after
/// it has scrubbed stale entries (scrub stores are machine maintenance,
/// not Figure 4 transitions).
pub(crate) fn install_transition_checker(machine: &Machine, deques: &[DequeAddrs]) {
    let ranges: Vec<(usize, usize)> = deques
        .iter()
        .map(|d| (d.stack.start, d.stack.end()))
        .collect();
    machine
        .mem()
        .set_observer(Some(Arc::new(move |addr, prev, new| {
            if !ranges.iter().any(|(s, e)| addr >= *s && addr < *e) {
                return;
            }
            let from = kind_of(prev);
            let to = kind_of(new);
            if from != to && !from.can_transition_to(to) {
                panic!(
                    "illegal Figure 4 entry transition {from:?} -> {to:?} at address {addr} \
                 (prev={prev:#x}, new={new:#x})"
                );
            }
        })));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_selection_is_deterministic_and_never_self() {
        let machine = Machine::new(ppm_pm::PmConfig::parallel(4, 1 << 20));
        let done = DoneFlag::new(&machine);
        let s = Sched::new(&machine, done, &SchedConfig::with_slots(64));
        for thief in 0..4 {
            for n in 0..200 {
                let v = s.pick_victim(thief, n).unwrap();
                assert_ne!(v, thief);
                assert!(v < 4);
                assert_eq!(s.pick_victim(thief, n), Some(v), "deterministic");
            }
        }
        // All victims get probed eventually.
        let mut seen = std::collections::HashSet::new();
        for n in 0..100 {
            seen.insert(s.pick_victim(0, n).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    /// The transition checker rides the write observer, which the word
    /// path now reaches through a flag instead of a lock: on a P = 2
    /// machine, with both processors' threads mutating deque entries at
    /// once, a legal transition passes and an illegal one still panics.
    #[test]
    fn transition_checker_still_panics_at_p2() {
        use crate::entry::{pack, EntryVal};
        let machine = Machine::new(ppm_pm::PmConfig::parallel(2, 1 << 20));
        let done = DoneFlag::new(&machine);
        let mut cfg = SchedConfig::with_slots(64);
        cfg.check_transitions = true;
        let s = Sched::new(&machine, done, &cfg);
        let gate = std::sync::Barrier::new(2);
        let (legal, illegal) = std::thread::scope(|scope| {
            let write = |proc: usize, to: EntryVal| {
                let (mem, entry, gate) = (&s.mem, s.deques()[proc].entry(0), &gate);
                scope.spawn(move || {
                    gate.wait();
                    mem.store(entry, pack(1, to));
                })
            };
            // Both entries start Empty: Empty→Local is a ✓ cell of Figure
            // 4, Empty→Job is not.
            let legal = write(0, EntryVal::Local);
            let illegal = write(1, EntryVal::Job { handle: 7 });
            (legal.join(), illegal.join())
        });
        assert!(legal.is_ok());
        let panic = illegal.expect_err("Empty -> Job must trip the checker");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("illegal Figure 4 entry transition"), "{msg}");
    }

    /// The pre-steal guard reads a dead owner's frame as the dispatch
    /// would: a registered id over words that do not decode is refused and
    /// counted once, and accepted once the words are repaired.
    #[test]
    fn a_dead_owners_undecodable_frame_blocks_adoption_until_repaired() {
        use ppm_core::dsl::{CapsuleSet, Step};
        let machine = Machine::new(ppm_pm::PmConfig::parallel(2, 1 << 20));
        let done = DoneFlag::new(&machine);
        let domain = ShardDomain::new(ppm_pm::ShardMap::new(2, 2), 0);
        let cfg = SchedConfig::with_slots(64);
        let s = Sched::with_domain(&machine, done, &cfg, Some(domain.clone()));
        let flag =
            CapsuleSet::new(&machine).define("guard/flag", |_: &bool, k, _| Ok(Step::Jump(k)));
        // Word 5 is no `bool`: the frame names a registered capsule whose
        // decode refuses it.
        let frame = machine.setup_frame(flag.id(), &[5, 0]);
        machine.mem().store(machine.proc_meta(1).active, frame);

        for _ in 0..2 {
            assert!(!s.restart_pointer_decodes(1, machine.arena()));
        }
        assert_eq!(
            domain.blocked_adoptions(),
            1,
            "one lost thread, probed twice"
        );
        machine
            .mem()
            .store(frame as usize + ppm_pm::frame::FRAME_ARGS_AT, 1);
        assert!(s.restart_pointer_decodes(1, machine.arena()));
        assert_eq!(domain.blocked_adoptions(), 1);
    }

    /// `popBottom/cam` fused with its check must CAM before it reads: a
    /// mutant that reads `entry(b − 1)` first and then runs the faithful
    /// step writes a word it already read, which the strict
    /// write-after-read check refuses at the first pop (a re-run would
    /// see its own CAM and could claim a thread twice).
    #[test]
    #[should_panic(expected = "write-after-read conflict in capsule `sched/popBottom/cam`")]
    fn a_pop_bottom_that_reads_before_its_cam_is_refused() {
        use crate::sim::SimSched;
        use ppm_core::SchedRecord;

        struct ReadBeforeCam(Arc<Sched>);
        impl Scheduler for ReadBeforeCam {
            fn run(
                &self,
                rec: &SchedRecord,
                ctx: &mut ProcCtx,
                handles: &ContArena,
            ) -> PmResult<Next> {
                let step = self.0.decode(rec).expect("a step");
                if let PopBottomCam(owner, b, _, _) = step {
                    ctx.pread(self.0.d(owner).entry(b - 1))?;
                }
                self.0.run(step, ctx, handles)
            }
            fn on_fork(&self, ctx: &mut ProcCtx, child: Word, cont: Word) -> PmResult<SchedRecord> {
                self.0.on_fork(ctx, child, cont)
            }
            fn on_end(&self) -> SchedRecord {
                self.0.on_end()
            }
            fn name(&self, rec: &SchedRecord) -> &'static str {
                Scheduler::name(&*self.0, rec)
            }
            fn war_checked(&self, rec: &SchedRecord) -> bool {
                self.0.war_checked(rec)
            }
        }

        let machine = Machine::new(ppm_pm::PmConfig::parallel(1, 1 << 20));
        let r = machine.alloc_region(4);
        let comp = crate::runtime::tests::marker_comp(r, 4);
        let mut sim = SimSched::new_persistent(&machine, &comp, &SchedConfig::with_slots(64))
            .with_runner(|sched| Arc::new(ReadBeforeCam(sched)));
        sim.run_to_completion(10_000);
    }

    /// A won injector pull leaves the steal loop: it clears the
    /// loop-entry stamp, so the puller's next won steal reports the time
    /// since *that* loop entry, not since it first went looking for the
    /// root.
    #[test]
    fn a_won_pull_clears_the_steal_latency_stamp() {
        use crate::sim::SimSched;
        let machine = Machine::new(ppm_pm::PmConfig::parallel(1, 1 << 20));
        let r = machine.alloc_region(4);
        let comp = crate::runtime::tests::marker_comp(r, 4);
        let mut sim = SimSched::new_persistent(&machine, &comp, &SchedConfig::with_slots(64));
        let stamp = |sim: &SimSched<'_>| sim.sched().steal_since[0].load(Ordering::Relaxed);
        while sim.at(0) != "service/pull/check" {
            sim.step(0);
        }
        assert_ne!(stamp(&sim), 0, "the steal loop stamped its entry");
        sim.step(0);
        assert_eq!(sim.at(0), "service/entry", "the pull won");
        assert_eq!(stamp(&sim), 0);
    }

    #[test]
    fn single_proc_has_no_victims() {
        let machine = Machine::new(ppm_pm::PmConfig::parallel(1, 1 << 18));
        let done = DoneFlag::new(&machine);
        let s = Sched::new(&machine, done, &SchedConfig::with_slots(64));
        assert_eq!(s.pick_victim(0, 0), None);
    }

    #[test]
    fn config_default_is_reasonable() {
        let c = SchedConfig::default();
        assert!(c.deque_slots >= 1 << 10);
        assert!(!c.check_transitions);
    }
}
