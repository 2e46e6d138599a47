//! The Figure 3 steal/adoption protocol as a checkable state machine.
//!
//! The model mirrors `capsules.rs` **capsule by capsule**: every
//! [`Pc`] variant is one capsule of the real decomposition (same names,
//! same latched registers, same CAM targets), and one [`StealAction::Step`]
//! runs exactly one capsule atomically. That granularity matches the
//! paper's proof structure — capsules with at most one CAM are idempotent,
//! so interleavings *between* persist boundaries are the complete race
//! space — and [`StealAction::Crash`] transitions at every boundary model
//! hard faults at each persist boundary. A dead processor's program
//! counter freezes in place: it *is* the restart pointer (the real engine
//! persists the active capsule handle at every boundary), and the
//! dead-owner local-steal path adopts it verbatim, which reproduces the
//! Lemma A.10 situation exactly (an adopting thief re-running the dead
//! owner's `popBottom/check` capsule observes its own `Taken` with tag
//! `+1` and claims the thread).
//!
//! Scope: two processors, two seeded jobs, no forks (`pushBottom` is
//! exercised against the *real* code by `sim::SimSched`, which drives
//! actual fork-join computations through scripted interleavings).
//!
//! **Injector extension** ([`StealModel::with_injector`]): a third task
//! lives in a one-slot durable injector ring ([`Inj`], mirroring
//! `ppm_pm::service::SlotPhase`), and `Steal` consults it before the
//! deque probe, exactly like the steal loop's published-slot scan. The
//! claim chain (`service/pull/read → seat → cam → check`), the entry
//! frame's `CLAIMED → RUNNING` CAM with its dead-claimant re-claim arm,
//! and the exactly-once `RUNNING → DONE` completion CAM are each one
//! [`Pc`] capsule. The seat puts `Local` at the puller's `bot` before the
//! claim CAM and a lost claim clears it (`clearBottom`), so a dead
//! puller's chain is adopted like any thread, with its frozen `Inj*` pc:
//! adoption is the only rescuer. The checksum verification and ticket
//! guards of the real capsules are elided: the model's single job is
//! published in the initial state with admission closed (no torn
//! two-phase submit) and its slot is never reclaimed — a `Runtime`
//! session's one-slot ring, whose done flag is a state bit set only by
//! the `service/done/check` whose CAM won. A thread's end — the body's,
//! or a chain capsule's `End` — is `clearBottom`, as the engine has it.
//!
//! Invariants (TLA+ twins in `specs/tla/FrontierAdoption.tla`):
//!
//! * **NoDoubleExecution** (W2): each task completes at most once, and at
//!   most one live processor is ever committed to a task. At capsule
//!   granularity this is *strict* — replay-after-crash resumes before the
//!   effect, never after, so not even a crash justifies a second
//!   completion.
//! * **NoLostTask** (W1), as a conservation law: every unexecuted task is
//!   always *referenced* — by a `Job` entry above `top`, by a live
//!   processor's latched capsule registers, or by a dead processor's
//!   frozen restart pointer that is still adoptable. A transition that
//!   drops the last reference is the bug, and BFS pins it at minimal
//!   depth. (Checked while at most one crash has occurred; a second
//!   crash mid-adoption degrades to process-level recovery in the real
//!   system and is out of the model's scope.)

use ppm_check::Model;

/// Deque slots per processor (no forks, so 4 is enough headroom for the
/// two seeded jobs plus the clear-above slot).
pub const NSLOTS: usize = 4;
/// Processors in the model: one owner with seeded work, one thief.
pub const NPROCS: usize = 2;
/// Seeded tasks, both initially jobs in processor 0's deque.
pub const NTASKS: usize = 2;

/// An entry value — the four states of Figure 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Val {
    /// Nothing here.
    Empty,
    /// The owning thread's (or an adopted thread's) local entry.
    Local,
    /// A stealable job (the task id stands in for the frame handle).
    Job(u8),
    /// A steal in progress: the thief's identity and where its local
    /// entry will materialize.
    Taken {
        /// Thief processor.
        proc: u8,
        /// Slot in the thief's deque (its `bot` at steal time).
        slot: u8,
        /// Tag the thief's slot had at steal time.
        tag: u8,
    },
}

/// A tagged deque entry (`⟨tag, value⟩` of Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Entry {
    /// ABA-prevention tag, bumped by every transition of this slot.
    pub tag: u8,
    /// The entry value.
    pub val: Val,
}

impl Entry {
    fn new(tag: u8, val: Val) -> Self {
        Entry { tag, val }
    }
}

/// One processor's WS-deque.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Deque {
    /// The tagged entries.
    pub entries: [Entry; NSLOTS],
    /// Steal end (grows upward past consumed entries).
    pub top: u8,
    /// Owner end (the running thread's local entry lives at `bot`).
    pub bot: u8,
}

/// The injector ring's one slot: the control-word states of
/// `ppm_pm::service::SlotPhase`, with the claim epoch and claimant
/// identity that the real packed word carries. `STAGING` is absent —
/// the model's job is already published (a torn submit is a pm-layer
/// concern, covered by the `service` proptests, not an interleaving).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Inj {
    /// The model runs without an injector (the default configuration).
    Absent,
    /// Published and claimable at `epoch`.
    Published {
        /// Claim epoch.
        epoch: u8,
    },
    /// The claim CAM won: `proc` owns the slot at `epoch`.
    Claimed {
        /// The claimant.
        proc: u8,
        /// Claim epoch.
        epoch: u8,
    },
    /// The entry frame advanced the claim; the job body is running.
    Running {
        /// The claimant.
        proc: u8,
        /// Claim epoch.
        epoch: u8,
    },
    /// The completion CAM won: the job finished exactly once.
    Done {
        /// The completing claimant.
        proc: u8,
        /// Claim epoch at completion.
        epoch: u8,
    },
}

/// What follows a `helpPopTop` interlude (the `then` continuation the
/// real capsules thread through `help_pop_top`). The victim deque is the
/// enclosing help's — the real code always helps on the deque it is
/// about to operate on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Then {
    /// Enter `popTop/read` with the thief's latched `(bot, tag)`.
    PtRead {
        /// Thief's `bot` at steal entry.
        b: u8,
        /// Tag of the thief's `entry(bot)` at steal entry.
        c: u8,
    },
    /// `popTop/check` after the job-steal CAM.
    CheckJob {
        /// Victim slot the CAM targeted.
        i: u8,
        /// The CAM's intended new entry.
        new: Entry,
        /// The stolen task.
        f: u8,
    },
    /// `popTop/checkLocal` after the local-steal CAM.
    CheckLocal {
        /// Victim slot the CAM targeted.
        i: u8,
        /// The CAM's intended new entry.
        new: Entry,
    },
    /// Give up and try another steal.
    Steal,
}

/// One capsule of the Figure 3 decomposition — the model's program
/// counter, with the capsule's latched (boundary-committed) registers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Pc {
    /// `sched/popBottom/read` (also the scheduler's findWork entry).
    FindWork,
    /// `sched/popBottom/cam` on deque `d`.
    PbCam {
        /// Deque the popBottom chain was entered on (latched: an adopter
        /// re-runs it against the *dead owner's* deque).
        d: u8,
        /// Latched `bot`.
        b: u8,
        /// Entry read below `bot`.
        old: Entry,
        /// The job's task id.
        f: u8,
    },
    /// `sched/popBottom/check`.
    PbCheck {
        /// Deque the chain runs on.
        d: u8,
        /// Latched `bot`.
        b: u8,
        /// The CAM's intended new entry.
        new: Entry,
        /// The job's task id.
        f: u8,
    },
    /// `sched/steal`: termination check, victim pick, own-bottom read.
    Steal,
    /// `sched/help/read` on deque `v`, then `then`.
    HelpRead {
        /// Deque being helped.
        v: u8,
        /// Continuation after the help.
        then: Then,
    },
    /// `sched/help/camThief`.
    HelpCamThief {
        /// Deque being helped.
        v: u8,
        /// `top` at help-read time.
        t: u8,
        /// Thief named by the `Taken` entry.
        tproc: u8,
        /// Thief slot named by the `Taken` entry.
        tslot: u8,
        /// Tag named by the `Taken` entry.
        itag: u8,
        /// Continuation after the help.
        then: Then,
    },
    /// `sched/help/camTop`.
    HelpCamTop {
        /// Deque being helped.
        v: u8,
        /// `top` value to advance from.
        t: u8,
        /// Continuation after the help.
        then: Then,
    },
    /// `sched/popTop/read` on victim `v`.
    PtRead {
        /// Victim deque.
        v: u8,
        /// Thief's latched `bot`.
        b: u8,
        /// Tag of thief's `entry(bot)`.
        c: u8,
    },
    /// `sched/popTop/cam` (job steal).
    PtCam {
        /// Victim deque.
        v: u8,
        /// Victim slot.
        i: u8,
        /// Expected entry.
        old: Entry,
        /// Intended entry.
        new: Entry,
        /// The stolen task.
        f: u8,
    },
    /// `sched/popTop/check` (job steal).
    PtCheckJob {
        /// Victim deque.
        v: u8,
        /// Victim slot.
        i: u8,
        /// The CAM's intended entry.
        new: Entry,
        /// The stolen task.
        f: u8,
    },
    /// `sched/popTop/clearAboveRead` (local steal, dead owner).
    PtClearAboveRead {
        /// Victim deque.
        v: u8,
        /// Victim slot holding the local.
        i: u8,
        /// The local entry read.
        old: Entry,
        /// Intended `Taken` entry.
        new: Entry,
    },
    /// `sched/popTop/clearAboveWrite`.
    PtClearAboveWrite {
        /// Victim deque.
        v: u8,
        /// Victim slot holding the local.
        i: u8,
        /// The local entry read.
        old: Entry,
        /// Intended `Taken` entry.
        new: Entry,
        /// Tag of the entry above, latched for the clearing write.
        above_tag: u8,
    },
    /// `sched/popTop/camLocal`.
    PtCamLocal {
        /// Victim deque.
        v: u8,
        /// Victim slot holding the local.
        i: u8,
        /// Expected entry.
        old: Entry,
        /// Intended `Taken` entry.
        new: Entry,
    },
    /// `sched/popTop/checkLocal`: on a win, read the dead owner's
    /// restart pointer and adopt it.
    PtCheckLocal {
        /// Victim deque (owned by a dead processor).
        v: u8,
        /// Victim slot the CAM targeted.
        i: u8,
        /// The CAM's intended entry.
        new: Entry,
    },
    /// The thread body: one capsule that commits the task's effect.
    Exec {
        /// The task being executed.
        f: u8,
    },
    /// `service/pull/read`: re-read the injector slot (the scan in
    /// `Steal` was an uncosted peek), latch the puller as the claimant
    /// and enter the seat.
    InjPullRead,
    /// `service/pull/seat`: `Local` at the executing processor's `bot`,
    /// so the chain from here on is an adoptable thread.
    InjPullSeat {
        /// Expected slot word.
        old: Inj,
        /// Intended `CLAIMED` word.
        new: Inj,
    },
    /// `service/pull/cam`: the claim CAM. The claimant-distinct payload
    /// keeps racing pullers' CAMs non-identical (§5 exactly-once).
    InjPullCam {
        /// Expected slot word.
        old: Inj,
        /// Intended `CLAIMED` word.
        new: Inj,
    },
    /// `service/pull/check`: won → the slot's entry frame; lost →
    /// `clearBottom` (the seat is cleared).
    InjPullCheck {
        /// The CAM's intended word.
        new: Inj,
    },
    /// `service/entry`: read the slot and branch — advance our own
    /// claim, resume our own run, or re-claim a dead claimant's slot at
    /// epoch + 1 (the bump fences its stale CAMs).
    InjEntry,
    /// `service/entry/cam`: the `CLAIMED → RUNNING` CAM.
    InjEntryCam {
        /// Expected slot word.
        old: Inj,
        /// Intended `RUNNING` word.
        new: Inj,
    },
    /// `service/entry/check`: won → the job frame; lost → the thread
    /// ends (unreachable here: only a falsely-dead twin could race it).
    InjEntryCheck {
        /// The CAM's intended word.
        new: Inj,
    },
    /// The service job's body — one capsule standing in for the job
    /// frame (its internal effects are idempotent capsules, elided).
    InjBody,
    /// `service/done`: read the slot; still `RUNNING` → the done CAM.
    InjDoneRead,
    /// `service/done/cam`: the exactly-once `RUNNING → DONE` completion
    /// CAM — the commit point the model counts as the job's resolution.
    InjDoneCam {
        /// Expected slot word.
        old: Inj,
        /// Intended `DONE` word.
        new: Inj,
    },
    /// `service/done/check`: our CAM won → the closed one-slot ring is
    /// drained (`settle`), so set the done flag; ends the thread.
    InjDoneCheck {
        /// The CAM's intended word.
        new: Inj,
    },
    /// `sched/clearBottom` after a thread ends.
    ClearBottom,
    /// Saw the done flag in `steal`; this processor is finished.
    Halted,
}

impl Then {
    fn into_pc(self, v: u8) -> Pc {
        match self {
            Then::PtRead { b, c } => Pc::PtRead { v, b, c },
            Then::CheckJob { i, new, f } => Pc::PtCheckJob { v, i, new, f },
            Then::CheckLocal { i, new } => Pc::PtCheckLocal { v, i, new },
            Then::Steal => Pc::Steal,
        }
    }
}

/// The global protocol state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StealSt {
    /// Per-processor deques.
    pub deq: [Deque; NPROCS],
    /// Per-processor program counters. A dead processor's pc freezes and
    /// doubles as its persistent restart pointer.
    pub pc: [Pc; NPROCS],
    /// Liveness oracle (`isLive`).
    pub alive: [bool; NPROCS],
    /// Completion count per task — the committed effect.
    pub runs: [u8; NTASKS],
    /// The injector ring's one slot ([`Inj::Absent`] when disabled).
    pub inj: Inj,
    /// Completion count for the injector job — done CAMs won.
    pub inj_runs: u8,
    /// The ring's persistent done flag.
    pub flag: bool,
    /// Hard faults injected so far.
    pub crashes: u8,
}

impl StealSt {
    fn done(&self) -> bool {
        self.runs.iter().all(|r| *r >= 1) && (self.inj == Inj::Absent || self.flag)
    }
}

/// One transition: run one capsule on a processor, or hard-fault it at
/// the current persist boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StealAction {
    /// Run processor `p`'s current capsule atomically.
    Step(u8),
    /// Hard-fault processor `p` (its pc freezes as the restart pointer).
    Crash(u8),
}

/// Deliberate protocol bugs, reintroduced one at a time so the test
/// suite can demonstrate the explorer catches each with a minimal trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StealMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Drop the Lemma A.10 arm of `popBottom/check`: an adopting thief
    /// whose CAM won no longer recognizes its own `Taken` and abandons
    /// the thread — a lost task.
    DropLemmaA10,
    /// Skip the `isLive` gate on local steals: thieves adopt the local
    /// entry of a *live* owner — the owner and the adopter both run the
    /// thread, a double execution.
    AdoptLiveLocal,
    /// Claim before seating (the old pull order, without a takeover):
    /// `pull/read → cam → check`, and only a won claim seats. A puller
    /// that dies between its won CAM and the seat leaves a `CLAIMED`
    /// slot with no adoptable thread — a lost job.
    ClaimBeforeSeat,
    /// Set the done flag in `service/done`, before the done CAM: if the
    /// claimant dies in between, the survivors halt on a lost job.
    DoneEarly,
}

/// The model: configuration plus the [`Model`] implementation.
#[derive(Clone, Copy, Debug)]
pub struct StealModel {
    /// Maximum hard faults to inject (default 1; the conservation
    /// invariant is checked while `crashes <= 1`).
    pub crash_budget: u8,
    /// Which deliberate bug (if any) to reintroduce.
    pub mutation: StealMutation,
    /// Seed the injector ring with a third, service-submitted job
    /// (default off — the deque-only space keeps its pinned diameter).
    pub injector: bool,
}

impl Default for StealModel {
    fn default() -> Self {
        StealModel {
            crash_budget: 1,
            mutation: StealMutation::None,
            injector: false,
        }
    }
}

impl StealModel {
    /// The faithful protocol with `crash_budget` hard faults.
    pub fn with_crashes(crash_budget: u8) -> Self {
        StealModel {
            crash_budget,
            ..Default::default()
        }
    }

    /// The faithful protocol with the injector ring seeded (the
    /// service-mode pull/claim/adopt protocol joins the race space).
    pub fn with_injector() -> Self {
        StealModel {
            injector: true,
            ..Default::default()
        }
    }

    /// A mutated protocol (for counterexample demonstrations). The
    /// injector mutations imply an injector-enabled model.
    pub fn mutated(mutation: StealMutation) -> Self {
        StealModel {
            crash_budget: 1,
            mutation,
            injector: matches!(
                mutation,
                StealMutation::ClaimBeforeSeat | StealMutation::DoneEarly
            ),
        }
    }

    /// The W1 conservation law for the injector job: a `PUBLISHED` slot
    /// is taken by any puller; a claimed or running slot is carried by
    /// the thread of the pull that claimed it — on a live processor, in
    /// a dead one's restart pointer that is still adoptable, or in the
    /// one a live adopter is taking over. No other rescuer exists.
    fn inj_referenced(s: &StealSt) -> bool {
        if !matches!(s.inj, Inj::Claimed { .. } | Inj::Running { .. }) {
            return true;
        }
        let carries = |q: usize| Self::carries_inj(&s.pc[q], s.inj);
        (0..NPROCS).any(|p| {
            if s.alive[p] {
                carries(p)
                    || Self::adoption_target(&s.pc[p])
                        .is_some_and(|v| !s.alive[v as usize] && carries(v as usize))
            } else {
                carries(p) && Self::adoptable(s, p)
            }
        })
    }

    /// Whether this pc, re-run, carries the claimed or running slot word
    /// `inj` to completion: a chain capsule whose latched words still
    /// match the slot.
    fn carries_inj(pc: &Pc, inj: Inj) -> bool {
        match *pc {
            Pc::InjPullSeat { new, .. } | Pc::InjPullCheck { new } | Pc::InjEntryCheck { new } => {
                inj == new
            }
            Pc::InjPullCam { old, new } | Pc::InjEntryCam { old, new } => inj == old || inj == new,
            Pc::InjEntry => true,
            Pc::InjBody | Pc::InjDoneRead => matches!(inj, Inj::Running { .. }),
            Pc::InjDoneCam { old, .. } => inj == old,
            _ => false,
        }
    }

    /// Does this frozen pc hold task `t` in a latched register (i.e. is
    /// the capsule committed to delivering `t` if re-run)?
    fn pc_owns(pc: &Pc, t: u8) -> bool {
        match pc {
            Pc::PbCam { f, .. }
            | Pc::PbCheck { f, .. }
            | Pc::PtCam { f, .. }
            | Pc::PtCheckJob { f, .. }
            | Pc::Exec { f } => *f == t,
            // The latched handle also rides a help interlude's
            // continuation (popTop/cam jumps to help-then-check).
            Pc::HelpRead {
                then: Then::CheckJob { f, .. },
                ..
            }
            | Pc::HelpCamThief {
                then: Then::CheckJob { f, .. },
                ..
            }
            | Pc::HelpCamTop {
                then: Then::CheckJob { f, .. },
                ..
            } => *f == t,
            _ => false,
        }
    }

    /// If this pc is mid-way through a dead-owner local steal, the owner
    /// whose restart pointer it will adopt.
    fn adoption_target(pc: &Pc) -> Option<u8> {
        match pc {
            Pc::PtClearAboveRead { v, .. }
            | Pc::PtClearAboveWrite { v, .. }
            | Pc::PtCamLocal { v, .. }
            | Pc::PtCheckLocal { v, .. } => Some(*v),
            Pc::HelpRead {
                v,
                then: Then::CheckLocal { .. },
            }
            | Pc::HelpCamThief {
                v,
                then: Then::CheckLocal { .. },
                ..
            }
            | Pc::HelpCamTop {
                v,
                then: Then::CheckLocal { .. },
                ..
            } => Some(*v),
            _ => None,
        }
    }

    /// Whether dead processor `p`'s frozen restart pointer can still be
    /// reached by an adopter: a `Local` at or above its `top` (the
    /// local-steal path takes it), or an `Empty` slot that a pending
    /// `helpPopTop` will convert to `Local` (a `Taken` entry somewhere
    /// names it).
    fn adoptable(s: &StealSt, p: usize) -> bool {
        let d = &s.deq[p];
        ((d.top as usize)..NSLOTS).any(|i| {
            let e = d.entries[i];
            match e.val {
                Val::Local => true,
                Val::Empty => s.deq.iter().any(|q| {
                    ((q.top as usize)..NSLOTS).any(|u| {
                        q.entries[u].val
                            == Val::Taken {
                                proc: p as u8,
                                slot: i as u8,
                                tag: e.tag,
                            }
                    })
                }),
                _ => false,
            }
        })
    }

    /// The W1 conservation law: is unexecuted task `t` still referenced?
    fn referenced(s: &StealSt, t: u8) -> bool {
        // r1: a Job entry at or above top in any deque.
        for d in &s.deq {
            for i in (d.top as usize)..NSLOTS {
                if d.entries[i].val == Val::Job(t) {
                    return true;
                }
            }
        }
        for p in 0..NPROCS {
            if s.alive[p] {
                // r2: a live processor's latched registers carry t.
                if Self::pc_owns(&s.pc[p], t) {
                    return true;
                }
                // r2b: a live processor is adopting a dead owner whose
                // frozen restart pointer carries t.
                if let Some(v) = Self::adoption_target(&s.pc[p]) {
                    if !s.alive[v as usize] && Self::pc_owns(&s.pc[v as usize], t) {
                        return true;
                    }
                }
            } else {
                // r3: a dead processor's frozen restart pointer carries t
                // and is still adoptable.
                if Self::pc_owns(&s.pc[p], t) && Self::adoptable(s, p) {
                    return true;
                }
            }
        }
        false
    }

    /// Runs one capsule on processor `p`. Mirrors `capsules.rs` arm for
    /// arm; `n` suffixes and backoff are elided (they steer timing, not
    /// logical order).
    fn run_capsule(&self, s: &StealSt, p: usize) -> StealSt {
        let mut n = *s;
        let me = p as u8;
        match s.pc[p] {
            Pc::FindWork => {
                let d = &s.deq[p];
                let b = d.bot as usize;
                if b == 0 {
                    n.pc[p] = Pc::Steal;
                } else {
                    let old = d.entries[b - 1];
                    match old.val {
                        Val::Job(f) => {
                            n.pc[p] = Pc::PbCam {
                                d: me,
                                b: b as u8,
                                old,
                                f,
                            }
                        }
                        _ => n.pc[p] = Pc::Steal,
                    }
                }
            }
            Pc::PbCam { d, b, old, f } => {
                let new = Entry::new(old.tag.wrapping_add(1), Val::Local);
                let slot = &mut n.deq[d as usize].entries[b as usize - 1];
                if *slot == old {
                    *slot = new;
                }
                n.pc[p] = Pc::PbCheck { d, b, new, f };
            }
            Pc::PbCheck { d, b, new, f } => {
                let cur = s.deq[d as usize].entries[b as usize - 1];
                if cur == new {
                    n.deq[d as usize].bot = b - 1;
                    n.pc[p] = Pc::Exec { f };
                } else if matches!(cur.val, Val::Taken { .. })
                    && cur.tag == new.tag.wrapping_add(1)
                    && self.mutation != StealMutation::DropLemmaA10
                {
                    // Lemma A.10: our CAM succeeded, the owner died, and
                    // we (the uniquely successful adopting thief) already
                    // turned the local entry into taken.
                    n.pc[p] = Pc::Exec { f };
                } else {
                    n.pc[p] = Pc::Steal;
                }
            }
            Pc::Steal => {
                if s.done() {
                    n.pc[p] = Pc::Halted;
                } else if matches!(s.inj, Inj::Published { .. }) {
                    // The steal loop consults the injector's published-
                    // slot scan before the deque probe; the scan is an
                    // uncosted peek, so the chain re-reads in pull/read.
                    n.pc[p] = Pc::InjPullRead;
                } else {
                    let v = 1 - me; // two processors: the other one
                    let d = &s.deq[p];
                    let b = d.bot;
                    let c = d.entries[b as usize].tag;
                    n.pc[p] = Pc::HelpRead {
                        v,
                        then: Then::PtRead { b, c },
                    };
                }
            }
            Pc::HelpRead { v, then } => {
                let t = s.deq[v as usize].top;
                let e = s.deq[v as usize].entries[t as usize];
                if let Val::Taken { proc, slot, tag } = e.val {
                    n.pc[p] = Pc::HelpCamThief {
                        v,
                        t,
                        tproc: proc,
                        tslot: slot,
                        itag: tag,
                        then,
                    };
                } else {
                    n.pc[p] = then.into_pc(v);
                }
            }
            Pc::HelpCamThief {
                v,
                t,
                tproc,
                tslot,
                itag,
                then,
            } => {
                let slot = &mut n.deq[tproc as usize].entries[tslot as usize];
                if *slot == Entry::new(itag, Val::Empty) {
                    *slot = Entry::new(itag.wrapping_add(1), Val::Local);
                }
                n.pc[p] = Pc::HelpCamTop { v, t, then };
            }
            Pc::HelpCamTop { v, t, then } => {
                if n.deq[v as usize].top == t {
                    n.deq[v as usize].top = t + 1;
                }
                n.pc[p] = then.into_pc(v);
            }
            Pc::PtRead { v, b, c } => {
                let i = s.deq[v as usize].top;
                let old = s.deq[v as usize].entries[i as usize];
                match old.val {
                    Val::Empty => n.pc[p] = Pc::Steal,
                    Val::Taken { .. } => {
                        n.pc[p] = Pc::HelpRead {
                            v,
                            then: Then::Steal,
                        }
                    }
                    Val::Job(f) => {
                        let new = Entry::new(
                            old.tag.wrapping_add(1),
                            Val::Taken {
                                proc: me,
                                slot: b,
                                tag: c,
                            },
                        );
                        n.pc[p] = Pc::PtCam { v, i, old, new, f };
                    }
                    Val::Local => {
                        let owner_dead = !s.alive[v as usize];
                        if owner_dead || self.mutation == StealMutation::AdoptLiveLocal {
                            // The recheck read (line 52-53) is atomic here
                            // because the whole capsule is one transition.
                            let new = Entry::new(
                                old.tag.wrapping_add(1),
                                Val::Taken {
                                    proc: me,
                                    slot: b,
                                    tag: c,
                                },
                            );
                            n.pc[p] = Pc::PtClearAboveRead { v, i, old, new };
                        } else {
                            n.pc[p] = Pc::Steal;
                        }
                    }
                }
            }
            Pc::PtCam { v, i, old, new, f } => {
                let slot = &mut n.deq[v as usize].entries[i as usize];
                if *slot == old {
                    *slot = new;
                }
                n.pc[p] = Pc::HelpRead {
                    v,
                    then: Then::CheckJob { i, new, f },
                };
            }
            Pc::PtCheckJob { v, i, new, f } => {
                let cur = s.deq[v as usize].entries[i as usize];
                if cur == new {
                    n.pc[p] = Pc::Exec { f };
                } else {
                    n.pc[p] = Pc::Steal;
                }
            }
            Pc::PtClearAboveRead { v, i, old, new } => {
                let above_tag = s.deq[v as usize].entries[i as usize + 1].tag;
                n.pc[p] = Pc::PtClearAboveWrite {
                    v,
                    i,
                    old,
                    new,
                    above_tag,
                };
            }
            Pc::PtClearAboveWrite {
                v,
                i,
                old,
                new,
                above_tag,
            } => {
                n.deq[v as usize].entries[i as usize + 1] =
                    Entry::new(above_tag.wrapping_add(1), Val::Empty);
                n.pc[p] = Pc::PtCamLocal { v, i, old, new };
            }
            Pc::PtCamLocal { v, i, old, new } => {
                let slot = &mut n.deq[v as usize].entries[i as usize];
                if *slot == old {
                    *slot = new;
                }
                n.pc[p] = Pc::HelpRead {
                    v,
                    then: Then::CheckLocal { i, new },
                };
            }
            Pc::PtCheckLocal { v, i, new } => {
                let cur = s.deq[v as usize].entries[i as usize];
                if cur != new {
                    n.pc[p] = Pc::Steal;
                } else {
                    // getActiveCapsule: the dead owner's frozen pc *is*
                    // its restart pointer; adopt it verbatim (in-process
                    // adoption resolves any capsule — Lemma A.10's
                    // situation arises when it is `PbCheck`).
                    n.pc[p] = s.pc[v as usize];
                }
            }
            Pc::Exec { f } => {
                n.runs[f as usize] = n.runs[f as usize].saturating_add(1);
                n.pc[p] = Pc::ClearBottom;
            }
            Pc::InjPullRead => {
                let claim_first = self.mutation == StealMutation::ClaimBeforeSeat;
                n.pc[p] = match s.inj {
                    Inj::Published { epoch } => {
                        let (old, new) = (s.inj, Inj::Claimed { proc: me, epoch });
                        if claim_first {
                            Pc::InjPullCam { old, new }
                        } else {
                            Pc::InjPullSeat { old, new }
                        }
                    }
                    _ => Pc::Steal,
                };
            }
            Pc::InjPullSeat { old, new } => {
                // Unchecked like clearBottom: rewrite our own bottom entry
                // as `Local`, one tag on.
                let b = s.deq[p].bot as usize;
                let cur = s.deq[p].entries[b];
                n.deq[p].entries[b] = Entry::new(cur.tag.wrapping_add(1), Val::Local);
                n.pc[p] = if self.mutation == StealMutation::ClaimBeforeSeat {
                    Pc::InjEntry
                } else {
                    Pc::InjPullCam { old, new }
                };
            }
            Pc::InjPullCam { old, new } => {
                if n.inj == old {
                    n.inj = new;
                }
                n.pc[p] = Pc::InjPullCheck { new };
            }
            Pc::InjPullCheck { new } => {
                n.pc[p] = match (s.inj == new, self.mutation) {
                    (true, StealMutation::ClaimBeforeSeat) => Pc::InjPullSeat { old: new, new },
                    (true, _) => Pc::InjEntry,
                    (false, StealMutation::ClaimBeforeSeat) => Pc::Steal,
                    // The seated thread ends: clear the seat.
                    (false, _) => Pc::ClearBottom,
                };
            }
            Pc::InjEntry => {
                n.pc[p] = match s.inj {
                    // Our own claim: advance to RUNNING, then the job.
                    Inj::Claimed { proc, epoch } if proc == me => Pc::InjEntryCam {
                        old: s.inj,
                        new: Inj::Running { proc: me, epoch },
                    },
                    // We already advanced it and crashed before the
                    // jump: just run the job.
                    Inj::Running { proc, .. } if proc == me => Pc::InjBody,
                    // Adoption: we inherited a dead claimant's thread;
                    // re-claim its slot at epoch + 1, fencing its stale
                    // CAMs.
                    Inj::Claimed { proc, epoch } | Inj::Running { proc, epoch }
                        if !s.alive[proc as usize] =>
                    {
                        Pc::InjEntryCam {
                            old: s.inj,
                            new: Inj::Running {
                                proc: me,
                                epoch: epoch.wrapping_add(1),
                            },
                        }
                    }
                    // Someone else legitimately owns (or finished) the
                    // slot: nothing for this thread.
                    _ => Pc::ClearBottom,
                };
            }
            Pc::InjEntryCam { old, new } => {
                if n.inj == old {
                    n.inj = new;
                }
                n.pc[p] = Pc::InjEntryCheck { new };
            }
            Pc::InjEntryCheck { new } => {
                n.pc[p] = if s.inj == new {
                    Pc::InjBody
                } else {
                    Pc::ClearBottom
                };
            }
            Pc::InjBody => {
                // The job frame's effects are idempotent capsules; its
                // final continuation is the slot's done frame.
                n.pc[p] = Pc::InjDoneRead;
            }
            Pc::InjDoneRead => {
                if self.mutation == StealMutation::DoneEarly {
                    n.flag = true;
                }
                n.pc[p] = match s.inj {
                    Inj::Running { proc, epoch } => Pc::InjDoneCam {
                        old: s.inj,
                        new: Inj::Done { proc, epoch },
                    },
                    // DONE already: a benign re-run.
                    _ => Pc::ClearBottom,
                };
            }
            Pc::InjDoneCam { old, new } => {
                if n.inj == old {
                    n.inj = new;
                    // The winning RUNNING → DONE transition is the
                    // job's exactly-once resolution.
                    n.inj_runs = n.inj_runs.saturating_add(1);
                }
                n.pc[p] = Pc::InjDoneCheck { new };
            }
            Pc::InjDoneCheck { new } => {
                // Our CAM won: the one slot is `DONE` and admission is
                // closed, so the drain rule holds and the flag is set.
                if s.inj == new {
                    n.flag = true;
                }
                n.pc[p] = Pc::ClearBottom;
            }
            Pc::ClearBottom => {
                let b = s.deq[p].bot as usize;
                let cur = s.deq[p].entries[b];
                n.deq[p].entries[b] = Entry::new(cur.tag.wrapping_add(1), Val::Empty);
                n.pc[p] = Pc::FindWork;
            }
            Pc::Halted => {}
        }
        n
    }
}

impl Model for StealModel {
    type State = StealSt;
    type Action = StealAction;

    fn initial(&self) -> Vec<StealSt> {
        let empty = Entry::new(0, Val::Empty);
        let mut owner = Deque {
            entries: [empty; NSLOTS],
            top: 0,
            bot: 2,
        };
        owner.entries[0] = Entry::new(0, Val::Job(0));
        owner.entries[1] = Entry::new(0, Val::Job(1));
        let thief = Deque {
            entries: [empty; NSLOTS],
            top: 0,
            bot: 0,
        };
        vec![StealSt {
            deq: [owner, thief],
            pc: [Pc::FindWork, Pc::Steal],
            alive: [true; NPROCS],
            runs: [0; NTASKS],
            inj: if self.injector {
                // The two-phase submit already completed: persist-then-
                // publish means a claimable slot is never torn.
                Inj::Published { epoch: 0 }
            } else {
                Inj::Absent
            },
            inj_runs: 0,
            flag: false,
            crashes: 0,
        }]
    }

    fn actions(&self, s: &StealSt) -> Vec<StealAction> {
        let mut acts = Vec::new();
        for p in 0..NPROCS {
            if s.alive[p] && s.pc[p] != Pc::Halted {
                acts.push(StealAction::Step(p as u8));
                if s.crashes < self.crash_budget {
                    acts.push(StealAction::Crash(p as u8));
                }
            }
        }
        acts
    }

    fn step(&self, s: &StealSt, a: &StealAction) -> StealSt {
        match a {
            StealAction::Step(p) => self.run_capsule(s, *p as usize),
            StealAction::Crash(p) => {
                let mut n = *s;
                n.alive[*p as usize] = false;
                n.crashes += 1;
                n
            }
        }
    }

    fn invariant(&self, s: &StealSt) -> Result<(), String> {
        // NoDoubleExecution (W2), strict at capsule granularity.
        for (t, r) in s.runs.iter().enumerate() {
            if *r > 1 {
                return Err(format!("NoDoubleExecution: task {t} completed {r} times"));
            }
        }
        for t in 0..NTASKS as u8 {
            let live_owners = (0..NPROCS)
                .filter(|&p| s.alive[p] && s.pc[p] == Pc::Exec { f: t })
                .count();
            if live_owners > 1 {
                return Err(format!(
                    "NoDoubleExecution: {live_owners} live processors executing task {t}"
                ));
            }
        }
        if s.inj_runs > 1 {
            return Err(format!(
                "NoDoubleExecution: the service job resolved {} times",
                s.inj_runs
            ));
        }
        let live_bodies = (0..NPROCS)
            .filter(|&p| s.alive[p] && s.pc[p] == Pc::InjBody)
            .count();
        if live_bodies > 1 {
            return Err(format!(
                "NoDoubleExecution: {live_bodies} live processors running the service job"
            ));
        }
        // NoLostTask (W1) conservation, in the single-fault regime.
        if s.crashes <= 1 {
            for t in 0..NTASKS as u8 {
                if s.runs[t as usize] == 0 && !Self::referenced(s, t) {
                    return Err(format!("NoLostTask: task {t} is no longer referenced"));
                }
            }
            if s.inj_runs == 0 && !Self::inj_referenced(s) {
                return Err("NoLostTask: the service job is no longer referenced".to_string());
            }
        }
        // NoLostTask (W1) at the halt: a processor halts only on the done
        // flag, and the flag promises that every task ran.
        let unfinished = s.runs.contains(&0) || (self.injector && s.inj_runs == 0);
        if unfinished && s.pc.contains(&Pc::Halted) {
            return Err("NoLostTask: a processor halted with work unfinished".to_string());
        }
        Ok(())
    }

    fn on_terminal(&self, s: &StealSt) -> Result<(), String> {
        // Terminal means every processor halted or died. A halted
        // processor saw the done flag, so a survivor implies completion.
        if (0..NPROCS).any(|p| s.alive[p]) {
            for t in 0..NTASKS {
                if s.runs[t] == 0 {
                    return Err(format!(
                        "NoLostTask: terminated with a live processor but task {t} never ran"
                    ));
                }
            }
            if self.injector && s.inj_runs == 0 {
                return Err(
                    "NoLostTask: terminated with a live processor but the service job never ran"
                        .to_string(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_check::{Explorer, ExplorerConfig};

    #[test]
    fn faithful_protocol_is_clean_and_exhaustible() {
        // Depth 40 exhausts the whole space (diameter 35 at this
        // configuration): every interleaving with up to one hard fault.
        let report = Explorer::new(ExplorerConfig::depth(40)).run(&StealModel::default());
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap().render()
        );
        assert!(!report.truncated, "space should be exhaustible at depth 40");
        assert!(report.states > 800, "explored {} states", report.states);
    }

    #[test]
    fn crash_free_run_terminates_cleanly() {
        let report = Explorer::new(ExplorerConfig::depth(30)).run(&StealModel::with_crashes(0));
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap().render()
        );
        assert!(!report.truncated, "crash-free space should be exhaustible");
    }

    #[test]
    fn adopting_a_live_owners_local_double_executes() {
        let report = Explorer::new(ExplorerConfig::depth(20))
            .run(&StealModel::mutated(StealMutation::AdoptLiveLocal));
        let cex = report.violation.expect("mutation must be caught");
        assert!(
            cex.reason.contains("NoDoubleExecution") || cex.reason.contains("NoLostTask"),
            "unexpected reason: {}",
            cex.reason
        );
    }

    #[test]
    fn dropping_lemma_a10_loses_the_thread() {
        let report = Explorer::new(ExplorerConfig::depth(20))
            .run(&StealModel::mutated(StealMutation::DropLemmaA10));
        let cex = report.violation.expect("mutation must be caught");
        assert!(
            cex.reason.contains("NoLostTask"),
            "unexpected reason: {}",
            cex.reason
        );
    }

    #[test]
    fn injector_protocol_is_clean_and_exhaustible() {
        // The service-mode pull/claim/adopt chain joins the race space:
        // every interleaving of two deque tasks plus one injected job,
        // with up to one hard fault at every boundary.
        let report = Explorer::new(ExplorerConfig::depth(60)).run(&StealModel::with_injector());
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap().render()
        );
        assert!(!report.truncated, "space should be exhaustible at depth 60");
        assert!(report.states > 1_500, "explored {} states", report.states);
    }

    #[test]
    fn claiming_before_seating_loses_the_service_job() {
        let report = Explorer::new(ExplorerConfig::depth(20))
            .run(&StealModel::mutated(StealMutation::ClaimBeforeSeat));
        let cex = report.violation.expect("mutation must be caught");
        assert!(
            cex.reason.contains("NoLostTask"),
            "unexpected reason: {}",
            cex.reason
        );
    }
}
