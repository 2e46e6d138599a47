//! Capsules: the unit of restartable computation.
//!
//! §2 of the paper partitions a processor's computation into *capsules*:
//! maximal instruction sequences run while the restart-pointer location
//! holds the same restart pointer. A capsule is installed by writing a new
//! restart pointer; on a fault the processor re-runs the active capsule
//! from its beginning.
//!
//! Every capsule is words in persistent memory, the paper's *closure*
//! (start instruction plus local state plus arguments plus continuation,
//! §4.1): a user capsule is a frame ([`ppm_pm::frame`]) run by its
//! registered body, a scheduler capsule a [`SchedRecord`] run by the
//! [`Scheduler`]. Every attempt reads the words afresh, so a re-run
//! observes exactly the initial state. Ephemeral memory and registers are
//! the body's local variables — dropped and rebuilt on every run, which
//! models their loss on a fault. A capsule body must be **write-after-read
//! conflict free** (checked dynamically by `ppm-pm` in strict mode) for
//! the re-run to be idempotent (Theorem 3.1).

use ppm_pm::{PmResult, ProcCtx, Word};

use crate::arena::ContArena;
use crate::registry::FrameRef;

/// What a completed capsule does next. Returning `Next` is the paper's
/// "installing" step: the engine writes the new restart pointer (a constant
/// number of external writes) before the successor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Continue this thread with the capsule denoted by a persistent
    /// frame handle (see [`ppm_pm::frame`]). The engine installs the
    /// frame address itself as the restart pointer — which is what makes
    /// the thread resumable by a fresh process after a crash — and runs
    /// the capsule straight off the frame's words ([`Active::Frame`]).
    JumpHandle(Word),
    /// Fork (§6.1's `fork` function): both sides are persistent frames
    /// (written by this capsule's body, e.g. via
    /// [`crate::join::fork_join_frames`]). The child handle goes to the
    /// scheduler's deque and the thread continues at `cont`; the push
    /// itself runs as scheduler capsules between this capsule and `cont`.
    ForkHandle {
        /// Frame handle of the newly enabled thread's first capsule.
        child: Word,
        /// Frame handle of the current thread's continuation.
        cont: Word,
    },
    /// Continue with a scheduler capsule, denoted by its record (see
    /// [`SchedRecord`]). The engine journals the record in the executing
    /// processor's metadata block and the scheduler passed to
    /// [`crate::runner::run_capsule`] runs it.
    Sched(SchedRecord),
    /// The thread is finished; control returns to the scheduler (§6.1:
    /// "when a thread finishes it jumps to the scheduler").
    End,
    /// The processor stops entirely (the computation is complete and the
    /// scheduler loop exits). Unlike [`Next::End`], this is never rewrapped
    /// by a scheduler.
    Halt,
}

/// Argument words of a [`SchedRecord`].
pub const SCHED_ARG_WORDS: usize = 5;

/// A scheduler capsule as words: the paper keeps *every* closure in
/// persistent memory (§4.1), the scheduler's own included. A record is
/// one head word plus [`SCHED_ARG_WORDS`] argument words. The scheduler
/// owns the low [`SchedRecord::KIND_BITS`] bits of the head (its capsule
/// kind and whatever small fields it packs beside it) and every argument
/// word; the engine owns the bits above — the generation it stamps when
/// it journals the record (see [`crate::runner::InstallCtx::install_sched`]).
/// What the words mean is the [`Scheduler`]'s business: the engine only
/// stores them, finds the live one again, and hands it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedRecord {
    /// The scheduler's bits of the head word.
    pub kind: u16,
    /// The argument words.
    pub args: [Word; SCHED_ARG_WORDS],
}

impl SchedRecord {
    /// Words a journaled record occupies: the arguments, then the head.
    pub const WORDS: usize = SCHED_ARG_WORDS + 1;
    /// Head-word bits below the generation.
    pub const KIND_BITS: u32 = 16;

    /// The record's journal image at generation `gen`: the argument
    /// words, then the head.
    #[inline]
    pub fn words(&self, gen: Word) -> [Word; Self::WORDS] {
        let [a, b, c, d, e] = self.args;
        [a, b, c, d, e, (gen << Self::KIND_BITS) | self.kind as Word]
    }

    /// The record a journal image holds (its generation dropped).
    #[inline]
    pub fn from_words([a, b, c, d, e, head]: [Word; Self::WORDS]) -> Self {
        SchedRecord {
            kind: head as u16,
            args: [a, b, c, d, e],
        }
    }

    /// The generation a head word was journaled at.
    #[inline]
    pub fn generation(head: Word) -> Word {
        head >> Self::KIND_BITS
    }
}

/// The scheduler a processor's engine loop runs under: what a fork and a
/// thread end turn into, and how a [`SchedRecord`] runs.
pub trait Scheduler {
    /// Runs the scheduler capsule `rec` denotes. `handles` is the
    /// engine's own resolver, lent for the one question a scheduler asks
    /// of a handle it did not write: does a dead processor's restart
    /// pointer still decode?
    fn run(&self, rec: &SchedRecord, ctx: &mut ProcCtx, handles: &ContArena) -> PmResult<Next>;

    /// The capsule a fork installs: push `child`, then continue the
    /// thread at `cont` (both handles). Runs at the end of the forking
    /// capsule, on its context, so the scheduler may read what the push
    /// needs there (a fault restarts the forking capsule).
    fn on_fork(&self, ctx: &mut ProcCtx, child: Word, cont: Word) -> PmResult<SchedRecord>;

    /// The capsule a finished thread installs.
    fn on_end(&self) -> SchedRecord;

    /// Diagnostic name of the capsule `rec` denotes.
    fn name(&self, rec: &SchedRecord) -> &'static str;

    /// Whether the dynamic write-after-read validator checks `rec`'s
    /// capsule. A Figure 3 capsule that reads an entry and rewrites it
    /// in the same capsule (`pushBottom`'s conditional push) answers no:
    /// its idempotence is the paper's tag argument (Lemma A.6), not
    /// Theorem 3.1. A capsule whose unchecked part is only a prefix
    /// answers yes and scopes the exemption itself
    /// ([`ProcCtx::set_war_exempt`]).
    fn war_checked(&self, rec: &SchedRecord) -> bool;
}

/// What a processor runs next, and what a handle denotes: a frame (a
/// user capsule, run where its words lie) or a scheduler capsule (a
/// record, run by the [`Scheduler`]). Both are a few words, so a
/// processor's position in its computation is a `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Active {
    /// A frame-denoted capsule.
    Frame(FrameRef),
    /// A scheduler capsule.
    Sched(SchedRecord),
}

impl Active {
    /// Diagnostic name; `sched` names the records.
    pub fn name(&self, sched: Option<&dyn Scheduler>) -> &'static str {
        match self {
            Active::Frame(f) => f.name,
            Active::Sched(rec) => sched.map_or("sched/?", |s| s.name(rec)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::registry::tests::raw_frame;
    use crate::runner::{run_capsule, InstallCtx};
    use ppm_pm::{Addr, PmConfig};

    fn machine() -> Machine {
        Machine::new(PmConfig::parallel(1, 1 << 16))
    }

    /// Runs the capsule `handle` denotes once, to completion.
    fn run_once(m: &Machine, handle: Word) -> Option<Active> {
        let cur = m.arena().resolve(handle).expect("a registered frame");
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        run_capsule(&mut ctx, m.arena(), &mut install, &cur, None).unwrap()
    }

    #[test]
    fn a_frame_runs_its_body() {
        let m = machine();
        let out = m.alloc_region(1).start;
        let c = raw_frame(&m, "write-then-end", [out as Word], |&[at], ctx| {
            ctx.pwrite(at as Addr, 99)?;
            Ok(Next::End)
        });
        assert!(run_once(&m, c).is_none(), "the body ended the chain");
        assert_eq!(m.mem().load(out), 99);
    }

    #[test]
    fn capsules_are_rerunnable() {
        // A frame can run any number of times; a conflict-free body leaves
        // the same state each time (Theorem 3.1).
        let m = machine();
        let out = m.alloc_region(1).start;
        let c = raw_frame(&m, "idempotent", [out as Word], |&[at], ctx| {
            ctx.pwrite(at as Addr, 7)?;
            Ok(Next::End)
        });
        for _ in 0..5 {
            run_once(&m, c);
        }
        assert_eq!(m.mem().load(out), 7);
    }

    #[test]
    fn a_jump_by_handle_chains() {
        let m = machine();
        let out = m.alloc_region(1).start;
        let tail = raw_frame(&m, "tail", [], |_: &[Word; 0], _| Ok(Next::End));
        let head = raw_frame(&m, "head", [out as Word, tail], |&[at, next], ctx| {
            ctx.pwrite(at as Addr, 5)?;
            Ok(Next::JumpHandle(next))
        });
        match run_once(&m, head) {
            Some(next) => assert_eq!(next.name(None), "tail"),
            other => panic!("expected the tail frame, got {other:?}"),
        }
        assert_eq!(m.mem().load(out), 5);
        assert_eq!(m.active_handle(0), tail, "the restart pointer is the frame");
    }

    #[test]
    fn next_debug_formats() {
        assert_eq!(format!("{:?}", Next::End), "End");
        assert!(format!("{:?}", Next::JumpHandle(0x4d2)).contains("1234"));
    }
}
