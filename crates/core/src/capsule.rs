//! Capsules: the unit of restartable computation.
//!
//! §2 of the paper partitions a processor's computation into *capsules*:
//! maximal instruction sequences run while the restart-pointer location
//! holds the same restart pointer. A capsule is installed by writing a new
//! restart pointer; on a fault the processor re-runs the active capsule
//! from its beginning.
//!
//! A session's capsule is a frame: the paper's *closure* (start
//! instruction plus local state plus arguments plus continuation, §4.1)
//! as persistent words, read afresh by every attempt; the closure
//! machine's is an immutable object implementing [`Capsule`] that captures
//! the same. Either way a re-run observes exactly the initial state.
//! Ephemeral memory and registers are the `run` invocation's local
//! variables — dropped and rebuilt on every run, which models their loss on
//! a fault. A capsule body must be **write-after-read conflict free**
//! (checked dynamically by `ppm-pm` in strict mode) for the re-run to be
//! idempotent (Theorem 3.1).

use std::fmt;
use std::sync::Arc;

use ppm_pm::{PmResult, ProcCtx, Word};

use crate::arena::ContArena;
use crate::registry::FrameRef;

/// What a completed capsule does next. Returning `Next` is the paper's
/// "installing" step: the engine writes the new restart pointer (a constant
/// number of external writes) before the successor runs.
pub enum Next {
    /// Continue this thread with the given capsule (a persistent call,
    /// return, or commit — all capsule boundaries look alike here).
    Jump(Cont),
    /// Continue this thread with the capsule denoted by a persistent
    /// frame handle (see [`ppm_pm::frame`]). The engine installs the
    /// frame address itself as the restart pointer — which is what makes
    /// the thread resumable by a fresh process after a crash — and runs
    /// the capsule straight off the frame's words ([`Active::Frame`]).
    JumpHandle(Word),
    /// Fork: push `child` as a new thread on the scheduler's deque and
    /// continue this thread with `cont` (§6.1's `fork` function). Under a
    /// scheduler, the push itself runs as dedicated capsules between this
    /// capsule and `cont`.
    Fork {
        /// The newly enabled thread's first capsule.
        child: Cont,
        /// The current thread's continuation after the fork.
        cont: Cont,
    },
    /// Fork where both sides are already persistent frames (written by
    /// this capsule's body, e.g. via [`crate::join::fork_join_frames`]):
    /// the child handle goes straight into the deque, the continuation is
    /// installed by handle.
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

impl fmt::Debug for Next {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Next::Jump(c) => write!(f, "Jump({})", c.name()),
            Next::JumpHandle(h) => write!(f, "JumpHandle({h})"),
            Next::Fork { child, cont } => {
                write!(f, "Fork{{child: {}, cont: {}}}", child.name(), cont.name())
            }
            Next::ForkHandle { child, cont } => {
                write!(f, "ForkHandle{{child: {child}, cont: {cont}}}")
            }
            Next::Sched(r) => write!(f, "Sched({:#x})", r.kind),
            Next::End => write!(f, "End"),
            Next::Halt => write!(f, "Halt"),
        }
    }
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
/// thread end turn into, and how a [`SchedRecord`] runs. One object
/// replaces the two closure hooks (`fork_wrap`, `on_end`) the engine took
/// before scheduler capsules were records.
pub trait Scheduler {
    /// Runs the scheduler capsule `rec` denotes. `handles` is the
    /// engine's own resolver, lent for the one question a scheduler asks
    /// of a handle it did not write: does a dead processor's restart
    /// pointer still decode?
    fn run(&self, rec: &SchedRecord, ctx: &mut ProcCtx, handles: &ContArena) -> PmResult<Next>;

    /// The capsule a fork installs: push `child`, then continue the
    /// thread at `cont` (both handles).
    fn on_fork(&self, child: Word, cont: Word) -> SchedRecord;

    /// The capsule a finished thread installs.
    fn on_end(&self) -> SchedRecord;

    /// Diagnostic name of the capsule `rec` denotes.
    fn name(&self, rec: &SchedRecord) -> &'static str;

    /// Whether the dynamic write-after-read validator checks `rec`'s
    /// capsule. The Figure 3 capsules that read an entry and rewrite it
    /// in the same capsule (`pushBottom`'s conditional push,
    /// `clearBottom`) answer no: their idempotence is the paper's tag
    /// argument (Lemmas A.6/A.12), not Theorem 3.1.
    fn war_checked(&self, rec: &SchedRecord) -> bool;
}

/// A restartable unit of computation.
pub trait Capsule: Send + Sync {
    /// Executes the capsule body. All persistent-memory traffic must go
    /// through `ctx`; a returned [`ppm_pm::Fault`] aborts the run and the
    /// engine restarts the capsule (soft) or the processor dies (hard).
    ///
    /// Bodies must be deterministic functions of their captured state and
    /// the persistent values they read (the model's determinism
    /// assumption), and must be write-after-read conflict free.
    fn run(&self, ctx: &mut ProcCtx) -> PmResult<Next>;

    /// Diagnostic name, used in validator panics and traces.
    fn name(&self) -> &'static str;
}

/// A continuation: a shared handle to a capsule ("closure") that can be
/// stored, passed to the scheduler, or registered in the continuation
/// arena for cross-processor stealing.
pub type Cont = Arc<dyn Capsule>;

/// What a processor runs next, and what a handle denotes: a closure
/// object (the closure machine's form), a frame (a session's form: the
/// words *are* the closure, and the engine runs them where they lie) or
/// a scheduler capsule (a record, run by the [`Scheduler`]).
#[derive(Clone)]
pub enum Active {
    /// A closure-machine capsule.
    Capsule(Cont),
    /// A frame-denoted capsule.
    Frame(FrameRef),
    /// A scheduler capsule.
    Sched(SchedRecord),
}

impl Active {
    /// Diagnostic name; `sched` names the records.
    pub fn name(&self, sched: Option<&dyn Scheduler>) -> &'static str {
        match self {
            Active::Capsule(c) => c.name(),
            Active::Frame(f) => f.name,
            Active::Sched(rec) => sched.map_or("sched/?", |s| s.name(rec)),
        }
    }
}

/// A capsule built from a closure. The closure's captured environment is
/// the capsule's persistent "closure" state; the `Fn` bound (not `FnOnce`)
/// enforces re-runnability.
pub struct FnCapsule<F> {
    name: &'static str,
    body: F,
}

impl<F> Capsule for FnCapsule<F>
where
    F: Fn(&mut ProcCtx) -> PmResult<Next> + Send + Sync,
{
    fn run(&self, ctx: &mut ProcCtx) -> PmResult<Next> {
        (self.body)(ctx)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Creates a capsule from a closure.
///
/// ```
/// use ppm_core::capsule::{capsule, Next};
///
/// let c = capsule("hello", |_ctx| Ok(Next::End));
/// assert_eq!(c.name(), "hello");
/// ```
pub fn capsule<F>(name: &'static str, body: F) -> Cont
where
    F: Fn(&mut ProcCtx) -> PmResult<Next> + Send + Sync + 'static,
{
    Arc::new(FnCapsule { name, body })
}

/// A capsule that runs a side-effecting body and then jumps to a fixed
/// continuation. The workhorse for straight-line capsule chains.
pub fn step_capsule<F>(name: &'static str, body: F, then: Cont) -> Cont
where
    F: Fn(&mut ProcCtx) -> PmResult<()> + Send + Sync + 'static,
{
    capsule(name, move |ctx| {
        body(ctx)?;
        Ok(Next::Jump(then.clone()))
    })
}

/// A capsule that runs a body and ends the thread.
pub fn final_capsule<F>(name: &'static str, body: F) -> Cont
where
    F: Fn(&mut ProcCtx) -> PmResult<()> + Send + Sync + 'static,
{
    capsule(name, move |ctx| {
        body(ctx)?;
        Ok(Next::End)
    })
}

/// The trivial capsule: ends the thread immediately.
pub fn end_capsule() -> Cont {
    capsule("end", |_ctx| Ok(Next::End))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_pm::{PmConfig, ProcCtx};

    fn test_ctx() -> ProcCtx {
        let cfg = PmConfig::small_single();
        let mem = std::sync::Arc::new(ppm_pm::PersistentMemory::new(
            cfg.persistent_words,
            cfg.block_size,
        ));
        let stats = std::sync::Arc::new(ppm_pm::MemStats::new(1));
        let live = std::sync::Arc::new(ppm_pm::Liveness::new(1));
        ProcCtx::new(&cfg, 0, mem, stats, live)
    }

    #[test]
    fn fn_capsule_runs_body() {
        let c = capsule("write-then-end", |ctx| {
            ctx.pwrite(0, 99)?;
            Ok(Next::End)
        });
        let mut ctx = test_ctx();
        ctx.begin_capsule(c.name());
        match c.run(&mut ctx).unwrap() {
            Next::End => {}
            other => panic!("expected End, got {other:?}"),
        }
        assert_eq!(ctx.raw_mem().load(0), 99);
    }

    #[test]
    fn capsules_are_rerunnable() {
        // The Fn bound means a capsule can run any number of times; a
        // conflict-free body leaves the same state each time (Theorem 3.1).
        let c = capsule("idempotent", |ctx| {
            ctx.pwrite(4, 7)?;
            Ok(Next::End)
        });
        let mut ctx = test_ctx();
        for _ in 0..5 {
            ctx.begin_capsule(c.name());
            c.run(&mut ctx).unwrap();
        }
        assert_eq!(ctx.raw_mem().load(4), 7);
    }

    #[test]
    fn step_capsule_chains() {
        let tail = end_capsule();
        let head = step_capsule("head", |ctx| ctx.pwrite(1, 5), tail);
        let mut ctx = test_ctx();
        ctx.begin_capsule(head.name());
        match head.run(&mut ctx).unwrap() {
            Next::Jump(c) => assert_eq!(c.name(), "end"),
            other => panic!("expected Jump, got {other:?}"),
        }
        assert_eq!(ctx.raw_mem().load(1), 5);
    }

    #[test]
    fn next_debug_formats() {
        let d = format!("{:?}", Next::End);
        assert_eq!(d, "End");
        let j = format!("{:?}", Next::Jump(end_capsule()));
        assert!(j.contains("end"));
    }
}
