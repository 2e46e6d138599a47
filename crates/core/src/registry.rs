//! The capsule registry: the code that frame words denote.
//!
//! A continuation stored as a [`ppm_pm::frame`] frame is just words:
//! `(capsule_id, args…)`. The *code* those words denote lives here. A
//! [`CapsuleRegistry`] maps stable [`CapsuleId`]s to a **decode** (the
//! argument words type-checked into the capsule's state) and a **body**
//! that runs on the decoded state, registered deterministically at
//! computation-construction time. Nothing is built from a frame and kept:
//! every attempt reads the frame's words onto the stack, decodes them and
//! calls the body ([`crate::runner`]), and [`CapsuleRegistry::rehydrate`]
//! is the same read and decode without the call. Because a recovering
//! process reconstructs the computation the same way the crashed one did
//! (same instance builders, same ids, same deterministic region layout),
//! it re-registers the identical code, and any frame address found in a
//! persisted deque entry or restart pointer runs again.
//!
//! Decoding is **shallow**: a continuation argument inside a frame stays
//! a frame address (a plain word), which the body hands back as
//! [`crate::capsule::Next::JumpHandle`]. There is therefore no recursive
//! decode and no cycle hazard.
//!
//! ## Capsule-id allocation
//!
//! Ids below [`FIRST_USER_CAPSULE_ID`] are reserved for the runtime's own
//! registered capsules (join arrivals, the completion finale, the generic
//! fork pair), installed by [`register_core_capsules`] on every machine.
//!
//! User ids are **allocated, not chosen**: [`CapsuleRegistry::allocate`]
//! hands out the next free id for a capsule *name*, idempotently — the
//! same name always maps to the same id on a given machine, and because
//! computation construction is deterministic, to the same id on a
//! machine recovering the same computation. Manual registration under an
//! explicit id remains possible (the core capsules use it); colliding
//! registrations panic, naming both capsules. Ids stay below
//! [`MAX_CAPSULE_IDS`]: the registry and each processor's memo of it are
//! tables indexed by id, so finding a frame's code hashes nothing.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use ppm_pm::{with_frame_args, Addr, FrameError, PersistentMemory, PmResult, ProcCtx, Word};

use crate::capsule::Next;
use crate::persist::{FrameDecodeError, FrameDecodeKind, PoolRefs};
use RehydrateError::{BadArgs, UnknownCapsule};

/// A stable capsule identifier. Equal across processes for the same
/// computation, by the determinism discipline of machine construction.
pub type CapsuleId = Word;

/// First id available to user computations; smaller ids are reserved for
/// the runtime's built-in registered capsules.
pub const FIRST_USER_CAPSULE_ID: CapsuleId = 0x100;

/// Ids a registry holds: one past the largest registrable id.
pub const MAX_CAPSULE_IDS: CapsuleId = 1 << 16;

/// Built-in id: a join arrival (CAM, then read of the cell, in one
/// capsule), args `[cell_addr, token, after_handle]`. Id `0x02` once named
/// a separate join check capsule; it is reserved and never registered, so
/// a frame that still names it is an unknown capsule, never a join.
pub const CORE_ID_JOIN_CAM: CapsuleId = 0x01;
/// Built-in id: the computation finale, args `[flag_addr]` — sets the
/// completion flag and ends the root thread.
pub const CORE_ID_FINALE: CapsuleId = 0x03;
/// Built-in id: end the thread immediately (a terminal continuation).
pub const CORE_ID_END: CapsuleId = 0x04;
/// Built-in id: a fork pair, args `[left, right]` — forks the thread
/// denoted by the `right` frame handle and continues with `left`. The
/// interior node of every n-ary fan-out built by
/// [`crate::dsl::fork_many`].
pub const CORE_ID_FORK_PAIR: CapsuleId = 0x05;

/// Why a handle could not be rehydrated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RehydrateError {
    /// The words at the handle are not a well-formed frame.
    Frame(FrameError),
    /// The frame decoded but its capsule id has no registered constructor
    /// (a construction-order mismatch: the recovering process declared
    /// different capsules than the run that wrote the frame).
    UnknownCapsule {
        /// The frame address.
        addr: ppm_pm::Addr,
        /// The unregistered id.
        capsule_id: CapsuleId,
    },
    /// The constructor rejected the argument words.
    BadArgs {
        /// The frame address.
        addr: ppm_pm::Addr,
        /// The capsule id whose constructor rejected them.
        capsule_id: CapsuleId,
        /// The structured decode failure (capsule name, arity or value).
        error: FrameDecodeError,
    },
}

impl RehydrateError {
    /// The structured decode error, when the failure was a constructor
    /// rejecting argument words.
    pub fn decode_error(&self) -> Option<&FrameDecodeError> {
        match self {
            RehydrateError::BadArgs { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl std::fmt::Display for RehydrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RehydrateError::Frame(e) => write!(f, "{e}"),
            RehydrateError::UnknownCapsule { addr, capsule_id } => {
                write!(
                    f,
                    "frame at {addr} names unregistered capsule id {capsule_id:#x}"
                )
            }
            RehydrateError::BadArgs {
                addr,
                capsule_id,
                error,
            } => write!(
                f,
                "frame at {addr} (capsule id {capsule_id:#x}) has bad arguments: {error}"
            ),
        }
    }
}

impl std::error::Error for RehydrateError {}

impl From<FrameError> for RehydrateError {
    fn from(e: FrameError) -> Self {
        RehydrateError::Frame(e)
    }
}

/// A capsule's registered decode and body, the state type erased.
trait FrameCode: Send + Sync {
    /// Whether `args` decode as the capsule's state.
    fn decodes(&self, args: &[Word]) -> Result<(), FrameDecodeError>;
    /// One attempt: decodes `args` and runs the body on them.
    fn run(&self, args: &[Word], ctx: &mut ProcCtx) -> Result<PmResult<Next>, FrameDecodeError>;
}

impl<S, D, B> FrameCode for (D, B)
where
    D: Fn(&[Word]) -> Result<S, FrameDecodeError> + Send + Sync,
    B: Fn(&S, &mut ProcCtx) -> PmResult<Next> + Send + Sync,
{
    fn decodes(&self, args: &[Word]) -> Result<(), FrameDecodeError> {
        (self.0)(args).map(drop)
    }
    #[inline]
    fn run(&self, args: &[Word], ctx: &mut ProcCtx) -> Result<PmResult<Next>, FrameDecodeError> {
        Ok((self.1)(&(self.0)(args)?, ctx))
    }
}

/// A frame tracer: reports the persistent-memory references a frame's
/// argument words carry (continuation handles, live word extents) into a
/// [`PoolRefs`] collector, returning whether the words were fully
/// understood — `false` (e.g. the typed state failed to decode) makes
/// the checkpoint subsystem refuse to reclaim anything. Installed
/// alongside the code by [`CapsuleRegistry::register`] (the typed DSL
/// derives it from [`crate::persist::Persist::pool_refs`]).
pub type CapsuleTracer = Box<dyn Fn(&[Word], &mut PoolRefs) -> bool + Send + Sync>;

/// A computation expressed as persistent capsule frames: given the
/// machine and the frame handle of the continuation to run after the
/// computation (typically the finale), register the needed capsules,
/// build the root frame chain with deterministic setup writes
/// ([`crate::machine::Machine::setup_frame`]), and return the root frame
/// handle.
///
/// Determinism contract: calling a `PComp` on a machine reopened from a
/// crashed run must perform the same allocations, register the same ids,
/// and produce the same frame words as the creating run did — that is
/// what lets a recovering scheduler resume the crashed run's deques.
pub type PComp = Arc<dyn Fn(&crate::machine::Machine, Word) -> Word + Send + Sync>;

/// What a frame handle resolves to; the closure stays in persistent memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef {
    /// The frame address (its handle).
    pub addr: Addr,
    /// The capsule id the frame named when it was resolved.
    pub id: CapsuleId,
    /// That capsule's registered name.
    pub name: &'static str,
}

struct Entry {
    name: &'static str,
    code: Box<dyn FrameCode>,
    trace: CapsuleTracer,
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

/// Entries by capsule id: the registry's table and each processor's memo.
type Table = Vec<Option<Arc<Entry>>>;

#[inline]
fn slot(table: &Table, id: CapsuleId) -> Option<&Arc<Entry>> {
    table.get(usize::try_from(id).ok()?)?.as_ref()
}

fn fill(table: &mut Table, id: CapsuleId, entry: Arc<Entry>) {
    let at = id as usize;
    table.resize(table.len().max(at + 1), None);
    table[at] = Some(entry);
}

#[derive(Debug, Default)]
struct Inner {
    entries: Table,
    /// Name → id for every id this registry has seen (allocated or
    /// manually registered); the idempotence key of [`CapsuleRegistry::allocate`].
    by_name: HashMap<&'static str, CapsuleId>,
    /// Next id [`CapsuleRegistry::allocate`] will try.
    next: CapsuleId,
}

/// Registry of capsule code, keyed by stable capsule id.
#[derive(Debug, Default)]
pub struct CapsuleRegistry {
    inner: RwLock<Inner>,
}

impl CapsuleRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates (or returns the previously allocated) capsule id for
    /// `name`. Idempotent by name: the recovering process replays the
    /// same construction sequence as the creating run, asks for the same
    /// names in the same order, and receives the same ids — which is
    /// what makes dynamically allocated ids construction-deterministic.
    ///
    /// The returned id has no code yet; install it with
    /// [`CapsuleRegistry::register`] (or via `dsl::CapsuleSet`, which
    /// wraps both steps).
    pub fn allocate(&self, name: &'static str) -> CapsuleId {
        let mut inner = self.inner.write();
        if let Some(id) = inner.by_name.get(name) {
            return *id;
        }
        let mut id = inner.next.max(FIRST_USER_CAPSULE_ID);
        while slot(&inner.entries, id).is_some() {
            id += 1;
        }
        inner.next = id + 1;
        inner.by_name.insert(name, id);
        id
    }

    /// Registers the capsule `name` under `id`: `decode` type-checks a
    /// frame's argument words into the capsule's state, `body` runs one
    /// attempt on it under the usual restart rules, `trace` is its
    /// [`CapsuleTracer`]. Re-registering the same `(id, name)` is
    /// idempotent and keeps the first code (the recovering process replays
    /// the construction sequence the creating run performed).
    ///
    /// # Panics
    /// Panics if `id` is already registered under a *different* name, or
    /// `name` under a different id — a construction-determinism bug (or a
    /// manual-id collision) that would silently run the wrong code; the
    /// panic names both capsules — or if `id` is not below
    /// [`MAX_CAPSULE_IDS`].
    pub fn register<S, D, B, T>(
        &self,
        id: CapsuleId,
        name: &'static str,
        decode: D,
        body: B,
        trace: T,
    ) where
        D: Fn(&[Word]) -> Result<S, FrameDecodeError> + Send + Sync + 'static,
        B: Fn(&S, &mut ProcCtx) -> PmResult<Next> + Send + Sync + 'static,
        T: Fn(&[Word], &mut PoolRefs) -> bool + Send + Sync + 'static,
    {
        assert!(
            id < MAX_CAPSULE_IDS,
            "capsule id {id:#x} of `{name}` is out of range: ids index a table"
        );
        let mut inner = self.inner.write();
        if let Some(existing) = slot(&inner.entries, id) {
            assert_eq!(
                existing.name, name,
                "capsule id {id:#x} registered twice with different names \
                 ({} vs {name}) — ids must be construction-deterministic",
                existing.name
            );
            return;
        }
        if let Some(other) = inner.by_name.get(name) {
            assert_eq!(
                *other, id,
                "capsule name `{name}` registered under two ids ({other:#x} vs {id:#x}) \
                 — allocate ids through the registry instead of hand-picking bases"
            );
        }
        // Keep dynamic allocation above every manually chosen id.
        if id >= inner.next {
            inner.next = id + 1;
        }
        inner.by_name.insert(name, id);
        let (code, trace) = (Box::new((decode, body)), Box::new(trace));
        fill(
            &mut inner.entries,
            id,
            Arc::new(Entry { name, code, trace }),
        );
    }

    /// The diagnostic name registered for `id`.
    pub fn name_of(&self, id: CapsuleId) -> Option<&'static str> {
        slot(&self.inner.read().entries, id).map(|e| e.name)
    }

    /// The id allocated or registered for `name`, if any.
    pub fn id_of(&self, name: &'static str) -> Option<CapsuleId> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Whether the frame at `handle` denotes a capsule this registry can
    /// run: header and extent, a registered id, argument words that decode
    /// — every check a dispatch makes, without the call. The verdict
    /// recovery asks for on every persisted deque entry and restart pointer.
    pub fn rehydrate(
        &self,
        mem: &PersistentMemory,
        handle: Word,
    ) -> Result<FrameRef, RehydrateError> {
        let addr = handle as Addr;
        with_frame_args(mem, addr, |capsule_id, args| {
            let inner = self.inner.read();
            let entry = slot(&inner.entries, capsule_id);
            let entry = entry.ok_or(UnknownCapsule { addr, capsule_id })?;
            let decoded = entry.code.decodes(args);
            decoded.map_err(|error| BadArgs {
                addr,
                capsule_id,
                error,
            })?;
            let (id, name) = (capsule_id, entry.name);
            Ok(FrameRef { addr, id, name })
        })?
    }

    /// Traces the persistent references of a frame's argument words into
    /// `out`. Returns `false` when `capsule_id` is unregistered or its
    /// tracer could not decode the words — the signal for checkpoint GC to
    /// skip reclamation rather than guess at liveness.
    pub fn trace_refs(&self, capsule_id: CapsuleId, args: &[Word], out: &mut PoolRefs) -> bool {
        let entry = slot(&self.inner.read().entries, capsule_id).cloned();
        entry.is_some_and(|e| (e.trace)(args, out))
    }
}

/// One processor's memo of the registry (owned by its
/// [`crate::runner::InstallCtx`]), so a dispatch takes no lock, hashes
/// nothing and moves no refcount: one `Arc` clone per id per processor.
/// Never stale: registry entries are insert-only (re-registering an id
/// keeps its first code), and a late registration misses here once.
#[derive(Debug, Default)]
pub(crate) struct CodeMemo(Table);

impl CodeMemo {
    /// `capsule_id`'s entry, asking `registry` only on a miss.
    #[inline]
    fn entry(
        &mut self,
        registry: &CapsuleRegistry,
        addr: Addr,
        capsule_id: CapsuleId,
    ) -> Result<&Entry, RehydrateError> {
        if slot(&self.0, capsule_id).is_none() {
            // hot-path-ok: once per id per processor — the lock and the
            // refcount move every later dispatch of the id is spared.
            let found = slot(&registry.inner.read().entries, capsule_id).cloned();
            let entry = found.ok_or(UnknownCapsule { addr, capsule_id })?;
            fill(&mut self.0, capsule_id, entry);
        }
        Ok(slot(&self.0, capsule_id).expect("filled on the miss"))
    }

    /// What the frame at `addr`, its header already probed, denotes: the
    /// install-time half of a dispatch (the words are decoded when run).
    #[inline]
    pub(crate) fn frame_ref(
        &mut self,
        mem: &PersistentMemory,
        registry: &CapsuleRegistry,
        addr: Addr,
    ) -> Result<FrameRef, RehydrateError> {
        let id = mem.load(addr + 1);
        let name = self.entry(registry, addr, id)?.name;
        Ok(FrameRef { addr, id, name })
    }

    /// One attempt of the capsule the frame at `addr` denotes: header and
    /// extent checked, the id and argument words read onto the stack
    /// (uncosted), decoded, and the body called on them.
    #[inline]
    pub(crate) fn run(
        &mut self,
        mem: &PersistentMemory,
        registry: &CapsuleRegistry,
        addr: Addr,
        ctx: &mut ProcCtx,
    ) -> Result<PmResult<Next>, RehydrateError> {
        with_frame_args(mem, addr, |capsule_id, args| {
            let code = &self.entry(registry, addr, capsule_id)?.code;
            code.run(args, ctx).map_err(|error| BadArgs {
                addr,
                capsule_id,
                error,
            })
        })?
    }
}

/// Decodes a frame's argument words into a fixed-arity array on behalf of
/// capsule `capsule`, reporting a structured [`FrameDecodeError`] on an
/// arity mismatch. The decode of raw (untyped) registrations; typed ones
/// go through [`crate::persist::decode_args`] instead.
///
/// ```
/// use ppm_core::registry::frame_args;
/// let [node, k] = frame_args::<2>("probe", &[7, 99]).unwrap();
/// assert_eq!((node, k), (7, 99));
/// let err = frame_args::<2>("probe", &[7]).unwrap_err();
/// assert_eq!(err.capsule, "probe");
/// ```
pub fn frame_args<const N: usize>(
    capsule: &'static str,
    args: &[Word],
) -> Result<[Word; N], FrameDecodeError> {
    args.try_into().map_err(|_| FrameDecodeError {
        capsule,
        kind: FrameDecodeKind::Arity {
            expected: N,
            got: args.len(),
        },
    })
}

/// Registers the runtime's built-in capsules (join arrivals, the finale,
/// the trivial end, the fork pair) on `registry`. Called by machine
/// construction; idempotent.
pub fn register_core_capsules(registry: &CapsuleRegistry) {
    // A join arrival keeps its cell word and its post-join continuation
    // frame alive; the tracer reports both (and refuses malformed args).
    registry.register(
        CORE_ID_JOIN_CAM,
        "join-cam",
        crate::join::decode_arrival,
        crate::join::arrive_cam,
        |args: &[Word], out: &mut PoolRefs| {
            if let [cell, _token, after] = args {
                out.extent(*cell as usize, 1);
                out.handle(*after);
                true
            } else {
                false
            }
        },
    );
    registry.register(
        CORE_ID_FINALE,
        "finale",
        |args| frame_args::<1>("finale", args),
        |&[flag], ctx| {
            ctx.pwrite(flag as Addr, 1)?;
            Ok(Next::End)
        },
        |args, out| {
            if let [flag] = args {
                out.extent(*flag as usize, 1);
                true
            } else {
                false
            }
        },
    );
    registry.register(
        CORE_ID_END,
        "end",
        |_args| Ok(()),
        |_: &(), _ctx| Ok(Next::End),
        |_args, _out| true,
    );
    registry.register(
        CORE_ID_FORK_PAIR,
        "fork-pair",
        |args| frame_args::<2>("fork-pair", args),
        |&[left, right], _ctx| {
            Ok(Next::ForkHandle {
                child: right,
                cont: left,
            })
        },
        |args, out| {
            for a in args {
                out.handle(*a);
            }
            args.len() == 2
        },
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::persist::ValueError;
    use ppm_pm::{store_frame, PmConfig};

    /// Registers `name` as a capsule over `N` raw argument words running
    /// `body`, and writes a setup frame of it over `args`. Re-registering
    /// a name keeps its first body.
    pub(crate) fn raw_frame<const N: usize>(
        m: &Machine,
        name: &'static str,
        args: [Word; N],
        body: impl Fn(&[Word; N], &mut ProcCtx) -> PmResult<Next> + Send + Sync + 'static,
    ) -> Word {
        let id = m.registry().allocate(name);
        let decode = move |a: &[Word]| frame_args::<N>(name, a);
        m.registry().register(id, name, decode, body, |_, _| true);
        m.setup_frame(id, &args)
    }

    /// Registers `name` under `id` with no state and a body that ends.
    fn register_end(reg: &CapsuleRegistry, id: CapsuleId, name: &'static str) {
        reg.register(id, name, |_| Ok(()), |_: &(), _| Ok(Next::End), |_, _| true);
    }

    #[test]
    fn register_and_rehydrate() {
        let reg = CapsuleRegistry::new();
        reg.register(
            0x200,
            "probe",
            |args| frame_args::<1>("probe", args),
            |&[target], ctx| {
                ctx.pwrite(target as Addr, 77)?;
                Ok(Next::End)
            },
            |_, _| false,
        );
        assert_eq!(reg.name_of(0x200), Some("probe"));
        assert_eq!(reg.id_of("probe"), Some(0x200));
        let mem = PersistentMemory::new(256, 8);
        store_frame(&mem, 16, 0x200, &[40]);
        let c = reg.rehydrate(&mem, 16).expect("rehydrates");
        assert_eq!(c.name, "probe");
        assert_eq!((c.addr, c.id), (16, 0x200));
    }

    fn expect_err(r: Result<FrameRef, RehydrateError>) -> RehydrateError {
        match r {
            Err(e) => e,
            Ok(c) => panic!("expected rehydration failure, got capsule `{}`", c.name),
        }
    }

    #[test]
    fn unknown_capsule_is_a_clean_error() {
        let reg = CapsuleRegistry::new();
        let mem = PersistentMemory::new(256, 8);
        store_frame(&mem, 16, 0xDEAD, &[]);
        let err = expect_err(reg.rehydrate(&mem, 16));
        assert!(
            matches!(
                err,
                RehydrateError::UnknownCapsule {
                    capsule_id: 0xDEAD,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.decode_error().is_none());
    }

    #[test]
    fn malformed_frame_is_a_clean_error() {
        let reg = CapsuleRegistry::new();
        let mem = PersistentMemory::new(256, 8);
        mem.store(16, 1); // legacy marker word
        let err = expect_err(reg.rehydrate(&mem, 16));
        assert!(matches!(err, RehydrateError::Frame(_)), "{err}");
        // Null handle is not a frame either.
        assert!(reg.rehydrate(&mem, 0).is_err());
    }

    #[test]
    fn re_registration_is_idempotent() {
        let reg = CapsuleRegistry::new();
        register_end(&reg, 0x300, "same");
        register_end(&reg, 0x300, "same");
        assert_eq!(reg.name_of(0x300), Some("same"));
        assert_eq!(reg.allocate("next"), 0x301);
    }

    /// What keeps a processor's `CodeMemo` never stale: a miss is not
    /// memoised (an id registered after the run started resolves on the
    /// next try), and re-registration keeps the first code (so a
    /// memoised entry is the registry's one forever).
    #[test]
    fn code_memo_sees_late_registration_and_first_code_wins() {
        let m = Machine::new(PmConfig::parallel(1, 1 << 12));
        let (mem, reg) = (m.mem(), m.registry());
        let out = m.alloc_region(1).start;
        let frame = m.setup_frame(0x310, &[]) as Addr;
        let mut ctx = m.ctx(0);
        ctx.begin_capsule("t");
        let mut memo = CodeMemo::default();

        let err = memo.run(mem, reg, frame, &mut ctx).map(drop).unwrap_err();
        assert!(
            matches!(err, RehydrateError::UnknownCapsule { .. }),
            "{err}"
        );
        assert!(memo.frame_ref(mem, reg, frame).is_err());
        let writes = |v: Word| {
            move |_: &(), ctx: &mut ProcCtx| {
                ctx.pwrite(out, v)?;
                Ok(Next::End)
            }
        };
        reg.register(0x310, "late", |_| Ok(()), writes(1), |_, _| true);
        assert_eq!(memo.frame_ref(mem, reg, frame).unwrap().name, "late");

        reg.register(0x310, "late", |_| Ok(()), writes(2), |_, _| true);
        for memo in [&mut memo, &mut CodeMemo::default()] {
            let next = memo.run(mem, reg, frame, &mut ctx).expect("decodes");
            assert!(matches!(next, Ok(Next::End)));
            assert_eq!(mem.load(out), 1, "the first registration's body ran");
            mem.store(out, 0);
        }
    }

    #[test]
    #[should_panic(expected = "registered twice with different names (alpha/up vs beta/down)")]
    fn conflicting_registration_panics_naming_both_capsules() {
        let reg = CapsuleRegistry::new();
        register_end(&reg, 0x300, "alpha/up");
        register_end(&reg, 0x300, "beta/down");
    }

    #[test]
    #[should_panic(expected = "registered under two ids")]
    fn one_name_under_two_ids_panics() {
        let reg = CapsuleRegistry::new();
        register_end(&reg, 0x300, "a");
        register_end(&reg, 0x301, "a");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_id_past_the_table_is_refused() {
        register_end(&CapsuleRegistry::new(), MAX_CAPSULE_IDS, "far");
    }

    #[test]
    fn allocation_is_idempotent_by_name_and_collision_free() {
        let reg = CapsuleRegistry::new();
        let a = reg.allocate("alg1/up");
        let b = reg.allocate("alg1/down");
        let c = reg.allocate("alg2/node");
        assert!(a >= FIRST_USER_CAPSULE_ID);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        // Re-asking (the recovery replay) returns the same ids.
        assert_eq!(reg.allocate("alg1/up"), a);
        assert_eq!(reg.allocate("alg2/node"), c);
    }

    #[test]
    fn allocation_skips_manually_registered_ids() {
        let reg = CapsuleRegistry::new();
        register_end(&reg, FIRST_USER_CAPSULE_ID, "manual");
        let id = reg.allocate("dynamic");
        assert_ne!(id, FIRST_USER_CAPSULE_ID);
        assert!(
            reg.name_of(id).is_none(),
            "allocated but not yet registered"
        );
        register_end(&reg, id, "dynamic");
        assert_eq!(reg.name_of(id), Some("dynamic"));
    }

    #[test]
    fn core_capsules_cover_reserved_ids() {
        let reg = CapsuleRegistry::new();
        register_core_capsules(&reg);
        for id in [
            CORE_ID_JOIN_CAM,
            CORE_ID_FINALE,
            CORE_ID_END,
            CORE_ID_FORK_PAIR,
        ] {
            assert!(reg.name_of(id).is_some());
            assert!(id < FIRST_USER_CAPSULE_ID);
        }
        register_core_capsules(&reg); // idempotent
    }

    #[test]
    fn bad_args_surface_the_structured_decode_error() {
        let reg = CapsuleRegistry::new();
        register_core_capsules(&reg);
        let mem = PersistentMemory::new(256, 8);
        store_frame(&mem, 16, CORE_ID_FINALE, &[]); // finale wants 1 arg
        let err = expect_err(reg.rehydrate(&mem, 16));
        let decode = err
            .decode_error()
            .expect("BadArgs carries the decode error");
        assert_eq!(decode.capsule, "finale");
        assert_eq!(
            decode.kind,
            crate::persist::FrameDecodeKind::Arity {
                expected: 1,
                got: 0
            }
        );
        assert!(err.to_string().contains("finale"), "{err}");
    }

    /// A join token is 1 or 2 (hostile bytes): any other word is refused
    /// when the frame is decoded, so neither `rehydrate` nor a run ever
    /// sees an arrival that could not join.
    #[test]
    fn join_frames_with_a_token_other_than_1_or_2_are_refused() {
        let reg = CapsuleRegistry::new();
        register_core_capsules(&reg);
        let mem = PersistentMemory::new(256, 8);
        for token in [0, 3] {
            store_frame(&mem, 16, CORE_ID_JOIN_CAM, &[64, token, 0]);
            let err = expect_err(reg.rehydrate(&mem, 16));
            let RehydrateError::BadArgs { error, .. } = &err else {
                panic!("token {token}: {err}")
            };
            assert_eq!(error.capsule, "join-cam");
            let want = ValueError {
                what: "join token (1 or 2)",
                word: token,
            };
            assert_eq!(error.kind, FrameDecodeKind::Value(want));
        }
        store_frame(
            &mem,
            16,
            CORE_ID_JOIN_CAM,
            &[64, crate::join::TOKEN_RIGHT, 0],
        );
        assert_eq!(reg.rehydrate(&mem, 16).unwrap().name, "join-cam");
    }

    /// Id 0x02, the retired join check capsule, stays unregistered: a
    /// frame an older build left under it is an unknown capsule (which
    /// recovery reports as a structured fallback), never a join.
    #[test]
    fn the_retired_join_check_id_is_an_unknown_capsule() {
        let reg = CapsuleRegistry::new();
        register_core_capsules(&reg);
        assert_eq!(reg.name_of(0x02), None);
        let mem = PersistentMemory::new(256, 8);
        store_frame(&mem, 16, 0x02, &[64, crate::join::TOKEN_LEFT, 0]);
        assert!(matches!(
            expect_err(reg.rehydrate(&mem, 16)),
            UnknownCapsule {
                capsule_id: 0x02,
                ..
            }
        ));
    }
}
