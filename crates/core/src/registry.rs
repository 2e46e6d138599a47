//! The capsule registry: rehydrating closures from persistent words.
//!
//! A continuation stored as a [`ppm_pm::frame`] frame is just words:
//! `(capsule_id, args…)`. The *code* those words denote lives here. A
//! [`CapsuleRegistry`] maps stable [`CapsuleId`]s to **rehydration
//! constructors** — functions from argument words to a runnable
//! [`Cont`] — registered deterministically at computation-construction
//! time. Because a recovering process reconstructs the computation the
//! same way the crashed one did (same instance builders, same ids, same
//! deterministic region layout), it re-registers the identical
//! constructors, and any frame address found in a persisted deque entry
//! or restart pointer can be turned back into a live capsule.
//!
//! Constructors are **shallow**: a continuation argument inside a frame
//! stays a frame address (a plain word) in the rehydrated capsule, which
//! resolves it lazily at run time by returning
//! [`crate::capsule::Next::JumpHandle`]. There is therefore no recursive
//! rehydration and no cycle hazard at decode time.
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
//! machine recovering the same computation. This replaces the old
//! manual-base scheme (`PREFIX_ID_BASE`, `MSORT_ID_BASE`, hand-spaced
//! offsets) whose silent-collision hazard grew with every ported
//! algorithm. Manual registration under an explicit id remains possible
//! (the core capsules use it); colliding registrations panic, naming
//! both capsules.

use std::collections::HashMap;

use parking_lot::RwLock;
use ppm_pm::{read_frame, Addr, Frame, FrameError, PersistentMemory, Word};

use crate::capsule::{capsule, Cont, Next};
use crate::join::JoinCell;
use crate::persist::{FrameDecodeError, FrameDecodeKind, PoolRefs};

/// A stable capsule identifier. Equal across processes for the same
/// computation, by the determinism discipline of machine construction.
pub type CapsuleId = Word;

/// First id available to user computations; smaller ids are reserved for
/// the runtime's built-in registered capsules.
pub const FIRST_USER_CAPSULE_ID: CapsuleId = 0x100;

/// Built-in id: a join arrival's CAM capsule,
/// args `[cell_addr, token, after_handle]`.
pub const CORE_ID_JOIN_CAM: CapsuleId = 0x01;
/// Built-in id: a join arrival's check capsule, same args as the CAM.
pub const CORE_ID_JOIN_CHECK: CapsuleId = 0x02;
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

/// A rehydration constructor: argument words to a runnable capsule.
pub type CapsuleCtor =
    std::sync::Arc<dyn Fn(&[Word]) -> Result<Cont, FrameDecodeError> + Send + Sync>;

/// A frame tracer: reports the persistent-memory references a frame's
/// argument words carry (continuation handles, live word extents) into a
/// [`PoolRefs`] collector, returning whether the words were fully
/// understood — `false` (e.g. the typed state failed to decode) makes
/// the checkpoint subsystem refuse to reclaim anything, exactly like a
/// missing tracer. Installed alongside the constructor by
/// [`CapsuleRegistry::register_traced`] (the typed DSL derives it from
/// [`crate::persist::Persist::pool_refs`]).
pub type CapsuleTracer = std::sync::Arc<dyn Fn(&[Word], &mut PoolRefs) -> bool + Send + Sync>;

/// A computation expressed as persistent capsule frames: given the
/// machine and the frame handle of the continuation to run after the
/// computation (typically the finale), register the needed rehydration
/// constructors, build the root frame chain with deterministic setup
/// writes ([`crate::machine::Machine::setup_frame`]), and return the root
/// frame handle.
///
/// Determinism contract: calling a `PComp` on a machine reopened from a
/// crashed run must perform the same allocations, register the same ids,
/// and produce the same frame words as the creating run did — that is
/// what lets a recovering scheduler resume the crashed run's deques.
pub type PComp = std::sync::Arc<dyn Fn(&crate::machine::Machine, Word) -> Word + Send + Sync>;

struct Entry {
    name: &'static str,
    ctor: CapsuleCtor,
    trace: Option<CapsuleTracer>,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<CapsuleId, Entry>,
    /// Name → id for every id this registry has seen (allocated or
    /// manually registered); the idempotence key of [`CapsuleRegistry::allocate`].
    by_name: HashMap<&'static str, CapsuleId>,
    /// Next id [`CapsuleRegistry::allocate`] will try.
    next: CapsuleId,
}

/// Registry of rehydration constructors, keyed by stable capsule id.
pub struct CapsuleRegistry {
    inner: RwLock<Inner>,
}

impl Default for CapsuleRegistry {
    fn default() -> Self {
        CapsuleRegistry {
            inner: RwLock::new(Inner {
                entries: HashMap::new(),
                by_name: HashMap::new(),
                next: FIRST_USER_CAPSULE_ID,
            }),
        }
    }
}

impl std::fmt::Debug for CapsuleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CapsuleRegistry({} ids)",
            self.inner.read().entries.len()
        )
    }
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
    /// The returned id has no constructor yet; install one with
    /// [`CapsuleRegistry::register`] (or via `dsl::CapsuleSet`, which
    /// wraps both steps).
    pub fn allocate(&self, name: &'static str) -> CapsuleId {
        let mut inner = self.inner.write();
        if let Some(id) = inner.by_name.get(name) {
            return *id;
        }
        let mut id = inner.next.max(FIRST_USER_CAPSULE_ID);
        while inner.entries.contains_key(&id) {
            id += 1;
        }
        inner.next = id + 1;
        inner.by_name.insert(name, id);
        id
    }

    /// Registers `ctor` under `id`. Re-registering the same `(id, name)`
    /// is idempotent (the recovering process replays the same
    /// construction sequence the creating run performed).
    ///
    /// # Panics
    /// Panics if `id` is already registered under a *different* name, or
    /// `name` under a different id — a construction-determinism bug (or a
    /// manual-id collision) that would silently rehydrate the wrong code.
    /// The panic names both capsules.
    pub fn register<F>(&self, id: CapsuleId, name: &'static str, ctor: F)
    where
        F: Fn(&[Word]) -> Result<Cont, FrameDecodeError> + Send + Sync + 'static,
    {
        self.register_inner(id, name, std::sync::Arc::new(ctor), None);
    }

    /// [`CapsuleRegistry::register`] plus a [`CapsuleTracer`], making
    /// frames of this capsule traceable by checkpoint GC. Same idempotence
    /// and collision rules.
    pub fn register_traced<F, T>(&self, id: CapsuleId, name: &'static str, ctor: F, trace: T)
    where
        F: Fn(&[Word]) -> Result<Cont, FrameDecodeError> + Send + Sync + 'static,
        T: Fn(&[Word], &mut PoolRefs) -> bool + Send + Sync + 'static,
    {
        self.register_inner(
            id,
            name,
            std::sync::Arc::new(ctor),
            Some(std::sync::Arc::new(trace)),
        );
    }

    fn register_inner(
        &self,
        id: CapsuleId,
        name: &'static str,
        ctor: CapsuleCtor,
        trace: Option<CapsuleTracer>,
    ) {
        let mut inner = self.inner.write();
        if let Some(existing) = inner.entries.get(&id) {
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
        inner.entries.insert(id, Entry { name, ctor, trace });
    }

    /// Whether `id` has a constructor.
    pub fn contains(&self, id: CapsuleId) -> bool {
        self.inner.read().entries.contains_key(&id)
    }

    /// The diagnostic name registered for `id`.
    pub fn name_of(&self, id: CapsuleId) -> Option<&'static str> {
        self.inner.read().entries.get(&id).map(|e| e.name)
    }

    /// The id allocated or registered for `name`, if any.
    pub fn id_of(&self, name: &'static str) -> Option<CapsuleId> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Number of registered ids.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// Whether no ids are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }

    /// The constructor for `frame`'s capsule id: one read lock and one
    /// `Arc` clone, which [`CtorCache`] pays once per id.
    fn ctor_of(&self, addr: Addr, capsule_id: CapsuleId) -> Result<CapsuleCtor, RehydrateError> {
        match self.inner.read().entries.get(&capsule_id) {
            Some(e) => Ok(e.ctor.clone()),
            None => Err(RehydrateError::UnknownCapsule { addr, capsule_id }),
        }
    }

    /// Rehydrates a decoded frame into a runnable capsule.
    pub fn instantiate(&self, frame: &Frame) -> Result<Cont, RehydrateError> {
        self.instantiate_parts(frame.addr, frame.capsule_id, &frame.args)
    }

    /// [`CapsuleRegistry::instantiate`] over a frame's decoded parts (the
    /// arena reads argument words into a stack buffer, not a [`Frame`]).
    pub(crate) fn instantiate_parts(
        &self,
        addr: Addr,
        capsule_id: CapsuleId,
        args: &[Word],
    ) -> Result<Cont, RehydrateError> {
        construct(&self.ctor_of(addr, capsule_id)?, addr, capsule_id, args)
    }

    /// Decodes the frame at `handle` in `mem` and rehydrates it. The
    /// end-to-end path recovery uses on every persisted deque entry and
    /// restart pointer.
    pub fn rehydrate(&self, mem: &PersistentMemory, handle: Word) -> Result<Cont, RehydrateError> {
        let frame = read_frame(mem, handle as ppm_pm::Addr)?;
        self.instantiate(&frame)
    }

    /// Traces the persistent references of a frame's argument words into
    /// `out`. Returns `false` when `capsule_id` has no tracer (an
    /// unregistered id, or a raw registration without one) or the tracer
    /// could not decode the words — the signal for checkpoint GC to skip
    /// reclamation rather than guess at liveness.
    pub fn trace_refs(&self, capsule_id: CapsuleId, args: &[Word], out: &mut PoolRefs) -> bool {
        let trace = {
            let inner = self.inner.read();
            match inner.entries.get(&capsule_id).and_then(|e| e.trace.clone()) {
                Some(t) => t,
                None => return false,
            }
        };
        trace(args, out)
    }
}

fn construct(
    ctor: &CapsuleCtor,
    addr: Addr,
    capsule_id: CapsuleId,
    args: &[Word],
) -> Result<Cont, RehydrateError> {
    ctor(args).map_err(|error| RehydrateError::BadArgs {
        addr,
        capsule_id,
        error,
    })
}

/// One processor's memo of the constructors it has rehydrated through
/// (owned by its [`crate::runner::InstallCtx`]), so the run path takes no
/// registry lock and moves no shared refcount per frame-denoted capsule.
/// Never stale: registry entries are insert-only (re-registering an id
/// keeps its first constructor), and an id registered after the run
/// started simply misses here once.
#[derive(Default)]
pub(crate) struct CtorCache(HashMap<CapsuleId, CapsuleCtor>);

impl std::fmt::Debug for CtorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CtorCache({} ids)", self.0.len())
    }
}

impl CtorCache {
    /// [`CapsuleRegistry::instantiate_parts`], asking `registry` only on a
    /// miss.
    pub(crate) fn instantiate(
        &mut self,
        registry: &CapsuleRegistry,
        addr: Addr,
        capsule_id: CapsuleId,
        args: &[Word],
    ) -> Result<Cont, RehydrateError> {
        use std::collections::hash_map::Entry as Slot;
        let ctor = match self.0.entry(capsule_id) {
            Slot::Occupied(hit) => hit.into_mut(),
            Slot::Vacant(miss) => miss.insert(registry.ctor_of(addr, capsule_id)?),
        };
        construct(ctor, addr, capsule_id, args)
    }
}

/// Decodes a frame's argument words into a fixed-arity array on behalf of
/// capsule `capsule`, reporting a structured [`FrameDecodeError`] on an
/// arity mismatch. The shared front door of raw (untyped) rehydration
/// constructors; typed constructors go through
/// [`crate::persist::decode_args`] instead.
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
    let join_trace = |args: &[Word], out: &mut PoolRefs| {
        if let [cell, _token, after] = args {
            out.extent(*cell as usize, 1);
            out.handle(*after);
            true
        } else {
            false
        }
    };
    registry.register_traced(
        CORE_ID_JOIN_CAM,
        "join-cam",
        |args| {
            let [cell, token, after] = frame_args("join-cam", args)?;
            Ok(JoinCell::at(cell as ppm_pm::Addr).arrive_cam_frame(token, after))
        },
        join_trace,
    );
    registry.register_traced(
        CORE_ID_JOIN_CHECK,
        "join-check",
        |args| {
            let [cell, token, after] = frame_args("join-check", args)?;
            Ok(JoinCell::at(cell as ppm_pm::Addr).arrive_check_frame(token, after))
        },
        join_trace,
    );
    registry.register_traced(
        CORE_ID_FINALE,
        "finale",
        |args| {
            let [flag] = frame_args("finale", args)?;
            let flag = flag as ppm_pm::Addr;
            Ok(capsule("finale", move |ctx| {
                ctx.pwrite(flag, 1)?;
                Ok(Next::End)
            }))
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
    registry.register_traced(
        CORE_ID_END,
        "end",
        |_args| Ok(crate::capsule::end_capsule()),
        |_args, _out| true,
    );
    registry.register_traced(
        CORE_ID_FORK_PAIR,
        "fork-pair",
        |args| {
            let [left, right] = frame_args("fork-pair", args)?;
            Ok(capsule("fork-pair", move |_ctx| {
                Ok(Next::ForkHandle {
                    child: right,
                    cont: left,
                })
            }))
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
mod tests {
    use super::*;
    use ppm_pm::store_frame;
    use std::sync::Arc;

    #[test]
    fn register_and_instantiate() {
        let reg = CapsuleRegistry::new();
        reg.register(0x200, "probe", |args| {
            let target = args[0] as ppm_pm::Addr;
            Ok(capsule("probe", move |ctx| {
                ctx.pwrite(target, 77)?;
                Ok(Next::End)
            }))
        });
        assert!(reg.contains(0x200));
        assert_eq!(reg.name_of(0x200), Some("probe"));
        assert_eq!(reg.id_of("probe"), Some(0x200));
        let mem = Arc::new(PersistentMemory::new(256, 8));
        store_frame(&mem, 16, 0x200, &[40]);
        let c = reg.rehydrate(&mem, 16).expect("rehydrates");
        assert_eq!(c.name(), "probe");
    }

    fn expect_err(r: Result<Cont, RehydrateError>) -> RehydrateError {
        match r {
            Err(e) => e,
            Ok(c) => panic!("expected rehydration failure, got capsule `{}`", c.name()),
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
        reg.register(0x300, "same", |_| Ok(crate::capsule::end_capsule()));
        reg.register(0x300, "same", |_| Ok(crate::capsule::end_capsule()));
        assert_eq!(reg.len(), 1);
    }

    /// What keeps a processor's `CtorCache` never stale: a miss is not
    /// memoised (an id registered after the run started resolves on the
    /// next try), and re-registration keeps the first constructor (so a
    /// cached one is the registry's one forever).
    #[test]
    fn ctor_cache_sees_late_registration_and_first_constructor_wins() {
        let reg = CapsuleRegistry::new();
        let mem = PersistentMemory::new(256, 8);
        store_frame(&mem, 16, 0x310, &[]);
        let frame = ppm_pm::read_frame(&mem, 16).expect("frame");
        let mut cache = CtorCache::default();

        let err = expect_err(cache.instantiate(&reg, frame.addr, frame.capsule_id, &frame.args));
        assert!(
            matches!(err, RehydrateError::UnknownCapsule { .. }),
            "{err}"
        );
        reg.register(0x310, "late", |_| Ok(capsule("first", |_| Ok(Next::End))));
        let name = |r: Result<Cont, RehydrateError>| r.expect("rehydrates").name().to_string();
        assert_eq!(
            name(cache.instantiate(&reg, frame.addr, frame.capsule_id, &frame.args)),
            "first"
        );

        reg.register(0x310, "late", |_| Ok(capsule("second", |_| Ok(Next::End))));
        assert_eq!(name(reg.instantiate(&frame)), "first");
        assert_eq!(
            name(cache.instantiate(&reg, frame.addr, frame.capsule_id, &frame.args)),
            "first"
        );
        assert_eq!(
            name(CtorCache::default().instantiate(&reg, frame.addr, frame.capsule_id, &frame.args)),
            "first"
        );
    }

    #[test]
    #[should_panic(expected = "registered twice with different names (alpha/up vs beta/down)")]
    fn conflicting_registration_panics_naming_both_capsules() {
        let reg = CapsuleRegistry::new();
        reg.register(0x300, "alpha/up", |_| Ok(crate::capsule::end_capsule()));
        reg.register(0x300, "beta/down", |_| Ok(crate::capsule::end_capsule()));
    }

    #[test]
    #[should_panic(expected = "registered under two ids")]
    fn one_name_under_two_ids_panics() {
        let reg = CapsuleRegistry::new();
        reg.register(0x300, "a", |_| Ok(crate::capsule::end_capsule()));
        reg.register(0x301, "a", |_| Ok(crate::capsule::end_capsule()));
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
        reg.register(FIRST_USER_CAPSULE_ID, "manual", |_| {
            Ok(crate::capsule::end_capsule())
        });
        let id = reg.allocate("dynamic");
        assert_ne!(id, FIRST_USER_CAPSULE_ID);
        assert!(!reg.contains(id), "allocated but not yet registered");
        reg.register(id, "dynamic", |_| Ok(crate::capsule::end_capsule()));
        assert!(reg.contains(id));
    }

    #[test]
    fn core_capsules_cover_reserved_ids() {
        let reg = CapsuleRegistry::new();
        register_core_capsules(&reg);
        for id in [
            CORE_ID_JOIN_CAM,
            CORE_ID_JOIN_CHECK,
            CORE_ID_FINALE,
            CORE_ID_END,
            CORE_ID_FORK_PAIR,
        ] {
            assert!(reg.contains(id));
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
}
