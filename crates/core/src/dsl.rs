//! Typed combinators for persistent fork-join capsules.
//!
//! This module is the programming surface for **registered persistent
//! computations**: fork-join programs whose every continuation lives in
//! persistent memory as a [`ppm_pm::frame`] frame, so that a crashed run
//! is *resumed* from its in-flight deque entries
//! (`ppm_sched::Runtime::run_or_recover`) instead of replayed from the
//! root: typed state ([`crate::persist::Persist`]), capsule ids allocated
//! by name, and combinators that write the frames for you, over the raw
//! surface of [`crate::registry`] and [`ppm_pm::frame`].
//!
//! ## Mapping to the paper's capsule model (§4.1)
//!
//! | DSL construct | Paper concept |
//! |---|---|
//! | [`CapsuleDef<T>`] | a capsule's *code*: the start instruction of §4.1's closure, named by a stable id — registered as `T`'s decode plus the body, which every attempt runs straight off the frame's words (no closure object is built from a frame) |
//! | a `T: Persist` state + [`K`] | the rest of the closure: "local state, arguments and continuation" |
//! | [`CapsuleDef::frame`] | writing a closure into persistent memory from the §4.1 restart-stable pool |
//! | [`CapsuleDef::setup`] | writing a root closure with uncosted setup stores (before the processors start) |
//! | [`jump_to`] / [`Step::Jump`] | a persistent call/jump: installing the next capsule's restart pointer |
//! | [`fork2`] / [`Step::Fork`] | §6.1's `fork`: child pushed on the WS-deque, both branches joining through the §5 CAM test-and-set join cell |
//! | [`seq`] | sequential composition: the first capsule's continuation is the second's frame |
//! | [`fork_many`] | an n-ary fork as a balanced binary tree of `fork-pair` capsules (the model's out-degree-2 DAG nodes) |
//! | [`CapsuleSet::map_grain`] | a parallel loop: recursive binary splitting down to `grain` iterations per leaf capsule |
//! | [`CapsuleSet::reduce`] | a parallel reduction: leaf values combined pairwise up a join tree, scratch cells from the restart-stable pool |
//! | [`Step::End`] | "when a thread finishes it jumps to the scheduler" (§6.1) |
//!
//! ## Determinism contract
//!
//! Everything here inherits the construction-determinism discipline of
//! [`crate::registry`]: a recovering process re-runs the same `PComp`
//! builder, declares the same capsule names in the same order, and
//! therefore re-registers identical code under identical ids.
//! Capsule bodies run under the §3 rules — write-after-read conflict
//! free, deterministic in their captured state and persistent reads — and
//! every frame written by a combinator comes from the restart-stable pool
//! allocator, so a re-run after a soft fault rewrites identical words at
//! identical addresses.
//!
//! ## Words a subtree allocates die at its fork's join
//!
//! [`fork2`] and [`fork_many`]'s top level mark their fork: when the
//! pushed branch's join arrival continues on the forking processor with
//! no steal, pull, adoption or `popBottom` miss on `taken` in between,
//! the pool rolls back to the fork's join cell (see `ppm_pm::proc` and
//! [`crate::join`]), and the next allocation reuses those words. So a
//! subtree's results must reach the code after its join through cells
//! allocated **before** the fork — by an earlier capsule, or by the
//! forking capsule ahead of the combinator, as [`CapsuleSet::reduce`]
//! does with its two value cells and its combine frame. A word a subtree
//! allocates for itself (its frames, its join cells, its scratch) is
//! dead once its fork has joined and must not be read after it. Every
//! combinator here and every algorithm in `ppm-algs` keeps to this.

use std::sync::Arc;

use ppm_pm::{write_frame, FrameBuf, PmResult, ProcCtx, Word};

use crate::capsule::Next;
use crate::join::{fork_join_frames, forking_join_frames};
use crate::machine::Machine;
use crate::persist::{decode_args, Persist, ValueError, WordReader, WordSink};
use crate::registry::{CapsuleId, CapsuleRegistry, CORE_ID_FORK_PAIR};

/// A persistent continuation handle: the address of a capsule frame.
///
/// The typed twin of the raw `Word` handles threaded through
/// [`crate::capsule::Next::JumpHandle`]; every DSL capsule body receives
/// the `K` to run after it, and every combinator that builds a new frame
/// returns one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct K(pub Word);

impl K {
    /// The raw frame-handle word.
    pub fn word(self) -> Word {
        self.0
    }
}

impl Persist for K {
    const WORDS: usize = 1;
    fn encode(&self, out: &mut impl WordSink) {
        out.push(self.0);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        Ok(K(r.word()))
    }
    fn pool_refs(&self, out: &mut crate::persist::PoolRefs) {
        out.handle(self.0);
    }
}

/// What a DSL capsule body does next — the typed, frame-handle-only
/// subset of [`Next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Continue this thread with the capsule behind the handle.
    Jump(K),
    /// Fork `child` as a new thread and continue with `cont` (both
    /// already persisted as frames).
    Fork {
        /// Frame handle of the newly enabled thread.
        child: K,
        /// Frame handle of this thread's continuation.
        cont: K,
    },
    /// The thread is finished; control returns to the scheduler.
    End,
}

impl Step {
    /// Lowers into the engine's [`Next`].
    pub fn into_next(self) -> Next {
        match self {
            Step::Jump(k) => Next::JumpHandle(k.0),
            Step::Fork { child, cont } => Next::ForkHandle {
                child: child.0,
                cont: cont.0,
            },
            Step::End => Next::End,
        }
    }
}

/// A registered persistent capsule with typed state `T`.
///
/// Obtained from [`CapsuleSet::declare`]; `Copy`, so mutually recursive
/// capsule bodies capture each other's defs freely. The frame layout is
/// always `state words … , continuation handle` (`T::WORDS + 1` argument
/// words).
pub struct CapsuleDef<T> {
    id: CapsuleId,
    name: &'static str,
    _state: std::marker::PhantomData<fn(&T)>,
}

impl<T> Clone for CapsuleDef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for CapsuleDef<T> {}

impl<T> std::fmt::Debug for CapsuleDef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CapsuleDef(`{}` = {:#x})", self.name, self.id)
    }
}

impl<T: Persist> CapsuleDef<T> {
    /// The capsule's registry id.
    pub fn id(&self) -> CapsuleId {
        self.id
    }

    /// The capsule's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Writes a frame for this capsule over `state`, continuing with `k`,
    /// from within a running capsule (costed, restart-stable pool
    /// allocation). Returns the new frame's handle. The state encodes
    /// straight into the frame's stack image: no heap allocation.
    pub fn frame(&self, ctx: &mut ProcCtx, state: &T, k: K) -> PmResult<K> {
        let mut frame = FrameBuf::new(ctx, self.id);
        state.encode(&mut frame);
        k.encode(&mut frame);
        Ok(K(frame.write(ctx)? as Word))
    }

    /// Writes a root frame with uncosted setup stores (machine
    /// construction, before the processors start). Deterministic: a
    /// recovering run replaying the same setup produces the same handle
    /// and words.
    pub fn setup(&self, machine: &Machine, state: &T, k: K) -> K {
        let mut words = Vec::with_capacity(T::WORDS + 1);
        state.encode(&mut words);
        k.encode(&mut words);
        K(machine.setup_frame(self.id, &words))
    }
}

/// Builder that declares a computation's capsules against a machine's
/// [`CapsuleRegistry`], with ids allocated dynamically by name.
///
/// One `CapsuleSet` per algorithm (or per cooperating family of
/// capsules); any number of sets can coexist on one machine — the
/// registry hands every distinct name its own id, so two algorithms can
/// never collide the way the old hand-spaced id bases could. Declaring
/// the same names again (another instance of the same algorithm, or a
/// recovering process replaying construction) is idempotent and yields
/// the same ids.
pub struct CapsuleSet {
    registry: Arc<CapsuleRegistry>,
}

impl CapsuleSet {
    /// A capsule set registering against `machine`'s registry.
    pub fn new(machine: &Machine) -> Self {
        CapsuleSet {
            registry: machine.registry().clone(),
        }
    }

    /// A capsule set over a bare registry (tests, custom machines).
    pub fn on_registry(registry: Arc<CapsuleRegistry>) -> Self {
        CapsuleSet { registry }
    }

    /// Allocates the id for a capsule named `name` with state type `T`,
    /// without installing its body yet — so mutually recursive bodies
    /// can capture each other's defs. Install the body with
    /// [`CapsuleSet::body`].
    pub fn declare<T: Persist>(&mut self, name: &'static str) -> CapsuleDef<T> {
        CapsuleDef {
            id: self.registry.allocate(name),
            name,
            _state: std::marker::PhantomData,
        }
    }

    /// Installs the body of a declared capsule: an attempt decodes the
    /// typed state and continuation off the frame words and runs
    /// `body(&state, k, ctx)` on them under the usual restart rules (so
    /// `body` must be write-after-read conflict free and deterministic).
    pub fn body<T, F>(&mut self, def: CapsuleDef<T>, body: F)
    where
        T: Persist + Send + Sync + 'static,
        F: Fn(&T, K, &mut ProcCtx) -> PmResult<Step> + Send + Sync + 'static,
    {
        self.registry.register(
            def.id,
            def.name,
            move |args| decode_args::<(T, K)>(def.name, args),
            move |(state, k): &(T, K), ctx| body(state, *k, ctx).map(Step::into_next),
            // Checkpoint-GC tracer, derived from the typed state: the
            // state's own references plus the continuation handle. A
            // frame whose words no longer decode is reported as
            // untraceable (returning `false`) so GC refuses to reclaim —
            // silently reporting nothing would let the frame's live
            // children be collected.
            move |args, out| match decode_args::<(T, K)>(def.name, args) {
                Ok((state, k)) => {
                    state.pool_refs(out);
                    k.pool_refs(out);
                    true
                }
                Err(_) => false,
            },
        );
    }

    /// [`CapsuleSet::declare`] + [`CapsuleSet::body`] in one step, for
    /// capsules that only recurse on themselves or on already-declared
    /// defs.
    pub fn define<T, F>(&mut self, name: &'static str, body: F) -> CapsuleDef<T>
    where
        T: Persist + Send + Sync + 'static,
        F: Fn(&T, K, &mut ProcCtx) -> PmResult<Step> + Send + Sync + 'static,
    {
        let def = self.declare(name);
        self.body(def, body);
        def
    }

    /// A typed parallel loop: recursively splits `[lo, hi)` in half until
    /// at most `grain` indices remain, then runs `leaf` on the final
    /// sub-span. Returns the *split* capsule; enter the loop by framing it
    /// over the full span.
    ///
    /// A forking split frames each half as `leaf` when the half is at most
    /// `grain` indices and as `split` otherwise, so a leaf is framed by its
    /// parent split and no split capsule runs only to jump to its leaf
    /// (the same frame words, written one capsule earlier). A root span
    /// already at most `grain` wide jumps to `leaf` from its one split.
    ///
    /// The environment `T` rides along in every frame, so the loop works
    /// for any number of coexisting instances.
    pub fn map_grain<T>(
        &mut self,
        name: &'static str,
        grain: usize,
        leaf: CapsuleDef<Span<T>>,
    ) -> CapsuleDef<Span<T>>
    where
        T: Persist + Clone + Send + Sync + 'static,
    {
        let split = self.declare::<Span<T>>(name);
        let grain = grain.max(1);
        let run = move |lo: usize, hi: usize| if hi - lo <= grain { leaf } else { split };
        self.body(split, move |st, k, ctx| {
            if st.hi - st.lo <= grain {
                return jump_to(ctx, leaf, st, k);
            }
            let mid = st.lo + (st.hi - st.lo) / 2;
            fork2(
                ctx,
                (
                    run(st.lo, mid),
                    &Span {
                        env: st.env.clone(),
                        lo: st.lo,
                        hi: mid,
                    },
                ),
                (
                    run(mid, st.hi),
                    &Span {
                        env: st.env.clone(),
                        lo: mid,
                        hi: st.hi,
                    },
                ),
                k,
            )
        });
        split
    }

    /// A typed parallel reduction: `leaf(env, lo, hi)` computes each
    /// base-range value (at most `grain` indices), values combine
    /// pairwise with `combine` up a fork-join tree, and the root value is
    /// written to the state's `dst` address. Scratch cells for subtree
    /// results come from the restart-stable pool. Enter by framing the
    /// returned capsule over [`Fold`] state covering the full range.
    pub fn reduce<T, L, C>(
        &mut self,
        name: &'static str,
        grain: usize,
        leaf: L,
        combine: C,
    ) -> CapsuleDef<Fold<T>>
    where
        T: Persist + Clone + Send + Sync + 'static,
        L: Fn(&T, usize, usize, &mut ProcCtx) -> PmResult<Word> + Send + Sync + 'static,
        C: Fn(Word, Word) -> Word + Send + Sync + 'static,
    {
        let node = self.declare::<Fold<T>>(name);
        let join = self.declare::<FoldJoin>(intern_name(format!("{name}.combine")));
        let grain = grain.max(1);
        let combine = Arc::new(combine);
        self.body(join, move |st: &FoldJoin, k, ctx| {
            let l = ctx.pread(st.left)?;
            let r = ctx.pread(st.right)?;
            ctx.pwrite(st.dst, combine(l, r))?;
            Ok(Step::Jump(k))
        });
        self.body(node, move |st: &Fold<T>, k, ctx| {
            if st.hi - st.lo <= grain {
                let v = leaf(&st.env, st.lo, st.hi, ctx)?;
                ctx.pwrite(st.dst, v)?;
                return Ok(Step::Jump(k));
            }
            let mid = st.lo + (st.hi - st.lo) / 2;
            let cells = ctx.palloc(2)?;
            let after = join.frame(
                ctx,
                &FoldJoin {
                    left: cells,
                    right: cells + 1,
                    dst: st.dst,
                },
                k,
            )?;
            fork2(
                ctx,
                (
                    node,
                    &Fold {
                        env: st.env.clone(),
                        lo: st.lo,
                        hi: mid,
                        dst: cells,
                    },
                ),
                (
                    node,
                    &Fold {
                        env: st.env.clone(),
                        lo: mid,
                        hi: st.hi,
                        dst: cells + 1,
                    },
                ),
                after,
            )
        });
        node
    }
}

/// Interns a derived capsule name so repeated registrations (a
/// recovering session re-running the same builder, or many instances in
/// one process) reuse one leaked allocation per distinct name instead of
/// leaking per call.
fn intern_name(name: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::Mutex;
    static INTERNED: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    let mut guard = INTERNED.lock().expect("name interner poisoned");
    let set = guard.get_or_insert_with(HashSet::new);
    if let Some(existing) = set.get(name.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    set.insert(leaked);
    leaked
}

/// The state of one [`CapsuleSet::map_grain`] task: a shared environment
/// plus the index span `[lo, hi)` this subtree covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span<T> {
    /// The loop's shared environment (instance geometry).
    pub env: T,
    /// First index of the span.
    pub lo: usize,
    /// One past the last index.
    pub hi: usize,
}

impl<T: Persist> Persist for Span<T> {
    const WORDS: usize = T::WORDS + 2;
    fn encode(&self, out: &mut impl WordSink) {
        self.env.encode(out);
        self.lo.encode(out);
        self.hi.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        Ok(Span {
            env: T::decode(r)?,
            lo: usize::decode(r)?,
            hi: usize::decode(r)?,
        })
    }
    fn pool_refs(&self, out: &mut crate::persist::PoolRefs) {
        self.env.pool_refs(out);
    }
}

/// The state of one [`CapsuleSet::reduce`] subtree: environment, index
/// span, and the persistent address receiving the subtree's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold<T> {
    /// The reduction's shared environment.
    pub env: T,
    /// First index of the span.
    pub lo: usize,
    /// One past the last index.
    pub hi: usize,
    /// Address the subtree's value is written to.
    pub dst: usize,
}

impl<T: Persist> Persist for Fold<T> {
    const WORDS: usize = T::WORDS + 3;
    fn encode(&self, out: &mut impl WordSink) {
        self.env.encode(out);
        self.lo.encode(out);
        self.hi.encode(out);
        self.dst.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        Ok(Fold {
            env: T::decode(r)?,
            lo: usize::decode(r)?,
            hi: usize::decode(r)?,
            dst: usize::decode(r)?,
        })
    }
    fn pool_refs(&self, out: &mut crate::persist::PoolRefs) {
        self.env.pool_refs(out);
        // `dst` is a raw cell address (often a pool scratch cell).
        out.extent(self.dst, 1);
    }
}

/// Internal state of a reduction's combine capsule. Hand-implemented
/// (not `persist_struct!`) because all three fields are raw cell
/// addresses that must surface as live extents for checkpoint GC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FoldJoin {
    left: usize,
    right: usize,
    dst: usize,
}

impl Persist for FoldJoin {
    const WORDS: usize = 3;
    fn encode(&self, out: &mut impl WordSink) {
        self.left.encode(out);
        self.right.encode(out);
        self.dst.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        Ok(FoldJoin {
            left: usize::decode(r)?,
            right: usize::decode(r)?,
            dst: usize::decode(r)?,
        })
    }
    fn pool_refs(&self, out: &mut crate::persist::PoolRefs) {
        out.extent(self.left, 1);
        out.extent(self.right, 1);
        out.extent(self.dst, 1);
    }
}

/// Writes a frame for `(def, state)` and jumps to it: the typed
/// persistent call.
pub fn jump_to<T: Persist>(
    ctx: &mut ProcCtx,
    def: CapsuleDef<T>,
    state: &T,
    k: K,
) -> PmResult<Step> {
    Ok(Step::Jump(def.frame(ctx, state, k)?))
}

/// Sequential composition: run `a`, then `b`, then `k`. Writes `b`'s
/// frame first (it is `a`'s continuation), then jumps to `a`.
pub fn seq<A: Persist, B: Persist>(
    ctx: &mut ProcCtx,
    a: (CapsuleDef<A>, &A),
    b: (CapsuleDef<B>, &B),
    k: K,
) -> PmResult<Step> {
    let kb = b.0.frame(ctx, b.1, k)?;
    jump_to(ctx, a.0, a.1, kb)
}

/// Parallel composition: fork `right` as a new thread, continue with
/// `left`, and join — the last arriver continues with `k`. Allocates the
/// §5 CAM join cell and both arrival frames (restart-stable), then the
/// two branch frames, and marks the fork at its cell: everything the two
/// branches allocate is dead after the join (module docs), while `k`,
/// written before, survives it.
pub fn fork2<L: Persist, R: Persist>(
    ctx: &mut ProcCtx,
    left: (CapsuleDef<L>, &L),
    right: (CapsuleDef<R>, &R),
    k: K,
) -> PmResult<Step> {
    let (la, ra) = forking_join_frames(ctx, k.0)?;
    let lf = left.0.frame(ctx, left.1, K(la))?;
    let rf = right.0.frame(ctx, right.1, K(ra))?;
    Ok(Step::Fork {
        child: rf,
        cont: lf,
    })
}

/// N-ary parallel composition over homogeneous states: forks a balanced
/// binary tree of `fork-pair` capsules whose leaves are `def` frames, all
/// joining down to `k`. Empty input jumps straight to `k`.
///
/// Only the top-level fork is marked. The inner `fork-pair` capsules
/// fork frames this capsule planted, and the words above an inner cell
/// hold sibling subtrees that have not run yet when its join completes,
/// so their joins reclaim nothing; the top-level join frees the tree.
pub fn fork_many<T: Persist>(
    ctx: &mut ProcCtx,
    def: CapsuleDef<T>,
    states: &[T],
    k: K,
) -> PmResult<Step> {
    match states.len() {
        0 => Ok(Step::Jump(k)),
        1 => jump_to(ctx, def, &states[0], k),
        _ => {
            let mid = states.len() / 2;
            let (la, ra) = forking_join_frames(ctx, k.0)?;
            let lf = plant_tree(ctx, def, &states[..mid], K(la))?;
            let rf = plant_tree(ctx, def, &states[mid..], K(ra))?;
            Ok(Step::Fork {
                child: rf,
                cont: lf,
            })
        }
    }
}

/// Builds the frame tree for a slice of states, returning its entry
/// handle. Interior nodes are `fork-pair` frames; leaves are `def`
/// frames.
fn plant_tree<T: Persist>(
    ctx: &mut ProcCtx,
    def: CapsuleDef<T>,
    states: &[T],
    k: K,
) -> PmResult<K> {
    debug_assert!(!states.is_empty());
    if states.len() == 1 {
        return def.frame(ctx, &states[0], k);
    }
    let mid = states.len() / 2;
    let (la, ra) = fork_join_frames(ctx, k.0)?;
    let lf = plant_tree(ctx, def, &states[..mid], K(la))?;
    let rf = plant_tree(ctx, def, &states[mid..], K(ra))?;
    Ok(K(
        write_frame(ctx, CORE_ID_FORK_PAIR, &[lf.0, rf.0])? as Word
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::registry::PComp;
    use ppm_pm::{PmConfig, Region};

    crate::persist_struct! {
        struct Mark {
            out: Region,
            i: usize,
        }
    }

    fn machine() -> Machine {
        Machine::new(PmConfig::parallel(2, 1 << 18))
    }

    /// Drives a pcomp with the minimal single-processor harness (no
    /// scheduler dependency inside ppm-core): repeatedly resolve and run
    /// capsules, treating forks as run-child-first.
    fn drive(machine: &Machine, root: Word) {
        let mut stack = vec![root];
        let mut ctx = machine.ctx(0);
        let mut codes = crate::registry::CodeMemo::default();
        while let Some(mut h) = stack.pop() {
            loop {
                let Some(crate::capsule::Active::Frame(f)) = machine.arena().resolve(h) else {
                    panic!("handle {h} must rehydrate")
                };
                ctx.begin_capsule(f.name);
                let next = machine.arena().run_frame(&mut codes, &f, &mut ctx);
                ctx.flush_staged().expect("faultless flush");
                ctx.publish_watermark();
                ctx.complete_capsule();
                match next.expect("faultless run") {
                    Next::JumpHandle(next) => h = next,
                    Next::ForkHandle { child, cont } => {
                        stack.push(child);
                        h = cont;
                    }
                    Next::Sched(_) => panic!("dsl capsules install no records"),
                    Next::End | Next::Halt => break,
                }
            }
        }
    }

    fn run_pcomp(machine: &Machine, pcomp: &PComp) {
        let done = machine.alloc_region(1);
        let finale = machine.setup_frame(crate::registry::CORE_ID_FINALE, &[done.start as Word]);
        let root = pcomp(machine, finale);
        drive(machine, root);
        assert_eq!(machine.mem().load(done.start), 1, "finale must run");
    }

    #[test]
    fn define_frame_jump_round_trip() {
        let m = machine();
        let out = m.alloc_region(8);
        let mut set = CapsuleSet::new(&m);
        let mark = set.define("dsl-test/mark", |st: &Mark, k, ctx| {
            ctx.pwrite(st.out.at(st.i), st.i as Word + 1)?;
            Ok(Step::Jump(k))
        });
        let pcomp: PComp = std::sync::Arc::new(move |mm: &Machine, finale| {
            mark.setup(mm, &Mark { out, i: 3 }, K(finale)).0
        });
        run_pcomp(&m, &pcomp);
        assert_eq!(m.mem().load(out.at(3)), 4);
    }

    #[test]
    fn fork2_runs_both_branches_and_joins_once() {
        let m = machine();
        let out = m.alloc_region(8);
        let joined = m.alloc_region(1);
        let mut set = CapsuleSet::new(&m);
        let mark = set.define("dsl-fork/mark", |st: &Mark, k, ctx| {
            ctx.pwrite(st.out.at(st.i), 7)?;
            Ok(Step::Jump(k))
        });
        let after = set.define("dsl-fork/after", move |_: &(), k, ctx| {
            // CAM from 0: exactly-once even if both branches raced here.
            ctx.pcam(joined.start, 0, 1)?;
            Ok(Step::Jump(k))
        });
        let root = set.define("dsl-fork/root", move |_: &(), k, ctx| {
            let ka = after.frame(ctx, &(), k)?;
            fork2(
                ctx,
                (mark, &Mark { out, i: 0 }),
                (mark, &Mark { out, i: 1 }),
                ka,
            )
        });
        let pcomp: PComp =
            std::sync::Arc::new(move |mm: &Machine, finale| root.setup(mm, &(), K(finale)).0);
        run_pcomp(&m, &pcomp);
        assert_eq!(m.mem().load(out.at(0)), 7);
        assert_eq!(m.mem().load(out.at(1)), 7);
        assert_eq!(m.mem().load(joined.start), 1);
    }

    #[test]
    fn seq_orders_two_capsules() {
        let m = machine();
        let out = m.alloc_region(4);
        let mut set = CapsuleSet::new(&m);
        let first = set.define("dsl-seq/first", move |_: &(), k, ctx| {
            ctx.pwrite(out.at(0), 10)?;
            Ok(Step::Jump(k))
        });
        let second = set.define("dsl-seq/second", move |_: &(), k, ctx| {
            let v = ctx.pread(out.at(0))?;
            ctx.pwrite(out.at(1), v + 1)?;
            Ok(Step::Jump(k))
        });
        let root = set.define("dsl-seq/root", move |_: &(), k, ctx| {
            seq(ctx, (first, &()), (second, &()), k)
        });
        let pcomp: PComp =
            std::sync::Arc::new(move |mm: &Machine, finale| root.setup(mm, &(), K(finale)).0);
        run_pcomp(&m, &pcomp);
        assert_eq!(m.mem().load(out.at(1)), 11);
    }

    #[test]
    fn fork_many_covers_every_leaf() {
        let m = machine();
        let n = 13;
        let out = m.alloc_region(n);
        let mut set = CapsuleSet::new(&m);
        let mark = set.define("dsl-many/mark", |st: &Mark, k, ctx| {
            ctx.pwrite(st.out.at(st.i), st.i as Word + 1)?;
            Ok(Step::Jump(k))
        });
        let root = set.define("dsl-many/root", move |_: &(), k, ctx| {
            let states: Vec<Mark> = (0..n).map(|i| Mark { out, i }).collect();
            fork_many(ctx, mark, &states, k)
        });
        let pcomp: PComp =
            std::sync::Arc::new(move |mm: &Machine, finale| root.setup(mm, &(), K(finale)).0);
        run_pcomp(&m, &pcomp);
        for i in 0..n {
            assert_eq!(m.mem().load(out.at(i)), i as Word + 1, "leaf {i}");
        }
    }

    #[test]
    fn map_grain_visits_every_index_once() {
        let m = machine();
        let n = 37;
        let out = m.alloc_region(n);
        let mut set = CapsuleSet::new(&m);
        let leaf = set.define("dsl-map/leaf", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as Word + 100)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("dsl-map/split", 4, leaf);
        let pcomp: PComp = std::sync::Arc::new(move |mm: &Machine, finale| {
            split
                .setup(
                    mm,
                    &Span {
                        env: out,
                        lo: 0,
                        hi: n,
                    },
                    K(finale),
                )
                .0
        });
        run_pcomp(&m, &pcomp);
        for i in 0..n {
            assert_eq!(m.mem().load(out.at(i)), i as Word + 100, "index {i}");
        }
    }

    #[test]
    fn reduce_computes_the_fold() {
        let m = machine();
        let n = 100usize;
        let data = m.alloc_region(n);
        let dst = m.alloc_region(1);
        for i in 0..n {
            m.mem().store(data.at(i), i as Word);
        }
        let mut set = CapsuleSet::new(&m);
        let sum = set.reduce(
            "dsl-reduce/sum",
            8,
            |env: &Region, lo, hi, ctx: &mut ProcCtx| {
                let mut acc = 0u64;
                for i in lo..hi {
                    acc = acc.wrapping_add(ctx.pread(env.at(i))?);
                }
                Ok(acc)
            },
            |a, b| a.wrapping_add(b),
        );
        let pcomp: PComp = std::sync::Arc::new(move |mm: &Machine, finale| {
            sum.setup(
                mm,
                &Fold {
                    env: data,
                    lo: 0,
                    hi: n,
                    dst: dst.start,
                },
                K(finale),
            )
            .0
        });
        run_pcomp(&m, &pcomp);
        assert_eq!(m.mem().load(dst.start), (0..n as u64).sum::<u64>());
    }

    #[test]
    fn two_capsule_sets_never_collide() {
        let m = machine();
        let mut a = CapsuleSet::new(&m);
        let mut b = CapsuleSet::new(&m);
        let d1 = a.define("alg-a/node", |_: &(), k, _ctx| Ok(Step::Jump(k)));
        let d2 = b.define("alg-b/node", |_: &(), k, _ctx| Ok(Step::Jump(k)));
        let d3 = a.define("alg-a/leaf", |_: &(), k, _ctx| Ok(Step::Jump(k)));
        assert_ne!(d1.id(), d2.id());
        assert_ne!(d1.id(), d3.id());
        assert_ne!(d2.id(), d3.id());
        // Re-declaring (second instance / recovery replay) is idempotent.
        let mut c = CapsuleSet::new(&m);
        let d1b = c.declare::<()>("alg-a/node");
        assert_eq!(d1.id(), d1b.id());
    }

    #[test]
    fn bad_state_words_report_the_typed_decode_error() {
        let m = machine();
        let mut set = CapsuleSet::new(&m);
        let def = set.define("dsl-err/flag", |_st: &bool, k, _ctx| Ok(Step::Jump(k)));
        // A frame whose bool word is 5: rehydration must surface the
        // structured decode error, not a panic.
        let bad = m.setup_frame(def.id(), &[5, 0]);
        let err = match m.registry().rehydrate(m.mem(), bad) {
            Err(e) => e,
            Ok(_) => panic!("word 5 is not a bool; rehydration must fail"),
        };
        let decode = err.decode_error().expect("typed decode error");
        assert_eq!(decode.capsule, "dsl-err/flag");
        assert!(err.to_string().contains("bool"), "{err}");
    }

    /// Runs the frame chain at `first` on processor 0 with the engine
    /// (no scheduler: a chain does not fork).
    fn run_chain(m: &Machine, first: K) {
        let mut ctx = m.ctx(0);
        let mut install = crate::runner::InstallCtx::new(m.mem(), m.proc_meta(0));
        crate::runner::run_chain(&mut ctx, m.arena(), &mut install, first.0).unwrap();
    }

    /// Steps `i` of a chain written at setup, each continuing with the
    /// next; the last continues with `k`.
    fn chain_of<T: Persist>(m: &Machine, def: CapsuleDef<T>, states: &[T], k: K) -> K {
        states.iter().rev().fold(k, |k, st| def.setup(m, st, k))
    }

    fn end(m: &Machine) -> K {
        K(m.setup_frame(crate::registry::CORE_ID_END, &[]))
    }

    #[test]
    fn seq_runs_in_order() {
        let m = machine();
        let r = m.alloc_region(8);
        // Each step writes its arrival order into its own word; order is
        // observable because step i reads nothing and writes slot i.
        let step = CapsuleSet::new(&m).define("seq/s", move |&i: &usize, k, ctx| {
            let order = (0..4).filter(|j| ctx.raw_mem().load(r.at(*j)) != 0);
            ctx.pwrite(r.at(i), order.count() as Word + 1)?;
            Ok(Step::Jump(k))
        });
        run_chain(&m, chain_of(&m, step, &[0, 1, 2, 3], end(&m)));
        assert_eq!(m.mem().to_vec(r.start, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn a_frame_expands_the_rest_at_run_time() {
        let m = machine();
        let r = m.alloc_region(8);
        // Recursive countdown: each capsule writes the frame of the next.
        let mut set = CapsuleSet::new(&m);
        let countdown = set.declare::<u64>("seq/countdown");
        set.body(countdown, move |&n, k, ctx| {
            if n == 0 {
                return Ok(Step::Jump(k));
            }
            ctx.pwrite(r.at(n as usize), n)?;
            jump_to(ctx, countdown, &(n - 1), k)
        });
        run_chain(&m, countdown.setup(&m, &5, end(&m)));
        for i in 1..=5 {
            assert_eq!(m.mem().load(r.at(i)), i as u64);
        }
    }

    #[test]
    fn seq_under_soft_faults_runs_each_step_effectively_once() {
        for seed in 0..10 {
            let m = Machine::new(
                PmConfig::parallel(1, 1 << 16).with_fault(ppm_pm::FaultConfig::soft(0.15, seed)),
            );
            let r = m.alloc_region(8);
            // Persistent counter with a commit between read and write:
            // capsule i reads slot i-1 and writes slot i (conflict free).
            let inc = CapsuleSet::new(&m).define("seq/inc", move |&i: &usize, k, ctx| {
                let prev = if i == 0 { 0 } else { ctx.pread(r.at(i - 1))? };
                ctx.pwrite(r.at(i), prev + 1)?;
                Ok(Step::Jump(k))
            });
            run_chain(&m, chain_of(&m, inc, &[0, 1, 2, 3, 4], end(&m)));
            assert_eq!(
                m.mem().load(r.at(4)),
                5,
                "seed {seed}: chained increments must each apply exactly once"
            );
        }
    }
}
