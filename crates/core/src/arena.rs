//! The continuation arena: closures "in persistent memory".
//!
//! The paper stores closures (capsule state) in persistent memory and uses
//! their addresses as restart pointers and deque entries. In this
//! reproduction the closure *content* is a Rust object (`Cont`), and the
//! arena maps a persistent address — obtained from the processor's
//! restart-stable allocator (§4.1) — to that object. The address is the
//! *handle* that flows through persistent memory (deque entries, restart
//! pointer words); the arena is the backing store.
//!
//! Registration is idempotent under restarts: the address comes from
//! [`ppm_pm::ProcCtx::palloc`], which rolls back on restart, so a re-run
//! registers an equivalent closure at the same address (overwriting the
//! previous, equivalent, entry). The one costed external write per
//! registration models filling the (constant-size) closure.
//!
//! Handle `0` is reserved as the null handle; machine layout guarantees
//! address 0 is never allocated.
//!
//! There are three kinds of handle, and [`ContArena::try_resolve`] treats
//! the persistent words as the authority on which is which:
//!
//! * **Journal pointers**: the address of some processor's restart-pointer
//!   word (see [`crate::machine::PROC_META_WORDS`]). The capsule is a
//!   scheduler record — words — and the live one of that processor's
//!   journal is read back; any attachment to the machine does this alike.
//! * **Frame handles**: the words at the handle parse as a
//!   [`ppm_pm::frame`] frame fully describing the closure. One resolves
//!   to a [`crate::registry::FrameRef`] (address, capsule id, name),
//!   never to an object: the closure stays in persistent memory, checked
//!   against the machine's [`crate::registry::CapsuleRegistry`] on
//!   *every* resolution and run where it lies. Nothing about a frame is
//!   kept in the map: frame addresses come from pool allocators whose
//!   cursors reset between runs (and on replay-from-root recovery), so
//!   an address can denote different frames over a machine's lifetime;
//!   the words are always current, a cache would not be. This is also why
//!   a fresh process resolves frame handles from words alone.
//! * **Closure handles** ([`ContArena::register`] /
//!   [`ContArena::register_at`]): the closure content is a process-local
//!   Rust object; the persistent word is only a marker (never
//!   frame-shaped). These resolve through the map and die with the
//!   process. They are a closure-machine facility: they back
//!   [`crate::comp`] DAGs (the Figure 3/4 protocol tests and the ABP
//!   comparison, always fresh in-process runs) and the `crates/sim`
//!   chains. No session accepts a closure computation, no session mints
//!   a closure handle, and no recovery path ever resolves one.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use ppm_pm::{Addr, PersistentMemory, PmResult, ProcCtx, Word};

use crate::capsule::{Active, Cont, Next};
use crate::machine::MetaMap;
use crate::registry::{CapsuleRegistry, CodeMemo, FrameRef, RehydrateError};
use crate::runner::live_record;

/// The reserved null handle: "no continuation".
pub const NULL_HANDLE: Word = 0;

/// Number of words a closure occupies in the persistent address space.
/// Closures are constant-size in the model; one word of costed content is
/// enough to account for them (the Rust object carries the rest).
pub const CLOSURE_WORDS: usize = 1;

/// Shared registry of continuations keyed by persistent address. One
/// map behind one lock: only the closure machine writes it, and nothing
/// a session runs reads it.
pub struct ContArena {
    map: RwLock<HashMap<Addr, Cont>>,
    /// What resolves a handle from persistent words (memory, the frame
    /// registry, where the journals lie); absent for standalone arenas,
    /// always present on machine-owned arenas.
    rehydrate: Option<(Arc<PersistentMemory>, Arc<CapsuleRegistry>, MetaMap)>,
}

impl std::fmt::Debug for ContArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContArena({} entries)", self.len())
    }
}

impl Default for ContArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ContArena {
    /// Creates an empty arena that resolves closure handles only.
    pub fn new() -> Self {
        ContArena {
            map: RwLock::default(),
            rehydrate: None,
        }
    }

    /// Creates an empty arena that can resolve frame handles from `mem`
    /// against `registry` and read scheduler records out of the journals
    /// at `metas` (machine construction path).
    pub fn with_rehydration(
        mem: Arc<PersistentMemory>,
        registry: Arc<CapsuleRegistry>,
        metas: MetaMap,
    ) -> Self {
        ContArena {
            map: RwLock::default(),
            rehydrate: Some((mem, registry, metas)),
        }
    }

    /// Registers `cont` at a fresh persistent address drawn from the
    /// executing processor's pool. Costs one external write (filling the
    /// closure). Idempotent under capsule restart.
    pub fn register(&self, ctx: &mut ProcCtx, cont: Cont) -> PmResult<Word> {
        let addr = ctx.palloc(CLOSURE_WORDS);
        // Insert before the costed write: if the write faults, the entry is
        // unreachable (the handle is not yet published anywhere) and the
        // re-run will overwrite it with an equivalent closure.
        self.map.write().insert(addr, cont);
        ctx.pwrite(addr, 1)?; // closure content marker
        Ok(addr as Word)
    }

    /// Registers `cont` at a *fixed* slot address (the per-processor
    /// two-slot swap of §4.1's tail-call optimization, used by the engine
    /// for thread continuations). Costs one external write.
    pub fn register_at(
        &self,
        ctx: &mut ProcCtx,
        slot: Addr,
        cont: Cont,
        gen: Word,
    ) -> PmResult<()> {
        self.map.write().insert(slot, cont);
        ctx.pwrite(slot, gen)?;
        Ok(())
    }

    /// Registers `cont` at a fixed address with no cost and no fault risk.
    /// Machine-setup use only (e.g. installing the root thread before the
    /// processors start); runtime code must use the costed paths.
    pub fn preregister(&self, addr: Addr, cont: Cont) {
        assert_ne!(addr, 0, "address 0 is the null handle");
        self.map.write().insert(addr, cont);
    }

    /// Resolves a handle from the in-process map only. `None` for the
    /// null handle or an address never registered in this process.
    pub fn get(&self, handle: Word) -> Option<Cont> {
        if handle == NULL_HANDLE {
            return None;
        }
        let addr = handle as Addr;
        self.map.read().get(&addr).cloned()
    }

    /// Resolves a handle to a user capsule: a frame is checked against
    /// the registry, anything else comes from the in-process map. `None`
    /// when the handle is null, unregistered and not a well-formed
    /// registered frame, or a journal pointer (no user capsule).
    pub fn resolve(&self, handle: Word) -> Option<Active> {
        self.try_resolve(handle)
            .ok()
            .filter(|denoted| !matches!(denoted, Active::Sched(_)))
    }

    /// What `handle` denotes, with the failure preserved: a frame gets
    /// [`CapsuleRegistry::rehydrate`]'s full check. The null handle and
    /// map misses report as frame errors.
    pub fn try_resolve(&self, handle: Word) -> Result<Active, RehydrateError> {
        self.resolve_with(handle, |mem, reg, addr| reg.rehydrate(mem, addr as Word))
    }

    /// [`ContArena::try_resolve`] with the caller saying what a frame
    /// denotes: the run path asks its processor's memo, decodes later.
    #[inline]
    pub(crate) fn resolve_with(
        &self,
        handle: Word,
        frame: impl FnOnce(
            &PersistentMemory,
            &CapsuleRegistry,
            Addr,
        ) -> Result<FrameRef, RehydrateError>,
    ) -> Result<Active, RehydrateError> {
        if let Some((mem, registry, metas)) = self.rehydrate.as_ref() {
            if let Some(base) = metas.journal_of(handle) {
                return Ok(Active::Sched(live_record(|off| mem.load(base + off))));
            }
            if ppm_pm::is_frame_at(mem, handle as Addr) {
                return frame(mem, registry, handle as Addr).map(Active::Frame);
            }
        }
        self.get(handle)
            .map(Active::Capsule)
            .ok_or(RehydrateError::Frame(ppm_pm::FrameError::NotAFrame {
                addr: handle as Addr,
                word: 0,
            }))
    }

    /// One attempt of the capsule `frame` denotes ([`CodeMemo::run`]). A
    /// frame that stopped denoting one since it was installed is corrupt
    /// memory under a running thread: there is no one to hand an error to.
    #[inline]
    pub(crate) fn run_frame(
        &self,
        codes: &mut CodeMemo,
        frame: &FrameRef,
        ctx: &mut ProcCtx,
    ) -> PmResult<Next> {
        let (mem, registry, _) = self.rehydrate.as_ref().expect("a machine's arena");
        let attempt = codes.run(mem, registry, frame.addr, ctx);
        attempt.unwrap_or_else(|e| panic!("capsule `{}` can no longer run: {e}", frame.name))
    }

    /// Number of live registrations (diagnostics).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::end_capsule;
    use ppm_pm::{MemStats, PersistentMemory, PmConfig, Region};
    use std::sync::Arc;

    fn ctx_with_pool() -> ProcCtx {
        let cfg = PmConfig::small_single();
        let mem = Arc::new(PersistentMemory::new(cfg.persistent_words, cfg.block_size));
        let stats = Arc::new(MemStats::new(1));
        let live = Arc::new(ppm_pm::Liveness::new(1));
        let mut ctx = ProcCtx::new(&cfg, 0, mem, stats, live);
        ctx.set_alloc_pool(
            Region {
                start: 64,
                len: 1024,
            },
            0,
        );
        ctx
    }

    #[test]
    fn register_and_get_round_trip() {
        let arena = ContArena::new();
        let mut ctx = ctx_with_pool();
        ctx.begin_capsule("t");
        let h = arena.register(&mut ctx, end_capsule()).unwrap();
        assert_ne!(h, NULL_HANDLE);
        let c = arena.get(h).expect("registered handle resolves");
        assert_eq!(c.name(), "end");
    }

    #[test]
    fn null_handle_resolves_to_none() {
        let arena = ContArena::new();
        assert!(arena.get(NULL_HANDLE).is_none());
        assert!(arena.get(12345).is_none());
    }

    #[test]
    fn restart_re_registers_at_same_address() {
        let arena = ContArena::new();
        let mut ctx = ctx_with_pool();
        ctx.begin_capsule("fork-like");
        let h1 = arena.register(&mut ctx, end_capsule()).unwrap();
        // Simulate a soft fault and re-run of the registering capsule.
        ctx.restart_capsule("fork-like");
        let h2 = arena.register(&mut ctx, end_capsule()).unwrap();
        assert_eq!(h1, h2, "restart must reuse the same closure address");
        assert_eq!(arena.len(), 1, "re-registration overwrites, not leaks");
    }

    #[test]
    fn distinct_registrations_get_distinct_handles() {
        let arena = ContArena::new();
        let mut ctx = ctx_with_pool();
        ctx.begin_capsule("a");
        let h1 = arena.register(&mut ctx, end_capsule()).unwrap();
        ctx.complete_capsule();
        ctx.begin_capsule("b");
        let h2 = arena.register(&mut ctx, end_capsule()).unwrap();
        assert_ne!(h1, h2);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn register_at_overwrites_slot() {
        let arena = ContArena::new();
        let mut ctx = ctx_with_pool();
        ctx.begin_capsule("t");
        arena.register_at(&mut ctx, 40, end_capsule(), 1).unwrap();
        arena
            .register_at(
                &mut ctx,
                40,
                crate::capsule::capsule("v2", |_| Ok(crate::capsule::Next::End)),
                2,
            )
            .unwrap();
        assert_eq!(arena.get(40).unwrap().name(), "v2");
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn registration_costs_one_write() {
        let arena = ContArena::new();
        let mut ctx = ctx_with_pool();
        ctx.begin_capsule("t");
        let before = ctx.stats().snapshot().total_writes;
        arena.register(&mut ctx, end_capsule()).unwrap();
        assert_eq!(ctx.stats().snapshot().total_writes, before + 1);
    }
}
