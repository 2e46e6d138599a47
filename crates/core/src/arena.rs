//! The continuation arena: what a handle in persistent memory denotes.
//!
//! The paper stores closures (capsule state) in persistent memory and uses
//! their addresses as restart pointers and deque entries. Here every
//! closure *is* words in persistent memory, so the arena keeps nothing: it
//! is a resolver over the machine's memory, its capsule registry and the
//! layout of its processor metadata blocks. Handle `0` is reserved as the
//! null handle; machine layout guarantees address 0 is never allocated.
//!
//! There are two kinds of handle, and [`ContArena::try_resolve`] treats
//! the persistent words as the authority on which is which:
//!
//! * **Journal pointers**: the address of some processor's restart-pointer
//!   word (see [`crate::machine::PROC_META_WORDS`]). The capsule is a
//!   scheduler record, and the live one of that processor's journal is
//!   read back.
//! * **Frame handles**: the words at the handle parse as a
//!   [`ppm_pm::frame`] frame fully describing the closure. One resolves
//!   to a [`crate::registry::FrameRef`] (address, capsule id, name),
//!   never to an object: the closure stays in persistent memory, checked
//!   against the machine's [`crate::registry::CapsuleRegistry`] on
//!   *every* resolution and run where it lies. Nothing about a frame is
//!   cached: frame addresses come from pool allocators whose cursors
//!   reset between runs (and on replay-from-root recovery), so an address
//!   can denote different frames over a machine's lifetime; the words are
//!   always current, a cache would not be.
//!
//! Either way the answer is a function of the words alone, so every
//! process attached to the machine — a thief in another OS process, or a
//! fresh process recovering a crashed run — resolves a handle alike.

use std::sync::Arc;

use ppm_pm::{Addr, PersistentMemory, PmResult, ProcCtx, Word};

use crate::capsule::{Active, Next};
use crate::machine::MetaMap;
use crate::registry::{CapsuleRegistry, CodeMemo, FrameRef, RehydrateError};
use crate::runner::live_record;

/// The reserved null handle: "no continuation".
pub const NULL_HANDLE: Word = 0;

/// The resolver of a machine's handles: its memory, its capsule
/// registry and where its journals lie. Holds no lock and no state of its
/// own.
#[derive(Debug)]
pub struct ContArena {
    mem: Arc<PersistentMemory>,
    registry: Arc<CapsuleRegistry>,
    metas: MetaMap,
}

impl ContArena {
    /// A resolver of frame handles in `mem` against `registry` and of
    /// journal pointers into the blocks at `metas` (machine construction
    /// path).
    pub fn with_rehydration(
        mem: Arc<PersistentMemory>,
        registry: Arc<CapsuleRegistry>,
        metas: MetaMap,
    ) -> Self {
        ContArena {
            mem,
            registry,
            metas,
        }
    }

    /// Resolves a handle to a user capsule. `None` when the handle is
    /// null, not a well-formed registered frame, or a journal pointer (no
    /// user capsule).
    pub fn resolve(&self, handle: Word) -> Option<Active> {
        self.try_resolve(handle)
            .ok()
            .filter(|denoted| !matches!(denoted, Active::Sched(_)))
    }

    /// What `handle` denotes, with the failure preserved: a frame gets
    /// [`CapsuleRegistry::rehydrate`]'s full check; anything that is
    /// neither a frame nor a journal pointer reports as not a frame.
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
        let (mem, addr) = (&*self.mem, handle as Addr);
        if let Some(base) = self.metas.journal_of(handle) {
            return Ok(Active::Sched(live_record(|off| mem.load(base + off))));
        }
        if !ppm_pm::is_frame_at(mem, addr) {
            return Err(ppm_pm::FrameError::NotAFrame { addr, word: 0 }.into());
        }
        frame(mem, &self.registry, addr).map(Active::Frame)
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
        let attempt = codes.run(&self.mem, &self.registry, frame.addr, ctx);
        attempt.unwrap_or_else(|e| panic!("capsule `{}` can no longer run: {e}", frame.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use ppm_pm::PmConfig;

    #[test]
    fn null_handle_resolves_to_none() {
        let m = Machine::new(PmConfig::parallel(1, 1 << 16));
        let scratch = m.alloc_region(8).start as Word;
        for handle in [NULL_HANDLE, scratch, 12345, 1 << 40] {
            assert!(m.arena().resolve(handle).is_none(), "{handle}");
            let err = m.arena().try_resolve(handle).unwrap_err();
            assert!(matches!(err, RehydrateError::Frame(_)), "{handle}: {err}");
        }
    }
}
