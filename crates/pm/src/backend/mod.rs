//! Storage backends for the persistent word array.
//!
//! The Parallel-PM model's "persistent" memory must survive processor
//! faults. For the *simulated* faults of the original reproduction an
//! in-process array of atomics suffices ([`VolatileBackend`]), but the
//! model's recovery story is only demonstrable against real process
//! crashes if the words live somewhere a `kill -9` cannot reach. The
//! [`MemBackend`] trait abstracts that choice behind
//! [`crate::mem::PersistentMemory`]. A backend is **words + one control
//! page + three flushes**, and knows nothing of what either holds:
//!
//! * [`VolatileBackend`] — heap-allocated atomics; exactly the original
//!   behavior. "Persistence" spans simulated faults within one process.
//! * [`MmapBackend`] (unix) — a `MAP_SHARED` mapping of a file: the
//!   control page, then the word array. Word stores reach the kernel page
//!   cache immediately — they survive the death of the writing process —
//!   and [`MemBackend::flush`] (`msync(MS_SYNC)`) is the explicit boundary
//!   at which they are also durable against machine/power failure.
//!
//! What the control page holds — the versioned [`Superblock`] recording
//! the machine shape and run epoch, checkpoint records, the cluster lease
//! table — is encoded in one place, [`crate::control`], over the atomic
//! words [`MemBackend::control`] hands out.
//!
//! The backend is deliberately *below* the model: cost accounting, fault
//! injection and validation all happen in [`crate::ProcCtx`] regardless of
//! where the words live.

use std::fmt::Debug;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicU64;

use crate::dirty::PageRun;

pub mod superblock;
pub mod volatile;

#[cfg(unix)]
pub mod mmap;

pub use crate::control::SUPERBLOCK_BYTES;
pub use superblock::{CheckpointRecord, Superblock};
pub use volatile::VolatileBackend;

#[cfg(unix)]
pub use mmap::MmapBackend;

/// Storage for a machine's persistent word array and its control page.
///
/// Implementations hand out both as stable slices of
/// sequentially-consistent atomics: the slice addresses must not change
/// for the lifetime of the backend (heap allocations and memory mappings
/// both satisfy this), which lets [`crate::mem::PersistentMemory`] cache
/// the word pointer and keep word access free of dynamic dispatch.
pub trait MemBackend: Send + Sync + Debug {
    /// The backing word array. Must return the same slice (same address,
    /// same length) on every call.
    fn words(&self) -> &[AtomicU64];

    /// The control page: [`crate::control::CONTROL_WORDS`] words, stable
    /// like [`MemBackend::words`], read and written only through
    /// [`crate::control::ControlPage`].
    fn control(&self) -> &[AtomicU64];

    /// Forces previously-stored words to stable storage. The durability
    /// boundary of the backend: after `flush` returns, everything stored
    /// before the call survives even a machine failure. No-op for
    /// volatile backends.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }

    /// Forces only the given word runs (page-aligned, from
    /// [`crate::DirtyTracker::drain`]) to stable storage — the
    /// incremental twin of [`MemBackend::flush`]. The default falls back
    /// to a full flush, which is always correct.
    fn flush_dirty(&self, _runs: &[PageRun]) -> io::Result<()> {
        self.flush()
    }

    /// Forces the control page alone to stable storage.
    fn flush_control(&self) -> io::Result<()> {
        Ok(())
    }

    /// Whether [`crate::mem::PersistentMemory`] should maintain a dirty
    /// bitmap for this backend. `true` for backends whose
    /// [`MemBackend::flush_dirty`] beats a full [`MemBackend::flush`]
    /// (file-mapped storage); `false` keeps volatile word traffic free of
    /// the tracking atomics.
    fn wants_dirty_tracking(&self) -> bool {
        false
    }

    /// The backing file, if any.
    fn path(&self) -> Option<&Path> {
        None
    }
}
