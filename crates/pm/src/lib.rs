//! # `ppm-pm` — the Persistent Memory substrate
//!
//! This crate implements the memory system of the *Parallel Persistent
//! Memory* (Parallel-PM) model of Blelloch, Gibbons, Gu, McGuffey and Shun
//! (SPAA 2018): a large, slow, **persistent** memory of 64-bit words grouped
//! into blocks of `B` words, shared by `P` processors that each own a small,
//! fast, **ephemeral** memory of `M` words. Processors may *fault* between
//! any two persistent-memory accesses; on a *soft* fault all processor state
//! and ephemeral memory is lost but persistent memory survives, and on a
//! *hard* fault the processor never restarts.
//!
//! The crate provides:
//!
//! * [`mem::PersistentMemory`] — the shared word/block store, backed by
//!   sequentially-consistent atomics, with `CAM` (compare-and-modify, the
//!   fault-safe primitive of §5 of the paper) and `CAS` (provided only for
//!   the non-fault-tolerant ABP baseline).
//! * [`backend`] — where the words physically live: the in-process
//!   [`backend::VolatileBackend`] (simulated persistence, the default) or
//!   the file-mapped [`backend::MmapBackend`], which puts the word array
//!   behind a `MAP_SHARED` mapping with a versioned superblock so that
//!   "persistent" survives real `kill -9` process deaths, with
//!   [`mem::PersistentMemory::flush`] (`msync`) as the machine-failure
//!   durability boundary.
//! * [`control`] — the one place the machine file's first page is laid
//!   out and encoded: superblock, checkpoint records, cluster header,
//!   lease table and service header, all checksummed word records over
//!   the backend's atomic control page.
//! * [`fault::FaultInjector`] — a deterministic, seedable adversary that
//!   faults each processor with probability ≤ `f` at every persistent access
//!   and can schedule hard faults, plus the liveness oracle
//!   `isLive(procId)` of §6.
//! * [`proc::ProcCtx`] — the per-processor access handle through which *all*
//!   costed external reads/writes flow; it charges unit cost per block
//!   transfer, consults the fault injector, and feeds the validators.
//! * [`stats::MemStats`] — cost accounting for the model's measures: total
//!   (fault-tolerant) work `W_f`, faultless work `W` (measured with `f = 0`),
//!   per-processor breakdowns, capsule-work tracking, fault counts.
//! * [`validate`] — dynamic checkers for the paper's correctness
//!   conditions: write-after-read conflict freedom within a capsule (§3) and
//!   well-formedness of ephemeral accesses after restarts.
//! * [`layout`] — a tiny region allocator for carving the persistent address
//!   space into scheduler state, per-processor pools, and user arrays.
//!
//! Everything is deterministic given a seed, so every experiment in the
//! reproduction is replayable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod clock;
pub mod config;
pub mod control;
pub mod dirty;
pub mod error;
pub mod fault;
pub mod frame;
pub mod layout;
pub mod lease;
pub mod mem;
pub mod proc;
pub mod service;
pub mod stats;
pub mod tempfile;
pub mod validate;
pub mod word;

#[cfg(unix)]
pub use backend::MmapBackend;
pub use backend::{CheckpointRecord, MemBackend, Superblock, VolatileBackend, SUPERBLOCK_BYTES};
pub use clock::{system_clock, Clock, SharedClock, SystemClock, VirtualClock};
pub use config::{FaultConfig, PmConfig, ValidateMode};
pub use control::{ControlPage, PageView};
pub use dirty::{DirtyTracker, PageRun, PAGE_WORDS};
pub use error::{Fault, PmError, PmResult};
pub use fault::{FaultInjector, HeartbeatLiveness, Liveness};
pub use frame::{
    frame_words, is_frame_at, read_frame, store_frame, with_frame_args, write_frame, Frame,
    FrameBuf, FrameError, FRAME_MAGIC, MAX_FRAME_ARGS,
};
pub use layout::{LayoutBuilder, Region};
pub use lease::{now_ms, ClusterHeader, Lease, LeaseState, ShardMap, MAX_SHARDS};
pub use mem::{DirtyFlush, PersistentMemory};
pub use proc::ProcCtx;
pub use service::{ServiceHeader, ServiceState, SlotPhase};
pub use stats::{MemStats, StatsSnapshot};
pub use tempfile::TempMachineFile;
pub use word::{Addr, Word};
