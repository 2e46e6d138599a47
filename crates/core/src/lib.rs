//! # `ppm-core` — the capsule runtime of the Parallel-PM model
//!
//! This crate implements the programming methodology of §§2–5 of
//! *The Parallel Persistent Memory Model* (Blelloch et al., SPAA 2018):
//!
//! * **Capsules** (the [`mod@capsule`] module): immutable, re-runnable units
//!   of computation whose state is the paper's closure, kept as words in
//!   persistent memory — a frame or a scheduler record; restart = re-run
//!   with fresh ephemeral state.
//! * **The continuation arena** ([`arena`]): what a persistent handle
//!   denotes, resolved from the words alone, so forked threads stored in
//!   deques can be stolen across processors (including from dead ones) and
//!   across processes.
//! * **The engine** ([`runner`]): installs capsules (swinging the restart
//!   pointer as the capsule's last instructions), restarts on soft faults
//!   with the model's constant restart overhead, and surfaces hard faults
//!   to the scheduler.
//! * **Join cells** ([`join`]): the §5 CAM test-and-set join — no CAS, safe
//!   under faults, exactly-once continuation.
//! * **Fork-join combinators** ([`dsl`]): typed capsule state and the
//!   `fork2` / `seq` / `map_grain` / `reduce` combinators that write the
//!   frames of the multithreaded model's binary fork-join DAGs, with
//!   dynamic expansion for recursive algorithms.
//! * **Machines** ([`machine`]): bundling memory, statistics, liveness, the
//!   arena and the address-space layout into one instance.
//! * **The capsule registry** ([`registry`]): stable capsule ids mapped to
//!   a decode and a body over argument words, so continuations stored as
//!   persistent frames ([`ppm_pm::frame`]) run from words alone — in this
//!   process, or in a fresh process recovering a crashed run.
//!
//! The scheduler that maps these computations onto `P` faulty processors
//! lives in `ppm-sched`; this crate is scheduler-agnostic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod capsule;
pub mod dsl;
pub mod flag;
pub mod join;
pub mod machine;
pub mod persist;
pub mod registry;
pub mod runner;

pub use arena::{ContArena, NULL_HANDLE};
pub use capsule::{Active, Next, SchedRecord, Scheduler, SCHED_ARG_WORDS};
pub use dsl::{fork2, fork_many, jump_to, seq, CapsuleDef, CapsuleSet, Fold, Span, K};
pub use flag::DoneFlag;
pub use join::{fork_join_frames, JoinCell, TOKEN_LEFT, TOKEN_RIGHT, UNSET};
pub use machine::{Machine, MetaMap, ProcMeta, DEFAULT_POOL_WORDS, PROC_META_WORDS};
pub use persist::{
    decode_args, encode_args, FrameDecodeError, FrameDecodeKind, Persist, ValueError, WordReader,
};
pub use registry::{
    frame_args, register_core_capsules, CapsuleId, CapsuleRegistry, FrameRef, PComp,
    RehydrateError, CORE_ID_END, CORE_ID_FINALE, CORE_ID_FORK_PAIR, CORE_ID_JOIN_CAM,
    FIRST_USER_CAPSULE_ID,
};
pub use runner::{journal_image, live_record, run_capsule, run_chain, InstallCtx};
