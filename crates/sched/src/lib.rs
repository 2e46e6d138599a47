//! # `ppm-sched` — fault-tolerant work stealing for the Parallel-PM
//!
//! The paper's headline system (§6, Figure 3, Appendix A): a work-stealing
//! scheduler that tolerates *soft* faults (processors restart, losing all
//! ephemeral state) and *hard* faults (processors die) anywhere — in user
//! code or in the scheduler itself — using only CAM (compare-and-modify,
//! never CAS), idempotent capsules, and tagged deque entries.
//!
//! * [`entry`] — the packed `⟨tag, entry⟩` words with the four states of
//!   Figure 4 (`empty | local | job | taken`).
//! * [`deque`] — per-processor WS-deque state in persistent memory and the
//!   §6.2 structural invariant (`taken* job* local{0,1,2} empty*`).
//! * [`capsules`] — `popTop`, `helpPopTop`, `pushBottom`, `popBottom`,
//!   `findWork` and `scheduler` as capsule state machines with the paper's
//!   exact commit boundaries: one `match` over the steps of [`step`],
//!   which are data — a kind and five words, journaled in the processor's
//!   metadata block — so no scheduler capsule is a heap object and none
//!   dies with its process.
//! * [`driver`] — one OS thread per model processor; runs fork-join
//!   computations to completion and reports cost statistics, and holds
//!   the one recovery every session runs (resume via the capsule
//!   registry, resume a checkpoint, replay from the root).
//! * [`runtime`] — the user-facing session object: [`Runtime`] wraps a
//!   machine and dispatches [`Runtime::run_or_recover`] to fresh-run,
//!   persistent-resume, checkpoint-resume, or replay-fallback internally,
//!   returning one unified [`SessionReport`]. After a whole process dies
//!   mid-run on a durable machine, a fresh process `Runtime::open`s the
//!   file and drives the computation to completion with exactly-once
//!   effects.
//! * [`checkpoint`] — epoch checkpoints for registered persistent runs:
//!   periodic quiesced persist boundaries that flush only dirty pages,
//!   write a durable resume record, and garbage-collect dead frame-pool
//!   words (see [`CheckpointPolicy`]).
//! * [`cluster`] — the multi-process sharded runtime: `N` worker OS
//!   processes attach to one `MAP_SHARED` machine file as independent
//!   fault domains, with a lease-based cross-process liveness oracle and
//!   dead-shard adoption through the ordinary steal protocol
//!   ([`cluster::ClusterBuilder`] is the one entry point).
//! * [`supervisor`] — the one clock-driven [`Supervisor`] loop behind
//!   every multi-process session: reap exited workers and tombstone
//!   their leases; survivors adopt their threads, claimed ring jobs
//!   included.
//! * [`service`] — the durable MPMC injector queue in the machine file,
//!   the one way work enters a cluster (a batch run publishes its shard
//!   jobs there and closes admission), and the [`ServiceHandle`]
//!   submit/await/drain/shutdown API ([`cluster::ClusterBuilder::spawn`]).
//! * [`abp`] — the CAS-based Arora–Blumofe–Plaxton baseline (not
//!   fault-tolerant), running the same registered computations, for the
//!   comparison benchmarks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod abp;
pub mod capsules;
pub mod checkpoint;
pub mod cluster;
pub mod deque;
pub mod driver;
pub mod entry;
pub mod model;
pub mod runtime;
pub mod service;
pub mod sim;
pub mod step;
pub mod supervisor;

pub use capsules::{Sched, SchedConfig};
pub use checkpoint::{CheckpointPolicy, CheckpointSummary, CheckpointTrigger};
pub use cluster::{
    ClusterBuilder, ClusterObserver, ClusterRole, ClusterSummary, ShardBuild, ShardDomain,
    ShardReport, DEFAULT_LEASE_MS,
};
pub use deque::{build_deques, check_invariant, render, snapshot, DequeAddrs, DequeSnapshot};
pub use driver::{
    CheckpointResume, FallbackReason, PComp, ProcOutcome, RunReport, SessionMode, SessionReport,
};
pub use entry::{kind_of, pack, tag_of, unpack, EntryKind, EntryVal};
pub use runtime::{Runtime, RuntimeConfig};
pub use service::{
    HeldClaims, InjectorQueue, JobReport, JobStatus, JobTicket, ServiceConfig, ServiceHandle,
};
pub use sim::{SimEvent, SimOp, SimReport, SimSched};
pub use supervisor::Supervisor;
