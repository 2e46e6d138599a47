//! # `ppm` — The Parallel Persistent Memory Model, reproduced in Rust
//!
//! A from-scratch implementation of Blelloch, Gibbons, Gu, McGuffey and
//! Shun, *The Parallel Persistent Memory Model* (SPAA 2018): the machine
//! model, the capsule methodology for idempotence under processor faults,
//! the CAM-only fault-tolerant work-stealing scheduler of Figure 3, the
//! RAM / external-memory / ideal-cache simulations of Theorems 3.2–3.4,
//! and the four fault-tolerant algorithms of Section 7.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`pm`] (`ppm-pm`) — the persistent-memory substrate: word/block
//!   memory, CAM/CAS, deterministic fault injection, cost accounting,
//!   write-after-read validation, and the storage backends
//!   (`pm::backend`) that decide where the words physically live.
//! * [`core`] (`ppm-core`) — capsules as frames and records, restart
//!   semantics, join cells, fork-join combinators, machines (including durable
//!   machines: `core::Machine::create_durable` / `core::Machine::reopen`).
//! * [`sched`] (`ppm-sched`) — the fault-tolerant WS-deque and scheduler,
//!   the ABP baseline, the `Runtime` session object with cross-process
//!   crash recovery, and the checkpoint subsystem
//!   (`sched::checkpoint`).
//! * [`sim`] (`ppm-sim`) — the Theorem 3.2–3.4 virtual machines and their
//!   PM-model simulations.
//! * [`algs`] (`ppm-algs`) — prefix sums, merging, sorting, matrix
//!   multiply.
//! * [`obs`] (`ppm-obs`) — the observability layer: a typed metrics
//!   registry every machine carries (`core::Machine::obs`), a
//!   dependency-free Prometheus text exporter (`obs::MetricsServer`,
//!   enabled with `PPM_METRICS_PORT`), and one line-flushed trace
//!   stream of causal spans and runtime events per process
//!   (`obs::SpanSink`, enabled with `PPM_TRACE_FILE`).
//!
//! ## Durability: surviving real crashes, not just simulated faults
//!
//! The model's "persistent" memory is only as persistent as its storage.
//! By default a machine's words are in-process atomics (persistence spans
//! the *simulated* faults of the fault adversary); a machine built with
//! `core::Machine::create_durable` instead maps its word array onto a file
//! (`pm::backend::MmapBackend`) behind a versioned superblock. Stores
//! reach the kernel page cache as they retire — they survive `kill -9` —
//! and `core::Machine::flush` (`msync`) is the explicit boundary at which
//! they also survive machine failure.
//!
//! After a crash, a fresh process opens a session on the file
//! (`sched::Runtime::open` — which validates the superblock, replays the
//! deterministic address-space layout, and bumps the run epoch) and
//! `sched::Runtime::run_or_recover` drives the computation to completion
//! with every effect applied exactly once:
//!
//! * **Resume**: computations built from *registered persistent
//!   capsules* — continuations stored as `(capsule_id, args…)` frames in
//!   persistent memory (`pm::frame`), re-materialized through
//!   `core::CapsuleRegistry` — have their in-flight deque entries and
//!   restart pointers rehydrated and re-planted, so recovery pays only
//!   for the work that was lost. All §7 algorithms ship in this form
//!   (`algs::PrefixSum::pcomp`, `algs::MergeSort::pcomp`,
//!   `algs::SampleSort::pcomp`, `algs::MatMul::pcomp`);
//!   `examples/crash_resume.rs` SIGKILLs a worker and verifies the
//!   resumed run beats a from-root replay.
//! * **Checkpoint resume** (`sched::checkpoint`): persistent runs
//!   periodically quiesce to flush only their dirty pages, write a
//!   durable checkpoint record, and garbage-collect dead frame-pool
//!   words. When a crash frontier is not directly resumable, recovery
//!   re-plants the newest checkpoint's frontier instead of replaying
//!   from the root — replay distance is bounded by one checkpoint
//!   epoch (`examples/checkpointed_run.rs`).
//! * **Replay** (the last-resort fallback of `run_or_recover`, taken
//!   only when neither the crash frontier nor a checkpoint record
//!   rehydrates): scheduler state is scrubbed and the computation is
//!   re-driven from the root, relying on capsule idempotence for
//!   exactly-once effects. `SessionReport::fallback_reason` says why.
//!
//! `run_or_recover` is the one way a session runs a computation, and
//! every capsule anything runs — user code, the scheduler's own, the
//! Theorem 3.2–3.4 simulations, the ABP baseline — is words in persistent
//! memory: a registered frame or a scheduler record.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! use ppm::core::dsl::{CapsuleSet, Span, Step, K};
//! use ppm::core::{Machine, PComp};
//! use ppm::pm::{FaultConfig, PmConfig, Region};
//! use ppm::sched::{Runtime, RuntimeConfig};
//!
//! // A session on a 4-processor machine where every persistent access
//! // faults with probability 1% (soft faults: the processor restarts
//! // its capsule).
//! let rt = Runtime::volatile(
//!     RuntimeConfig::new(PmConfig::parallel(4, 1 << 20).with_fault(FaultConfig::soft(0.01, 42)))
//!         .with_slots(256),
//! );
//! let out = rt.machine().alloc_region(16);
//!
//! // Sixteen parallel tasks, each one idempotent capsule whose
//! // continuation is a frame in persistent memory.
//! let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
//!     let mut set = CapsuleSet::new(m);
//!     let task = set.define("task", |st: &Span<Region>, k, ctx| {
//!         for i in st.lo..st.hi {
//!             ctx.pwrite(st.env.at(i), i as u64 + 1)?;
//!         }
//!         Ok(Step::Jump(k))
//!     });
//!     let tasks = set.map_grain("tasks", 1, task);
//!     tasks.setup(m, &Span { env: out, lo: 0, hi: 16 }, K(finale)).0
//! });
//!
//! let report = rt.run_or_recover(&pcomp);
//! assert!(report.completed());
//! for i in 0..16 {
//!     assert_eq!(rt.machine().mem().load(out.at(i)), i as u64 + 1);
//! }
//! ```

pub use ppm_algs as algs;
pub use ppm_core as core;
pub use ppm_obs as obs;
pub use ppm_pm as pm;
pub use ppm_sched as sched;
pub use ppm_sim as sim;
