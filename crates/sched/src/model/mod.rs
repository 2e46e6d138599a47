//! Exhaustive checks of the three hard protocols, run by `ppm-check`.
//!
//! Each submodule implements [`ppm_check::Model`], so the bounded BFS
//! explorer enumerates every interleaving — with crash transitions at
//! every persist boundary — and reports minimal counterexample traces:
//!
//! * [`engine`] — the Figure 3 scheduler *as it runs*: a state is an
//!   action prefix over [`crate::sim::SimSched`], replayed on a fresh
//!   machine, and each transition runs one capsule of the production code
//!   or crashes a processor at a boundary. Properties: `NoDoubleExecution`
//!   (W2), the Figure 4 and WS-deque invariants on every step, completion
//!   at quiescence, and Progress (W5: a complete state stays reachable).
//! * [`lease`] — the cross-process lease/heartbeat/tombstone oracle of
//!   the sharded runtime (`cluster` module), as an abstract state
//!   machine: renewal vs. expiry races, coordinator tombstones,
//!   false-positive death verdicts, CAM-guarded adoption claims.
//!   Invariants: `TombstoneSticky` (no resurrected tombstone),
//!   `NoDoubleClaim`, `NoDoneAdoption`.
//! * [`quiesce`] — the checkpoint quiesce/skip-and-retry barrier
//!   (`checkpoint` module), as an abstract state machine: park at capsule
//!   boundaries, skip the epoch when a transfer is in flight, trace live
//!   frames, reclaim the rest. Invariant: `NoLiveFrameReclaim`
//!   (checkpoint GC never reclaims a frame a processor still needs).
//!
//! Every model has deliberate **mutants** that reintroduce one protocol
//! bug — the engine's swap one step's arm through a scheduler wrapper,
//! the abstract models' flip a flag — so the test suite shows the
//! explorer produces the expected minimal counterexample for each (see
//! `tests/model_check.rs`).
//!
//! `specs/tla/` states the scheduler and the lease protocol in TLA+; the
//! property names match.

pub mod engine;
pub mod lease;
pub mod quiesce;

pub use engine::{EngineAction, EngineModel, EngineSt, Mutant};
pub use lease::{LeaseAction, LeaseModel, LeaseSt};
pub use quiesce::{QuiesceAction, QuiesceModel, QuiesceSt};
