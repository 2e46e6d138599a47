//! # `ppm-sim` — Theorems 3.2–3.4 of the Parallel-PM paper
//!
//! Each theorem says "any X computation can be simulated on the PM model
//! with O(t) expected total work". To reproduce them we need concrete X's:
//!
//! * [`ram`] — a RAM virtual machine (ISA + native executor), and
//!   [`ram_pm`] — its PM simulation with two register copies and one
//!   instruction per capsule (Theorem 3.2).
//! * [`em`] — an `(M, B)` external-memory machine, and [`em_pm`] — its PM
//!   simulation with simulation/commit capsule rounds and a buffered write
//!   set (Theorem 3.3).
//! * [`cache`] — an ideal-cache model executor (LRU approximation of OPT),
//!   and [`cache_pm`] — its PM simulation with a 2M/B no-evict capsule
//!   cache (Theorem 3.4).
//!
//! Native runs give the baseline `t`; PM runs under the machine's fault
//! configuration give the expected total work the theorems bound.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod cache_pm;
pub mod em;
pub mod em_pm;
pub mod ram;
pub mod ram_pm;

use ppm_core::dsl::K;
use ppm_core::{run_chain, InstallCtx, Machine, Persist};
use ppm_pm::frame::FRAME_ARGS_AT;
use ppm_pm::Fault;

pub use cache::{run_native_cache, AccessPattern, CacheResult, LruCache};
pub use cache_pm::{simulate_cache_on_pm, CachePmLayout};
pub use em::{run_native_em, EmInstr, EmProgram, EmResult};
pub use em_pm::{simulate_em_on_pm, EmPmLayout, EmPmReport};
pub use ram::{run_native, Instr, RamProgram, RamResult, NREGS};
pub use ram_pm::{run_both, simulate_ram_on_pm, RamPmLayout, RamPmReport};

/// Runs a cycle of frames written at setup — a simulation's capsules, each
/// naming its successor — on processor 0, from `first`, a frame over state
/// `T` that continues with `last`. The first frame is written before the
/// last has an address, so its continuation word (a DSL frame is its state
/// words, then the continuation) is filled in here, an uncosted setup store
/// like the frames themselves.
fn run_cycle<T: Persist>(machine: &Machine, first: K, last: K) -> Result<(), Fault> {
    let continuation = first.word() as usize + FRAME_ARGS_AT + T::WORDS;
    machine.mem().store(continuation, last.word());
    let mut ctx = machine.ctx(0);
    let mut install = InstallCtx::new(machine.mem(), machine.proc_meta(0));
    run_chain(&mut ctx, machine.arena(), &mut install, first.word())
}
