//! # `ppm-algs` — fault-tolerant algorithms for the Parallel-PM (§7)
//!
//! The paper's four algorithms, written as write-after-read conflict free
//! fork-join computations whose capsules are all atomically idempotent —
//! they run unchanged under soft and hard faults on `ppm-sched`:
//!
//! * [`prefix`] — parallel prefix sums: O(n/B) work, O(log n) depth,
//!   O(1) maximum capsule work (Theorem 7.1).
//! * [`merge`] — merging sorted sequences by dual binary search:
//!   O(n/B) work, O(log n) depth, O(log n) capsule work (Theorem 7.2).
//! * [`sort`] — mergesort (O((n/B) log(n/M)) work) and the samplesort of
//!   Theorem 7.3 (O((n/B) log_M n) work, O(M/B) capsule work).
//! * [`matmul`] — 8-way recursive matrix multiply with copy-out
//!   temporaries: O(n³/(B√M)) work, O(M^{3/2}) capsule work
//!   (Theorem 7.4).
//!
//! Every algorithm ships with a plain sequential oracle used by the tests
//! and the experiment harness.
//!
//! Every algorithm has exactly one form — **registered persistent
//! capsules** ([`PrefixSum::pcomp`], [`Merge::pcomp`],
//! [`MergeSort::pcomp`], [`SampleSort::pcomp`], [`MatMul::pcomp`]): the
//! recursions defunctionalized onto the typed `ppm_core::dsl` — capsule
//! states declared with `persist_struct!`, ids allocated by name through
//! the registry, frames written by the `fork2`/`jump_to`/`map_grain`
//! combinators — so the code the theorem experiments measure is the code
//! every session runs, and a run killed mid-computation (`kill -9`) is
//! *resumed* from its in-flight deque entries by
//! `ppm_sched::Runtime::run_or_recover` instead of replayed from the
//! root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod matmul;
pub mod merge;
pub mod prefix;
pub mod sort;
pub mod util;

pub use matmul::{matmul_pool_words, matmul_rect_seq, matmul_seq, MatMul, MatMulRect};
pub use merge::{merge_seq, Merge};
pub use prefix::{prefix_sum_seq, PrefixSum};
pub use sort::{samplesort_pool_words, MergeSort, SampleSort};
