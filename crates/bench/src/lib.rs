//! # `ppm-bench` — experiment harness for the Parallel-PM reproduction
//!
//! One binary per experiment (`cargo run --release -p ppm-bench --bin
//! exp_<id>`), named for what it measures: `exp_t<sec><n>_*` is Theorem
//! `<sec>.<n>` (`exp_t34_cache_sim` is Theorem 3.4, `exp_t71_prefix` 7.1),
//! `exp_fig<n>_*` a figure, the rest a claim made in prose (CAM against
//! CAS, ABP against the fault-tolerant scheduler, capsule granularity,
//! hard faults); `src/bin/` is the index. This library holds the shared
//! table-printing and measurement helpers.

#![warn(missing_docs)]

pub mod cli;
pub mod report;

pub use report::BenchReport;

use std::fmt::Display;
use std::sync::Arc;

use ppm_core::dsl::{CapsuleSet, Span, Step, K};
use ppm_core::{Machine, PComp};
use ppm_pm::Region;
use ppm_sched::{CheckpointPolicy, SchedConfig};

/// Scheduler configuration of the theorem experiments: `slots` deque
/// slots and checkpoints off — frame-pool GC shifts block alignment
/// (moving W by fractions of a percent), and a model-cost number must
/// repeat to the digit. Pools must hold every frame of the run.
pub fn model_cost_sched(slots: usize) -> SchedConfig {
    let mut cfg = SchedConfig::with_slots(slots);
    cfg.checkpoint = CheckpointPolicy::disabled();
    cfg
}

/// The fork-join fan-out the scheduler experiments run: a `map_grain` at
/// grain 1 over `n` leaves, leaf `i` writing 1 to the `leaf_work` words
/// of `out` from `i · leaf_work` on. Both schedulers run this one source.
pub fn fanout(out: Region, n: usize, leaf_work: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("bench/leaf", |st: &Span<(Region, usize)>, k, ctx| {
            let (out, leaf_work) = st.env;
            for w in st.lo * leaf_work..st.hi * leaf_work {
                ctx.pwrite(out.at(w), 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("bench/split", 1, leaf);
        let env = (out, leaf_work);
        split
            .setup(m, &Span { env, lo: 0, hi: n }, K(finale))
            .word()
    })
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("| {} |", line.join(" | "));
}

/// Prints a table header with a rule.
pub fn header(names: &[&str], widths: &[usize]) {
    row(
        &names.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", rule.join("-|-"));
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats any displayable value.
pub fn s<T: Display>(v: T) -> String {
    v.to_string()
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("\n=== {id}: {title} ===");
    println!("paper claim: {claim}\n");
}

/// Geometric mean of a slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(s(42), "42");
    }
}
