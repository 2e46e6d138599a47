//! Deterministic causal-trace validation over the scripted simulator.
//!
//! Drives the registered prefix-sum through [`ppm_sched::SimSched`] with
//! a span sink attached, then reconstructs the capsule DAG with the
//! `ppm-trace` analyzer (`ppm_obs::profile`) and checks the paper's
//! observed quantities:
//!
//! * crash-free: the DAG is complete (every non-root span resolves its
//!   parent), W / D / parallelism are exactly reproducible run-to-run
//!   (the scripted schedule is deterministic), internally consistent
//!   (`parallelism = W/D`, per-shard work sums to W), and **zero** work
//!   is fault-wasted;
//! * kill-point: a scheduled mid-capsule hard fault makes the survivor
//!   adopt and re-execute — the analyzer must attribute wasted work > 0
//!   against the exactly-once commit set while the output (the committed
//!   effects) still equals the sequential oracle exactly once.

use std::sync::Arc;

use ppm_algs::{prefix_sum_seq, PrefixSum};
use ppm_core::Machine;
use ppm_obs::{Analysis, SpanSink, TraceSet};
use ppm_pm::{FaultConfig, PmConfig, Word};
use ppm_sched::{SchedConfig, SimSched};

const N: usize = 64; // block_size 8 -> 8 leaves, a 4-level fork tree

fn input() -> Vec<Word> {
    (0..N as Word).map(|i| i * 3 + 1).collect()
}

/// Runs the registered prefix-sum under a round-robin scripted schedule
/// with `procs` processors and `fault`, tracing spans to a fresh file;
/// returns the analyzer's view plus the computed output.
fn traced_run(name: &str, procs: usize, fault: FaultConfig) -> (Analysis, Vec<Word>) {
    let path = std::env::temp_dir().join(format!(
        "ppm-trace-dag-{}-{name}.spans.jsonl",
        std::process::id()
    ));
    let m = Machine::new(PmConfig::parallel(procs, 1 << 21).with_fault(fault));
    let sink = SpanSink::create(&path, 0, m.epoch(), false).expect("span sink");
    m.obs().set_span_sink(Arc::new(sink));

    let ps = PrefixSum::new(&m, N);
    ps.load_input(&m, &input());
    // Seat AFTER the sink is installed: processor contexts capture it at
    // construction.
    let mut sim = SimSched::new_persistent(&m, &ps.pcomp(), &SchedConfig::with_slots(256));
    sim.run_to_completion(100_000);
    let rep = sim.finish();
    assert!(rep.completed, "{name}: simulated run must complete");

    let mut set = TraceSet::default();
    set.ingest_file(&path).expect("ingest span file");
    let out = ps.read_output(&m);
    let _ = std::fs::remove_file(&path);
    (set.analyze(), out)
}

#[test]
fn crash_free_dag_is_complete_exact_and_waste_free() {
    let (a, out) = traced_run("clean-a", 2, FaultConfig::none());
    assert_eq!(out, prefix_sum_seq(&input()));

    // Complete DAG: every non-root span resolves its parent.
    assert_eq!(a.unresolved_parents, 0, "DAG must be complete");
    assert!(a.spans_total > 0 && a.completed == a.spans_total);
    assert_eq!(a.interrupted, 0);
    assert!(a.roots >= 1);

    // Zero fault-wasted work, by exact accounting.
    assert_eq!(a.wasted_work, 0);
    assert_eq!(a.wasted_ratio, 0.0);
    assert_eq!(a.useful_work, a.work, "every unit of work is canonical");

    // W, D, parallelism are internally consistent and non-degenerate:
    // the fork tree gives D strictly less than W on 2 processors.
    assert!(a.depth > 0 && a.depth < a.work);
    assert_eq!(a.parallelism, a.work as f64 / a.depth as f64);
    let shard_sum: u64 = a.per_shard.iter().map(|&(_, w)| w).sum();
    assert_eq!(shard_sum, a.work, "per-shard work partitions W");

    // Exact reproducibility: the scripted schedule is deterministic, so
    // a second identical run observes bit-identical W, D, and span
    // counts — the "exact W/D/parallelism" witness.
    let (b, _) = traced_run("clean-b", 2, FaultConfig::none());
    assert_eq!(
        (a.work, a.depth, a.spans_total),
        (b.work, b.depth, b.spans_total)
    );
    assert_eq!(a.parallelism, b.parallelism);

    // Single-processor run: the seating changes which arriver runs each
    // join-check (so W may shift by a few join capsules), but the DAG
    // stays complete and waste-free, and the critical path can only
    // shrink when nothing ever waits on a fork. Every join frees its
    // subtree here, so later leaves run from recycled frame addresses:
    // waste-free means the analyzer tells them apart by the span that
    // wrote each frame, not by address and name.
    let (c, _) = traced_run("clean-p1", 1, FaultConfig::none());
    assert_eq!(c.unresolved_parents, 0);
    assert_eq!(c.wasted_work, 0);
    assert!(c.depth <= c.work);
}

#[test]
fn kill_point_run_attributes_wasted_work_exactly_once() {
    // Processor 0 hard-faults mid-capsule at its 48th costed access,
    // inside a frame capsule (the root's pull from the ring comes first);
    // processor 1 adopts its frame and re-executes. The schedule and the
    // fault point are both deterministic, so this run is replayable.
    let fault = FaultConfig::none().with_scheduled_hard_fault(0, 48);
    let (a, out) = traced_run("killed", 2, fault);

    // Exactly-once commits: the survivor's output equals the oracle —
    // re-execution never double-applies (§5 idempotence).
    assert_eq!(out, prefix_sum_seq(&input()));

    // The fault is visible in the trace: at least one execution was cut
    // off mid-capsule, and the analyzer charges its replay as waste.
    assert!(a.interrupted >= 1, "the victim's span has no end record");
    assert!(a.wasted_work > 0, "adoption re-execution is fault-wasted");
    assert!(a.wasted_ratio > 0.0 && a.wasted_ratio < 1.0);

    // Exactly-once accounting: every frame contributes exactly one
    // canonical execution, so committed work splits into the canonical
    // set plus committed duplicates — and the analyzer charges those
    // duplicates (plus a proxy per interrupted execution) as waste.
    assert!(a.useful_work <= a.work, "canonical set is a subset of W");
    assert!(
        a.wasted_work >= a.work - a.useful_work,
        "waste covers at least the committed duplicates"
    );

    // The DAG stays complete across the fault: the adopted re-execution
    // links back through the persistent frame's parent-span word.
    assert_eq!(a.unresolved_parents, 0, "adoption edge must resolve");
}
