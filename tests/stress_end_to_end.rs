//! End-to-end stress: a larger pipeline (sort → prefix-sum → verify)
//! under a combined soft+hard fault adversary with all validators on —
//! the closest thing to the paper's whole story in one run.

use ppm::algs::{prefix_sum_seq, samplesort_pool_words, PrefixSum, SampleSort};
use ppm::core::Machine;
use ppm::pm::{FaultConfig, PmConfig};
use ppm::sched::{Runtime, SchedConfig};

#[test]
fn sort_then_scan_pipeline_survives_combined_adversary() {
    let n = 1 << 11;
    let input: Vec<u64> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % 50_000)
        .collect();

    // Machine 1: samplesort with soft faults and one mid-run death.
    let m1 = Machine::with_pool_words(
        PmConfig::parallel(4, 1 << 24)
            .with_ephemeral_words(128)
            .with_fault(FaultConfig::soft(0.002, 99).with_scheduled_hard_fault(3, 4_000)),
        samplesort_pool_words(n),
    );
    let mut cfg = SchedConfig::with_slots(1 << 14);
    cfg.check_transitions = true;
    let rt1 = Runtime::new(m1, cfg);
    let ss = SampleSort::new(rt1.machine(), n);
    ss.load_input(rt1.machine(), &input);
    let rep1 = rt1.run_or_recover(&ss.pcomp());
    assert!(rep1.completed(), "sort must complete");
    let sorted = ss.read_output(rt1.machine());
    let mut expect = input.clone();
    expect.sort_unstable();
    assert_eq!(sorted, expect, "sorted correctly under the adversary");

    // Machine 2: prefix sums over the sorted data, different adversary.
    let m2 = Machine::new(
        PmConfig::parallel(3, 1 << 23)
            .with_fault(FaultConfig::soft(0.003, 5).with_scheduled_hard_fault(1, 2_500)),
    );
    let rt2 = Runtime::new(m2, SchedConfig::with_slots(1 << 14));
    let ps = PrefixSum::new(rt2.machine(), n);
    ps.load_input(rt2.machine(), &sorted);
    let rep2 = rt2.run_or_recover(&ps.pcomp());
    assert!(rep2.completed(), "scan must complete");
    assert_eq!(ps.read_output(rt2.machine()), prefix_sum_seq(&sorted));

    // The whole pipeline absorbed faults without correctness loss.
    let total_faults = rep1.stats().soft_faults
        + rep1.stats().hard_faults
        + rep2.stats().soft_faults
        + rep2.stats().hard_faults;
    assert!(total_faults > 0, "the adversary must actually have fired");
}
