//! Cross-crate integration: the four §7 algorithms against their
//! sequential oracles, across machine geometries and fault adversaries,
//! all driven through `Runtime` sessions.

use ppm::algs::{
    matmul_pool_words, matmul_seq, merge_seq, prefix_sum_seq, samplesort_pool_words, MatMul, Merge,
    MergeSort, PrefixSum, SampleSort,
};
use ppm::core::Machine;
use ppm::pm::{FaultConfig, PmConfig};
use ppm::sched::{Runtime, SchedConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_data(seed: u64, n: usize, range: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..range)).collect()
}

#[test]
fn prefix_sum_matches_oracle_across_geometries() {
    for (b, m_eph) in [(4usize, 64usize), (8, 256), (16, 1024)] {
        for n in [1usize, 7, 64, 1000] {
            let rt = Runtime::new(
                Machine::new(
                    PmConfig::parallel(2, 1 << 21)
                        .with_block_size(b)
                        .with_ephemeral_words(m_eph),
                ),
                SchedConfig::with_slots(1 << 12),
            );
            let ps = PrefixSum::new(rt.machine(), n);
            let data = rand_data(n as u64 ^ b as u64, n, 1 << 20);
            ps.load_input(rt.machine(), &data);
            let rep = rt.run_or_recover(&ps.pcomp());
            assert!(rep.completed(), "B={b} n={n}");
            assert_eq!(
                ps.read_output(rt.machine()),
                prefix_sum_seq(&data),
                "B={b} n={n}"
            );
        }
    }
}

#[test]
fn merge_matches_oracle_randomized() {
    for seed in 0..6 {
        let (la, lb) = (500 + seed as usize * 37, 800 - seed as usize * 41);
        let rt = Runtime::new(
            Machine::new(PmConfig::parallel(3, 1 << 21)),
            SchedConfig::with_slots(1 << 12),
        );
        let mg = Merge::new(rt.machine(), la, lb);
        let mut a = rand_data(seed, la, 5_000);
        let mut b = rand_data(seed + 100, lb, 5_000);
        a.sort_unstable();
        b.sort_unstable();
        mg.load_inputs(rt.machine(), &a, &b);
        let rep = rt.run_or_recover(&mg.pcomp());
        assert!(rep.completed(), "seed {seed}");
        assert_eq!(
            mg.read_output(rt.machine()),
            merge_seq(&a, &b),
            "seed {seed}"
        );
    }
}

#[test]
fn both_sorts_agree_with_std_sort_under_faults() {
    let n = 1 << 10;
    for seed in 0..3 {
        let input = rand_data(seed, n, 1 << 30);
        let mut expect = input.clone();
        expect.sort_unstable();

        let rt = Runtime::new(
            Machine::new(
                PmConfig::parallel(2, 1 << 22)
                    .with_ephemeral_words(128)
                    .with_fault(FaultConfig::soft(0.002, seed)),
            ),
            SchedConfig::with_slots(1 << 13),
        );
        let ms = MergeSort::new(rt.machine(), n);
        ms.load_input(rt.machine(), &input);
        assert!(rt.run_or_recover(&ms.pcomp()).completed());
        assert_eq!(
            ms.read_output(rt.machine()),
            expect,
            "mergesort seed {seed}"
        );

        let rt2 = Runtime::new(
            Machine::with_pool_words(
                PmConfig::parallel(2, 1 << 23)
                    .with_ephemeral_words(128)
                    .with_fault(FaultConfig::soft(0.002, seed + 50)),
                samplesort_pool_words(n),
            ),
            SchedConfig::with_slots(1 << 14),
        );
        let ss = SampleSort::new(rt2.machine(), n);
        ss.load_input(rt2.machine(), &input);
        assert!(rt2.run_or_recover(&ss.pcomp()).completed());
        assert_eq!(
            ss.read_output(rt2.machine()),
            expect,
            "samplesort seed {seed}"
        );
    }
}

#[test]
fn sort_adversarial_inputs() {
    // Already sorted, reverse sorted, all equal, organ pipe.
    let n = 700;
    let inputs: Vec<Vec<u64>> = vec![
        (0..n as u64).collect(),
        (0..n as u64).rev().collect(),
        vec![7; n],
        (0..n as u64)
            .map(|i| if i < n as u64 / 2 { i } else { n as u64 - i })
            .collect(),
    ];
    for (k, input) in inputs.iter().enumerate() {
        let rt = Runtime::new(
            Machine::with_pool_words(
                PmConfig::parallel(2, 1 << 23).with_ephemeral_words(64),
                samplesort_pool_words(n),
            ),
            SchedConfig::with_slots(1 << 14),
        );
        let ss = SampleSort::new(rt.machine(), n);
        ss.load_input(rt.machine(), input);
        let rep = rt.run_or_recover(&ss.pcomp());
        assert!(rep.completed(), "input {k}");
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(ss.read_output(rt.machine()), expect, "input {k}");
    }
}

#[test]
fn matmul_matches_oracle_with_hard_fault() {
    let n = 20;
    let m_eph = 128;
    let a = rand_data(1, n * n, 1000);
    let b = rand_data(2, n * n, 1000);
    // The scheduled death fires at proc 2's 700th persistent access,
    // but whether proc 2 *reaches* it before the run completes depends
    // on OS scheduling — a starved thread may never steal that much.
    // The oracle must hold on every attempt; retry until an attempt
    // actually kills the processor mid-run.
    for attempt in 0..10 {
        let rt = Runtime::new(
            Machine::with_pool_words(
                PmConfig::parallel(3, 1 << 23)
                    .with_ephemeral_words(m_eph)
                    .with_fault(FaultConfig::none().with_scheduled_hard_fault(2, 700)),
                matmul_pool_words(n, m_eph),
            ),
            SchedConfig::with_slots(1 << 13),
        );
        let mm = MatMul::new(rt.machine(), n);
        mm.load_inputs(rt.machine(), &a, &b);
        let rep = rt.run_or_recover(&mm.pcomp());
        assert!(rep.completed());
        assert_eq!(mm.read_output(rt.machine()), matmul_seq(&a, &b, n));
        if rep.dead_procs() == 1 {
            return;
        }
        eprintln!("attempt {attempt}: run finished before proc 2's scheduled death; retrying");
    }
    panic!("the scheduled hard fault never fired in 10 attempts");
}

#[test]
fn algorithms_compose_on_one_machine() {
    // Prefix-sum the output of a sort — two algorithm instances sharing
    // one session and one scheduler run each.
    let n = 512;
    let rt = Runtime::new(
        Machine::new(PmConfig::parallel(2, 1 << 22).with_ephemeral_words(128)),
        SchedConfig::with_slots(1 << 13),
    );
    let ms = MergeSort::new(rt.machine(), n);
    let input = rand_data(5, n, 100);
    ms.load_input(rt.machine(), &input);
    assert!(rt.run_or_recover(&ms.pcomp()).completed());
    let sorted = ms.read_output(rt.machine());

    let ps = PrefixSum::new(rt.machine(), n);
    ps.load_input(rt.machine(), &sorted);
    assert!(rt.run_or_recover(&ps.pcomp()).completed());
    assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&sorted));
}

#[test]
fn registered_forms_of_all_four_algorithms_complete_on_one_machine() {
    // The typed-DSL pcomps of every §7 algorithm share one machine: the
    // registry allocates disjoint ids per capsule name, so nothing
    // collides (the hazard the old manual id bases carried).
    let n = 256;
    let rt = Runtime::new(
        Machine::with_pool_words(
            PmConfig::parallel(2, 1 << 23).with_ephemeral_words(64),
            samplesort_pool_words(n) + matmul_pool_words(16, 64),
        ),
        SchedConfig::with_slots(1 << 14),
    );
    let data = rand_data(9, n, 10_000);
    let mut expect = data.clone();
    expect.sort_unstable();

    let ps = PrefixSum::new(rt.machine(), n);
    ps.load_input(rt.machine(), &data);
    assert!(rt.run_or_recover(&ps.pcomp()).completed());
    assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&data));

    let ms = MergeSort::new(rt.machine(), n);
    ms.load_input(rt.machine(), &data);
    assert!(rt.run_or_recover(&ms.pcomp()).completed());
    assert_eq!(ms.read_output(rt.machine()), expect);

    let ss = SampleSort::new(rt.machine(), n);
    ss.load_input(rt.machine(), &data);
    assert!(rt.run_or_recover(&ss.pcomp()).completed());
    assert_eq!(ss.read_output(rt.machine()), expect);

    let mm = MatMul::new(rt.machine(), 12);
    let a = rand_data(3, 144, 100);
    let b = rand_data(4, 144, 100);
    mm.load_inputs(rt.machine(), &a, &b);
    assert!(rt.run_or_recover(&mm.pcomp()).completed());
    assert_eq!(mm.read_output(rt.machine()), matmul_seq(&a, &b, 12));
}
