//! E7 — Theorem 7.2: merging in O(n/B) work, O(log n) depth, O(log n)
//! maximum capsule work.
//!
//! Sweeps `n`, reporting work per n/B (constant up to the lower-order
//! binary-search term) and C against log₂ n (the dual-binary-search
//! capsule), plus verified faulty runs.

use ppm_algs::{merge_seq, Merge};
use ppm_bench::{banner, f2, header, model_cost_sched, row, s, BenchReport};
use ppm_core::Machine;
use ppm_pm::{FaultConfig, PmConfig};
use ppm_sched::Runtime;

const W: [usize; 8] = [8, 4, 7, 10, 9, 5, 8, 8];

/// Per-processor pool: sized to hold every frame of the run as if no
/// join freed any — about 55 words per input block, 450k words at the
/// largest case.
const POOL_WORDS: usize = 1 << 20;

fn sorted(seed: u64, n: usize) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9).wrapping_add(seed)) % 1_000_000)
        .collect();
    v.sort_unstable();
    v
}

fn run_case(n: usize, b: usize, f: f64, scrape: &mut String) -> (f64, u64) {
    let cfg = if f == 0.0 {
        FaultConfig::none()
    } else {
        FaultConfig::soft(f, 17)
    };
    let m = Machine::with_pool_words(
        PmConfig::parallel(1, 1 << 24)
            .with_block_size(b)
            .with_fault(cfg),
        POOL_WORDS,
    );
    let mg = Merge::new(&m, n, n);
    let (a, bb) = (sorted(1, n), sorted(2, n));
    mg.load_inputs(&m, &a, &bb);
    let rt = Runtime::new(m, model_cost_sched(1 << 15));
    let rep = rt.run_or_recover(&mg.pcomp());
    assert!(rep.completed());
    assert_eq!(mg.read_output(rt.machine()), merge_seq(&a, &bb), "n={n}");
    let st = rep.stats();
    let total = 2 * n;
    row(
        &[
            s(total),
            s(b),
            s(f),
            s(st.total_work()),
            f2(st.total_work() as f64 / (total as f64 / b as f64)),
            s(st.max_capsule_work),
            f2((total as f64).log2()),
            s(st.soft_faults),
        ],
        &W,
    );
    *scrape = rt.machine().obs().registry().render();
    (
        st.total_work() as f64 / (total as f64 / b as f64),
        st.max_capsule_work,
    )
}

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E7 (Theorem 7.2)",
        "parallel merging by dual binary search",
        "O(n/B) work, O(log n) depth, O(log n) maximum capsule work",
    );
    header(
        &["n", "B", "f", "W_f", "W/(n/B)", "C", "log2 n", "faults"],
        &W,
    );

    let mut report = BenchReport::new("exp_t72_merge");
    let mut last_scrape = String::new();
    for n in cli.cap_sizes(&[1 << 9, 1 << 11, 1 << 13, 1 << 15]) {
        let (per_nb, c) = run_case(n, 8, 0.0, &mut last_scrape);
        report
            .note("n", 2 * n)
            .metric("work_per_nb_x", per_nb)
            .metric("max_capsule_work_words", c as f64);
    }
    println!();
    for b in [4usize, 16] {
        run_case(1 << 13, b, 0.0, &mut last_scrape);
    }
    println!();
    run_case(1 << 12, 8, 0.002, &mut last_scrape);
    report.embed_scrape(&last_scrape);
    report.emit();

    println!("\nshape check: W/(n/B) is a near-constant (slowly decaying lower-order");
    println!("search term), and C tracks ~2·log2 n + O(1) — the binary-search capsule");
    println!("— exactly Theorem 7.2's profile.");
}
