//! E9 — Theorem 7.4: matrix multiply in O(n³/(B√M)) work with O(M^{3/2})
//! maximum capsule work.
//!
//! Sweeps n at fixed M (work should scale as n³) and M at fixed n (work
//! should scale as 1/√M), reporting the normalized constant and C.

use ppm_algs::matmul::matmul_pool_words;
use ppm_algs::{matmul_seq, MatMul};
use ppm_bench::{banner, f2, header, model_cost_sched, row, s, BenchReport};
use ppm_core::Machine;
use ppm_pm::{FaultConfig, PmConfig};
use ppm_sched::Runtime;

const W: [usize; 7] = [5, 6, 7, 11, 13, 7, 8];

fn run_case(n: usize, m_eph: usize, f: f64, verify: bool, scrape: &mut String) -> f64 {
    let cfg = if f == 0.0 {
        FaultConfig::none()
    } else {
        FaultConfig::soft(f, 13)
    };
    let b = 8;
    let machine = Machine::with_pool_words(
        PmConfig::parallel(1, 1 << 25)
            .with_block_size(b)
            .with_ephemeral_words(m_eph)
            .with_fault(cfg),
        matmul_pool_words(n, m_eph),
    );
    let mm = MatMul::new(&machine, n);
    let a: Vec<u64> = (0..(n * n) as u64).map(|i| i % 17).collect();
    let bb: Vec<u64> = (0..(n * n) as u64).map(|i| (3 * i) % 13).collect();
    mm.load_inputs(&machine, &a, &bb);
    let rt = Runtime::new(machine, model_cost_sched(1 << 14));
    let rep = rt.run_or_recover(&mm.pcomp());
    assert!(rep.completed());
    if verify {
        assert_eq!(
            mm.read_output(rt.machine()),
            matmul_seq(&a, &bb, n),
            "n={n}"
        );
    }
    let st = rep.stats();
    let model = (n as f64).powi(3) / (b as f64 * (m_eph as f64).sqrt());
    row(
        &[
            s(n),
            s(m_eph),
            s(f),
            s(st.total_work()),
            f2(st.total_work() as f64 / model),
            s(st.max_capsule_work),
            s(st.soft_faults),
        ],
        &W,
    );
    *scrape = rt.machine().obs().registry().render();
    st.total_work() as f64 / model
}

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E9 (Theorem 7.4)",
        "8-way recursive matrix multiplication",
        "O(n^3/(B sqrt(M))) work, O(M^{3/2}) maximum capsule work",
    );
    header(&["n", "M", "f", "W_f", "W/model", "C", "faults"], &W);

    // n sweep at fixed M.
    let mut report = BenchReport::new("exp_t74_matmul");
    let mut last_scrape = String::new();
    for n in cli.cap_sizes(&[16usize, 32, 64, 128]) {
        let per_model = run_case(n, 64, 0.0, n <= 64, &mut last_scrape);
        report.note("n", n).metric("work_per_model_x", per_model);
    }
    println!();
    // M sweep at fixed n: work should drop like 1/sqrt(M).
    for m_eph in [64usize, 256, 1024] {
        run_case(64, m_eph, 0.0, false, &mut last_scrape);
    }
    println!();
    run_case(32, 64, 0.002, true, &mut last_scrape);
    report.embed_scrape(&last_scrape);
    report.emit();

    println!("\nshape check: W/model (model = n^3/(B*sqrt(M))) is a stable constant");
    println!("across 8x of n — 512x of n^3 — confirming the cubic work term. The");
    println!("M sweep shows work falling *at least* as fast as 1/sqrt(M); below the");
    println!("tall-cache regime (M < B^2-ish, here M=64 with B=8) per-row partial-");
    println!("block transfers add a finite-size surcharge that vanishes as M grows,");
    println!("matching the paper's note that the algorithm assumes M > B^2.");
}
