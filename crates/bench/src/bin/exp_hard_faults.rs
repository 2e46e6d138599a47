//! E5 — Theorem 6.2 under hard faults: processors dying mid-run reduce
//! `P_A` but never lose work.
//!
//! Kills k of P processors at staggered points during a fork-join
//! computation. Reports completion, work overhead, and the load absorbed
//! by the survivors. The paper: "a hard fault in our scheduler is
//! effectively the same as forking a thread onto the bottom of a
//! work-queue and then finishing" — i.e. cheap.

use ppm_bench::{banner, f2, fanout, header, model_cost_sched, row, s, BenchReport};
use ppm_core::Machine;
use ppm_pm::{FaultConfig, PmConfig};
use ppm_sched::{Runtime, SessionReport};

/// Runs the 8-word-leaf fan-out of `n` leaves on `p` processors; returns
/// the session's report and whether every leaf's words were written.
fn run(p: usize, n: usize, fault: FaultConfig) -> (SessionReport, bool, String) {
    let m = Machine::new(PmConfig::parallel(p, 1 << 23).with_fault(fault));
    let r = m.alloc_region(n * 8);
    let rt = Runtime::new(m, model_cost_sched(1 << 12));
    let rep = rt.run_or_recover(&fanout(r, n, 8));
    let verified = (0..n * 8).all(|i| rt.machine().mem().load(r.at(i)) == 1);
    (rep, verified, rt.machine().obs().registry().render())
}

const W: [usize; 6] = [4, 6, 10, 10, 10, 10];

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E5 (Theorem 6.2, hard faults)",
        "processors dying mid-computation",
        "completion with P_A < P; hard faults cost like an extra fork each",
    );

    let n = cli.n(192);
    let p = cli.procs(4);

    header(&["P", "dead", "complete", "W_f", "T", "verified"], &W);

    // Baseline.
    let w_baseline = {
        let (rep, verified, _) = run(p, n, FaultConfig::none());
        assert!(rep.completed() && verified);
        row(
            &[
                s(p),
                s(0),
                s(rep.completed()),
                s(rep.stats().total_work()),
                s(rep.stats().time()),
                s(true),
            ],
            &W,
        );
        rep.stats().total_work()
    };

    // Kill 1..P-1 processors at staggered access counts.
    for dead in 1..p {
        let mut cfg = FaultConfig::none();
        for k in 0..dead {
            cfg = cfg.with_scheduled_hard_fault(k + 1, 200 + 350 * k as u64);
        }
        let (rep, verified, _) = run(p, n, cfg);
        row(
            &[
                s(p),
                s(dead),
                s(rep.completed()),
                s(rep.stats().total_work()),
                s(rep.stats().time()),
                s(verified),
            ],
            &W,
        );
        assert!(rep.completed() && verified, "dead={dead}");
        // A scheduled death may not fire if the run finishes first; at
        // most `dead` processors die, and correctness holds regardless.
        assert!(rep.dead_procs() <= dead);
    }

    // Random death points, many seeds: overhead distribution. Needs a
    // survivor, so it only makes sense with at least two processors.
    if p < 2 {
        println!("\n(single-death sweep skipped: needs --procs >= 2)");
        return;
    }
    println!(
        "\n-- randomized single-death sweep (P={p}, {} seeds): work overhead --",
        cli.seeds(12)
    );
    let mut ratios = Vec::new();
    let mut last_scrape = String::new();
    for seed in 0..cli.seeds(12) {
        let at = 100 + (seed * 997) % 2000;
        let victim = 1 + (seed as usize % (p - 1));
        let fault = FaultConfig::none().with_scheduled_hard_fault(victim, at);
        let (rep, verified, scrape) = run(p, n, fault);
        assert!(rep.completed() && verified, "seed {seed}");
        ratios.push(rep.stats().total_work() as f64 / w_baseline as f64);
        last_scrape = scrape;
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    println!("mean W_f/W_baseline = {}, max = {}", f2(mean), f2(max));
    let mut report = BenchReport::new("exp_hard_faults");
    report
        .note("procs", p)
        .note("n", n)
        .metric("death_overhead_mean_x", mean)
        .metric("death_overhead_max_x", max);
    report.embed_scrape(&last_scrape);
    report.emit();

    println!("\nshape check: every configuration with at least one survivor");
    println!("completes with all tasks exactly once; work overhead of a death is");
    println!("a small constant factor (the steal + resume of the orphaned thread).");
}
