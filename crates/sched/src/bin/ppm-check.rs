//! `ppm-check` — exhaustive interleaving explorer for the PPM protocols.
//!
//! Runs the bounded BFS explorer over the models in `ppm_sched::model`:
//! the real Figure 3 scheduler stepped through its simulator (`engine`:
//! the `engine-fork` scope, a `Runtime` session whose root forks three
//! leaves, and the `engine-service` scope, two published jobs on a
//! 2-slot ring), the cross-process lease oracle and the checkpoint
//! quiesce barrier. It exits nonzero on any violation — safety, terminal
//! or progress — and on a faithful run truncated by a bound (its progress
//! is unchecked), writing the minimal counterexample trace to a `.trace`
//! file for CI artifact upload.
//!
//! ```text
//! ppm-check [--model engine|lease|quiesce|all] [--depth N]
//!           [--max-states N] [--budget-secs S] [--out DIR] [--mutate]
//! ```
//!
//! `--mutate` runs the deliberately broken protocol variants instead and
//! *expects* violations (exit 1 if any mutant survives) — the
//! self-test that proves the explorer can actually catch these bugs.

use std::path::PathBuf;
use std::time::Duration;

use ppm_check::{Explorer, ExplorerConfig, Model, Report};
use ppm_sched::model::{EngineModel, LeaseModel, Mutant, QuiesceModel};

/// Leaves of the `engine-fork` scope's root: four, so that its three
/// forks need more pool words than a processor has unless joins free
/// their subtrees (see `ppm_sched::model::engine`'s scopes).
const FORK_LEAVES: usize = 4;

struct Args {
    model: String,
    depth: usize,
    max_states: usize,
    budget_secs: Option<u64>,
    out: PathBuf,
    mutate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        model: "all".to_string(),
        depth: 100,
        max_states: 10_000_000,
        budget_secs: None,
        out: PathBuf::from("check_out"),
        mutate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--model" => args.model = val("--model"),
            "--depth" => args.depth = val("--depth").parse().expect("--depth: integer"),
            "--max-states" => {
                args.max_states = val("--max-states").parse().expect("--max-states: integer")
            }
            "--budget-secs" => {
                args.budget_secs = Some(val("--budget-secs").parse().expect("--budget-secs: secs"))
            }
            "--out" => args.out = PathBuf::from(val("--out")),
            "--mutate" => args.mutate = true,
            "--help" | "-h" => {
                eprintln!(
                    "ppm-check [--model engine|lease|quiesce|all] [--depth N] \
                     [--max-states N] [--budget-secs S] [--out DIR] [--mutate]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// Runs one model; returns whether the outcome matches expectations
/// (clean for faithful models, violated for mutants) and writes the
/// counterexample trace if there is one.
fn check<M: Model>(name: &str, model: &M, args: &Args, expect_violation: bool) -> bool {
    let mut cfg = ExplorerConfig::depth(args.depth).with_max_states(args.max_states);
    if let Some(s) = args.budget_secs {
        cfg = cfg.with_budget(Duration::from_secs(s));
    }
    let report: Report<M> = Explorer::new(cfg).run(model);
    println!("[{name}] {}", report.summary());
    match (&report.violation, expect_violation) {
        (None, false) if report.truncated => {
            eprintln!("[{name}] TRUNCATED: raise --depth or --max-states to check progress");
            false
        }
        (None, false) => true,
        (Some(cex), true) => {
            println!(
                "[{name}] mutant caught as expected ({} steps): {}",
                cex.trace.len(),
                cex.reason
            );
            true
        }
        (Some(cex), false) => {
            let rendered = cex.render();
            eprintln!("[{name}] VIOLATION\n{rendered}");
            std::fs::create_dir_all(&args.out).ok();
            let path = args.out.join(format!("{name}.trace"));
            if std::fs::write(&path, &rendered).is_ok() {
                eprintln!("[{name}] counterexample written to {}", path.display());
            }
            false
        }
        (None, true) => {
            eprintln!("[{name}] MUTANT SURVIVED: the explorer failed to catch a seeded bug");
            false
        }
    }
}

fn main() {
    let args = parse_args();
    let run_engine = args.model == "engine" || args.model == "all";
    let run_lease = args.model == "lease" || args.model == "all";
    let run_quiesce = args.model == "quiesce" || args.model == "all";
    if !(run_engine || run_lease || run_quiesce) {
        eprintln!("unknown --model {} (engine|lease|quiesce|all)", args.model);
        std::process::exit(2);
    }

    let fork = EngineModel::fork(FORK_LEAVES);
    let mut ok = true;
    if args.mutate {
        if run_engine {
            for mutant in Mutant::ALL {
                let name = format!("engine-{}", mutant.name());
                ok &= check(&name, &fork.mutated(mutant), &args, true);
            }
        }
        if run_lease {
            ok &= check("lease-drop-tombstone", &LeaseModel::mutated(), &args, true);
        }
        if run_quiesce {
            ok &= check("quiesce-skip-busy", &QuiesceModel::mutated(), &args, true);
        }
    } else {
        if run_engine {
            ok &= check("engine-fork", &fork, &args, false);
            ok &= check("engine-service", &EngineModel::service(), &args, false);
        }
        if run_lease {
            ok &= check("lease", &LeaseModel::default(), &args, false);
        }
        if run_quiesce {
            ok &= check("quiesce", &QuiesceModel::default(), &args, false);
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}
