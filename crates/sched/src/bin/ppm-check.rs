//! `ppm-check` — exhaustive interleaving explorer for the PPM protocol
//! models.
//!
//! Runs the bounded BFS explorer over the abstract state machines in
//! `ppm_sched::model` (Figure 3 steal/adoption, the cross-process lease
//! oracle, the checkpoint quiesce barrier) and exits nonzero on any
//! invariant violation, writing the minimal counterexample trace to a
//! `.trace` file for CI artifact upload.
//!
//! ```text
//! ppm-check [--model steal|lease|quiesce|all] [--depth N]
//!           [--max-states N] [--budget-secs S] [--out DIR] [--mutate]
//! ```
//!
//! `--mutate` runs the deliberately broken protocol variants instead and
//! *expects* violations (exit 1 if any mutant survives) — the
//! self-test that proves the explorer can actually catch these bugs.

use std::path::PathBuf;
use std::time::Duration;

use ppm_check::{Explorer, ExplorerConfig, Model, Report};
use ppm_sched::model::{LeaseModel, QuiesceModel, StealModel, StealMutation};

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
        depth: 40,
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
                    "ppm-check [--model steal|lease|quiesce|all] [--depth N] \
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
            eprintln!("[{name}] INVARIANT VIOLATION\n{rendered}");
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
    let run_steal = args.model == "steal" || args.model == "all";
    let run_lease = args.model == "lease" || args.model == "all";
    let run_quiesce = args.model == "quiesce" || args.model == "all";
    if !(run_steal || run_lease || run_quiesce) {
        eprintln!("unknown --model {} (steal|lease|quiesce|all)", args.model);
        std::process::exit(2);
    }

    let mut ok = true;
    if args.mutate {
        if run_steal {
            ok &= check(
                "steal-drop-lemma-a10",
                &StealModel::mutated(StealMutation::DropLemmaA10),
                &args,
                true,
            );
            ok &= check(
                "steal-adopt-live-local",
                &StealModel::mutated(StealMutation::AdoptLiveLocal),
                &args,
                true,
            );
            ok &= check(
                "steal-claim-before-seat",
                &StealModel::mutated(StealMutation::ClaimBeforeSeat),
                &args,
                true,
            );
            ok &= check(
                "steal-done-early",
                &StealModel::mutated(StealMutation::DoneEarly),
                &args,
                true,
            );
        }
        if run_lease {
            ok &= check("lease-drop-tombstone", &LeaseModel::mutated(), &args, true);
        }
        if run_quiesce {
            ok &= check("quiesce-skip-busy", &QuiesceModel::mutated(), &args, true);
        }
    } else {
        if run_steal {
            ok &= check("steal", &StealModel::default(), &args, false);
            ok &= check("steal-injector", &StealModel::with_injector(), &args, false);
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
