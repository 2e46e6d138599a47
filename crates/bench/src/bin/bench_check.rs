//! Bench-regression gate: compares the `BENCH_*.json` reports of the
//! current run against the checked-in baseline.
//!
//! ```text
//! cargo run -p ppm-bench --bin bench_check -- \
//!     --dir=bench_out --baseline=bench/baseline.json [--update] [--trend]
//! ```
//!
//! The baseline is itself a [`ppm_bench::BenchReport`]-formatted file.
//! Its `metrics` hold each gated key, `"<experiment>.<metric>"`, at the
//! value that was measured — no slack is folded in. Its `meta` holds a
//! tolerance, `"tol.<key>"`, for every key that is not deterministic.
//! A key without one has tolerance 0: the model-cost counts of the
//! P = 1 and sequential-simulation experiments repeat to the digit, so
//! any movement, up or down, is a change to the paper's numbers that a
//! PR has to own by refreshing the baseline. Keys measured on
//! OS-scheduled threads carry a stated ratio instead. The gate fails
//! when `|current − baseline| > tol · baseline`, or when a baselined
//! metric is missing from the current run — an experiment stopped
//! emitting. Wall-clock metrics are not gated here; `bench/e2e`
//! measures them with raw samples.
//!
//! `--update` rewrites the baseline's values from the current reports,
//! keeping the tolerances the old file states (a key new to the
//! baseline starts at 0). The scrape-embedded `obs.*` series are
//! excluded — they are run-to-run nondeterministic observability
//! snapshots, not benchmark results.
//!
//! `--trend` prints a GitHub-flavored markdown table of current-vs-
//! baseline deltas instead of gating — CI appends it to the job summary
//! (`>> "$GITHUB_STEP_SUMMARY"`) so every run shows where each metric
//! sits inside its tolerance. Trend mode always exits 0.

use std::path::PathBuf;
use std::process::exit;

use ppm_bench::BenchReport;

/// The tolerance `baseline` states for `key`, as a ratio of the
/// baselined value; 0 when it states none.
fn tolerance(baseline: &BenchReport, key: &str) -> f64 {
    baseline
        .meta
        .get(&format!("tol.{key}"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

struct Args {
    dir: PathBuf,
    baseline: PathBuf,
    update: bool,
    trend: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: PathBuf::from("."),
        baseline: PathBuf::from("bench/baseline.json"),
        update: false,
        trend: false,
    };
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--dir=") {
            args.dir = PathBuf::from(v);
        } else if let Some(v) = arg.strip_prefix("--baseline=") {
            args.baseline = PathBuf::from(v);
        } else if arg == "--update" {
            args.update = true;
        } else if arg == "--trend" {
            args.trend = true;
        } else {
            eprintln!("unknown argument `{arg}`; accepted: --dir= --baseline= --update --trend");
            exit(2);
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let reports = BenchReport::load_dir(&args.dir).unwrap_or_else(|e| {
        eprintln!("cannot read bench dir {}: {e}", args.dir.display());
        exit(2);
    });
    if reports.is_empty() {
        eprintln!(
            "no BENCH_*.json reports under {} — did the experiments run with \
             PPM_BENCH_DIR set?",
            args.dir.display()
        );
        exit(2);
    }
    println!(
        "bench_check: {} report(s) under {}",
        reports.len(),
        args.dir.display()
    );

    let old = std::fs::read_to_string(&args.baseline)
        .ok()
        .and_then(|text| BenchReport::parse(&text));

    if args.update {
        let mut baseline = BenchReport::new("baseline");
        for rep in &reports {
            for (k, v) in &rep.metrics {
                // Scrape-embedded series (`obs.*`) are observability
                // snapshots riding along in the artifact, not benchmark
                // results: steal counts, per-proc work splits and
                // histogram buckets vary run to run under parallel
                // scheduling, so baselining them would make the gate
                // flaky. They stay in BENCH_*.json, just ungated.
                if k.starts_with("obs.") {
                    continue;
                }
                let key = format!("{}.{k}", rep.name);
                let tol = old.as_ref().map_or(0.0, |o| tolerance(o, &key));
                if tol > 0.0 {
                    baseline.note(format!("tol.{key}"), tol);
                }
                baseline.metric(key, *v);
            }
        }
        if let Some(parent) = args.baseline.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&args.baseline, baseline.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", args.baseline.display());
            exit(2);
        });
        println!(
            "baseline rewritten from current reports (raw values, stated tolerances kept): {}",
            args.baseline.display()
        );
        return;
    }

    let baseline = old.unwrap_or_else(|| {
        eprintln!(
            "baseline {} is missing or not a bench report",
            args.baseline.display()
        );
        exit(2);
    });
    let current = |key: &str| -> Option<f64> {
        let (exp, metric) = key.split_once('.')?;
        reports
            .iter()
            .find(|r| r.name == exp)
            .and_then(|r| r.metrics.get(metric).copied())
    };

    if args.trend {
        // Markdown for the CI job summary: where each baselined metric
        // sits inside its tolerance. Never fails — the gating run below
        // is separate.
        println!("### Bench trend (gate: within tolerance of the baseline)\n");
        println!("| metric | current | baseline | delta | tolerance |");
        println!("|:---|---:|---:|---:|---:|");
        for (key, base) in &baseline.metrics {
            let tol = 100.0 * tolerance(&baseline, key);
            match current(key) {
                None => println!("| `{key}` | — | {base:.3} | missing | ±{tol:.0}% |"),
                Some(cur) => {
                    let delta = if *base > 0.0 {
                        100.0 * (cur - base) / base
                    } else {
                        0.0
                    };
                    println!("| `{key}` | {cur:.3} | {base:.3} | {delta:+.1}% | ±{tol:.0}% |");
                }
            }
        }
        let extra: usize = reports
            .iter()
            .map(|r| {
                r.metrics
                    .keys()
                    .filter(|k| !baseline.metrics.contains_key(&format!("{}.{k}", r.name)))
                    .count()
            })
            .sum();
        println!("\n{extra} unbaselined metric(s) also emitted (see BENCH_*.json artifacts).");
        return;
    }

    let mut failures = 0usize;
    println!(
        "{:<44} {:>14} {:>14} {:>6}  verdict",
        "metric", "current", "baseline", "tol"
    );
    for (key, base) in &baseline.metrics {
        let tol = tolerance(&baseline, key);
        match current(key) {
            None => {
                failures += 1;
                println!("{key:<44} {:>14} {base:>14.6} {tol:>6}  MISSING", "-");
            }
            Some(cur) => {
                let ok = (cur - base).abs() <= tol * base.abs();
                if !ok {
                    failures += 1;
                }
                println!(
                    "{key:<44} {cur:>14.6} {base:>14.6} {tol:>6}  {}",
                    if ok { "ok" } else { "MOVED" }
                );
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "\nbench_check FAILED: {failures} metric(s) moved past their tolerance (or went missing)"
        );
        exit(1);
    }
    println!(
        "\nbench_check passed: all {} baselined metric(s) within tolerance",
        baseline.metrics.len()
    );
}
