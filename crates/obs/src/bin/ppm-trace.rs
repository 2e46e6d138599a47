//! `ppm-trace` — the causal-trace profiler.
//!
//! Ingests one or many trace streams written by a run (the
//! coordinator's `<trace>.spans.jsonl`, per-shard
//! `<trace>.shard<k>.spans.jsonl` siblings — or a `<trace>.manifest`
//! naming the whole family), reconstructs the capsule DAG across process
//! boundaries, and reports the paper's cost quantities as observed:
//! work `W`, depth `D`, parallelism `W/D`, per-phase / per-shard / per-
//! capsule breakdowns, the critical path, and fault-wasted work measured
//! against the exactly-once commit set.
//!
//! Besides the text report (stdout) it writes:
//!
//! * `<out-dir>/<name>.folded` — folded stacks for flamegraph tooling;
//! * `<out-dir>/TRACE_<name>.json` — the `ppm-bench` restricted-JSON
//!   report shape (name `trace_<name>`), which `bench_check` loads and
//!   gates exactly like a `BENCH_*.json`.
//!
//! Exit status: `0` on success, `1` under `--strict` when the trace is
//! unusable (no spans) or the DAG is incomplete (unresolved parents),
//! `2` on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use ppm_obs::{folded_stacks, Analysis, TraceSet};

const USAGE: &str = "usage: ppm-trace [options] <spans.jsonl | trace.manifest>...
  --name=<n>     experiment name for output files (default: trace)
  --title=<t>    report title (default: the name)
  --out-dir=<d>  directory for TRACE_<name>.json and <name>.folded (default: .)
  --report-only  print the report, write no files
  --strict       exit 1 on an empty trace or an incomplete DAG";

fn main() -> ExitCode {
    let mut name = String::from("trace");
    let mut title: Option<String> = None;
    let mut out_dir = PathBuf::from(".");
    let mut report_only = false;
    let mut strict = false;
    let mut inputs: Vec<PathBuf> = Vec::new();

    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--name=") {
            name = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--title=") {
            title = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--out-dir=") {
            out_dir = PathBuf::from(v);
        } else if arg == "--report-only" {
            report_only = true;
        } else if arg == "--strict" {
            strict = true;
        } else if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        } else if arg.starts_with("--") {
            eprintln!("ppm-trace: unknown option {arg}\n{USAGE}");
            return ExitCode::from(2);
        } else {
            inputs.push(PathBuf::from(arg));
        }
    }
    if inputs.is_empty() {
        eprintln!("ppm-trace: no input files\n{USAGE}");
        return ExitCode::from(2);
    }

    // Manifests expand to their (existing) members; plain files are taken
    // as-is so a partial collection still profiles.
    let mut files: Vec<PathBuf> = Vec::new();
    for input in &inputs {
        if input.extension().is_some_and(|e| e == "manifest") {
            match ppm_obs::expand_manifest(input) {
                Ok(members) => files.extend(members),
                Err(e) => {
                    eprintln!("ppm-trace: cannot read manifest {}: {e}", input.display());
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(input.clone());
        }
    }

    let mut set = TraceSet::default();
    for f in &files {
        if let Err(e) = set.ingest_file(f) {
            eprintln!("ppm-trace: cannot read {}: {e}", f.display());
            return ExitCode::from(2);
        }
    }

    let analysis = set.analyze();
    let title = title.unwrap_or_else(|| name.clone());
    print!("{}", analysis.render_report(&title));

    let mut failed = false;
    if analysis.spans_total == 0 {
        eprintln!(
            "ppm-trace: no spans in {} file(s) — was PPM_TRACE_FILE set for the run?",
            files.len()
        );
        failed = true;
    }
    if analysis.unresolved_parents > 0 {
        eprintln!(
            "ppm-trace: DAG incomplete: {} unresolved parent(s) — pass every shard's \
             spans file (or the run's .manifest)",
            analysis.unresolved_parents
        );
        failed = true;
    }

    if !report_only {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("ppm-trace: cannot create {}: {e}", out_dir.display());
            return ExitCode::from(2);
        }
        let folded = out_dir.join(format!("{name}.folded"));
        if let Err(e) = std::fs::write(&folded, folded_stacks(&set)) {
            eprintln!("ppm-trace: cannot write {}: {e}", folded.display());
            return ExitCode::from(2);
        }
        let json = out_dir.join(format!("TRACE_{name}.json"));
        if let Err(e) = std::fs::write(&json, trace_json(&name, &analysis, files.len())) {
            eprintln!("ppm-trace: cannot write {}: {e}", json.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "ppm-trace: wrote {} and {}",
            folded.display(),
            json.display()
        );
    }

    if strict && failed {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Renders the analysis as a `ppm-bench` report (`{name, meta, metrics}`
/// in the restricted JSON subset `BenchReport::parse` reads). Hand-rolled
/// here because the dependency points the other way: `ppm-bench` links
/// this crate.
fn trace_json(name: &str, a: &Analysis, files: usize) -> String {
    let metrics: &[(&str, f64)] = &[
        ("work_units", a.work as f64),
        ("depth_units", a.depth as f64),
        ("parallelism", a.parallelism),
        ("spans_total", a.spans_total as f64),
        ("spans_completed", a.completed as f64),
        ("spans_interrupted", a.interrupted as f64),
        ("roots", a.roots as f64),
        ("unresolved_parents", a.unresolved_parents as f64),
        ("useful_work_units", a.useful_work as f64),
        ("wasted_work_units", a.wasted_work as f64),
        ("wasted_ratio", a.wasted_ratio),
    ];
    let body = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", fmt_f64(*v)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"name\": \"trace_{name}\",\n  \"meta\": {{\"tool\": \"ppm-trace\", \
         \"files\": \"{files}\"}},\n  \"metrics\": {{{body}}}\n}}\n"
    )
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        "0".to_string()
    }
}
