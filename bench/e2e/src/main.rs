//! `ppm-e2e`: the wall-clock benchmark of the ppm runtime. See README.md
//! for the catalogue of workloads and metrics and how to run, trace and
//! compare.

mod batch;
mod catalogue;
mod compare;
mod gen;
mod host;
mod json;
mod micro;
mod run;
mod spans;
mod stats;
mod svc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("trial") => cli::trial(&args[1..]),
        Some("micro") => cli::micro(&args[1..]),
        Some("worker") => svc::worker(&args[1..]),
        Some("compare") => cli::compare(&args[1..]),
        Some("-h" | "--help" | "help") => {
            println!("{}", cli::USAGE);
            0
        }
        _ => cli::run(&args),
    };
    std::process::exit(code);
}

/// The five workloads; names are fixed (later issues cite them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SortVolatile,
    SortDurable,
    SortRecover,
    FanoutFine,
    SvcStream,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SortVolatile,
        Workload::SortDurable,
        Workload::SortRecover,
        Workload::FanoutFine,
        Workload::SvcStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SortVolatile => "sort_volatile",
            Workload::SortDurable => "sort_durable",
            Workload::SortRecover => "sort_recover",
            Workload::FanoutFine => "fanout_fine",
            Workload::SvcStream => "svc_stream",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An extra arm of a traced run: the same workload with one thing changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Default,
    /// `sort_durable` with checkpoints disabled (and the pool the library
    /// then asks for): what the checkpoint layer costs.
    NoCheckpoint,
    /// `svc_stream` with the open-loop sweep over all three rates.
    Sweep,
}

impl Variant {
    /// The `--variant` argument a trial child is started with.
    pub fn as_arg(self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::NoCheckpoint => "nockpt",
            Variant::Sweep => "sweep",
        }
    }

    fn from_arg(arg: &str) -> Variant {
        [Variant::NoCheckpoint, Variant::Sweep]
            .into_iter()
            .find(|v| v.as_arg() == arg)
            .unwrap_or(Variant::Default)
    }
}

/// Everything a trial child needs; travels as command-line arguments.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    pub workload: Workload,
    /// Model processors (batch) — `svc_stream` sizes itself from the host.
    pub procs: usize,
    pub seed: u64,
    /// Size divisor: 1 for a full run, 64 for `--quick`.
    pub div: usize,
    pub traced: bool,
    pub variant: Variant,
    /// Accesses of a clean P=1 `sort_durable` run, for `sort_recover`'s
    /// kill point.
    pub w1: u64,
}

mod cli {
    use super::*;
    use crate::json::Json;
    use crate::spans::Recorder;

    pub const USAGE: &str = "\
ppm-e2e [--workload NAME]... [--seed N] [--seconds N] [--trace 0|1] [--quick] [--out DIR]
    Runs the named workloads (default: all five), verifies every output,
    prints every metric by name with its unit, and ends each workload with
    one JSON line {correct, attempted, failed, metrics}. --trace 1 runs the
    traced variant: per-layer metrics and out/trace_<workload>.json.
ppm-e2e compare DIR_A DIR_B
    Compares two result sets (directories of result_<workload>.json)
    against the bounds in BENCHMARK.json; exits 1 on a regression.";

    /// Flag values by name; a flag may repeat.
    fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
        args.windows(2)
            .filter(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .collect()
    }

    fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
        match flag_values(args, name).last() {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
        }
    }

    pub fn run(args: &[String]) -> i32 {
        let parsed = (|| {
            let mut workloads = Vec::new();
            for name in flag_values(args, "--workload") {
                workloads.push(
                    Workload::from_name(name).ok_or_else(|| format!("no workload {name:?}"))?,
                );
            }
            if workloads.is_empty() {
                workloads = Workload::ALL.to_vec();
            }
            let quick = args.iter().any(|a| a == "--quick");
            Ok::<_, String>(run::Options {
                workloads,
                seed: flag(args, "--seed", 1_234_567u64)?,
                seconds: flag(args, "--seconds", if quick { 1.0 } else { 25.0 })?,
                traced: flag(args, "--trace", 0u8)? != 0,
                quick,
                out_dir: flag_values(args, "--out")
                    .last()
                    .map_or_else(host::out_dir, std::path::PathBuf::from),
            })
        })();
        match parsed {
            Ok(opts) => run::run(&opts),
            Err(e) => {
                eprintln!("ppm-e2e: {e}\n{USAGE}");
                2
            }
        }
    }

    /// The spec a `trial` or `micro` child was started with.
    fn spec(args: &[String]) -> Result<TrialSpec, String> {
        let name: String = flag(args, "--workload", String::new())?;
        Ok(TrialSpec {
            workload: Workload::from_name(&name).ok_or_else(|| format!("no workload {name:?}"))?,
            procs: flag(args, "--procs", 1usize)?.max(1),
            seed: flag(args, "--seed", 1_234_567u64)?,
            div: flag(args, "--div", 1usize)?.max(1),
            traced: flag(args, "--trace", 0u8)? != 0,
            variant: Variant::from_arg(&flag(args, "--variant", String::new())?),
            w1: flag(args, "--w1", 0u64)?,
        })
    }

    /// One trial in this (fresh) process; the result is one JSON line on
    /// stdout for the parent.
    pub fn trial(args: &[String]) -> i32 {
        let spec = match spec(args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ppm-e2e trial: {e}");
                return 2;
            }
        };
        let mut rec = Recorder::new(spec.traced);
        let mut result = match spec.workload {
            Workload::SvcStream => svc::run_lifetime(&spec, &mut rec),
            _ => batch::run_trial(&spec, &mut rec),
        };
        if let Json::Obj(pairs) = &mut result {
            pairs.push(("vm_hwm_kib".into(), Json::Num(host::vm_hwm_kib())));
            pairs.push((
                "spans".into(),
                Json::Arr(rec.finish().iter().map(|s| s.to_json()).collect()),
            ));
        }
        println!("{result}");
        0
    }

    /// The isolated timing loops of a traced run, in this fresh process.
    pub fn micro(args: &[String]) -> i32 {
        match spec(args) {
            Ok(spec) => {
                println!("{}", micro::run(&spec));
                0
            }
            Err(e) => {
                eprintln!("ppm-e2e micro: {e}");
                2
            }
        }
    }

    pub fn compare(args: &[String]) -> i32 {
        match args {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("usage: ppm-e2e compare DIR_A DIR_B");
                2
            }
        }
    }
}
