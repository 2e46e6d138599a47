//! Durable-vs-volatile overhead: what does file-backed persistence cost?
//!
//! Runs the same fork-join computation on (a) a volatile machine (words in
//! process heap) and (b) a durable machine (words `MAP_SHARED`-mapped onto
//! a file), and reports wall-clock means plus the cost of the explicit
//! `flush()` (`msync`) durability boundary. Expectation: the mapped page
//! cache makes per-access overhead small — the durability tax is
//! concentrated in `flush`.
//!
//! `cargo run --release -p ppm-bench --bin exp_durable_overhead`

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm_bench::{banner, f2, header, row, s, BenchReport};
use ppm_core::dsl::{CapsuleSet, Span, Step, K};
use ppm_core::{Machine, PComp};
use ppm_pm::{PmConfig, Region};
use ppm_sched::{CheckpointPolicy, Runtime, SchedConfig};

const PROCS: usize = 4;
const WORDS: usize = 1 << 21;
const TRIALS: usize = 5;

fn build_comp(out: Region, n: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let work = set.define("work", move |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                // A read-modify-chain per task: real external traffic. The
                // read stride 17 is odd and n is a power of two, so a
                // task never reads the cell it writes (conflict free).
                let mut acc = 0u64;
                for j in 1..=32 {
                    acc = acc.wrapping_add(ctx.pread(st.env.at((i + j * 17) % n))?);
                }
                ctx.pwrite(st.env.at(i), acc.wrapping_add(i as u64 + 1))?;
            }
            Ok(Step::Jump(k))
        });
        let tasks = set.map_grain("tasks", 1, work);
        let all = Span {
            env: out,
            lo: 0,
            hi: n,
        };
        tasks.setup(m, &all, K(finale)).0
    })
}

struct Measured {
    run_mean: Duration,
    run_min: Duration,
    flush_mean: Duration,
    /// Fastest `/metrics` scrape over the trials (observed runs only).
    scrape_min: Option<Duration>,
    /// Final metrics snapshot (Prometheus text) from the last trial.
    scrape: String,
}

/// Runs the workload `trials` times. With `observed` set, each trial also
/// enables per-event tracing (sample = 1) and serves `/metrics` from a
/// live exporter on an ephemeral port, scraping it once after the run —
/// the fully instrumented configuration whose run-time delta against a
/// plain run the baseline gates.
fn run_trials(cli: &ppm_bench::cli::Cli, n: usize, durable: bool, observed: bool) -> Measured {
    let mut run_total = Duration::ZERO;
    let mut run_min = Duration::MAX;
    let mut flush_total = Duration::ZERO;
    let mut scrape_min: Option<Duration> = None;
    let mut scrape = String::new();
    let trials = cli.trials(TRIALS);
    let procs = cli.procs(PROCS);
    for trial in 0..trials {
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "ppm-durable-overhead-{}-{trial}.ppm",
                std::process::id()
            ));
            p
        };
        let m = if durable {
            Machine::create_durable(PmConfig::parallel(procs, WORDS), &path)
                .expect("create durable machine")
        } else {
            Machine::new(PmConfig::parallel(procs, WORDS))
        };
        let out = m.alloc_region(n);
        let comp = build_comp(out, n);
        // Checkpoints off: this experiment prices the mapping and the
        // explicit flush boundary; `exp_checkpoint_overhead` prices epochs.
        let mut sched = SchedConfig::with_slots(1 << 12);
        sched.checkpoint = CheckpointPolicy::disabled();
        let rt = Runtime::new(m, sched);
        let server = if observed {
            let obs = rt.machine().obs();
            obs.tracer().enable();
            obs.tracer().set_sample(1);
            obs.serve(0).ok() // port 0: the OS picks an ephemeral port
        } else {
            None
        };
        let start = Instant::now();
        let rep = rt.run_or_recover(&comp);
        let elapsed = start.elapsed();
        run_total += elapsed;
        run_min = run_min.min(elapsed);
        assert!(rep.completed());
        if let Some(srv) = &server {
            let t0 = Instant::now();
            if let Ok(text) = ppm_obs::http_get(srv.addr(), "/metrics", Duration::from_millis(500))
            {
                let took = t0.elapsed();
                scrape_min = Some(scrape_min.map_or(took, |m| m.min(took)));
                scrape = text;
            }
        } else {
            scrape = rt.machine().obs().registry().render();
        }
        let start = Instant::now();
        rt.flush().expect("flush");
        flush_total += start.elapsed();
        drop(server);
        drop(rt);
        if durable {
            let _ = std::fs::remove_file(&path);
        }
    }
    Measured {
        run_mean: run_total / trials as u32,
        run_min,
        flush_mean: flush_total / trials as u32,
        scrape_min,
        scrape,
    }
}

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E-DUR",
        "durable (mmap) vs volatile backend overhead",
        "persistence via a shared file mapping costs little during the run; \
         the durability tax is the explicit msync boundary",
    );
    if !cfg!(unix) {
        println!("durable backend needs unix mmap; skipping");
        return;
    }
    let widths = [8, 12, 14, 14, 14, 10];
    header(
        &[
            "tasks",
            "backend",
            "run mean",
            "flush mean",
            "run+flush",
            "overhead",
        ],
        &widths,
    );
    let mut report = BenchReport::new("exp_durable_overhead");
    let mut last = None;
    for n in cli.cap_sizes(&[256usize, 1024, 4096]) {
        let vol = run_trials(&cli, n, false, false);
        let dur = run_trials(&cli, n, true, false);
        let overhead = (dur.run_mean + dur.flush_mean).as_secs_f64()
            / (vol.run_mean + vol.flush_mean).as_secs_f64();
        report
            .note("n", n)
            .metric("durable_overhead_x", overhead)
            .metric_ms("durable_flush_ms", dur.flush_mean)
            .metric_ms("durable_run_ms", dur.run_mean);
        row(
            &[
                s(n),
                s("volatile"),
                s(format!("{:?}", vol.run_mean)),
                s(format!("{:?}", vol.flush_mean)),
                s(format!("{:?}", vol.run_mean + vol.flush_mean)),
                s("1.00x"),
            ],
            &widths,
        );
        row(
            &[
                s(n),
                s("mmap"),
                s(format!("{:?}", dur.run_mean)),
                s(format!("{:?}", dur.flush_mean)),
                s(format!("{:?}", dur.run_mean + dur.flush_mean)),
                s(format!("{}x", f2(overhead))),
            ],
            &widths,
        );
        last = Some((n, dur));
    }

    // Observability tax: the same durable workload with per-event tracing
    // on and a live `/metrics` exporter attached, against a plain run.
    // The plain side is re-measured here, back-to-back with the
    // instrumented one — the n-sweep measurement above ran minutes of
    // work earlier, so comparing against it folds page-cache and CPU
    // warm-up into the ratio (historically it made instrumentation look
    // ~1.5x *faster*). Min-over-trials on both sides keeps scheduler
    // noise out; `bench_check` gates `obs_instrumented_over_plain_x`.
    if let Some((n, _)) = last {
        let plain = run_trials(&cli, n, true, false);
        let observed = run_trials(&cli, n, true, true);
        let delta = observed.run_min.as_secs_f64() / plain.run_min.as_secs_f64().max(1e-9);
        report.metric("obs_instrumented_over_plain_x", delta);
        println!(
            "\nobservability: instrumented run (tracing + live exporter) {}x the plain run",
            f2(delta)
        );
        if let Some(scrape) = observed.scrape_min {
            report.metric_ms("obs_scrape_ms", scrape);
            println!("observability: /metrics scrape min {:?}", scrape);
        }
        report.embed_scrape(&observed.scrape);
    }
    report.emit();
}
