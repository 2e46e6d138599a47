//! The parent process of a run: starts one fresh child per trial,
//! alternates the P=1 and P=`p_par` arms until the time box is used up,
//! and turns the children's samples into the metrics of the catalogue.

use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::catalogue::{Better, Metric, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::spans::{self, Span};
use crate::stats::{better_half_mean, median, percentile, summarize};
use crate::{batch, host, svc, Variant, Workload};

pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// The time box of one workload's run, in seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: every workload at 1/64 size, one trial per arm.
    pub quick: bool,
    pub out_dir: PathBuf,
}

impl Options {
    fn div(&self) -> usize {
        if self.quick {
            64
        } else {
            1
        }
    }
}

/// A trial child that has not answered by then is killed and counted as
/// a failure.
const TRIAL_TIMEOUT: Duration = Duration::from_secs(120);
/// Seconds past the time box after which no further trial is started.
const HARD_STOP_AFTER: f64 = 30.0;

/// Runs `ppm-e2e <args>` in a fresh process and parses the last line of
/// its stdout. The child is always reaped, on every path.
fn child(args: &[String], env: &[(&str, String)]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdout(Stdio::piped()).stdin(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut proc = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = proc.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let start = Instant::now();
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if start.elapsed() > TRIAL_TIMEOUT => {
                let _ = proc.kill();
                let _ = proc.wait();
                break Err(format!(
                    "no answer in {} s; killed",
                    TRIAL_TIMEOUT.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                let _ = proc.kill();
                let _ = proc.wait();
                break Err(format!("wait: {e}"));
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    let status = status?;
    let line = text.lines().rev().find(|l| !l.trim().is_empty());
    match line {
        Some(line) if status.success() => {
            Json::parse(line).map_err(|e| format!("result line: {e}"))
        }
        _ => Err(format!("child exited with {status} and no result")),
    }
}

/// The trials of one arm that ran and verified.
#[derive(Default)]
struct Arm {
    trials: Vec<Json>,
    /// Trials started, the discarded warm-up included.
    started: usize,
}

impl Arm {
    fn col(&self, key: &str) -> Vec<f64> {
        self.trials.iter().map(|t| t.num(key)).collect()
    }

    fn med(&self, key: &str) -> f64 {
        median(&self.col(key))
    }

    /// Every sample of a per-trial list, pooled over the trials.
    fn pooled(&self, key: &str) -> Vec<f64> {
        self.trials.iter().flat_map(|t| t.num_list(key)).collect()
    }
}

/// One workload's run in progress.
struct Session<'a> {
    opts: &'a Options,
    workload: Workload,
    start: Instant,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    spans: Vec<Span>,
}

impl Session<'_> {
    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// One trial child of `workload` (this session's, or another's for a
    /// comparison arm). `None` when it failed; the failure is counted.
    fn trial(
        &mut self,
        workload: Workload,
        procs: usize,
        variant: Variant,
        traced: bool,
        w1: u64,
        env: &[(&str, String)],
    ) -> Option<Json> {
        let args: Vec<String> = [
            "trial",
            "--workload",
            workload.name(),
            "--procs",
            &procs.to_string(),
            "--seed",
            &self.opts.seed.to_string(),
            "--div",
            &self.opts.div().to_string(),
            "--trace",
            if traced { "1" } else { "0" },
            "--w1",
            &w1.to_string(),
            "--variant",
            variant.as_arg(),
        ]
        .map(String::from)
        .to_vec();
        let result = child(&args, env);
        // A service lifetime counts its jobs; a batch trial is one attempt.
        let (attempted, failed) = match &result {
            Ok(t) => {
                let not_ok = u64::from(t.get("ok").and_then(Json::as_bool) != Some(true));
                if workload == Workload::SvcStream {
                    let failed = (t.num("failed") as u64).max(not_ok);
                    ((t.num("attempted") as u64).max(1), failed)
                } else {
                    (1, not_ok)
                }
            }
            Err(_) => (1, 1),
        };
        self.attempted += attempted;
        self.failed += failed;
        match result {
            Ok(t) if t.get("ok").and_then(Json::as_bool) == Some(true) => {
                if traced {
                    let mut got: Vec<Span> = t
                        .get("spans")
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Span::from_json).collect())
                        .unwrap_or_default();
                    spans::rebase(&mut got, self.spans.len() as u64, self.attempted);
                    self.spans.extend(got);
                }
                Some(t)
            }
            Ok(t) => {
                self.notes.push(format!(
                    "{} P={procs}: {}",
                    workload.name(),
                    t.get("note").and_then(Json::as_str).unwrap_or("not ok")
                ));
                None
            }
            Err(e) => {
                self.notes
                    .push(format!("{} P={procs}: {e}", workload.name()));
                None
            }
        }
    }

    /// Runs the arms in turn until the time box is used up: the first
    /// trial of each arm is a warm-up and is dropped, and no arm ends
    /// with fewer than `min_kept` trials. `arms` are (procs, variant,
    /// traced); returns one `Arm` per entry.
    fn alternate(&mut self, arms: &[(usize, Variant, bool)], min_kept: usize, w1: u64) -> Vec<Arm> {
        let warmups = usize::from(!self.opts.quick);
        let mut out: Vec<Arm> = arms.iter().map(|_| Arm::default()).collect();
        let mut longest = 0.0f64;
        loop {
            for (i, (procs, variant, traced)) in arms.iter().enumerate() {
                let t0 = Instant::now();
                let got = self.trial(self.workload, *procs, *variant, *traced, w1, &[]);
                longest = longest.max(t0.elapsed().as_secs_f64());
                out[i].started += 1;
                if let Some(t) = got {
                    if out[i].started > warmups {
                        out[i].trials.push(t);
                    }
                }
            }
            let enough = out.iter().all(|a| a.trials.len() >= min_kept);
            // Stop when another round would not fit. Short of trials, go
            // on — but not past the hard stop (a hung child costs
            // `TRIAL_TIMEOUT`; the whole run must end well inside 180 s),
            // and not when trials keep failing.
            let round = longest * arms.len() as f64;
            let stuck = out.iter().any(|a| a.started >= 4 * (min_kept + warmups));
            let past_stop = self.elapsed() > self.opts.seconds + HARD_STOP_AFTER;
            if enough && self.elapsed() + round > self.opts.seconds {
                return out;
            }
            if !enough && (stuck || past_stop) {
                self.failed += 1;
                self.notes.push("an arm ended short of trials".into());
                return out;
            }
        }
    }
}

/// A clean P=1 `sort_durable` run's access count: where `sort_recover`
/// places its kill. The same seed gives the same count, exactly.
fn calibrate_w1(s: &mut Session<'_>) -> u64 {
    s.trial(Workload::SortDurable, 1, Variant::Default, false, 0, &[])
        .map_or(0, |t| (t.num("reads") + t.num("writes")) as u64)
}

fn items_of(workload: Workload, div: usize) -> f64 {
    match workload {
        Workload::FanoutFine => batch::fanout_words(div) as f64,
        _ => batch::sort_keys(div) as f64,
    }
}

/// Values by metric name; anything not set reads 0.
#[derive(Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.0.insert(name, if v.is_finite() { v } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The finished run of one workload.
struct Outcome {
    values: Values,
    /// Raw per-trial samples, by arm.
    samples: Json,
    /// Quartiles of the per-trial samples behind an end-to-end metric.
    spreads: HashMap<&'static str, (f64, f64, usize)>,
}

fn arm_samples(arm: &Arm, keys: &[&str]) -> Json {
    Json::obj(keys.iter().map(|k| (*k, Json::nums(&arm.col(k)))))
}

impl Outcome {
    /// A metric from its per-trial samples: `value`, with the samples'
    /// quartiles kept for `compare`.
    fn put(&mut self, name: &'static str, value: f64, samples: &[f64]) {
        let q = summarize(samples);
        self.values.set(name, value);
        self.spreads.insert(name, (q.q1, q.q3, q.n));
    }

    /// A timing or a rate: the mean of the better half of its samples
    /// (`stats::better_half_mean` says why).
    fn put_timing(&mut self, name: &'static str, samples: &[f64]) {
        let lower = END_TO_END
            .iter()
            .any(|m| m.name == name && m.better == Better::Lower);
        self.put(name, better_half_mean(samples, lower), samples);
    }
}

fn end_to_end(s: &mut Session<'_>) -> Outcome {
    let mut out = Outcome {
        values: Values::default(),
        samples: Json::Null,
        spreads: HashMap::new(),
    };
    let min_kept = if s.opts.quick { 1 } else { 3 };
    let untraced = |procs| (procs, Variant::Default, false);
    if s.workload == Workload::SvcStream {
        let life = s.alternate(&[untraced(1)], min_kept, 0).remove(0);
        // One latency per lifetime: the median of its open-loop jobs.
        let p50: Vec<f64> = life
            .trials
            .iter()
            .map(|t| median(&t.num_list("lat_ms_r2")))
            .collect();
        let mib = |t: &Json| (t.num("vm_hwm_kib") + t.num("workers_hwm_kib")) / 1024.0;
        let rss: Vec<f64> = life.trials.iter().map(mib).collect();
        out.put_timing("setup_s", &life.col("setup_s"));
        out.put_timing("items_per_s", &life.col("closed_jobs_per_s"));
        out.put_timing("items_per_s_p1", &life.col("serial_jobs_per_s"));
        out.put_timing("job_latency_p50_ms", &p50);
        out.put("peak_rss_mib", median(&rss), &rss);
        let keys = [
            "setup_s",
            "closed_jobs_per_s",
            "serial_jobs_per_s",
            "vm_hwm_kib",
            "workers_hwm_kib",
        ];
        let mut lifetimes = arm_samples(&life, &keys);
        if let Json::Obj(pairs) = &mut lifetimes {
            pairs.push(("lat_p50_ms_r2".into(), Json::nums(&p50)));
        }
        out.samples = Json::obj([("lifetimes", lifetimes)]);
    } else {
        let w1 = if s.workload == Workload::SortRecover {
            calibrate_w1(s)
        } else {
            0
        };
        let p = host::p_par();
        let items = items_of(s.workload, s.opts.div());
        // On a one-core host the two arms are the same arm.
        let mut arms = if p > 1 {
            s.alternate(&[untraced(1), untraced(p)], min_kept, w1)
        } else {
            s.alternate(&[untraced(1)], min_kept, w1)
        };
        let par = arms.pop().expect("at least one arm");
        let p1 = arms.pop().unwrap_or_else(|| Arm {
            trials: par.trials.clone(),
            started: par.started,
        });
        let per_s =
            |arm: &Arm| -> Vec<f64> { arm.col("run_s").iter().map(|t| ratio(items, *t)).collect() };
        let ms: Vec<f64> = par.col("run_s").iter().map(|t| t * 1e3).collect();
        let mib: Vec<f64> = par.col("vm_hwm_kib").iter().map(|k| k / 1024.0).collect();
        out.put_timing("setup_s", &par.col("setup_s"));
        out.put_timing("items_per_s", &per_s(&par));
        out.put_timing("items_per_s_p1", &per_s(&p1));
        out.put_timing("job_latency_p50_ms", &ms);
        out.put("peak_rss_mib", median(&mib), &mib);
        let keys = ["setup_s", "run_s", "vm_hwm_kib"];
        out.samples = Json::obj([
            ("items", Json::Num(items)),
            ("w1", Json::Num(w1 as f64)),
            ("p1", arm_samples(&p1, &keys)),
            ("par", arm_samples(&par, &keys)),
        ]);
    }
    out
}

/// The isolated loops, in their own child; empty when the child failed.
fn micro(s: &mut Session<'_>) -> Json {
    let args: Vec<String> = [
        "micro",
        "--workload",
        s.workload.name(),
        "--seed",
        &s.opts.seed.to_string(),
        "--div",
        &s.opts.div().to_string(),
    ]
    .map(String::from)
    .to_vec();
    s.attempted += 1;
    child(&args, &[]).unwrap_or_else(|e| {
        s.failed += 1;
        s.notes.push(format!("micro: {e}"));
        Json::Obj(Vec::new())
    })
}

/// The median of a few trials of a comparison arm (P=1, untraced).
fn extra_arm(
    s: &mut Session<'_>,
    workload: Workload,
    variant: Variant,
    env: &[(&str, String)],
) -> Arm {
    let mut arm = Arm::default();
    for _ in 0..if s.opts.quick { 1 } else { 2 } {
        arm.started += 1;
        arm.trials
            .extend(s.trial(workload, 1, variant, false, 0, env));
    }
    arm
}

fn per_layer(s: &mut Session<'_>) -> Outcome {
    let mut v = Values::default();
    let div = s.opts.div();
    let min_kept = if s.opts.quick { 1 } else { 2 };
    let mi = micro(s);
    for (name, value) in mi.as_obj().unwrap_or(&[]) {
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            v.set(m.name, value.as_f64().unwrap_or(0.0));
        }
    }
    v.set(
        "pm.proc.pread_over_load_x",
        ratio(v.get("pm.proc.pread_ns"), v.get("pm.mem.load_ns")),
    );
    v.set(
        "pm.proc.pwrite_over_store_x",
        ratio(v.get("pm.proc.pwrite_ns"), v.get("pm.mem.store_ns")),
    );
    v.set(
        "core.runner.capsule_over_pwrite_x",
        ratio(v.get("core.runner.capsule_ns"), v.get("pm.proc.pwrite_ns")),
    );

    let samples;
    let trials;
    if s.workload == Workload::SvcStream {
        let arms = s.alternate(
            &[(1, Variant::Sweep, true), (1, Variant::Default, false)],
            min_kept,
            0,
        );
        let (traced, plain) = (&arms[0], &arms[1]);
        trials = traced.trials.len() + plain.trials.len();
        service_layers(&mut v, traced);
        v.set(
            "harness.trace_overhead_x",
            ratio(
                plain.med("closed_jobs_per_s"),
                traced.med("closed_jobs_per_s"),
            ),
        );
        samples = Json::obj([(
            "lifetimes",
            arm_samples(
                traced,
                &["setup_s", "closed_jobs_per_s", "serial_jobs_per_s"],
            ),
        )]);
    } else {
        let w1 = if s.workload == Workload::SortRecover {
            calibrate_w1(s)
        } else {
            0
        };
        let p = host::p_par();
        let items = items_of(s.workload, div);
        let arms = s.alternate(
            &[
                (1, Variant::Default, true),
                (p, Variant::Default, true),
                (p, Variant::Default, false),
            ],
            min_kept,
            w1,
        );
        let (p1, par, plain) = (&arms[0], &arms[1], &arms[2]);
        trials = arms.iter().map(|a| a.trials.len()).sum();
        batch_layers(&mut v, s.workload, items, p, w1, p1, par);
        v.set(
            "harness.trace_overhead_x",
            ratio(par.med("run_s"), plain.med("run_s")),
        );
        let t1 = p1.med("run_s");
        match s.workload {
            Workload::SortVolatile => {
                v.set("algs.sort.vs_std_sort_x", ratio(t1, mi.num("std_sort_s")));
                v.set(
                    "algs.sort.capsules_per_item",
                    ratio(p1.med("capsules"), items),
                );
                v.set("algs.sort.max_capsule_work", p1.med("max_capsule_work"));
            }
            Workload::SortDurable => {
                let volatile = extra_arm(s, Workload::SortVolatile, Variant::Default, &[]);
                v.set(
                    "pm.backend.durable_over_volatile_x",
                    ratio(t1, volatile.med("run_s")),
                );
                let bare = extra_arm(s, Workload::SortDurable, Variant::NoCheckpoint, &[]);
                v.set(
                    "sched.checkpoint.time_share",
                    1.0 - ratio(bare.med("run_s"), t1),
                );
            }
            Workload::FanoutFine => {
                v.set(
                    "core.dsl.vs_plain_loop_x",
                    ratio(t1, mi.num("plain_loop_s")),
                );
                span_sidecar_cost(s, &mut v, t1, p1.med("capsules"));
            }
            _ => {}
        }
        let keys = [
            "setup_s",
            "run_s",
            "vm_hwm_kib",
            "reads",
            "writes",
            "capsules",
            "steals",
        ];
        samples = Json::obj([
            ("items", Json::Num(items)),
            ("w1", Json::Num(w1 as f64)),
            ("p1", arm_samples(p1, &keys)),
            ("par", arm_samples(par, &keys)),
        ]);
    }
    v.set("harness.trials", trials as f64);
    v.set("harness.span_count", s.spans.len() as f64);
    Outcome {
        values: v,
        samples,
        spreads: HashMap::new(),
    }
}

/// Per-layer numbers every batch workload reads off its two arms.
fn batch_layers(
    v: &mut Values,
    workload: Workload,
    items: f64,
    p: usize,
    w1: u64,
    p1: &Arm,
    par: &Arm,
) {
    let (t1, tp) = (p1.med("run_s"), par.med("run_s"));
    let (reads, writes) = (p1.med("reads"), p1.med("writes"));
    v.set("pm.proc.reads", reads);
    v.set("pm.proc.writes", writes);
    v.set("pm.proc.work_per_item", ratio(reads + writes, items));
    // What the costed-access layer can at most account for at P=1.
    v.set(
        "pm.proc.time_share",
        ratio(
            (reads * v.get("pm.proc.pread_ns") + writes * v.get("pm.proc.pwrite_ns")) / 1e9,
            t1,
        ),
    );
    v.set(
        "pm.frame.coalesce_ratio",
        ratio(p1.med("staged_persists"), p1.med("staged_words")),
    );
    v.set("core.runner.capsules_per_s", ratio(p1.med("capsules"), t1));
    v.set("sched.capsules.steal_attempts", par.med("steal_attempts"));
    v.set("sched.capsules.steals", par.med("steals"));
    v.set(
        "sched.capsules.steal_success_ratio",
        ratio(par.med("steals"), par.med("steal_attempts")),
    );
    for (name, key) in [
        (
            "sched.capsules.steal_latency_p50_us",
            "steal_latency_p50_us",
        ),
        (
            "sched.capsules.steal_latency_mean_us",
            "steal_latency_mean_us",
        ),
        (
            "sched.capsules.steal_backoff_p99_us",
            "steal_backoff_p99_us",
        ),
    ] {
        v.set(name, par.med(key));
    }
    v.set("sched.capsules.speedup_x", ratio(t1, tp));
    v.set("sched.capsules.idle_share", 1.0 - ratio(t1, p as f64 * tp));
    v.set(
        "sched.capsules.extra_work_x",
        ratio(par.med("reads") + par.med("writes"), reads + writes),
    );
    let volatile = matches!(workload, Workload::SortVolatile | Workload::FanoutFine);
    if volatile {
        v.set("core.machine.new_ms", par.med("machine_create_s") * 1e3);
    } else {
        v.set("pm.backend.final_flush_ms", par.med("final_flush_s") * 1e3);
        v.set(
            "pm.backend.file_bytes_per_item",
            ratio(par.med("file_bytes"), items),
        );
    }
    for (name, key) in [
        ("sched.checkpoint.attempted", "ckpt_attempted"),
        ("sched.checkpoint.completed", "ckpt_completed"),
        ("sched.checkpoint.skipped_busy", "ckpt_skipped_busy"),
        ("sched.checkpoint.pages_flushed", "ckpt_pages_flushed"),
        ("sched.checkpoint.words_reclaimed", "ckpt_words_reclaimed"),
        ("sched.checkpoint.quiesce_p50_us", "quiesce_p50_us"),
        ("sched.checkpoint.quiesce_p99_us", "quiesce_p99_us"),
    ] {
        v.set(name, par.med(key));
    }
    v.set(
        "sched.checkpoint.success_ratio",
        ratio(par.med("ckpt_completed"), par.med("ckpt_attempted")),
    );
    v.set(
        "sched.checkpoint.pages_per_checkpoint",
        ratio(par.med("ckpt_pages_flushed"), par.med("ckpt_completed")),
    );
    if workload == Workload::FanoutFine {
        let leaves = p1.med("leaves");
        let forks = leaves - 1.0;
        v.set("core.dsl.fork_join_ns", ratio(t1 * 1e9, forks));
        v.set(
            "core.dsl.pool_words_per_leaf",
            ratio(p1.med("max_pool_peak"), leaves),
        );
        // Capsules that are not the workload's own (2·leaves − 1 splits
        // and the leaves themselves), per fork.
        let own = 3.0 * leaves - 1.0;
        v.set(
            "sched.capsules.sched_capsules_per_fork",
            ratio(p1.med("capsules") - own, forks),
        );
    }
    if workload == Workload::SortRecover {
        v.set("sched.driver.open_ms", par.med("open_s") * 1e3);
        v.set("sched.driver.recover_s", par.med("recover_s"));
        let all: Vec<f64> = p1
            .col("resumed")
            .into_iter()
            .chain(par.col("resumed"))
            .collect();
        v.set(
            "sched.driver.resumed_share",
            ratio(all.iter().sum(), all.len() as f64),
        );
        // 1.0 = recovery paid only for what the crash lost.
        let lost = |arm: &Arm| w1 as f64 - arm.med("staged_work");
        v.set(
            "sched.driver.replay_work_x",
            ratio(p1.med("recover_work"), lost(p1)),
        );
        v.set(
            "sched.driver.replay_work_par_x",
            ratio(par.med("recover_work"), lost(par)),
        );
    }
}

/// `obs.span`: the same P=1 `fanout_fine` trial with the program's own
/// span sidecar switched on in the child's environment.
fn span_sidecar_cost(s: &mut Session<'_>, v: &mut Values, t1_off: f64, capsules: f64) {
    let base = host::machine_dir().join(format!("e2e-spans-{}.jsonl", std::process::id()));
    let env = [("PPM_TRACE_FILE", base.to_string_lossy().into_owned())];
    let on = extra_arm(s, Workload::FanoutFine, Variant::Default, &env);
    // Everything the traced child left next to the base path is trace.
    let mut bytes = 0.0;
    if let (Some(dir), Some(stem)) = (base.parent(), base.file_name()) {
        let stem = stem.to_string_lossy();
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            if entry.file_name().to_string_lossy().starts_with(&*stem) {
                bytes += entry.metadata().map_or(0.0, |m| m.len() as f64);
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    v.set("obs.span.on_over_off_x", ratio(on.med("run_s"), t1_off));
    // Each trial of the arm rewrites the files: the bytes are one run's.
    v.set("obs.span.bytes_per_capsule", ratio(bytes, capsules));
}

fn service_layers(v: &mut Values, life: &Arm) {
    v.set("sched.cluster.spawn_ms", life.med("spawn_s") * 1e3);
    v.set("sched.cluster.first_job_ms", life.med("first_job_s") * 1e3);
    v.set("sched.cluster.shutdown_ms", life.med("shutdown_s") * 1e3);
    let submit = life.pooled("submit_us");
    v.set("sched.service.submit_p50_us", median(&submit));
    v.set(
        "sched.service.submit_p99_us",
        percentile(&submit, 0.99).unwrap_or(0.0),
    );
    v.set("sched.service.status_ns", life.med("status_ns"));
    v.set("sched.service.reclaim_ns", life.med("reclaim_ns"));
    v.set("sched.service.tick_us", life.med("tick_us"));
    let p99 =
        |label: &str| percentile(&life.pooled(&format!("lat_ms_{label}")), 0.99).unwrap_or(0.0);
    let p50 = |label: &str| median(&life.pooled(&format!("lat_ms_{label}")));
    v.set("sched.service.latency_p99_ms", p99("r2"));
    v.set("sched.service.latency_p50_ms_r1", p50("r1"));
    v.set("sched.service.latency_p99_ms_r1", p99("r1"));
    v.set("sched.service.latency_p50_ms_r3", p50("r3"));
    v.set("sched.service.latency_p99_ms_r3", p99("r3"));
    // The highest rate whose p99 meets the limit with a backlog that is
    // not growing (no deeper at the end than half-way, give or take).
    let sustained = |i: usize| {
        let label = svc::RATE_LABELS[i];
        let p99 = p99(label);
        let end = life.med(&format!("backlog_end_{label}"));
        let mid = life.med(&format!("backlog_mid_{label}"));
        p99 > 0.0 && p99 <= svc::LATENCY_LIMIT_MS && end <= (2.0 * mid).max(8.0)
    };
    let best = (0..3)
        .filter(|i| sustained(*i))
        .map(|i| svc::RATES[i])
        .fold(0.0, f64::max);
    v.set("sched.service.max_rate_ok_per_s", best);
    v.set("sched.service.backlog_end", life.med("backlog_end_r2"));
    let late: Vec<f64> = svc::RATE_LABELS
        .iter()
        .flat_map(|l| life.pooled(&format!("late_ms_{l}")))
        .collect();
    v.set(
        "sched.service.generator_late_p99_ms",
        percentile(&late, 0.99).unwrap_or(0.0),
    );
    v.set("sched.service.would_block", life.med("would_block"));
    v.set("sched.service.rescues", life.med("rescues"));
    v.set(
        "sched.service.pool_words_per_job",
        life.med("pool_words_per_job"),
    );
}

fn metric_json(m: &Metric, out: &Outcome) -> Json {
    let mut pairs = vec![
        ("value".to_string(), Json::Num(out.values.get(m.name))),
        ("unit".to_string(), Json::from(m.unit)),
    ];
    if let Some((q1, q3, n)) = out.spreads.get(m.name) {
        pairs.extend([
            ("q1".to_string(), Json::Num(*q1)),
            ("q3".to_string(), Json::Num(*q3)),
            ("n".to_string(), Json::Num(*n as f64)),
        ]);
    }
    Json::Obj(pairs)
}

/// Writes the spans with their self times and prints where the time went,
/// by span name.
fn write_trace(path: &Path, spans: &[Span]) {
    let self_ns: HashMap<u64, u64> = spans::self_times(spans).into_iter().collect();
    let mut by_name: Vec<(&str, usize, u64, u64)> = Vec::new();
    let mut rows = Vec::with_capacity(spans.len());
    for span in spans {
        let own = self_ns.get(&span.id).copied().unwrap_or(0);
        match by_name.iter_mut().find(|(n, ..)| *n == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration_ns();
                row.3 += own;
            }
            None => by_name.push((&span.name, 1, span.duration_ns(), own)),
        }
        let mut row = span.to_json();
        if let Json::Obj(pairs) = &mut row {
            pairs.push(("self_ns".into(), Json::Num(own as f64)));
        }
        rows.push(row);
    }
    println!(
        "   {:<20} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, own) in by_name {
        println!(
            "   {name:<20} {count:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    write_file(path, &format!("{}\n", Json::Arr(rows)));
}

fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("ppm-e2e: cannot write {}: {e}", path.display());
    }
}

/// Runs one workload and prints its metrics; `true` when every output
/// verified.
fn run_workload(opts: &Options, workload: Workload) -> bool {
    let mut s = Session {
        opts,
        workload,
        start: Instant::now(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        spans: Vec::new(),
    };
    let out = if opts.traced {
        per_layer(&mut s)
    } else {
        end_to_end(&mut s)
    };
    let catalogue: &[Metric] = if opts.traced { &PER_LAYER } else { &END_TO_END };
    let correct = s.failed == 0 && s.attempted > 0;

    println!(
        "== {} ({}, seed {}, {:.1} s, {} attempted, {} failed)",
        workload.name(),
        if opts.traced { "traced" } else { "untraced" },
        opts.seed,
        s.elapsed(),
        s.attempted,
        s.failed
    );
    for note in &s.notes {
        println!("   ! {note}");
    }
    for m in catalogue {
        let spread = out
            .spreads
            .get(m.name)
            .map_or(String::new(), |(q1, q3, n)| {
                format!("   IQR [{q1:.6}, {q3:.6}]  n={n}")
            });
        println!(
            "   {:<44} {:>16.6} {:<6}{spread}",
            m.name,
            out.values.get(m.name),
            m.unit
        );
    }

    let metrics = Json::Obj(
        catalogue
            .iter()
            .map(|m| (m.name.to_string(), metric_json(m, &out)))
            .collect(),
    );
    let result = Json::obj([
        ("workload", Json::from(workload.name())),
        ("traced", Json::Bool(opts.traced)),
        ("quick", Json::Bool(opts.quick)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("host", host::block()),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(s.attempted as f64)),
        ("failed", Json::Num(s.failed as f64)),
        (
            "notes",
            Json::Arr(s.notes.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
        ("metrics", metrics.clone()),
        ("samples", out.samples),
    ]);
    let kind = if opts.traced { "layers" } else { "result" };
    write_file(
        &opts
            .out_dir
            .join(format!("{kind}_{}.json", workload.name())),
        &format!("{result}\n"),
    );
    if opts.traced {
        write_trace(
            &opts.out_dir.join(format!("trace_{}.json", workload.name())),
            &s.spans,
        );
    }

    // The contract line: the last line of a single-workload run.
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(s.attempted as f64)),
        ("failed", Json::Num(s.failed as f64)),
        (
            "metrics",
            Json::Obj(
                catalogue
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(out.values.get(m.name))),
                                ("unit", Json::from(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{line}");
    correct
}

pub fn run(opts: &Options) -> i32 {
    let machine_dir = host::machine_dir();
    for dir in [&opts.out_dir, &machine_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("ppm-e2e: cannot create {}: {e}", dir.display());
            return 2;
        }
    }
    // A caller who names a directory wants the machine files on that
    // filesystem; otherwise they are anonymous memory (`host::MachineFile`).
    if std::env::var_os("PPM_TMPDIR").is_some() {
        std::env::set_var(host::ON_DISK_ENV, "1");
    }
    // What children (and their workers) do put on a filesystem goes here.
    std::env::set_var("PPM_TMPDIR", &machine_dir);
    let mut all_correct = true;
    for workload in &opts.workloads {
        all_correct &= run_workload(opts, *workload);
    }
    i32::from(!all_correct)
}
