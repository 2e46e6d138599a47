//! The four batch workloads. Each function is one trial, run in a fresh
//! child process: build a machine the way the README tells a user to,
//! time the calls into it from outside, verify the output, and report
//! timings plus the counters the program already publishes.

use std::sync::Arc;
use std::time::Instant;

use ppm::algs::{samplesort_pool_words, SampleSort};
use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, Region};
use ppm::sched::{CheckpointPolicy, Runtime, RuntimeConfig, SessionMode, SessionReport};

use crate::gen;
use crate::host::MachineFile;
use crate::json::Json;
use crate::spans::Recorder;
use crate::{TrialSpec, Variant, Workload};

/// Keys the three sort workloads sort at full size.
const SORT_KEYS: usize = 131_072;
/// Output words of `fanout_fine` at full size, and its grain: 65 536
/// leaves of four writes, so fork/join is nearly all the work.
const FANOUT_WORDS: usize = 262_144;
const FANOUT_GRAIN: usize = 4;
/// Keys a sort trial sorts at size divisor `div` (1 = full size).
pub fn sort_keys(div: usize) -> usize {
    (SORT_KEYS / div).max(64)
}

/// Output words of a `fanout_fine` trial at size divisor `div`.
pub fn fanout_words(div: usize) -> usize {
    (FANOUT_WORDS / div).max(64)
}

/// Pool words one `map_grain` leaf costs (measured: 49, reported as
/// `core.dsl.pool_words_per_leaf`), with headroom. Checkpoints are off on
/// `fanout_fine`, so nothing is reclaimed and one processor may end up
/// expanding every leaf.
const FANOUT_POOL_WORDS_PER_LEAF: usize = 56;

/// The scheduler's default deque size; the machine must have room for
/// one deque per processor.
const DEFAULT_DEQUE_SLOTS: usize = 1 << 14;

/// A machine just large enough: pools, deques, the workload's own
/// regions, and a little slack for metadata. (A generous 2²⁵-word
/// volatile machine costs over a second to construct.)
fn machine_words(procs: usize, pool: usize, user: usize) -> usize {
    procs * (pool + DEFAULT_DEQUE_SLOTS + 64) + user + 4096
}

/// Runs `f` inside a span and returns its result with the seconds it took.
pub fn timed<R>(rec: &mut Recorder, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
    rec.enter(name);
    let start = Instant::now();
    let out = f(rec);
    let secs = start.elapsed().as_secs_f64();
    rec.exit();
    (out, secs)
}

/// What one trial measured; `fields` are workload-specific numbers.
struct Outcome {
    ok: bool,
    note: String,
    setup_s: f64,
    run_s: f64,
    fields: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn failed(note: String) -> Self {
        Outcome {
            ok: false,
            note,
            setup_s: 0.0,
            run_s: 0.0,
            fields: Vec::new(),
        }
    }
}

pub fn run_trial(spec: &TrialSpec, rec: &mut Recorder) -> Json {
    rec.enter("trial");
    let out = match spec.workload {
        Workload::SortVolatile | Workload::SortDurable => sort_trial(spec, rec),
        Workload::SortRecover => recover_trial(spec, rec),
        Workload::FanoutFine => fanout_trial(spec, rec),
        Workload::SvcStream => unreachable!("svc_stream trials run in svc.rs"),
    };
    rec.exit();
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(out.ok)),
        ("note".to_string(), Json::Str(out.note)),
        ("setup_s".to_string(), Json::Num(out.setup_s)),
        ("run_s".to_string(), Json::Num(out.run_s)),
    ];
    pairs.extend(
        out.fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v))),
    );
    Json::Obj(pairs)
}

/// The counters a finished session publishes: cost-model statistics,
/// the checkpoint summary, and the scheduler's registry series.
fn report_fields(machine: &Machine, rep: &SessionReport, fields: &mut Vec<(&'static str, f64)>) {
    let Some(run) = rep.run.as_ref() else {
        return;
    };
    let st = &run.stats;
    let ck = &run.checkpoints;
    let reg = machine.obs().registry();
    let steal_latency = reg.histogram("ppm_steal_latency_us", "");
    let steal_backoff = reg.histogram("ppm_steal_backoff_us", "");
    let quiesce = reg.histogram("ppm_checkpoint_quiesce_us", "");
    let q = |h: &ppm::obs::Histogram, q: f64| h.quantile(q).unwrap_or(0) as f64;
    fields.extend([
        ("reads", st.total_reads as f64),
        ("writes", st.total_writes as f64),
        ("capsules", st.capsule_completions as f64),
        ("staged_words", st.staged_words as f64),
        ("staged_persists", st.staged_persists as f64),
        ("max_capsule_work", st.max_capsule_work as f64),
        ("max_pool_peak", st.max_pool_peak as f64),
        ("ckpt_attempted", ck.attempted as f64),
        ("ckpt_completed", ck.completed as f64),
        ("ckpt_skipped_busy", ck.skipped_busy as f64),
        ("ckpt_pages_flushed", ck.pages_flushed as f64),
        ("ckpt_words_reclaimed", ck.words_reclaimed as f64),
        ("quiesce_p50_us", q(&quiesce, 0.5)),
        ("quiesce_p99_us", q(&quiesce, 0.99)),
        (
            "steal_attempts",
            reg.counter("ppm_steal_attempts_total", "").get() as f64,
        ),
        ("steals", reg.counter("ppm_steals_total", "").get() as f64),
        ("steal_latency_p50_us", q(&steal_latency, 0.5)),
        (
            "steal_latency_mean_us",
            if steal_latency.count() == 0 {
                0.0
            } else {
                steal_latency.sum() as f64 / steal_latency.count() as f64
            },
        ),
        ("steal_backoff_p99_us", q(&steal_backoff, 0.99)),
    ]);
}

/// Bytes the machine file really occupies (allocated blocks, not its
/// sparse length).
fn allocated_bytes(path: &std::path::Path) -> f64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).map_or(0.0, |m| m.blocks() as f64 * 512.0)
}

struct SortShape {
    n: usize,
    pool: usize,
    words: usize,
    checkpoints_off: bool,
}

impl SortShape {
    fn new(spec: &TrialSpec) -> Self {
        let n = sort_keys(spec.div);
        // Without checkpoint GC nothing reclaims dead frames; the
        // library's sizing note asks for 40·n more.
        let checkpoints_off =
            spec.workload == Workload::SortVolatile || spec.variant == Variant::NoCheckpoint;
        let pool = samplesort_pool_words(n) + if checkpoints_off { 40 * n } else { 0 };
        SortShape {
            n,
            pool,
            words: machine_words(spec.procs, pool, 2 * n),
            checkpoints_off,
        }
    }

    /// The session config, exactly as a user would write it: defaults
    /// everywhere, sizing knobs only.
    fn config(&self, procs: usize, fault: Option<FaultConfig>) -> RuntimeConfig {
        let mut pm = PmConfig::parallel(procs, self.words);
        if let Some(fault) = fault {
            pm = pm.with_fault(fault);
        }
        let cfg = RuntimeConfig::new(pm).with_pool_words(self.pool);
        if self.checkpoints_off {
            cfg.with_checkpoint(CheckpointPolicy::disabled())
        } else {
            cfg
        }
    }
}

fn sorted_copy(keys: &[u64]) -> Vec<u64> {
    let mut v = keys.to_vec();
    v.sort_unstable();
    v
}

/// `sort_volatile` and `sort_durable`: the same keys through the same
/// algorithm, without and with the durability layer under it.
fn sort_trial(spec: &TrialSpec, rec: &mut Recorder) -> Outcome {
    let shape = SortShape::new(spec);
    let keys = gen::keys(spec.seed, shape.n);
    let expected = sorted_copy(&keys);
    let durable = spec.workload == Workload::SortDurable;
    let file = durable.then(|| MachineFile::new("e2e-sort"));

    let (built, setup_s) = timed(rec, "setup", |rec| {
        let (rt, create_s) = timed(rec, "machine_create", |_| match &file {
            Some(f) => Runtime::create(f.path(), shape.config(spec.procs, None)),
            None => Ok(Runtime::volatile(shape.config(spec.procs, None))),
        });
        let rt = rt?;
        let (ss, _) = timed(rec, "alloc_load", |_| {
            let ss = SampleSort::new(rt.machine(), shape.n);
            ss.load_input(rt.machine(), &keys);
            ss
        });
        let (pcomp, _) = timed(rec, "build", |_| ss.pcomp());
        std::io::Result::Ok((rt, ss, pcomp, create_s))
    });
    let (rt, ss, pcomp, create_s) = match built {
        Ok(b) => b,
        Err(e) => return Outcome::failed(format!("machine create: {e}")),
    };

    let start = Instant::now();
    let (rep, _) = timed(rec, "run_or_recover", |_| rt.run_or_recover(&pcomp));
    let (clean, flush_s) = timed(rec, "mark_clean", |_| {
        if durable {
            rt.mark_clean()
        } else {
            Ok(())
        }
    });
    let run_s = start.elapsed().as_secs_f64();

    let (sorted, _) = timed(rec, "verify", |_| ss.read_output(rt.machine()) == expected);
    let mut fields = vec![
        ("machine_create_s", create_s),
        ("final_flush_s", flush_s),
        (
            "file_bytes",
            file.as_ref().map_or(0.0, |f| allocated_bytes(f.path())),
        ),
    ];
    report_fields(rt.machine(), &rep, &mut fields);
    Outcome {
        ok: rep.completed() && clean.is_ok() && sorted,
        note: format!(
            "completed={} clean={} sorted={sorted}",
            rep.completed(),
            clean.is_ok()
        ),
        setup_s,
        run_s,
        fields,
    }
}

/// `sort_recover`: stage a crash half-way through a durable sort, then
/// time what a fresh process pays to reach a verified result.
fn recover_trial(spec: &TrialSpec, rec: &mut Recorder) -> Outcome {
    let shape = SortShape::new(spec);
    let keys = gen::keys(spec.seed, shape.n);
    let expected = sorted_copy(&keys);
    let file = MachineFile::new("e2e-recover");
    // Every processor dies after its share of half the clean run's
    // accesses: the in-process twin of `kill -9` (page cache intact, the
    // paper's fault model), placed where it lands mid-pipeline.
    let kill_at = (spec.w1 / (2 * spec.procs as u64)).max(1);
    let fault = (0..spec.procs).fold(FaultConfig::none(), |f, p| {
        f.with_scheduled_hard_fault(p, kill_at)
    });

    let (staged, setup_s) = timed(rec, "setup", |rec| {
        timed(rec, "stage_kill", |rec| {
            let (rt, _) = timed(rec, "machine_create", |_| {
                Runtime::create(file.path(), shape.config(spec.procs, Some(fault)))
            });
            let rt = rt?;
            let (pcomp, _) = timed(rec, "alloc_load", |_| {
                let ss = SampleSort::new(rt.machine(), shape.n);
                ss.load_input(rt.machine(), &keys);
                ss.pcomp()
            });
            let (rep, _) = timed(rec, "run_until_killed", |_| rt.run_or_recover(&pcomp));
            // Dropped without `mark_clean`: the file is what a killed
            // process leaves behind.
            std::io::Result::Ok((rep.completed(), rep.stats().total_work()))
        })
        .0
    });
    let (outlived, staged_work) = match staged {
        Ok(s) => s,
        Err(e) => return Outcome::failed(format!("stage create: {e}")),
    };
    if outlived {
        return Outcome::failed(format!(
            "the staged run outlived its kill at access {kill_at}"
        ));
    }

    let start = Instant::now();
    let (rt, open_s) = timed(rec, "open", |_| {
        Runtime::open(file.path(), shape.config(spec.procs, None))
    });
    let rt = match rt {
        Ok(rt) => rt,
        Err(e) => return Outcome::failed(format!("open after the crash: {e}")),
    };
    let ((ss, pcomp), _) = timed(rec, "rebuild", |_| {
        let ss = SampleSort::new(rt.machine(), shape.n);
        (ss, ss.pcomp())
    });
    let (rep, recover_s) = timed(rec, "run_or_recover", |_| rt.run_or_recover(&pcomp));
    let (clean, flush_s) = timed(rec, "mark_clean", |_| rt.mark_clean());
    let run_s = start.elapsed().as_secs_f64();

    let (sorted, _) = timed(rec, "verify", |_| ss.read_output(rt.machine()) == expected);
    let redriven = rep.run.is_some();
    let mut fields = vec![
        ("open_s", open_s),
        ("recover_s", recover_s),
        ("final_flush_s", flush_s),
        ("file_bytes", allocated_bytes(file.path())),
        ("resumed", f64::from(rep.mode == SessionMode::Resumed)),
        ("staged_work", staged_work as f64),
        (
            "recover_work",
            if redriven {
                rep.stats().total_work() as f64
            } else {
                0.0
            },
        ),
    ];
    report_fields(rt.machine(), &rep, &mut fields);
    Outcome {
        ok: rep.completed() && redriven && clean.is_ok() && sorted,
        note: format!(
            "mode={:?} completed={} clean={} sorted={sorted}",
            rep.mode,
            rep.completed(),
            clean.is_ok()
        ),
        setup_s,
        run_s,
        fields,
    }
}

/// `fanout_fine`: a parallel map whose leaves do four writes each.
fn fanout_trial(spec: &TrialSpec, rec: &mut Recorder) -> Outcome {
    let n = fanout_words(spec.div);
    let leaves = n / FANOUT_GRAIN;
    let pool = leaves * FANOUT_POOL_WORDS_PER_LEAF + 4096;
    let words = machine_words(spec.procs, pool, n);
    let salt = gen::Rng::new(spec.seed).next_u64();

    let ((rt, out, pcomp, create_s), setup_s) = timed(rec, "setup", |rec| {
        let (rt, create_s) = timed(rec, "machine_create", |_| {
            Runtime::volatile(
                RuntimeConfig::new(PmConfig::parallel(spec.procs, words))
                    .with_pool_words(pool)
                    .with_checkpoint(CheckpointPolicy::disabled()),
            )
        });
        let (out, _) = timed(rec, "alloc_load", |_| rt.machine().alloc_region(n));
        let (pcomp, _) = timed(rec, "build", |_| fanout_pcomp(out, n, salt));
        (rt, out, pcomp, create_s)
    });

    let (rep, run_s) = timed(rec, "run_or_recover", |_| rt.run_or_recover(&pcomp));

    let (written, _) = timed(rec, "verify", |_| {
        let mem = rt.machine().mem();
        (0..n).all(|i| mem.load(out.at(i)) == gen::mark(salt, i))
    });
    let mut fields = vec![("machine_create_s", create_s), ("leaves", leaves as f64)];
    report_fields(rt.machine(), &rep, &mut fields);
    Outcome {
        ok: rep.completed() && written,
        note: format!("completed={} written={written}", rep.completed()),
        setup_s,
        run_s,
        fields,
    }
}

fn fanout_pcomp(out: Region, n: usize, salt: u64) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("fanout/leaf", move |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), gen::mark(salt, i))?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("fanout/split", FANOUT_GRAIN, leaf);
        split
            .setup(
                m,
                &Span {
                    env: out,
                    lo: 0,
                    hi: n,
                },
                K(finale),
            )
            .word()
    })
}
