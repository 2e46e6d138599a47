//! The isolated timing loops of the traced run: each layer's public
//! function called ≥ 2¹⁶ times in a batch, median of five batches, the
//! timer's own cost subtracted. Runs in its own child process (`ppm-e2e
//! micro`), so what it allocates never shows in a trial's peak RSS.
//!
//! Only the keep-set API is used: machines, `ProcCtx`, `PersistentMemory`,
//! `pm::frame`, the `dsl` combinators and `Runtime` sessions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ppm::algs::{
    matmul_pool_words, matmul_seq, merge_seq, prefix_sum_seq, MatMul, Merge, MergeSort, PrefixSum,
};
use ppm::core::dsl::{jump_to, CapsuleSet, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::frame::{read_frame, write_frame};
use ppm::pm::{PersistentMemory, PmConfig, TempMachineFile, PAGE_WORDS};
use ppm::sched::{CheckpointPolicy, Runtime, RuntimeConfig};

use crate::json::Json;
use crate::stats::median;
use crate::{batch, gen, host, TrialSpec, Variant, Workload};

/// Calls per batch, batches per metric.
const OPS: usize = 1 << 16;
const BATCHES: usize = 5;
/// Costed accesses per capsule in the `pm.proc` loops: the default
/// validation mode tracks every address a capsule touches, so a capsule
/// must stay the size real ones are.
const CAPSULE_ACCESSES: usize = 64;
/// Words of the durable machine the `pm.backend` loops create: 16 MiB.
const BACKEND_WORDS: usize = 1 << 21;

/// Cost of one `Instant::now()`, in nanoseconds.
fn timer_ns() -> f64 {
    let per_batch = |_| {
        let start = Instant::now();
        for _ in 0..OPS {
            black_box(Instant::now());
        }
        start.elapsed().as_nanos() as f64 / OPS as f64
    };
    median(&(0..BATCHES).map(per_batch).collect::<Vec<_>>())
}

/// Median over batches of nanoseconds per call of `op`, where one batch
/// is `OPS` calls between one pair of timer reads.
fn ns_per_op(timer: f64, mut op: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for i in 0..OPS {
            op(i);
        }
        let ns = start.elapsed().as_nanos() as f64 - 2.0 * timer;
        batches.push(ns.max(0.0) / OPS as f64);
    }
    median(&batches)
}

/// Median milliseconds of `f` over `BATCHES` calls; `f` returns the
/// seconds of the part it wants counted.
fn median_ms(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..BATCHES).map(|_| f() * 1e3).collect::<Vec<_>>())
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

type Fields = Vec<(&'static str, f64)>;

fn mem_loops(timer: f64, mem: &PersistentMemory, out: &mut Fields, names: [&'static str; 3]) {
    let base = mem.len() / 2;
    assert!(base >= OPS, "one address per call");
    if !names[0].is_empty() {
        out.push((
            names[0],
            ns_per_op(timer, |i| {
                black_box(mem.load(base + i));
            }),
        ));
    }
    out.push((names[1], ns_per_op(timer, |i| mem.store(base + i, 0))));
    // Every CAM succeeds: batch `b` moves each word from `b` to `b + 1`.
    let mut calls = 0;
    out.push((
        names[2],
        ns_per_op(timer, |i| {
            let batch = (calls / OPS) as u64;
            calls += 1;
            mem.cam(base + i, batch, batch + 1)
        }),
    ));
}

/// `pm.mem`: raw word access, volatile and through the mmap backend
/// (which adds the dirty bit).
fn pm_mem(timer: f64, out: &mut Fields) {
    let volatile = PersistentMemory::new(1 << 18, 8);
    mem_loops(
        timer,
        &volatile,
        out,
        ["pm.mem.load_ns", "pm.mem.store_ns", "pm.mem.cam_ns"],
    );
    let file = TempMachineFile::new("e2e-micro-mem");
    if let Ok(m) = Machine::create_durable(PmConfig::parallel(1, 1 << 18), file.path()) {
        mem_loops(
            timer,
            m.mem(),
            out,
            ["", "pm.mem.store_mmap_ns", "pm.mem.cam_mmap_ns"],
        );
    }
}

/// `pm.proc` and `pm.frame`: costed access under the default config —
/// fault-point check, statistics, write-after-read tracking — inside
/// capsules of realistic size.
fn pm_proc_and_frame(timer: f64, out: &mut Fields) {
    let m = Machine::with_pool_words(PmConfig::parallel(1, 1 << 21), 1 << 20);
    let r = m.alloc_region(OPS);
    let b = m.cfg().block_size;
    let mut ctx = m.ctx(0);
    let in_capsules = |ctx: &mut ppm::pm::ProcCtx,
                       op: &mut dyn FnMut(&mut ppm::pm::ProcCtx, usize)| {
        ns_per_op(timer, |i| {
            if i % CAPSULE_ACCESSES == 0 {
                if i > 0 {
                    ctx.complete_capsule();
                }
                ctx.begin_capsule("micro");
            }
            op(ctx, i);
            if i == OPS - 1 {
                ctx.complete_capsule();
            }
        })
    };
    out.push((
        "pm.proc.pread_ns",
        in_capsules(&mut ctx, &mut |ctx, i| {
            black_box(ctx.pread(r.at(i)).expect("no faults configured"));
        }),
    ));
    out.push((
        "pm.proc.pwrite_ns",
        in_capsules(&mut ctx, &mut |ctx, i| {
            ctx.pwrite(r.at(i), i as u64).expect("no faults configured");
        }),
    ));
    out.push((
        "pm.proc.pcam_ns",
        in_capsules(&mut ctx, &mut |ctx, i| {
            ctx.pcam(r.at(i), i as u64, 0)
                .expect("no faults configured");
        }),
    ));
    let mut block = vec![0u64; b];
    out.push((
        "pm.proc.block_read_ns_per_word",
        in_capsules(&mut ctx, &mut |ctx, i| {
            ctx.read_block_into(r.at((i * b) % OPS), &mut block)
                .expect("no faults configured");
            black_box(&block);
        }) / b as f64,
    ));
    out.push((
        "pm.proc.block_write_ns_per_word",
        in_capsules(&mut ctx, &mut |ctx, i| {
            ctx.write_block(r.at((i * b) % OPS), &block)
                .expect("no faults configured");
        }) / b as f64,
    ));
    // One capsule stages a run of contiguous words and persists it at its
    // boundary, the way frame writes reach memory.
    out.push((
        "pm.proc.stage_flush_ns_per_word",
        ns_per_op(timer, |i| {
            if i % CAPSULE_ACCESSES == 0 {
                ctx.begin_capsule("micro");
            }
            ctx.stage_write(r.at(i), i as u64);
            if i % CAPSULE_ACCESSES == CAPSULE_ACCESSES - 1 {
                ctx.flush_staged().expect("no faults configured");
                ctx.complete_capsule();
            }
        }),
    ));

    // Eight-argument frames, written from a fresh pool cursor per batch.
    let args = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut frames = Vec::with_capacity(OPS);
    let mut write_batches = Vec::new();
    for _ in 0..BATCHES {
        let mut ctx = m.ctx(0);
        frames.clear();
        let start = Instant::now();
        for i in 0..OPS {
            if i % 8 == 0 {
                ctx.begin_capsule("micro");
            }
            frames.push(write_frame(&mut ctx, 1, &args).expect("no faults configured"));
            if i % 8 == 7 {
                ctx.flush_staged().expect("no faults configured");
                ctx.complete_capsule();
            }
        }
        write_batches.push((start.elapsed().as_nanos() as f64 - 2.0 * timer) / OPS as f64);
    }
    out.push(("pm.frame.write_ns", median(&write_batches)));
    out.push((
        "pm.frame.read_ns",
        ns_per_op(timer, |i| {
            black_box(read_frame(m.mem(), frames[i]).expect("frame just written"));
        }),
    ));
}

/// `pm.backend`: what the durable file costs to create, open and flush.
fn pm_backend(out: &mut Fields) {
    let file = TempMachineFile::new("e2e-micro-backend");
    let cfg = || PmConfig::parallel(1, BACKEND_WORDS);
    out.push((
        "pm.backend.create_ms",
        median_ms(|| {
            secs(|| Machine::create_durable(cfg(), file.path()).expect("create durable machine")).1
        }),
    ));
    out.push((
        "pm.backend.open_ms",
        median_ms(|| secs(|| Machine::reopen(file.path()).expect("reopen durable machine")).1),
    ));
    let m = Machine::create_durable(cfg(), file.path()).expect("create durable machine");
    let user = m.alloc_region(m.remaining_words() - 64);
    let pages = user.len / PAGE_WORDS;
    out.push((
        "pm.backend.flush_full_ms",
        median_ms(|| {
            for p in 0..pages {
                m.mem().store(user.at(p * PAGE_WORDS), p as u64 + 1);
            }
            secs(|| m.flush().expect("msync")).1
        }),
    ));
    // 256 dirty pages scattered over the file: one checkpoint's worth.
    let scattered = 256.min(pages);
    let per_page_us: Vec<f64> = (0..BATCHES)
        .map(|round| {
            for p in 0..scattered {
                m.mem().store(
                    user.at((p * (pages / scattered)) * PAGE_WORDS + round),
                    round as u64,
                );
            }
            let (flushed, s) = secs(|| m.flush_dirty().expect("msync"));
            s * 1e6 / flushed.pages.max(1) as f64
        })
        .collect();
    out.push(("pm.backend.flush_dirty_us_per_page", median(&per_page_us)));
}

/// A chain of `hops` capsules that do nothing but frame their successor:
/// the engine's per-capsule cost through the persistent (frame) form.
fn hop_pcomp(hops: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let hop = set.declare::<usize>("micro/hop");
        set.body(hop, move |left: &usize, k, ctx| {
            if *left == 0 {
                Ok(Step::Jump(k))
            } else {
                jump_to(ctx, hop, &(*left - 1), k)
            }
        });
        hop.setup(m, &hops, K(finale)).word()
    })
}

fn small_runtime(pool: usize) -> Runtime {
    Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(1, pool + (1 << 16)))
            .with_pool_words(pool)
            .with_checkpoint(CheckpointPolicy::disabled()),
    )
}

/// `core.runner`, `sched.runtime`, `core.registry`.
fn engine(timer: f64, out: &mut Fields) {
    let run_hops = |hops: usize| {
        let rt = small_runtime(hops * 8 + (1 << 12));
        let pcomp = hop_pcomp(hops);
        let (rep, s) = secs(|| rt.run_or_recover(&pcomp));
        assert!(rep.completed(), "hop chain must complete");
        s
    };
    // Thread spawn, join and report of a session that runs one capsule.
    let empty: Vec<f64> = (0..32).map(|_| run_hops(0) * 1e6).collect();
    let empty_us = median(&empty);
    out.push(("sched.runtime.empty_run_us", empty_us));
    let per_hop: Vec<f64> = (0..BATCHES)
        .map(|_| (run_hops(OPS) * 1e9 - empty_us * 1e3).max(0.0) / OPS as f64)
        .collect();
    out.push(("core.runner.capsule_ns", median(&per_hop)));

    let m = Machine::new(PmConfig::parallel(1, 1 << 16));
    let mut set = CapsuleSet::new(&m);
    let def = set.define("micro/planted", |_: &usize, k, _| Ok(Step::Jump(k)));
    let handle = def.setup(&m, &7usize, K(0)).word();
    out.push((
        "core.registry.rehydrate_ns",
        ns_per_op(timer, |_| {
            black_box(m.registry().rehydrate(m.mem(), handle).is_ok());
        }),
    ));
}

/// `obs.metrics`: the registry every machine carries.
fn obs_metrics(timer: f64, out: &mut Fields) {
    let reg = ppm::obs::MetricsRegistry::new();
    let counter = reg.counter("e2e_micro_total", "micro");
    let hist = reg.histogram("e2e_micro_us", "micro");
    out.push((
        "obs.metrics.counter_inc_ns",
        ns_per_op(timer, |_| counter.inc()),
    ));
    out.push((
        "obs.metrics.histogram_observe_ns",
        ns_per_op(timer, |i| hist.observe(i as u64)),
    ));
    // The series a real machine registers, rendered as one scrape.
    let rt = small_runtime(1 << 12);
    assert!(rt.run_or_recover(&hop_pcomp(4)).completed());
    let renders: Vec<f64> = (0..64)
        .map(|_| secs(|| black_box(rt.machine().obs().registry().render())).1 * 1e6)
        .collect();
    out.push(("obs.metrics.render_us", median(&renders)));
}

/// One P=1 volatile run of a §7 algorithm under the default config,
/// verified against its sequential oracle; seconds of `run_or_recover`.
fn alg_run(
    words: usize,
    pool: usize,
    build: impl FnOnce(&Machine) -> (PComp, Box<dyn FnOnce(&Machine) -> bool>),
) -> Option<f64> {
    let rt =
        Runtime::volatile(RuntimeConfig::new(PmConfig::parallel(1, words)).with_pool_words(pool));
    let (pcomp, verify) = build(rt.machine());
    let (rep, s) = secs(|| rt.run_or_recover(&pcomp));
    (rep.completed() && verify(rt.machine())).then_some(s)
}

/// `algs`: the other §7 algorithms at P=1, plus the yardstick —
/// `slice::sort_unstable` on the workload's own keys.
fn algs(spec: &TrialSpec, out: &mut Fields) {
    let n = batch::sort_keys(spec.div);
    let keys = gen::keys(spec.seed, n);
    out.push((
        "std_sort_s",
        median(
            &(0..BATCHES)
                .map(|_| {
                    let mut v = keys.clone();
                    secs(|| v.sort_unstable()).1
                })
                .collect::<Vec<_>>(),
        ),
    ));

    let small = (1 << 16) / spec.div.min(16);
    let terms = gen::small_values(spec.seed, small, 1 << 20);
    let prefix = alg_run(1 << 22, 1 << 20, |m| {
        let ps = PrefixSum::new(m, small);
        ps.load_input(m, &terms);
        let want = prefix_sum_seq(&terms);
        (ps.pcomp(), Box::new(move |m| ps.read_output(m) == want))
    });
    out.push((
        "algs.prefix.items_per_s_p1",
        prefix.map_or(0.0, |s| small as f64 / s),
    ));

    let half = small / 2;
    let mut a = gen::keys(spec.seed, half);
    let mut b = gen::keys(spec.seed ^ 1, half);
    a.sort_unstable();
    b.sort_unstable();
    let merge = alg_run(1 << 22, 1 << 20, |m| {
        let mg = Merge::new(m, half, half);
        mg.load_inputs(m, &a, &b);
        let want = merge_seq(&a, &b);
        (mg.pcomp(), Box::new(move |m| mg.read_output(m) == want))
    });
    out.push((
        "algs.merge.items_per_s_p1",
        merge.map_or(0.0, |s| small as f64 / s),
    ));

    let ms_n = small / 4;
    let ms_keys = gen::keys(spec.seed, ms_n);
    let mergesort = alg_run(1 << 23, 1 << 22, |m| {
        let ms = MergeSort::new(m, ms_n);
        ms.load_input(m, &ms_keys);
        let mut want = ms_keys.clone();
        want.sort_unstable();
        (ms.pcomp(), Box::new(move |m| ms.read_output(m) == want))
    });
    out.push((
        "algs.mergesort.items_per_s_p1",
        mergesort.map_or(0.0, |s| ms_n as f64 / s),
    ));

    let dim = if spec.div > 1 { 32 } else { 64 };
    let ma = gen::small_values(spec.seed, dim * dim, 1 << 16);
    let mb = gen::small_values(spec.seed ^ 1, dim * dim, 1 << 16);
    let pool = matmul_pool_words(dim, PmConfig::parallel(1, 1).ephemeral_words);
    let matmul = alg_run(pool + (1 << 18), pool, |m| {
        let mm = MatMul::new(m, dim);
        mm.load_inputs(m, &ma, &mb);
        let want = matmul_seq(&ma, &mb, dim);
        (mm.pcomp(), Box::new(move |m| mm.read_output(m) == want))
    });
    out.push((
        "algs.matmul.flops_per_s_p1",
        matmul.map_or(0.0, |s| 2.0 * (dim * dim * dim) as f64 / s),
    ));
}

/// `fanout_fine`'s yardsticks: a plain loop storing the same words, and
/// how much resident memory each create/run/drop cycle leaves behind.
fn fanout_extras(spec: &TrialSpec, out: &mut Fields) {
    let n = batch::fanout_words(spec.div);
    let salt = gen::Rng::new(spec.seed).next_u64();
    let mut words = vec![0u64; n];
    out.push((
        "plain_loop_s",
        median(
            &(0..BATCHES)
                .map(|_| {
                    secs(|| {
                        for (i, w) in words.iter_mut().enumerate() {
                            *w = gen::mark(salt, i);
                        }
                        black_box(&mut words);
                    })
                    .1
                })
                .collect::<Vec<_>>(),
        ),
    ));
    drop(words);

    // Quarter-size trials in this one process: growth per cycle after the
    // first (which pays for the allocator's arenas).
    let cycle = TrialSpec {
        workload: Workload::FanoutFine,
        procs: 1,
        seed: spec.seed,
        div: spec.div * 4,
        traced: false,
        variant: Variant::Default,
        w1: 0,
    };
    let mut rss = Vec::new();
    for _ in 0..4 {
        let mut rec = crate::spans::Recorder::new(false);
        black_box(batch::run_trial(&cycle, &mut rec));
        rss.push(host::vm_rss_kib());
    }
    out.push((
        "core.machine.rss_growth_mib_per_run",
        (rss[3] - rss[0]) / 3.0 / 1024.0,
    ));
}

/// Runs every loop that applies to `spec.workload`; one JSON object.
pub fn run(spec: &TrialSpec) -> Json {
    let mut out: Fields = Vec::new();
    let timer = timer_ns();
    out.push(("harness.timer_ns", timer));
    pm_mem(timer, &mut out);
    pm_proc_and_frame(timer, &mut out);
    pm_backend(&mut out);
    engine(timer, &mut out);
    obs_metrics(timer, &mut out);
    match spec.workload {
        Workload::SortVolatile => algs(spec, &mut out),
        Workload::FanoutFine => fanout_extras(spec, &mut out),
        _ => {}
    }
    Json::Obj(
        out.into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v)))
            .collect(),
    )
}
