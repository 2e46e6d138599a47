//! E13 — the §2 capsule-granularity tension (ablation).
//!
//! "There is a tension between the desire for high work capsules that
//! amortize the capsule start/restart overheads and the desire for low
//! work capsules that lessen the repeated work on restart."
//!
//! A fixed scan workload (read+write `n` blocks) is chunked into capsules
//! of `k` blocks each, swept over `k` and the fault rate. Small `k` pays
//! per-capsule installation overhead; large `k` pays O(k) repeated work
//! per fault and violates `f ≤ 1/(2C)` sooner. The table exposes the
//! U-shape and its movement with `f`.

use std::sync::Arc;

use ppm_bench::{banner, f2, header, model_cost_sched, row, s, BenchReport};
use ppm_core::dsl::{CapsuleSet, Step, K};
use ppm_core::{Machine, PComp};
use ppm_pm::{FaultConfig, PmConfig, Region};
use ppm_sched::Runtime;

ppm_core::persist_struct! {
    /// One chunk of the copy: blocks `[c·k, (c+1)·k)` of `nblocks`.
    struct Chunk {
        src: Region,
        dst: Region,
        nblocks: usize,
        b: usize,
        k: usize,
        c: usize,
    }
}

/// The workload: copy `nblocks` blocks from `src` to `dst`, `k` blocks per
/// capsule — a sequence of chunk frames written at setup, each continuing
/// with the next.
fn chunked_copy(src: Region, dst: Region, nblocks: usize, b: usize, k: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let chunk = CapsuleSet::new(m).define("chunk", |st: &Chunk, next, ctx| {
            let lo = st.c * st.k;
            let hi = ((st.c + 1) * st.k).min(st.nblocks);
            for blk in lo..hi {
                let mut buf = vec![0u64; st.b];
                ctx.read_block_into(st.src.at(blk * st.b), &mut buf)?;
                for w in buf.iter_mut() {
                    *w = w.wrapping_mul(3).wrapping_add(1);
                }
                ctx.write_block(st.dst.at(blk * st.b), &buf)?;
            }
            Ok(Step::Jump(next))
        });
        let chunks = (0..nblocks.div_ceil(k)).rev();
        let head = chunks.fold(K(finale), |next, c| {
            let st = Chunk {
                src,
                dst,
                nblocks,
                b,
                k,
                c,
            };
            chunk.setup(m, &st, next)
        });
        head.word()
    })
}

const W: [usize; 7] = [6, 7, 8, 10, 10, 9, 9];

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E13 (§2 ablation)",
        "capsule granularity vs fault rate",
        "restart overhead favours big capsules; repeated work on faults favours small ones",
    );

    let nblocks = cli.n(512);
    let b = 8;

    header(&["k", "f", "C", "W_f", "restarts", "wasted", "vs best"], &W);
    let mut report = BenchReport::new("exp_capsule_granularity");
    report.note("nblocks", nblocks);
    let mut last_scrape = String::new();
    for f in [0.0, 0.002, 0.01, 0.05] {
        let mut results = Vec::new();
        for k in [1usize, 2, 4, 8, 16, 32, 64] {
            let cfg = if f == 0.0 {
                FaultConfig::none()
            } else {
                FaultConfig::soft(f, cli.seed(99))
            };
            let m = Machine::new(PmConfig::parallel(1, 1 << 22).with_fault(cfg));
            let src = m.alloc_region(nblocks * b);
            let dst = m.alloc_region(nblocks * b);
            for i in 0..nblocks * b {
                m.mem().store(src.at(i), i as u64);
            }
            let rt = Runtime::new(m, model_cost_sched(1 << 11));
            let rep = rt.run_or_recover(&chunked_copy(src, dst, nblocks, b, k));
            let m = rt.machine();
            assert!(rep.completed(), "k={k} f={f}");
            // Verify the copy.
            for i in 0..nblocks * b {
                assert_eq!(
                    m.mem().load(dst.at(i)),
                    (i as u64).wrapping_mul(3).wrapping_add(1)
                );
            }
            results.push((k, rep.stats().clone()));
            last_scrape = m.obs().registry().render();
        }
        let best = results.iter().map(|(_, st)| st.total_work()).min().unwrap();
        if f == 0.0 {
            let k1 = results
                .iter()
                .find(|(k, _)| *k == 1)
                .unwrap()
                .1
                .total_work();
            report
                .metric("install_overhead_k1_x", k1 as f64 / best as f64)
                .metric("work_best_f0_words", best as f64);
        }
        for (k, st) in &results {
            row(
                &[
                    s(*k),
                    s(f),
                    s(st.max_capsule_work),
                    s(st.total_work()),
                    s(st.capsule_restarts()),
                    s(st.total_work().saturating_sub(2 * nblocks as u64)),
                    f2(st.total_work() as f64 / best as f64),
                ],
                &W,
            );
        }
        println!();
    }

    report.embed_scrape(&last_scrape);
    report.emit();

    println!("shape check: at f = 0 bigger capsules strictly win (fewer installs);");
    println!("as f grows the optimum k shrinks — the paper's checkpointing tension,");
    println!("with the f <= 1/(2C) constraint visible as blow-up at large k.");
}
