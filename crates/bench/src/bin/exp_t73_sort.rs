//! E8 — Theorem 7.3: samplesort in O((n/B)·log_M n) work versus
//! mergesort's O((n/B)·log(n/M)).
//!
//! Sweeps `n` at fixed (M, B), reporting both sorts' I/O counts, the
//! normalized constants against their respective analytic factors, and
//! the ratio. Asymptotically the ratio grows in mergesort's disfavour as
//! n/M grows, since log(n/M) grows while log_M n barely moves; the closing
//! note says what this table's range of n shows.

use ppm_algs::sort::samplesort_pool_words;
use ppm_algs::util::{scatter_naive, BlockScatter};
use ppm_algs::{MergeSort, SampleSort};
use ppm_bench::{banner, f2, header, model_cost_sched, row, s, BenchReport};
use ppm_core::Machine;
use ppm_pm::{Addr, PmConfig, Word};
use ppm_sched::{Runtime, SchedConfig};

const W: [usize; 8] = [8, 11, 11, 9, 10, 10, 9, 9];

/// Mergesort's per-processor pool: sized to hold every frame of the run
/// as if no join freed any — about 41 words per key, 340k words at
/// n = 2^13.
const MERGESORT_POOL_WORDS: usize = 1 << 19;

fn data(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 7)) % 1_000_000_007)
        .collect()
}

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E8 (Theorem 7.3)",
        "samplesort vs mergesort I/O",
        "samplesort O((n/B) log_M n) beats mergesort O((n/B) log(n/M)) as n/M grows",
    );

    let m_eph = 128; // small M exaggerates the asymptotic gap at feasible n
    let b = 8;

    header(
        &[
            "n",
            "W merge",
            "W sample",
            "ms/ss",
            "per-lvl-m",
            "per-lvl-s",
            "log(n/M)",
            "log_M n",
        ],
        &W,
    );

    let mut report = BenchReport::new("exp_t73_sort");
    let mut last_scrape = String::new();
    for n in cli.cap_sizes(&[1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13]) {
        let input = data(n);
        let mut expect = input.clone();
        expect.sort_unstable();

        let w_ms = {
            let m = Machine::with_pool_words(
                PmConfig::parallel(1, 1 << 24)
                    .with_block_size(b)
                    .with_ephemeral_words(m_eph),
                MERGESORT_POOL_WORDS,
            );
            let ms = MergeSort::new(&m, n);
            ms.load_input(&m, &input);
            let rt = Runtime::new(m, model_cost_sched(1 << 15));
            let rep = rt.run_or_recover(&ms.pcomp());
            assert!(rep.completed());
            assert_eq!(ms.read_output(rt.machine()), expect);
            rep.stats().total_work()
        };
        let w_ss = {
            let m = Machine::with_pool_words(
                PmConfig::parallel(1, 1 << 25)
                    .with_block_size(b)
                    .with_ephemeral_words(m_eph),
                // The formula plus one more frame term: a pool size
                // moves the regions after it, so it stays as the pinned
                // model costs were measured with.
                samplesort_pool_words(n) + 40 * n,
            );
            let ss = SampleSort::new(&m, n);
            ss.load_input(&m, &input);
            let rt = Runtime::new(m, model_cost_sched(1 << 16));
            let rep = rt.run_or_recover(&ss.pcomp());
            assert!(rep.completed());
            assert_eq!(ss.read_output(rt.machine()), expect);
            last_scrape = rt.machine().obs().registry().render();
            rep.stats().total_work()
        };

        let nb = n as f64 / b as f64;
        let log_n_m = (n as f64 / m_eph as f64).log2().max(1.0);
        let log_m_n = (n as f64).log2() / (m_eph as f64).log2();
        row(
            &[
                s(n),
                s(w_ms),
                s(w_ss),
                f2(w_ms as f64 / w_ss as f64),
                f2(w_ms as f64 / (nb * log_n_m)),
                f2(w_ss as f64 / (nb * log_m_n)),
                f2(log_n_m),
                f2(log_m_n),
            ],
            &W,
        );
        report
            .note("n", n)
            .metric("merge_per_level_x", w_ms as f64 / (nb * log_n_m))
            .metric("sample_per_level_x", w_ss as f64 / (nb * log_m_n));
    }
    // --- propagation-blocking scatter microbench (1M keys) -----------
    //
    // The samplesort scatter phase in isolation: move 1M keys into ~√n
    // buckets, once through the naive per-element scatter (every write
    // lands in a cold block: ~1 transfer per key) and once through the
    // `BlockScatter` staging bins (sequential appends, full-block
    // streams: ~1 transfer per B keys). The ratio is the baselined
    // `scatter_seq_over_random_x` — ≤ 0.667 means the blocked move is at
    // least 1.5x cheaper.
    let (w_blocked, w_naive) = {
        let n = 1 << 20;
        let buckets = 1 << 10;
        let m = Machine::new(PmConfig::parallel(1, 1 << 22).with_block_size(b));
        let src = m.alloc_region(n);
        let dst = m.alloc_region(n);
        // Bucket assignment and destination offsets are uncosted setup:
        // samplesort derives them in its counts/prefix phases, which this
        // microbench holds fixed to isolate the move.
        let keys = data(n);
        let assign: Vec<usize> = keys
            .iter()
            .map(|k| (k.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 44) as usize % buckets)
            .collect();
        let mut offs = vec![0usize; buckets + 1];
        for &j in &assign {
            offs[j + 1] += 1;
        }
        for j in 0..buckets {
            offs[j + 1] += offs[j];
        }
        for (i, k) in keys.iter().enumerate() {
            m.mem().store(src.at(i), *k);
        }

        let mut ctx = m.ctx(0);
        let work = |ctx: &ppm_pm::ProcCtx| {
            let s = ctx.stats().snapshot();
            s.total_reads + s.total_writes
        };

        ctx.begin_capsule("scatter/blocked");
        let before = work(&ctx);
        let mut sc = BlockScatter::new(
            &ctx,
            (0..buckets)
                .map(|j| dst.cursor(offs[j]))
                .collect::<Vec<Addr>>(),
        );
        let mut pos = 0usize;
        while pos < n {
            let take = 4096.min(n - pos);
            let chunk = ppm_algs::util::pread_range(&mut ctx, src.at(pos), take).unwrap();
            for (o, w) in chunk.iter().enumerate() {
                sc.push(&mut ctx, assign[pos + o], *w).unwrap();
            }
            pos += take;
        }
        sc.flush(&mut ctx).unwrap();
        let w_blocked = work(&ctx) - before;
        ctx.complete_capsule();

        ctx.begin_capsule("scatter/naive");
        let before = work(&ctx);
        let mut cursors: Vec<Addr> = (0..buckets).map(|j| dst.cursor(offs[j])).collect();
        let mut pos = 0usize;
        while pos < n {
            let take = 4096.min(n - pos);
            let chunk = ppm_algs::util::pread_range(&mut ctx, src.at(pos), take).unwrap();
            scatter_naive(
                &mut ctx,
                &mut cursors,
                chunk.iter().enumerate().map(|(o, w)| (assign[pos + o], *w)),
            )
            .unwrap();
            pos += take;
        }
        let w_naive = work(&ctx) - before;
        ctx.complete_capsule();

        // The second pass overwrote the first with the same permutation.
        let mut sorted_by_bucket: Vec<Word> = (0..n).map(|i| m.mem().load(dst.at(i))).collect();
        let mut expect = keys.clone();
        sorted_by_bucket.sort_unstable();
        expect.sort_unstable();
        assert_eq!(sorted_by_bucket, expect, "scatter must permute the input");
        (w_blocked, w_naive)
    };
    let scatter_x = w_blocked as f64 / w_naive as f64;
    println!("\nscatter microbench (1M keys, 1024 buckets, B = {b}):");
    println!(
        "  blocked W = {w_blocked}   naive W = {w_naive}   ratio = {}",
        f2(scatter_x)
    );
    report.metric("scatter_seq_over_random_x", scatter_x);

    // --- frame write-combining ratio (registered form) ---------------
    //
    // The registered pipeline writes every phase frame through the
    // per-proc staging buffer; staged_persists/staged_words is the
    // fraction of a raw word-per-transfer cost actually charged (1/B is
    // perfect coalescing, 1.0 is none).
    {
        let n = 1 << 12;
        let m = Machine::with_pool_words(
            PmConfig::parallel(1, 1 << 25)
                .with_block_size(b)
                .with_ephemeral_words(m_eph),
            samplesort_pool_words(n),
        );
        let ss = SampleSort::new(&m, n);
        let input = data(n);
        ss.load_input(&m, &input);
        let rt = Runtime::new(m, SchedConfig::with_slots(1 << 16));
        let rep = rt.run_or_recover(&ss.pcomp());
        assert!(rep.completed());
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(ss.read_output(rt.machine()), expect);
        let snap = rep.stats();
        let ratio = snap
            .frame_coalesce_ratio()
            .expect("registered samplesort stages frame words");
        println!("\nframe write-combining (registered samplesort, n = {n}):");
        println!(
            "  staged words = {}   persists = {}   coalesce ratio = {}",
            snap.staged_words,
            snap.staged_persists,
            f2(ratio)
        );
        report.metric("frame_coalesce_ratio", ratio);
    }

    report.embed_scrape(&last_scrape);
    report.emit();

    println!("\nshape check: mergesort's per-level constant (column 5) is flat in n.");
    println!("Samplesort's buckets hold about M/2 keys while n < M^2/4, so one partition");
    println!("level sorts them, and ms/ss rises with n through n = M^2/4 = 4096. At");
    println!("n = 8192 its sqrt(n) = 91 buckets average 90 keys against M = 128, 8 of them");
    println!("recurse, and the ratio falls: this range of n shows no trend past M^2/4.");
}
