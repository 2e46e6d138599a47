//! Capsule budgets: how many capsules the §7 sorts and a fine-grained
//! `map_grain` execute, counted — not timed — on a deterministic run
//! (P = 1, no faults, checkpoints off). The sorts run at the capsule size
//! Theorem 7.3 allows, `C = O(M/B)`; a change that silently shrinks a
//! capsule back to one block multiplies these counts by ten and fails
//! here, in `cargo test`, not only in the wall-clock benchmark.

use std::sync::Arc;

use ppm::algs::{samplesort_pool_words, MergeSort, SampleSort};
use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{PmConfig, Region, Word};
use ppm::sched::{CheckpointPolicy, Runtime, RuntimeConfig};

/// A faultless single-processor session on the default `(M, B)`,
/// checkpoints off: every count below repeats to the digit.
fn runtime(words: usize, pool_words: usize) -> Runtime {
    Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(1, words))
            .with_pool_words(pool_words)
            .with_checkpoint(CheckpointPolicy::disabled()),
    )
}

/// Seeded uniform keys (splitmix64).
fn keys(n: usize) -> Vec<Word> {
    let mut s = 7u64;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

fn sorted(mut v: Vec<Word>) -> Vec<Word> {
    v.sort_unstable();
    v
}

#[test]
fn samplesort_runs_a_quarter_capsule_per_key_and_c_does_not_grow() {
    let n = 1 << 15;
    let rt = runtime(1 << 23, samplesort_pool_words(n));
    let ss = SampleSort::new(rt.machine(), n);
    let data = keys(n);
    ss.load_input(rt.machine(), &data);
    let rep = rt.run_or_recover(&ss.pcomp());
    assert!(rep.completed());
    assert_eq!(ss.read_output(rt.machine()), sorted(data));
    let st = rep.stats();
    // 3.44·n while the embedded prefix sum had one-block leaves and the
    // merges one-block base cases; 4283 capsules (n/7.7) while samplesort
    // took √n buckets, 2207 with buckets sized to M.
    assert!(
        st.capsule_completions * 14 <= n as u64,
        "samplesort ran {} capsules for {n} keys: more than n/14",
        st.capsule_completions
    );
    // The row sorts and scatter tiles already moved Θ(M) words per capsule
    // (C = 3485 on these keys before the coarsening, and still while the
    // scatter capped its tiles at 2M cells of √n buckets); with buckets
    // sized to M a tile moves about 2M words, and C = 1167.
    assert!(
        st.max_capsule_work <= 1167 * 105 / 100,
        "C = {} grew past the row-sort / scatter-tile capsules",
        st.max_capsule_work
    );
}

#[test]
fn mergesort_runs_a_twentieth_of_a_capsule_per_key() {
    let n = 1 << 15;
    let rt = runtime(1 << 22, 1 << 19);
    let ms = MergeSort::new(rt.machine(), n);
    let data = keys(n);
    ms.load_input(rt.machine(), &data);
    let rep = rt.run_or_recover(&ms.pcomp());
    assert!(rep.completed());
    assert_eq!(ms.read_output(rt.machine()), sorted(data));
    let capsules = rep.stats().capsule_completions;
    // 4.5·n with one-block merge base cases.
    assert!(
        capsules * 20 <= n as u64,
        "mergesort ran {capsules} capsules for {n} keys: more than n/20"
    );
}

#[test]
fn a_fork_costs_five_scheduler_capsules_and_its_joins_free_its_29_pool_words() {
    // Two sizes, one per-run constant: the count is linear in the forks.
    for n in [1 << 12, 1 << 10] {
        fork_budget(n);
    }
}

const GRAIN: usize = 4;

/// `map_grain` at [`GRAIN`] over `out`, each index writing its own
/// number plus one.
fn fanout(out: Region, n: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("budget/leaf", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as Word + 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("budget/split", GRAIN, leaf);
        let all = Span {
            env: out,
            lo: 0,
            hi: n,
        };
        split.setup(m, &all, K(finale)).word()
    })
}

/// Per fork: two 8-word span frames (a leaf's is written by its parent
/// split), the join cell and its two 6-word arrival frames.
const FORK_WORDS: u64 = 29;

/// The P = 1 pool peak of a balanced fork tree `depth >= 3` levels deep.
/// Only the forks open on one root-to-leaf path hold words, 29 a level,
/// plus what the joins of their finished left subtrees could not roll
/// back: a join keeps the cursor's offset within its 8-word block, so a
/// finished subtree of `2^k - 1` forks leaves `(2^k - 1) · 29 mod 8`
/// words above its mark — 3 when `k >= 3`, 7 when `k = 2`, 5 when
/// `k = 1`, none for a leaf. Down the rightmost path that is
/// `29 · depth + 3 · (depth - 3) + 7 + 5`.
fn p1_peak(depth: u64) -> u64 {
    assert!(depth >= 3);
    32 * depth + 3
}

fn fork_budget(n: usize) {
    let leaves = (n / GRAIN) as u64;
    let forks = leaves - 1;
    let depth = leaves.ilog2() as u64;
    let rt = runtime(1 << 20, 1 << 17);
    let out = rt.machine().alloc_region(n);
    let rep = rt.run_or_recover(&fanout(out, n));
    assert!(rep.completed());
    assert!((0..n).all(|i| rt.machine().mem().load(out.at(i)) == i as Word + 1));
    let st = rep.stats();
    // The workload's own capsules: a split per fork and the leaves, which
    // their parent split frames directly.
    let own = 2 * leaves - 1;
    // Per fork: pushBottom's commit (its reads end the forking split),
    // clearBottom (which runs popBottom's read) and popBottom's CAM (which
    // checks itself) find the sibling, and the two one-capsule join
    // arrivals — five capsules, where Figure 3 as drawn has eight.
    // Fourteen more start and end the run: popBottom/read and steal find
    // the ring's one job; ten ring capsules pull it (pull read, cam,
    // check and seat), enter it (entry, its cam and check) and complete it
    // (done, its cam, and the check that drains the ring and sets the
    // done flag, the finale's old job); then clearBottom and the steal
    // that sees the flag.
    assert_eq!(st.capsule_completions - own, 5 * forks + 14, "n = {n}");
    // A fork writes 29 pool words, and its join, on the one processor,
    // rolls the pool back to its cell's block offset: the peak is about
    // 32 words per level of the balanced tree — log2(leaves) levels —
    // not 29 per fork.
    assert_eq!(st.max_pool_peak, p1_peak(depth), "n = {n}");
}

/// At P = 2 a subtree a steal splits keeps its words until the run ends
/// (no join frees them), so the pool is no longer the P = 1 peak
/// per processor: each seeded schedule reports its per-processor peaks
/// against `P · S_1`, Blumofe and Leiserson's space bound with `S_1` the
/// P = 1 peak above, and against what the same run would hold with no
/// join freeing anything (29 words per fork it ran).
#[test]
fn at_p2_each_processors_peak_is_reported_against_p_times_depth() {
    use ppm::sched::{SchedConfig, SimSched};
    let n = 1 << 10;
    let leaves = (n / GRAIN) as u64;
    let s1 = p1_peak(leaves.ilog2() as u64);
    for seed in 1..=4 {
        let machine = Machine::with_pool_words(PmConfig::parallel(2, 1 << 18), 1 << 14);
        let out = machine.alloc_region(n);
        let cfg = SchedConfig {
            checkpoint: CheckpointPolicy::disabled(),
            ..SchedConfig::with_slots(1 << 10)
        };
        let mut sim = SimSched::new_persistent(&machine, &fanout(out, n), &cfg);
        sim.run_seeded(seed, 1 << 20);
        assert!(sim.finish().completed, "seed {seed}");
        assert!((0..n).all(|i| machine.mem().load(out.at(i)) == i as Word + 1));
        let stats = machine.stats().snapshot();
        let peaks: Vec<u64> = stats.per_proc.iter().map(|p| p.pool_peak).collect();
        let steals = (machine.obs().registry())
            .counter("ppm_steals_total", "steals that won their CAM")
            .get();
        println!(
            "seed {seed}: pool peaks {peaks:?} words, P·S_1 = {} words, {steals} steals",
            2 * s1
        );
        assert!(
            peaks.iter().sum::<u64>() < FORK_WORDS * (leaves - 1),
            "seed {seed}: the joins on each processor free nothing ({peaks:?})"
        );
    }
}
