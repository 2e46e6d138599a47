//! Allocation budget: a frame is run where it lies, so a fine-grained
//! `map_grain` allocates nothing on the heap per leaf. Counted — not
//! timed — with a counting global allocator around `run_or_recover`: the
//! count at 4096 leaves against the count at 1024 leaves, at P = 1 and
//! P = 2. While every frame was turned back into a heap closure before it
//! ran the difference was exactly 7 allocations per leaf.
//!
//! One `#[test]` in this binary, on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{PmConfig, Region, Word};
use ppm::sched::{CheckpointPolicy, Runtime, RuntimeConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one this impl must meet; the counter is a
// relaxed atomic add that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const GRAIN: usize = 4;

/// The `fanout_fine` computation of `bench/e2e`: a `map_grain` over `n`
/// words whose leaves write `GRAIN` of them.
fn fanout(out: Region, n: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("alloc-budget/leaf", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as Word + 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("alloc-budget/split", GRAIN, leaf);
        let all = Span {
            env: out,
            lo: 0,
            hi: n,
        };
        split.setup(m, &all, K(finale)).word()
    })
}

/// Heap allocations `run_or_recover` makes for `n` words on `procs`
/// processors (checkpoints off: nothing but the run itself allocates).
fn allocations_of_a_run(procs: usize, n: usize) -> u64 {
    let pool = n / GRAIN * 56 + 4096;
    let words = procs * (pool + (1 << 14) + 64) + n + 4096;
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(procs, words))
            .with_pool_words(pool)
            .with_checkpoint(CheckpointPolicy::disabled()),
    );
    let out = rt.machine().alloc_region(n);
    let pcomp = fanout(out, n);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rep = rt.run_or_recover(&pcomp);
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(rep.completed());
    let mem = rt.machine().mem();
    assert!((0..n).all(|i| mem.load(out.at(i)) == i as Word + 1));
    during
}

#[test]
fn a_map_grain_leaf_allocates_nothing() {
    let (small, large) = (4096, 16384);
    let extra_leaves = ((large - small) / GRAIN) as f64;
    for procs in [1, 2] {
        let base = allocations_of_a_run(procs, small);
        let grown = allocations_of_a_run(procs, large);
        let per_leaf = grown.saturating_sub(base) as f64 / extra_leaves;
        println!("P = {procs}: {base} -> {grown} allocations, {per_leaf:.4} per extra leaf");
        assert!(
            per_leaf < 0.01,
            "P = {procs}: {base} allocations at {small} words, {grown} at {large}: \
             {per_leaf:.3} per extra leaf"
        );
    }
}
