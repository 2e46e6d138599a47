//! Cross-crate integration: the Theorem 3.2–3.4 simulations match native
//! execution and stay within the O(t) expected-work shape across machine
//! geometries and fault rates.

use ppm::core::Machine;
use ppm::pm::{FaultConfig, PmConfig};
use ppm::sim::em::programs::{block_reverse, block_sum_built};
use ppm::sim::ram::programs::{fib, memset, sum_array};
use ppm::sim::{
    run_both, run_native_cache, run_native_em, simulate_cache_on_pm, simulate_em_on_pm,
    AccessPattern, CachePmLayout, EmPmLayout,
};

#[test]
fn t32_ram_simulation_is_exact_and_linear() {
    // Correctness at several fault rates and a work-per-step constant.
    for (f, seed) in [(0.0, 0), (0.005, 1), (0.02, 2)] {
        let machine = Machine::new(PmConfig::parallel(1, 1 << 21).with_fault(if f == 0.0 {
            FaultConfig::none()
        } else {
            FaultConfig::soft(f, seed)
        }));
        let n = 120;
        let mut init: Vec<i64> = (0..n as i64).collect();
        init.push(0);
        let (native, report, pm_mem) = run_both(&machine, &sum_array(n), &init, 1 << 22);
        assert!(native.halted && report.halted, "f={f}");
        assert_eq!(report.steps, native.steps, "f={f}");
        assert_eq!(pm_mem[n], (0..n as i64).sum::<i64>(), "f={f}");
        let per_step = machine.snapshot().total_work() as f64 / native.steps as f64;
        assert!(per_step < 30.0, "f={f}: {per_step} transfers/step not O(1)");
    }
}

/// §4.1's "two closures and swap back and forth": the RAM simulation's
/// two step frames are written once at setup, each naming the other, so
/// ten thousand simulated steps allocate nothing from the processor's
/// pool — the committed cursor never leaves 0.
#[test]
fn t32_two_frame_swap_allocates_nothing_per_step() {
    let machine =
        Machine::new(PmConfig::parallel(1, 1 << 21).with_fault(FaultConfig::soft(0.01, 5)));
    let n = 3000;
    let mut init: Vec<i64> = (0..n as i64).collect();
    init.push(0);
    let (native, report, pm_mem) = run_both(&machine, &sum_array(n), &init, 1 << 22);
    assert!(
        report.halted && native.steps >= 10_000,
        "{} steps",
        native.steps
    );
    assert_eq!(report.steps, native.steps);
    assert_eq!(pm_mem[n], (0..n as i64).sum::<i64>());
    assert_eq!(machine.pool_watermark(0), 0, "the pool cursor never moved");
    assert_eq!(machine.snapshot().max_pool_peak, 0);
}

#[test]
fn t32_other_programs() {
    type Check = fn(&[i64]) -> bool;
    let cases: Vec<(_, Vec<i64>, Check)> = vec![
        (fib(25), vec![0i64; 4], |m: &[i64]| m[0] == 75025),
        (memset(64, 3), vec![0i64; 64], |m: &[i64]| {
            m.iter().all(|&v| v == 3)
        }),
    ];
    for (prog, init, check) in cases {
        let machine =
            Machine::new(PmConfig::parallel(1, 1 << 21).with_fault(FaultConfig::soft(0.01, 7)));
        let (_, report, pm_mem) = run_both(&machine, &prog, &init, 1 << 22);
        assert!(report.halted);
        assert!(check(&pm_mem));
    }
}

#[test]
fn t33_em_simulation_across_geometries() {
    for (m_sim, b) in [(32usize, 4usize), (64, 8), (128, 16)] {
        let nb = 10;
        let prog = block_sum_built(nb, m_sim, b);
        let ext: Vec<i64> = (0..((nb + 1) * b) as i64).collect();
        let machine = Machine::new(
            PmConfig::parallel(1, 1 << 21)
                .with_block_size(b)
                .with_fault(FaultConfig::soft(0.005, 3)),
        );
        let layout = EmPmLayout::new(&machine, &prog, ext.len());
        layout.load_ext(&machine, &ext);
        let report = simulate_em_on_pm(&machine, &prog, layout, 1 << 22).unwrap();
        assert!(report.halted, "M={m_sim} B={b}");

        let mut native_ext = ext.clone();
        let native = run_native_em(&prog, &mut native_ext, 1 << 22);
        assert_eq!(
            layout.read_ext(&machine, ext.len()),
            native_ext,
            "M={m_sim} B={b}"
        );

        // O(t): per-transfer cost bounded by a constant multiple of M/B
        // round overhead.
        let per_t = machine.snapshot().total_work() as f64 / native.transfers as f64;
        let bound = 8.0 * (m_sim / b) as f64 + 16.0;
        assert!(per_t < bound, "M={m_sim} B={b}: {per_t} >= {bound}");
    }
}

#[test]
fn t33_reverse_program() {
    let (nb, m_sim, b) = (6usize, 64usize, 8usize);
    let prog = block_reverse(nb, m_sim, b);
    let ext: Vec<i64> = (0..(2 * nb * b) as i64).collect();
    let machine = Machine::new(
        PmConfig::parallel(1, 1 << 21)
            .with_block_size(b)
            .with_fault(FaultConfig::soft(0.01, 11)),
    );
    let layout = EmPmLayout::new(&machine, &prog, ext.len());
    layout.load_ext(&machine, &ext);
    let report = simulate_em_on_pm(&machine, &prog, layout, 1 << 22).unwrap();
    assert!(report.halted);
    let mut native_ext = ext.clone();
    run_native_em(&prog, &mut native_ext, 1 << 22);
    assert_eq!(layout.read_ext(&machine, ext.len()), native_ext);
}

/// The EM and ideal-cache simulations swap four frames written at setup
/// (a simulation and a commit frame per register copy): however many
/// rounds run, no round writes a frame.
#[test]
fn t33_t34_rounds_allocate_no_frames() {
    let (nb, m_sim, b) = (64usize, 32usize, 8usize);
    let prog = block_sum_built(nb, m_sim, b);
    let ext: Vec<i64> = (0..((nb + 1) * b) as i64).collect();
    let machine = Machine::new(PmConfig::parallel(1, 1 << 21).with_block_size(b));
    let layout = EmPmLayout::new(&machine, &prog, ext.len());
    layout.load_ext(&machine, &ext);
    let report = simulate_em_on_pm(&machine, &prog, layout, 1 << 22).unwrap();
    assert!(report.halted);
    let rounds = machine.snapshot().capsule_completions;
    assert!(rounds >= 32, "{rounds} capsules");
    assert_eq!(
        machine.snapshot().max_pool_peak,
        0,
        "EM rounds wrote frames"
    );

    let pattern = AccessPattern::SeqScan { n: 2048 };
    let machine = Machine::new(
        PmConfig::parallel(1, 1 << 21)
            .with_block_size(b)
            .with_ephemeral_words(m_sim),
    );
    let range = pattern.address_range();
    let layout = CachePmLayout::new(&machine, range.next_multiple_of(b), m_sim);
    simulate_cache_on_pm(&machine, &pattern, layout).unwrap();
    let rounds = machine.snapshot().capsule_completions;
    assert!(rounds >= 32, "{rounds} capsules");
    assert_eq!(
        machine.snapshot().max_pool_peak,
        0,
        "cache rounds wrote frames"
    );
}

#[test]
fn t34_cache_simulation_matches_and_scales_with_misses() {
    for (pattern, m_sim, b) in [
        (AccessPattern::SeqScan { n: 512 }, 64usize, 8usize),
        (
            AccessPattern::Random {
                n: 1500,
                range: 256,
                seed: 4,
            },
            64,
            8,
        ),
        (
            AccessPattern::Strided {
                n: 900,
                stride: 13,
                range: 256,
            },
            128,
            16,
        ),
    ] {
        let range = pattern.address_range();
        let machine = Machine::new(
            PmConfig::parallel(1, 1 << 21)
                .with_block_size(b)
                .with_ephemeral_words(m_sim)
                .with_fault(FaultConfig::soft(0.005, 5)),
        );
        let layout = CachePmLayout::new(&machine, range.next_multiple_of(b), m_sim);
        simulate_cache_on_pm(&machine, &pattern, layout).unwrap();

        let mut native_mem = vec![0u64; range];
        let native = run_native_cache(&pattern, m_sim, b, &mut native_mem);
        assert_eq!(
            layout.read_memory(&machine, range),
            native_mem,
            "pattern {pattern:?}"
        );
        let work = machine.snapshot().total_work();
        assert!(
            work as f64 <= 10.0 * native.misses.max(1) as f64 + 8.0 * (2 * m_sim / b) as f64,
            "pattern {pattern:?}: work {work} vs misses {}",
            native.misses
        );
    }
}
