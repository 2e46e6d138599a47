//! Property-based determinism tests for the fault-injection simulator.
//!
//! The whole value of [`ppm::sched::SimSched`] is that a schedule is a
//! *reproducible artifact*: the same seed replays the same interleaving
//! over the real capsule engine, byte for byte and bit for bit. These
//! properties pin that across 64 seeds each, including seeds whose
//! schedules cross boundary crashes and mid-capsule hard faults.

use std::sync::Arc;

use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, Region};
use ppm::sched::{SchedConfig, SimOp, SimSched};
use proptest::prelude::*;

fn machine(procs: usize, fault: FaultConfig) -> Machine {
    Machine::new(PmConfig::parallel(procs, 1 << 21).with_fault(fault))
}

/// `n` marker tasks as a `map_grain` at grain 1: task `i` writes `i + 1`.
fn markers(r: Region, n: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("sim/mark", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as u64 + 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("sim/split", 1, leaf);
        split
            .setup(
                m,
                &Span {
                    env: r,
                    lo: 0,
                    hi: n,
                },
                K(finale),
            )
            .word()
    })
}

/// One full seeded run: returns the rendered event trace, the machine
/// digest, and whether the computation completed.
fn seeded_run(procs: usize, tasks: usize, fault: FaultConfig, seed: u64) -> (String, u64, bool) {
    let m = machine(procs, fault);
    let r = m.alloc_region(64);
    let comp = markers(r, tasks);
    let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(256));
    sim.run_seeded(seed, 4_000);
    (sim.render_trace(), sim.digest(), sim.completed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed ⇒ byte-identical trace and bit-identical machine
    /// digest, for any seed.
    #[test]
    fn same_seed_replays_identically(seed in any::<u64>()) {
        let (t1, d1, c1) = seeded_run(3, 12, FaultConfig::none(), seed);
        let (t2, d2, c2) = seeded_run(3, 12, FaultConfig::none(), seed);
        prop_assert_eq!(t1, t2, "trace must be byte-identical for seed {}", seed);
        prop_assert_eq!(d1, d2, "machine digest must match for seed {}", seed);
        prop_assert_eq!(c1, c2);
        prop_assert!(c1, "fault-free seeded runs must complete (seed {})", seed);
    }

    /// Determinism holds through a scheduled mid-capsule hard fault:
    /// the fault fires at the same persistent access on both runs, so
    /// the Died event lands at the same step of the trace.
    #[test]
    fn same_seed_replays_identically_under_hard_faults(
        seed in any::<u64>(),
        fault_at in 4u64..40,
    ) {
        let f = || FaultConfig::none().with_scheduled_hard_fault(0, fault_at);
        let (t1, d1, c1) = seeded_run(3, 12, f(), seed);
        let (t2, d2, c2) = seeded_run(3, 12, f(), seed);
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(c1, c2);
    }

    /// A scripted prefix composes with a seeded tail without breaking
    /// determinism: crash a processor at a seed-chosen boundary, then
    /// let the survivors run seeded to completion.
    #[test]
    fn scripted_crash_plus_seeded_tail_is_deterministic(
        seed in any::<u64>(),
        warmup in 1usize..8,
    ) {
        let run = || {
            let m = machine(2, FaultConfig::none());
            let r = m.alloc_region(64);
            let comp = markers(r, 8);
            let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(256));
            sim.run_script(&[SimOp::Run(0, warmup), SimOp::Crash(0)]);
            sim.run_seeded(seed, 4_000);
            let completed = sim.completed();
            let trace = sim.render_trace();
            let digest = sim.digest();
            let marks: Vec<u64> = (0..8).map(|i| m.mem().load(r.at(i))).collect();
            (trace, digest, completed, marks)
        };
        let (t1, d1, c1, m1) = run();
        let (t2, d2, c2, m2) = run();
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(&m1, &m2);
        prop_assert!(c1, "the survivor must finish after the scripted crash");
        prop_assert_eq!(m1, (1..=8).collect::<Vec<u64>>(), "exactly-once effects");
    }

    /// Different seeds explore genuinely different interleavings often
    /// enough to matter: a seed and its successor must not collapse to
    /// one schedule (regression guard for the seed-scrambling bug where
    /// `seed | 1` aliased adjacent seeds).
    #[test]
    fn adjacent_seeds_do_not_alias(seed in any::<u64>()) {
        let (t1, _, _) = seeded_run(3, 12, FaultConfig::none(), seed);
        let (t2, _, _) = seeded_run(3, 12, FaultConfig::none(), seed.wrapping_add(1));
        prop_assert_ne!(t1, t2, "seeds {} and +1 produced identical schedules", seed);
    }
}
