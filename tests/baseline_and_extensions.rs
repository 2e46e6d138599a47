//! The ABP baseline comparison and the paper-flagged extensions
//! (footnote 2's Asymmetric PM cost model).

use std::sync::Arc;

use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{PmConfig, Region};
use ppm::sched::abp::run_computation_abp;
use ppm::sched::{CheckpointPolicy, Runtime, SchedConfig, SessionReport};

/// `n` tasks as a `map_grain` at grain 1: task `i` writes 1 to `r.at(i)`.
/// Both schedulers run this one source.
fn tasks(r: Region, n: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("leaf", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("leaf/split", 1, leaf);
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

/// Runs `n` tasks on the fault-tolerant scheduler, checkpoints off;
/// returns the report and the session.
fn run_ft(procs: usize, n: usize) -> (SessionReport, Runtime, Region) {
    let m = Machine::new(PmConfig::parallel(procs, 1 << 21));
    let r = m.alloc_region(n);
    let mut cfg = SchedConfig::with_slots(1 << 11);
    cfg.checkpoint = CheckpointPolicy::disabled();
    let rt = Runtime::new(m, cfg);
    (rt.run_or_recover(&tasks(r, n)), rt, r)
}

#[test]
fn abp_and_fault_tolerant_schedulers_compute_the_same_result() {
    let n = 96;
    for procs in [1usize, 4] {
        let (rep1, rt1, r1) = run_ft(procs, n);
        assert!(rep1.completed());
        let m1 = rt1.machine();

        let m2 = Machine::new(PmConfig::parallel(procs, 1 << 21));
        let r2 = m2.alloc_region(n);
        let rep2 = run_computation_abp(&m2, &tasks(r2, n), 1 << 11, 9);
        assert!(rep2.completed);

        for i in 0..n {
            assert_eq!(
                m1.mem().load(r1.at(i)),
                m2.mem().load(r2.at(i)),
                "P={procs} task {i}"
            );
        }
    }
}

#[test]
fn fault_tolerance_overhead_vs_abp_is_a_constant_factor() {
    // The paper's pitch: fault tolerance "with only a modest increase in
    // the total cost". Compare faultless model work, P = 1 (deterministic).
    let n = 128;
    let ft = {
        let (rep, _, _) = run_ft(1, n);
        assert!(rep.completed());
        rep.stats().total_work()
    };
    let abp = {
        let m = Machine::new(PmConfig::parallel(1, 1 << 21));
        let r = m.alloc_region(n);
        let rep = run_computation_abp(&m, &tasks(r, n), 1 << 11, 9);
        assert!(rep.completed);
        rep.stats.total_work()
    };
    let ratio = ft as f64 / abp as f64;
    assert!(
        (1.0..4.0).contains(&ratio),
        "fault-tolerant {ft} vs ABP {abp}: overhead {ratio:.2}x should be a modest constant"
    );
}

#[test]
fn asymmetric_pm_accounting_footnote_2() {
    // Writes cost omega times reads (NVM asymmetry). Run a computation and
    // check the weighted accounting brackets sensibly.
    let (rep, _, _) = run_ft(2, 64);
    assert!(rep.completed());
    let st = rep.stats();
    let w1 = st.asymmetric_work(1);
    let w4 = st.asymmetric_work(4);
    assert_eq!(w1, st.total_work());
    assert!(w4 > w1);
    assert!(w4 <= 4 * w1);
    assert_eq!(w4 - w1, 3 * st.total_writes);
    // Time version is a max over processors, so it is bounded by the
    // weighted total but at least the unweighted time.
    assert!(st.asymmetric_time(4) >= st.time());
    assert!(st.asymmetric_time(4) <= w4);
}

#[test]
fn read_write_split_is_consistent_and_install_heavy() {
    // Capsule installation costs two writes per capsule (frame +
    // restart pointer), so the machinery is write-heavy; the split should
    // be within a small constant either way and sum to the total.
    let rt = Runtime::new(
        Machine::new(PmConfig::parallel(1, 1 << 22)),
        SchedConfig::with_slots(1 << 13),
    );
    let ps = ppm::algs::PrefixSum::new(rt.machine(), 1 << 12);
    ps.load_input(rt.machine(), &vec![1u64; 1 << 12]);
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    let st = rep.stats();
    assert_eq!(st.total_reads + st.total_writes, st.total_work());
    assert!(st.total_writes >= 2 * st.capsule_completions.saturating_sub(st.capsule_runs / 2));
    assert!(
        st.total_writes <= 6 * st.total_reads.max(1),
        "reads {} writes {}: ratio should stay a small constant",
        st.total_reads,
        st.total_writes
    );
}
