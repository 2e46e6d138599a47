//! The ABP baseline comparison and the paper-flagged extensions
//! (footnote 2's Asymmetric PM cost model).

use ppm::core::{comp_step, par_all, Comp, Machine};
use ppm::pm::{PmConfig, ProcCtx, Region};
use ppm::sched::abp::run_computation_abp;
use ppm::sched::{run_closure, Runtime, SchedConfig};

fn tasks(r: Region, n: usize) -> Comp {
    par_all(
        (0..n)
            .map(|i| comp_step("leaf", move |ctx: &mut ProcCtx| ctx.pwrite(r.at(i), 1)))
            .collect(),
    )
}

#[test]
fn abp_and_fault_tolerant_schedulers_compute_the_same_result() {
    let n = 96;
    for procs in [1usize, 4] {
        let m1 = Machine::new(PmConfig::parallel(procs, 1 << 21));
        let r1 = m1.alloc_region(n);
        assert!(run_closure(&m1, &tasks(r1, n), &SchedConfig::with_slots(1 << 11)).completed);

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
        let m = Machine::new(PmConfig::parallel(1, 1 << 21));
        let r = m.alloc_region(n);
        let rep = run_closure(&m, &tasks(r, n), &SchedConfig::with_slots(1 << 11));
        assert!(rep.completed);
        rep.stats.total_work()
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
    let m = Machine::new(PmConfig::parallel(2, 1 << 21));
    let r = m.alloc_region(64);
    let rep = run_closure(&m, &tasks(r, 64), &SchedConfig::with_slots(1 << 11));
    assert!(rep.completed);
    let st = &rep.stats;
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
    // Capsule installation costs two writes per capsule (closure +
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
