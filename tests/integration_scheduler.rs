//! Cross-crate integration: the fault-tolerant scheduler driving real
//! fork-join computations under randomized soft- and hard-fault
//! adversaries, with strict validation and Figure 4 transition checking.

use std::sync::Arc;

use ppm::core::dsl::{fork2, CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, Region};
use ppm::sched::{
    CheckpointPolicy, ProcOutcome, Runtime, SchedConfig, SessionReport, SimReport, SimSched,
};

/// `n` marker tasks as a `map_grain` at grain 1: task `i` writes 1 to
/// `r.at(i)`.
fn marker_tasks(r: Region, n: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("mark", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("mark/split", 1, leaf);
        let all = Span {
            env: r,
            lo: 0,
            hi: n,
        };
        split.setup(m, &all, K(finale)).word()
    })
}

fn assert_all_marked(m: &Machine, r: Region, n: usize, tag: &str) {
    for i in 0..n {
        assert_eq!(
            m.mem().load(r.at(i)),
            1,
            "{tag}: task {i} must run exactly once"
        );
    }
}

/// `cfg` with checkpoints off: these runs exercise the scheduler alone.
fn no_checkpoints(mut cfg: SchedConfig) -> SchedConfig {
    cfg.checkpoint = CheckpointPolicy::disabled();
    cfg
}

/// Runs `n` marker tasks as a fresh session on `m`; returns the report
/// and the session (whose machine holds the markers).
fn run_markers(m: Machine, n: usize, cfg: SchedConfig) -> (SessionReport, Runtime, Region) {
    let r = m.alloc_region(n);
    let rt = Runtime::new(m, no_checkpoints(cfg));
    (rt.run_or_recover(&marker_tasks(r, n)), rt, r)
}

/// Runs `n` marker tasks under the single-threaded [`SimSched`], every
/// processor stepped round-robin one capsule at a time. Whether a
/// scheduled hard fault fires before the others finish the work is then
/// a property of the schedule, not of the OS scheduler: a doomed
/// processor's access count advances in lockstep with everyone else's.
fn run_lockstep(m: &Machine, r: Region, n: usize, cfg: SchedConfig) -> SimReport {
    let mut sim = SimSched::new_persistent(m, &marker_tasks(r, n), &cfg);
    sim.run_to_completion(1 << 20);
    sim.finish()
}

/// An unbalanced recursive computation: a "spine" that forks a leaf at
/// every level — the worst case for steal distribution. One capsule over
/// `[lo, hi)`: a one-task span is the leaf, anything longer forks its
/// first task off the rest.
fn skewed(r: Region, n: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let spine = set.declare::<(Region, usize, usize)>("spine");
        set.body(spine, move |&(r, lo, hi), k, ctx| match hi - lo {
            0 => Ok(Step::Jump(k)),
            1 => {
                ctx.pwrite(r.at(lo), 1)?;
                Ok(Step::Jump(k))
            }
            _ => fork2(ctx, (spine, &(r, lo, lo + 1)), (spine, &(r, lo + 1, hi)), k),
        });
        spine.setup(m, &(r, 0, n), K(finale)).word()
    })
}

#[test]
fn balanced_fanout_with_transition_checking_across_proc_counts() {
    for procs in [1, 2, 3, 4, 8] {
        let m = Machine::new(PmConfig::parallel(procs, 1 << 21));
        let n = 96;
        let mut cfg = SchedConfig::with_slots(1 << 11);
        cfg.check_transitions = true;
        let (rep, rt, r) = run_markers(m, n, cfg);
        assert!(rep.completed(), "P={procs}");
        assert_all_marked(rt.machine(), r, n, &format!("P={procs}"));
    }
}

#[test]
fn skewed_spine_distributes_over_steals() {
    let m = Machine::new(PmConfig::parallel(4, 1 << 21));
    let n = 64;
    let r = m.alloc_region(n);
    let rt = Runtime::new(m, no_checkpoints(SchedConfig::with_slots(1 << 11)));
    let rep = rt.run_or_recover(&skewed(r, n));
    assert!(rep.completed());
    assert_all_marked(rt.machine(), r, n, "skewed");
}

#[test]
fn randomized_soft_fault_storm() {
    // Many seeds, meaningful fault rate: every capsule type in the
    // scheduler gets restarted somewhere across this sweep.
    for seed in 0..12 {
        let m =
            Machine::new(PmConfig::parallel(4, 1 << 21).with_fault(FaultConfig::soft(0.03, seed)));
        let n = 40;
        let mut cfg = SchedConfig::with_slots(1 << 11);
        cfg.check_transitions = true;
        let (rep, rt, r) = run_markers(m, n, cfg);
        assert!(rep.completed(), "seed {seed}");
        assert!(rep.stats().soft_faults > 0, "seed {seed} must see faults");
        assert_all_marked(rt.machine(), r, n, &format!("seed {seed}"));
    }
}

#[test]
fn mixed_hard_and_soft_faults_random_placement() {
    // Probabilistic hard faults: up to P-1 processors may die anywhere,
    // including inside scheduler capsules. The run completes unless all
    // die; either way no task is lost or duplicated.
    let mut completed_with_deaths = 0;
    for seed in 0..16 {
        let m = Machine::new(
            PmConfig::parallel(4, 1 << 21).with_fault(FaultConfig::mixed(0.01, 0.02, seed)),
        );
        let n = 48;
        let (rep, rt, r) = run_markers(m, n, SchedConfig::with_slots(1 << 11));
        if rep.completed() {
            assert_all_marked(rt.machine(), r, n, &format!("seed {seed}"));
            if rep.dead_procs() > 0 {
                completed_with_deaths += 1;
            }
        } else {
            assert_eq!(rep.dead_procs(), 4, "seed {seed}: only all-dead may fail");
        }
    }
    assert!(
        completed_with_deaths > 0,
        "the sweep should exercise completion despite deaths"
    );
}

#[test]
fn adversarial_hard_fault_placements_on_root() {
    // Kill the root processor at many different points in its life: while
    // running user code, while pushing, while popping, while clearing.
    for at in [5u64, 12, 20, 35, 60, 90, 140, 200, 300] {
        let m = Machine::new(
            PmConfig::parallel(3, 1 << 21)
                .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, at)),
        );
        let n = 32;
        let r = m.alloc_region(n);
        let rep = run_lockstep(&m, r, n, SchedConfig::with_slots(1 << 11));
        assert!(rep.completed, "death at access {at}");
        assert_eq!(rep.outcomes[0], Some(ProcOutcome::Dead), "death@{at}");
        assert_all_marked(&m, r, n, &format!("death@{at}"));
    }
}

#[test]
fn cascading_deaths_during_recovery() {
    // The first thief to adopt a dead processor's thread dies too; the
    // thread must be adopted again (thief-of-thief, Lemma A.9's chain).
    let m = Machine::new(
        PmConfig::parallel(4, 1 << 21).with_fault(
            FaultConfig::none()
                .with_scheduled_hard_fault(0, 30)
                .with_scheduled_hard_fault(1, 120)
                .with_scheduled_hard_fault(2, 260),
        ),
    );
    let n = 48;
    let r = m.alloc_region(n);
    let rep = run_lockstep(&m, r, n, SchedConfig::with_slots(1 << 11));
    assert!(rep.completed);
    let dead = rep
        .outcomes
        .iter()
        .filter(|o| **o == Some(ProcOutcome::Dead));
    assert_eq!(dead.count(), 3);
    assert_all_marked(&m, r, n, "cascade");
}

#[test]
fn deep_sequential_chain_under_faults() {
    // A single thread of many capsules (no forks after the first): tests
    // the install/restart path rather than stealing.
    let m = Machine::new(PmConfig::parallel(2, 1 << 21).with_fault(FaultConfig::soft(0.02, 9)));
    let r = m.alloc_region(256);
    // Link i reads word i-1 and writes word i; the links are frames
    // written at setup, each continuing with the next.
    let chain: PComp = Arc::new(move |m: &Machine, finale| {
        let link = CapsuleSet::new(m).define("link", move |&i: &usize, k, ctx| {
            let prev = if i == 0 { 0 } else { ctx.pread(r.at(i - 1))? };
            ctx.pwrite(r.at(i), prev + 1)?;
            Ok(Step::Jump(k))
        });
        let links = (0..200).rev();
        links.fold(K(finale), |k, i| link.setup(m, &i, k)).word()
    });
    let rt = Runtime::new(m, no_checkpoints(SchedConfig::with_slots(1 << 11)));
    let rep = rt.run_or_recover(&chain);
    assert!(rep.completed());
    assert_eq!(
        rt.machine().mem().load(r.at(199)),
        200,
        "each link applied exactly once"
    );
}

#[test]
fn work_term_grows_mildly_with_fault_rate() {
    // Theorem 6.2's work term: E[W_f] <= W / (1 - C f). With C ~ 8 and
    // f = 0.01, the factor is ~1.09. Measured at P = 1 so the total is
    // not polluted by idle processors' steal-loop polling (which scales
    // with wall-clock time, not with the computation's work — the P > 1
    // accounting of that term is ABP's steal-attempt bound, exercised by
    // the E4 experiment instead).
    let work = |f: f64, seed: u64| {
        let m = Machine::new(PmConfig::parallel(1, 1 << 21).with_fault(if f == 0.0 {
            FaultConfig::none()
        } else {
            FaultConfig::soft(f, seed)
        }));
        let (rep, _, _) = run_markers(m, 64, SchedConfig::with_slots(1 << 11));
        assert!(rep.completed());
        rep.stats().total_work()
    };
    let w0 = work(0.0, 0);
    let wf: u64 = (0..5).map(|s| work(0.01, s)).sum::<u64>() / 5;
    assert!(
        (wf as f64) < 1.3 * w0 as f64,
        "E[W_f] = {wf} should be within ~1.1x of W = {w0}"
    );
}
