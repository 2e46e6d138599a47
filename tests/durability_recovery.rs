//! Crash-recovery integration tests: a durable session whose run is cut
//! short (every processor hard-faults, the in-process analogue of the
//! process dying) is reopened and recovered through
//! `Runtime::run_or_recover`, and every task's once-only effect is applied
//! exactly once across the two process lifetimes — whether the session
//! resumed the crash frontier or replayed from the root.
#![cfg(unix)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, Region, Word};
use ppm::sched::{Runtime, RuntimeConfig, SchedConfig, SessionMode, SessionReport, SimSched};

// Guarded temp paths: removed on drop, so failing assertions clean up too.
fn tmp(tag: &str) -> ppm::pm::TempMachineFile {
    ppm::pm::TempMachineFile::new(&format!("recovery-test-{tag}"))
}

const N: usize = 48;

fn cfg() -> PmConfig {
    PmConfig::parallel(4, 1 << 21)
}

fn rt_cfg(pm: PmConfig) -> RuntimeConfig {
    RuntimeConfig::new(pm).with_slots(1 << 10)
}

/// Task `i` CAMs its marker from unset to `i + 1`: a once-only effect.
fn build_comp(markers: Region) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let mark = set.define("mark", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pcam(st.env.at(i), 0, i as Word + 1)?;
            }
            Ok(Step::Jump(k))
        });
        let tasks = set.map_grain("tasks", 1, mark);
        let all = Span {
            env: markers,
            lo: 0,
            hi: N,
        };
        tasks.setup(m, &all, K(finale)).0
    })
}

/// A crashed session either restarted where the crash left it or
/// replayed from the root for a structured reason; nothing else is a
/// recovery.
fn assert_recovered(rec: &SessionReport) {
    match rec.mode {
        SessionMode::Resumed => {
            assert!(
                rec.resumed > 0,
                "a restart seats a processor at its restart pointer, or finds a job"
            );
            assert!(rec.fallback_reason.is_none());
        }
        SessionMode::Replayed => assert!(
            rec.fallback_reason.is_some(),
            "a replay must say why the frontier was not resumable"
        ),
        other => panic!("a crashed session must resume or replay, got {other:?}"),
    }
}

#[test]
fn recovery_after_mid_run_stop_applies_every_task_exactly_once() {
    let path = tmp("midstop");

    // The "crashed" run: all four processors hard-fault mid-computation,
    // which stops the run exactly the way process death does — scheduler
    // state and partial results frozen in the durable words, no flush, no
    // clean shutdown.
    {
        let rt = Runtime::create(
            &path,
            rt_cfg(
                cfg().with_fault(
                    FaultConfig::none()
                        .with_scheduled_hard_fault(0, 350)
                        .with_scheduled_hard_fault(1, 250)
                        .with_scheduled_hard_fault(2, 300)
                        .with_scheduled_hard_fault(3, 200),
                ),
            ),
        )
        .unwrap();
        let markers = rt.machine().alloc_region(N);
        let rep = rt.run_or_recover(&build_comp(markers));
        assert!(
            !rep.completed(),
            "all processors dead: the run must stop early"
        );
        assert_eq!(rep.dead_procs(), 4);
    }

    // The recovering "process": open a session, replay the deterministic
    // setup, recover.
    let rt = Runtime::open(&path, rt_cfg(cfg())).unwrap();
    assert!(rt.is_recovery());
    assert_eq!(rt.machine().epoch(), 2);
    let markers = rt.machine().alloc_region(N);
    let pre: Vec<bool> = (0..N)
        .map(|i| rt.machine().mem().load(markers.at(i)) != 0)
        .collect();
    let pre_count = pre.iter().filter(|b| **b).count();
    assert!(
        pre_count > 0 && pre_count < N,
        "hard-fault schedule must stop the run mid-way (got {pre_count}/{N})"
    );

    // Observe every recovery-time mutation of the marker cells.
    let writes: Arc<Vec<AtomicU64>> = Arc::new((0..N).map(|_| AtomicU64::new(0)).collect());
    let wc = writes.clone();
    rt.machine()
        .mem()
        .set_observer(Some(Arc::new(move |addr, _prev, _new| {
            if markers.contains(addr) {
                wc[addr - markers.start].fetch_add(1, Ordering::Relaxed);
            }
        })));

    let rec = rt.run_or_recover(&build_comp(markers));
    assert!(!rec.already_complete());
    assert!(rec.completed(), "recovery must finish the computation");
    assert_recovered(&rec);
    assert!(
        rec.found_in_flight() > 0,
        "a mid-run stop leaves in-flight deque entries behind"
    );
    assert_eq!(rec.epoch, 2);

    for i in 0..N {
        assert_eq!(
            rt.machine().mem().load(markers.at(i)),
            i as Word + 1,
            "marker {i} value"
        );
        let w = writes[i].load(Ordering::Relaxed);
        if pre[i] {
            assert_eq!(
                w, 0,
                "marker {i} was set pre-crash; recovery must not rewrite it"
            );
        } else {
            assert_eq!(w, 1, "marker {i} must be written exactly once by recovery");
        }
    }

    rt.mark_clean().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovery_of_completed_run_reruns_nothing() {
    let path = tmp("complete");
    {
        let rt = Runtime::create(&path, rt_cfg(cfg())).unwrap();
        let markers = rt.machine().alloc_region(N);
        assert!(rt.run_or_recover(&build_comp(markers)).completed());
        rt.mark_clean().unwrap();
    }
    let rt = Runtime::open(&path, rt_cfg(cfg())).unwrap();
    let markers = rt.machine().alloc_region(N);

    let writes = Arc::new(AtomicU64::new(0));
    let wc = writes.clone();
    rt.machine()
        .mem()
        .set_observer(Some(Arc::new(move |addr, _prev, _new| {
            if markers.contains(addr) {
                wc.fetch_add(1, Ordering::Relaxed);
            }
        })));

    let rec = rt.run_or_recover(&build_comp(markers));
    assert!(rec.already_complete(), "completion flag is persistent");
    assert!(rec.run.is_none(), "nothing re-driven");
    assert!(rec.completed());
    assert_eq!(writes.load(Ordering::Relaxed), 0, "no marker touched");
    for i in 0..N {
        assert_eq!(rt.machine().mem().load(markers.at(i)), i as Word + 1);
    }
    rt.machine().mem().set_observer(None);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovery_survives_repeated_crashes() {
    // Crash, recover-under-faults (which also crashes), recover again:
    // effects stay exactly-once across three process lifetimes.
    let path = tmp("repeated");
    {
        let rt = Runtime::create(
            &path,
            rt_cfg(
                cfg().with_fault(
                    FaultConfig::none()
                        .with_scheduled_hard_fault(0, 300)
                        .with_scheduled_hard_fault(1, 250)
                        .with_scheduled_hard_fault(2, 350)
                        .with_scheduled_hard_fault(3, 280),
                ),
            ),
        )
        .unwrap();
        let markers = rt.machine().alloc_region(N);
        assert!(!rt.run_or_recover(&build_comp(markers)).completed());
    }
    {
        // Second lifetime also dies mid-recovery, at half of its own
        // progress: a faultless recovery of a copy of the same words,
        // stepped round-robin on the simulator, runs `steps` capsules, and
        // the same schedule over the file itself is killed after half of
        // them. However far the first lifetime got, the cut lands inside
        // the recovery.
        let copy = tmp("repeated-copy");
        std::fs::copy(path.path(), copy.path()).unwrap();
        let recover = |file: &ppm::pm::TempMachineFile, steps: usize| {
            let rt = Runtime::open(file, rt_cfg(cfg())).unwrap();
            let markers = rt.machine().alloc_region(N);
            let cfg = rt.sched_config().clone();
            let mut sim = SimSched::recover(rt.machine(), &build_comp(markers), &cfg).unwrap();
            sim.run_to_completion(steps);
            (sim.completed(), sim.events().len())
        };
        let (completed, steps) = recover(&copy, usize::MAX);
        assert!(completed, "the faultless recovery of the copy completes");
        let (completed, _) = recover(&path, steps / 2);
        assert!(!completed, "this recovery was itself cut short");
    }
    let rt = Runtime::open(&path, rt_cfg(cfg())).unwrap();
    assert_eq!(rt.machine().epoch(), 3);
    let markers = rt.machine().alloc_region(N);
    let rec = rt.run_or_recover(&build_comp(markers));
    assert!(rec.completed());
    for i in 0..N {
        assert_eq!(
            rt.machine().mem().load(markers.at(i)),
            i as Word + 1,
            "marker {i}"
        );
    }
    rt.mark_clean().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovery_with_transition_checking_scrubs_without_tripping_the_checker() {
    // The scrub rewrites stale entries (taken -> empty etc.), which the
    // Figure 4 checker would reject as an illegal transition if it were
    // installed during the scrub; recovery must defer it.
    let path = tmp("checked");
    let mut scfg = SchedConfig::with_slots(1 << 10);
    scfg.check_transitions = true;
    {
        let rt = Runtime::create(
            &path,
            rt_cfg(
                cfg().with_fault(
                    FaultConfig::none()
                        .with_scheduled_hard_fault(0, 350)
                        .with_scheduled_hard_fault(1, 250)
                        .with_scheduled_hard_fault(2, 300)
                        .with_scheduled_hard_fault(3, 200),
                ),
            )
            .with_sched(scfg.clone()),
        )
        .unwrap();
        let markers = rt.machine().alloc_region(N);
        assert!(!rt.run_or_recover(&build_comp(markers)).completed());
    }
    let rt = Runtime::open(&path, rt_cfg(cfg()).with_sched(scfg)).unwrap();
    let markers = rt.machine().alloc_region(N);
    let rec = rt.run_or_recover(&build_comp(markers));
    assert!(
        rec.completed(),
        "recovery with the checker on must complete"
    );
    for i in 0..N {
        assert_eq!(
            rt.machine().mem().load(markers.at(i)),
            i as Word + 1,
            "marker {i}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn durable_and_volatile_runs_compute_identical_results() {
    let path = tmp("parity");
    let volatile = {
        let rt = Runtime::new(Machine::new(cfg()), SchedConfig::with_slots(1 << 10));
        let markers = rt.machine().alloc_region(N);
        assert!(rt.run_or_recover(&build_comp(markers)).completed());
        rt.machine().mem().to_vec(markers.start, N)
    };
    let durable = {
        let rt = Runtime::create(&path, rt_cfg(cfg())).unwrap();
        let markers = rt.machine().alloc_region(N);
        assert!(rt.run_or_recover(&build_comp(markers)).completed());
        rt.mark_clean().unwrap();
        rt.machine().mem().to_vec(markers.start, N)
    };
    assert_eq!(volatile, durable);
    std::fs::remove_file(&path).unwrap();
}
