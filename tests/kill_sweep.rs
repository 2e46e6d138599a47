//! The kill sweep: every processor of a small P = 1 run is killed at
//! every persistent access `k` in turn, and each kill is recovered
//! through `driver::recover` on the same words — the first slice of the
//! kill matrix, run with join-time reclamation on.
//!
//! A kill at `k` is a scheduled hard fault at the processor's `k`-th
//! costed access, so it lands wherever that access is: inside a user
//! capsule, a join arrival, a scheduler record or the ring chain, before
//! or after a join has freed its subtree's pool words. The killed run is
//! stepped on one thread by [`SimSched`], which starts a session the way
//! a threaded `Runtime` does (no thread to spawn per kill point). The
//! killed machine's memory plays the persistent memory of the next
//! process ([`Machine::restarted`]), which replays the construction and
//! runs `Runtime::run_or_recover`. Every recovery must reproduce the
//! oracle's output, and every one must restart where the kill left the
//! processors (`Resumed`) or find the run complete: recovery is §6's
//! restart, so no kill point replays from the root. The sweep prints
//! the histogram of outcomes.
//!
//! The sweep is quadratic in the run's length, so each workload's kill
//! points are split over two tests, the even and the odd ones, which the
//! test harness runs on parallel threads. A last test kills a P = 2 run
//! twice — one processor mid-capsule, then, once the other has had the
//! chance to adopt its thread, the other — for the one state a single
//! processor never reaches: a processor whose thread was taken over.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ppm::algs::{prefix_sum_seq, PrefixSum};
use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, Region, Word};
use ppm::sched::{Runtime, SchedConfig, SessionMode, SessionReport, SimEvent, SimSched};

/// Whether a machine holds a workload's correct output.
type Oracle = Box<dyn Fn(&Machine) -> bool>;

/// One workload of the sweep: builds its construction on a machine (the
/// same calls in the same order on every machine, as a recovering
/// process must) and returns the computation and its oracle check.
type Build = fn(&Machine) -> (PComp, Oracle);

fn machine(fault: FaultConfig) -> Machine {
    Machine::with_pool_words(PmConfig::parallel(1, 1 << 13).with_fault(fault), 1 << 12)
}

fn sched() -> SchedConfig {
    SchedConfig::with_slots(64)
}

/// How a recovery went, as the histogram counts it.
fn outcome(rep: &SessionReport) -> String {
    match (rep.mode, &rep.checkpoint_resume, &rep.fallback_reason) {
        (SessionMode::Resumed, Some(_), _) => "checkpoint".into(),
        (SessionMode::Replayed, _, Some(why)) => format!("Replayed ({why})"),
        (mode, _, _) => format!("{mode:?}"),
    }
}

/// Whether a recovery restarted the run or found it complete — the two
/// outcomes a kill may have.
fn restarted(outcome: &str) -> bool {
    matches!(outcome, "Resumed" | "AlreadyComplete")
}

/// Kills a run of `build` at each of its accesses `k` with
/// `k % 2 == parity` and recovers it; returns the histogram of outcomes,
/// every one of which restarted.
fn sweep(name: &str, build: Build, parity: u64) -> BTreeMap<String, usize> {
    let total = {
        let m = machine(FaultConfig::none());
        let (pcomp, oracle) = build(&m);
        let mut sim = SimSched::new_persistent(&m, &pcomp, &sched());
        sim.run_to_completion(usize::MAX);
        assert!(
            sim.finish().completed && oracle(&m),
            "{name}: the faultless run"
        );
        m.stats().snapshot().total_work()
    };
    let mut histogram = BTreeMap::new();
    for k in (1..=total).filter(|k| k % 2 == parity) {
        let killed = machine(FaultConfig::none().with_scheduled_hard_fault(0, k));
        let (pcomp, _) = build(&killed);
        let mut sim = SimSched::new_persistent(&killed, &pcomp, &sched());
        sim.run_to_completion(usize::MAX);
        drop(sim);
        assert!(
            !killed.liveness().is_live(0),
            "{name}: the kill at access {k} of {total} lands"
        );
        let next = killed.restarted(FaultConfig::none());
        let (pcomp, oracle) = build(&next);
        let rt = Runtime::new(next, sched());
        let rep = rt.run_or_recover(&pcomp);
        assert!(
            rep.completed(),
            "{name}: recovery of the kill at {k}: {rep:?}"
        );
        assert!(
            oracle(rt.machine()),
            "{name}: the kill at access {k} recovered ({}) to a wrong output",
            outcome(&rep)
        );
        *histogram.entry(outcome(&rep)).or_insert(0) += 1;
    }
    println!("{name}: kill points {parity} mod 2 of {total}: {histogram:?}");
    assert!(
        histogram.keys().all(|o| restarted(o)),
        "{name}: every kill restarts: {histogram:?}"
    );
    histogram
}

/// `fanout_fine`'s shape, small: `map_grain` at grain 4 over 256 words,
/// 64 leaves, each index writing its number plus one.
fn fanout(m: &Machine) -> (PComp, Oracle) {
    const N: usize = 256;
    let out = m.alloc_region(N);
    let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("sweep/leaf", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as Word + 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("sweep/split", 4, leaf);
        let all = Span {
            env: out,
            lo: 0,
            hi: N,
        };
        split.setup(m, &all, K(finale)).word()
    });
    let oracle = move |m: &Machine| (0..N).all(|i| m.mem().load(out.at(i)) == i as Word + 1);
    (pcomp, Box::new(oracle))
}

/// A 512-word prefix sum.
fn prefix(m: &Machine) -> (PComp, Oracle) {
    const N: usize = 512;
    let input: Vec<Word> = (0..N as Word).map(|i| i * 7 % 13).collect();
    let ps = PrefixSum::new(m, N);
    ps.load_input(m, &input);
    let pcomp = ps.pcomp();
    let want = prefix_sum_seq(&input);
    (
        pcomp,
        Box::new(move |m: &Machine| ps.read_output(m) == want),
    )
}

#[test]
fn every_even_kill_of_a_64_leaf_fanout_recovers_its_output() {
    let histogram = sweep("fanout", fanout, 0);
    assert!(histogram.contains_key("Resumed"), "{histogram:?}");
}

#[test]
fn every_odd_kill_of_a_64_leaf_fanout_recovers_its_output() {
    let histogram = sweep("fanout", fanout, 1);
    assert!(histogram.contains_key("Resumed"), "{histogram:?}");
}

#[test]
fn every_even_kill_of_a_512_word_prefix_sum_recovers_its_output() {
    let histogram = sweep("prefix", prefix, 0);
    assert!(histogram.contains_key("Resumed"), "{histogram:?}");
}

#[test]
fn every_odd_kill_of_a_512_word_prefix_sum_recovers_its_output() {
    let histogram = sweep("prefix", prefix, 1);
    assert!(histogram.contains_key("Resumed"), "{histogram:?}");
}

/// The 16-leaf fanout of the P = 2 case: leaf `i` counts its runs in
/// `runs` (host-side, across lifetimes) and CAMs its marker to `i + 1`.
fn counted_fanout(m: &Machine, runs: &Arc<Vec<AtomicU32>>) -> (PComp, Region) {
    let out = m.alloc_region(runs.len());
    let runs = runs.clone();
    let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let all = Span {
            env: out,
            lo: 0,
            hi: runs.len(),
        };
        let runs = runs.clone();
        let leaf = set.define("adopt/leaf", move |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                runs[i].fetch_add(1, Ordering::Relaxed);
                ctx.pcam(st.env.at(i), 0, i as Word + 1)?;
            }
            Ok(Step::Jump(k))
        });
        set.map_grain("adopt/split", 1, leaf)
            .setup(m, &all, K(finale))
            .word()
    });
    (pcomp, out)
}

/// The P = 2 machine of the adoption case.
fn machine2(fault: FaultConfig) -> Machine {
    Machine::with_pool_words(PmConfig::parallel(2, 1 << 14).with_fault(fault), 1 << 12)
}

/// The words the two kills of the adoption case at `k` leave, as the
/// next process's memory, or `None` when the schedule finishes before
/// processor 0's `k`-th access. Processor 1 is killed `k % 48` capsules
/// after processor 0 died or, `at_adoption`, right after its adoption
/// check won (`None` if it does not within 48). Deterministic in `k`.
fn adoption_kills(k: u64, runs: &Arc<Vec<AtomicU32>>, at_adoption: bool) -> Option<Machine> {
    let killed = machine2(FaultConfig::none().with_scheduled_hard_fault(0, k));
    let (pcomp, _) = counted_fanout(&killed, runs);
    let mut sim = SimSched::new_persistent(&killed, &pcomp, &sched());
    let mut step = 0;
    while sim.at(0) != "dead" && !sim.completed() {
        sim.run_seeded(k << 20 | step, 1);
        step += 1;
    }
    if sim.completed() {
        return None;
    }
    let adopted = |sim: &SimSched| match sim.events().last() {
        Some(SimEvent::Ran { capsule, next, .. }) => {
            capsule == "sched/popTop/checkLocal" && next != "sched/steal"
        }
        _ => false,
    };
    let steps = if at_adoption { 48 } else { k % 48 };
    for _ in 0..steps {
        sim.step(1);
        if at_adoption && adopted(&sim) {
            break;
        }
    }
    if at_adoption && !adopted(&sim) {
        return None;
    }
    sim.crash(1);
    drop(sim);
    Some(killed.restarted(FaultConfig::none()))
}

/// Recovers `next` with `Runtime::run_or_recover` on its own thread, so
/// a recovery that never finishes fails the test instead of hanging it,
/// and checks the oracle: every marker written, and no leaf run more
/// than once but the one whose capsule processor 0 died inside.
fn recover_adoption(next: Machine, runs: &Arc<Vec<AtomicU32>>, what: &str) -> SessionReport {
    let (tx, rx) = std::sync::mpsc::channel();
    let recovery_runs = runs.clone();
    std::thread::spawn(move || {
        let (pcomp, out) = counted_fanout(&next, &recovery_runs);
        let rt = Runtime::new(next, sched());
        let rep = rt.run_or_recover(&pcomp);
        let mem = rt.machine().mem();
        let marks: Vec<Word> = (0..recovery_runs.len())
            .map(|i| mem.load(out.at(i)))
            .collect();
        let _ = tx.send((rep, marks));
    });
    let (rep, marks) = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("the recovery of {what} finishes within 30 s"));
    assert!(rep.completed(), "recovery of {what}: {rep:?}");
    let want: Vec<Word> = (1..=runs.len() as Word).collect();
    assert_eq!(marks, want, "markers, {what}");
    let counts: Vec<u32> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
    let reruns: u32 = counts.iter().map(|&n| n.saturating_sub(1)).sum();
    assert!(
        counts.iter().all(|&n| n >= 1) && reruns <= 1,
        "{what} ({}): leaf runs {counts:?}",
        outcome(&rep)
    );
    rep
}

/// The adoption hazard at P = 2. Processor 0 dies at its access `k` of a
/// seeded schedule over a 16-leaf fanout; processor 1 runs on for a few
/// capsules — long enough to adopt processor 0's thread, or to be caught
/// mid-adoption — and is killed at a capsule boundary. Recovery restarts
/// the machine through `Machine::restarted` and `run_or_recover`. A
/// processor whose thread was taken over must never restart at its stale
/// pointer (it would run the adopted thread a second time, or spin): it
/// restarts at `findWork`, or stays down while its adopter still reads
/// its journal, its claim or its frozen deque. Leaves count their runs
/// host-side, across every lifetime: only the capsule processor 0 died
/// inside may run twice (its adopter's or its restart's re-run), and
/// every marker is written once.
///
/// Each `k` is run twice, processor 1 killed `k % 48` capsules on or
/// right after it adopted. Every kill is replayed with a third lifetime
/// too: the recovery,
/// stepped by `SimSched`, is itself killed after 0, 2 or 12 capsules and
/// recovered again. A kill at 0 lands before an adopter restarted inside
/// processor 0's journal has installed anything of its own, so reviving
/// processor 0 then would overwrite the record the adopter's pointer
/// still names. A recovery that kept processor 0 down and ran 12
/// capsules lets the adopter move on: the third lifetime seats both.
#[test]
fn every_kill_of_a_2_processor_fanout_after_an_adoption_runs_each_leaf_once() {
    const LEAVES: usize = 16;
    let runs: Arc<Vec<AtomicU32>> = Arc::new((0..LEAVES).map(|_| AtomicU32::new(0)).collect());
    let reset = || runs.iter().for_each(|r| r.store(0, Ordering::Relaxed));
    let mut histogram = BTreeMap::new();
    let mut revived = 0;
    for (k, at_adoption) in (1..=600u64).flat_map(|k| [(k, false), (k, true)]) {
        reset();
        let Some(next) = adoption_kills(k, &runs, at_adoption) else {
            continue;
        };
        let kills = format!("the kills at {k} (at the adoption: {at_adoption})");
        let rep = recover_adoption(next, &runs, &kills);
        let down = format!("{}, {} down", outcome(&rep), rep.dead_procs());
        *histogram.entry(down).or_insert(0) += 1;
        for cut in [0, 2, 12] {
            reset();
            let next = adoption_kills(k, &runs, at_adoption).expect("the same schedule");
            let (pcomp, _) = counted_fanout(&next, &runs);
            let mut sim = SimSched::recover(&next, &pcomp, &sched()).expect("recovery");
            let down = sim.at(0) == "dead";
            for step in 0..cut {
                sim.run_seeded(k << 8 | step, 1);
            }
            drop(sim);
            let what = format!("{kills}, and its recovery's at {cut}");
            let again = recover_adoption(next.restarted(FaultConfig::none()), &runs, &what);
            if down && cut == 12 {
                assert!(
                    again.already_complete() || again.dead_procs() == 0,
                    "{what}: {} down",
                    again.dead_procs()
                );
                revived += 1;
            }
        }
    }
    println!("P = 2 adoption kills: {histogram:?}; {revived} third lifetimes seat both");
    assert!(
        histogram
            .keys()
            .all(|o| o.starts_with("Resumed") || o.starts_with("AlreadyComplete")),
        "{histogram:?}"
    );
    assert!(
        histogram.contains_key("Resumed, 1 down") && revived > 0,
        "some kill lands while an adopter still reads processor 0: {histogram:?}"
    );
}
