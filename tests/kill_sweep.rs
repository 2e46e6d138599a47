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
//! oracle's output; the sweep prints how the kills were recovered
//! (resumed from the crash frontier, from a checkpoint record, or
//! replayed and why).
//!
//! The sweep is quadratic in the run's length, so each workload's kill
//! points are split over two tests, the even and the odd ones, which the
//! test harness runs on parallel threads.

use std::collections::BTreeMap;
use std::sync::Arc;

use ppm::algs::{prefix_sum_seq, PrefixSum};
use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, Region, Word};
use ppm::sched::{Runtime, SchedConfig, SessionMode, SessionReport, SimSched};

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

/// Kills a run of `build` at each of its accesses `k` with
/// `k % 2 == parity` and recovers it; returns the histogram of outcomes.
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
