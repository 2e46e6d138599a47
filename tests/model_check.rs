//! Model-checking gates: the real scheduler engine and the abstract
//! lease and quiesce models explore clean, every seeded mutant is caught
//! with a minimal counterexample, and the counterexample traces replay
//! as a regression corpus (`ppm_check::replay`).
//!
//! The CI `verify` job runs the same checks through the `ppm-check`
//! binary at a larger engine scope (`engine-fork` over four leaves, on
//! pools that hold only two nested forks); these tests pin the two-leaf
//! scope into `cargo test` so a local run cannot drift from the
//! workflow.

use std::sync::OnceLock;

use ppm::sched::model::{EngineAction, EngineModel, LeaseModel, Mutant, QuiesceModel};
use ppm_check::{replay, Explorer, ExplorerConfig, Model, Report, Violation};

/// The depth the lease and quiesce gates pin (CI runs them at its own,
/// larger depth); both models bottom out earlier on their tick budgets.
const CI_DEPTH: usize = 60;

/// A depth past every engine scope's diameter here: `engine-fork` over
/// two leaves has diameter 51 and `engine-service` 46. An engine run
/// must exhaust its space, or its progress is unchecked.
const ENGINE_DEPTH: usize = 100;

/// Leaves of the tier-1 `engine-fork` scope.
const LEAVES: usize = 2;

fn explore<M: Model>(model: &M, depth: usize) -> Report<M> {
    Explorer::new(ExplorerConfig::depth(depth)).run(model)
}

/// Each engine mutant's exploration, shared by the tests that ask for it.
fn mutant_report(mutant: Mutant) -> &'static Report<EngineModel> {
    static REPORTS: [OnceLock<Report<EngineModel>>; 7] = [const { OnceLock::new() }; 7];
    let i = Mutant::ALL.iter().position(|m| *m == mutant).unwrap();
    REPORTS[i].get_or_init(|| explore(&EngineModel::fork(LEAVES).mutated(mutant), ENGINE_DEPTH))
}

// ---------------------------------------------------------------------
// Faithful protocols: zero violations, the engine's progress included.
// ---------------------------------------------------------------------

#[test]
fn steal_protocol_is_clean_and_exhausted_at_ci_depth() {
    let report = explore(&EngineModel::fork(LEAVES), ENGINE_DEPTH);
    report.assert_ok();
    assert!(report.clean(), "{}", report.summary());
    assert!(
        report.states > 5_000,
        "engine-fork state space shrank suspiciously: {}",
        report.summary()
    );
}

#[test]
fn injector_steal_protocol_is_clean_and_exhausted_at_ci_depth() {
    let report = explore(&EngineModel::service(), ENGINE_DEPTH);
    report.assert_ok();
    assert!(report.clean(), "{}", report.summary());
    assert!(
        report.states > 3_000,
        "engine-service state space shrank suspiciously: {}",
        report.summary()
    );
}

#[test]
fn lease_protocol_is_clean_at_ci_depth() {
    let report = explore(&LeaseModel::default(), CI_DEPTH);
    report.assert_ok();
    assert!(report.states > 10_000, "lease exploration lost coverage");
}

#[test]
fn quiesce_protocol_is_clean_at_ci_depth() {
    let report = explore(&QuiesceModel::default(), CI_DEPTH);
    report.assert_ok();
    assert!(report.states > 500, "quiesce exploration lost coverage");
}

// ---------------------------------------------------------------------
// Seeded mutations: each deliberately broken variant must be caught,
// and `Report::assert_ok` must panic with the violated property — the
// `#[should_panic]` hook CI's mutation self-test relies on.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "progress violation")]
fn dropping_the_lemma_a10_adoption_arm_loses_a_task() {
    mutant_report(Mutant::DropLemmaA10).assert_ok();
}

/// The thief adopts p0's `Local` while p0 runs the second leaf, and both
/// run it. The explorer is not asked for this trace: its shortest one
/// goes through a restart instead (see
/// `corpus_steal_adopt_live_local_replays`). Both come from the one
/// dropped `isLive` gate; this test replays the double execution, with
/// no fault at all and clean along its prefix, so the bug the mutant
/// names stays pinned.
#[test]
#[should_panic(expected = "NoDoubleExecution")]
fn adopting_a_live_processors_local_double_executes() {
    use EngineAction::Step;
    let model = EngineModel::fork(LEAVES).mutated(Mutant::AdoptLiveLocal);
    // p0 pulls the root, forks both leaves, runs the first and pops the
    // second; p1 steals, adopts p0's live `Local` and runs the second
    // leaf too.
    let mut trace = vec![Step(0); 15];
    trace.extend([Step(1); 11]);
    trace.extend([Step(0), Step(1)]);
    let end = replay(&model, 0, &trace, true);
    if let Err(why) = model.invariant(&end) {
        panic!("{why}");
    }
}

/// A restart that seats a processor parked on a scheduler record at
/// `findWork` skips the record: here the owner's `clearBottom`, so its
/// ended thread's `Local` outlives it under a later push.
#[test]
#[should_panic(expected = "WS-deque invariant")]
fn restarting_a_record_at_find_work_breaks_the_deque() {
    mutant_report(Mutant::RestartAtFindWork).assert_ok();
}

/// p0 dies about to run the first leaf; p1 steals the second, then
/// adopts p0's `Local` and runs the first; a restart re-seats p0 at its
/// stale pointer, the first leaf, which runs again (the faithful restart
/// seats it at `findWork`). The explorer's shortest trace ends earlier,
/// on the Figure 4 check (p0 restarted at a `service/entry` its adopter
/// re-claimed clears its `Taken` bottom entry); this one pins the double
/// execution the mutant names.
#[test]
#[should_panic(expected = "NoDoubleExecution")]
fn restarting_an_adopted_processor_at_its_pointer_double_executes() {
    use EngineAction::{Crash, Restart, Step};
    let model = EngineModel::fork(LEAVES).mutated(Mutant::RestartAdopted);
    let mut st = model.initial().remove(0);
    let mut trace = Vec::new();
    let mut go = |a, st: &mut _| {
        trace.push(a);
        *st = model.step(st, &a);
    };
    while !format!("{st:?}").starts_with("p0 engine/leaf") {
        go(Step(0), &mut st);
    }
    go(Crash(0), &mut st);
    while !format!("{st:?}").ends_with("runs [1, 1]") {
        go(Step(1), &mut st);
    }
    go(Restart, &mut st);
    go(Step(0), &mut st);
    let end = replay(&model, 0, &trace, true);
    if let Err(why) = model.invariant(&end) {
        panic!("{why}");
    }
}

#[test]
#[should_panic(expected = "progress violation")]
fn claiming_before_seating_loses_the_service_job() {
    mutant_report(Mutant::ClaimBeforeSeat).assert_ok();
}

#[test]
#[should_panic(expected = "not Done")]
fn setting_the_done_flag_before_the_done_cam_loses_the_service_job() {
    mutant_report(Mutant::DoneEarly).assert_ok();
}

#[test]
#[should_panic(expected = "TombstoneSticky")]
fn dropping_the_tombstone_check_resurrects_a_dead_shard() {
    explore(&LeaseModel::mutated(), CI_DEPTH).assert_ok();
}

#[test]
#[should_panic(expected = "NoLiveFrameReclaim")]
fn skipping_the_busy_check_reclaims_a_live_frame() {
    explore(&QuiesceModel::mutated(), CI_DEPTH).assert_ok();
}

// ---------------------------------------------------------------------
// Regression corpus: the minimal counterexample each mutant produces is
// replayed step by step through a fresh model instance. The pinned
// lengths are the BFS-minimal trace depths; a protocol or explorer
// change that lengthens (or loses) a counterexample fails here before
// it reaches CI. Every mutant is explored with restarts, and a state
// from which a restart still reaches the goal is not stuck, so the
// step mutants' progress and terminal traces spend the fault budget on
// a restart first: the crash after it strands the run for good.
// ---------------------------------------------------------------------

/// Replays `report`'s counterexample: every action is enabled, the
/// invariant holds along the prefix (and, for a safety violation, fails
/// exactly at the last step), and the replay lands in the recorded state.
fn corpus_roundtrip<M: Model>(model: &M, report: &Report<M>, expected_steps: usize) -> M::State
where
    M::Action: PartialEq,
{
    let cex = report
        .violation
        .as_ref()
        .expect("mutant must produce a counterexample");
    assert_eq!(
        cex.trace.len(),
        expected_steps,
        "minimal counterexample length drifted:\n{}",
        cex.render()
    );
    // BFS found the states along the trace; replaying from the initial
    // state that matches the counterexample's first state keeps the
    // corpus honest even for models with several initial states.
    let init = model
        .initial()
        .iter()
        .position(|s| *s == cex.states[0])
        .expect("counterexample must start in an initial state");
    let end = replay(model, init, &cex.trace, cex.kind == Violation::Invariant);
    assert_eq!(
        end,
        *cex.states.last().unwrap(),
        "replay must land in the recorded violating state"
    );
    end
}

/// An engine mutant's corpus entry: its violation kind, its pinned
/// length, and its replay.
fn engine_corpus(mutant: Mutant, kind: Violation, expected_steps: usize) -> Vec<EngineAction> {
    let model = EngineModel::fork(LEAVES).mutated(mutant);
    let report = mutant_report(mutant);
    let end = corpus_roundtrip(&model, report, expected_steps);
    let cex = report.violation.as_ref().unwrap();
    assert_eq!(cex.kind, kind, "{}", cex.render());
    match kind {
        Violation::Terminal => assert!(model.on_terminal(&end).is_err()),
        Violation::Progress => assert!(!end.is_complete() && !model.actions(&end).is_empty()),
        Violation::Invariant => {}
    }
    cex.trace.clone()
}

#[test]
fn corpus_steal_drop_lemma_a10_replays() {
    // The owner's `popBottom/cam`, which the mutant ends after its CAM,
    // wins; the owner restarts there and dies; the adopter's re-run finds
    // its own `Taken` and, without the arm, abandons the claimed leaf.
    let trace = engine_corpus(Mutant::DropLemmaA10, Violation::Progress, 17);
    let mut expected = vec![EngineAction::Step(0); 15];
    expected.extend([EngineAction::Restart, EngineAction::Crash(0)]);
    assert_eq!(trace, expected);
}

#[test]
fn corpus_steal_adopt_live_local_replays() {
    // p1 starts a local steal of live p0's pull seat; the restart keeps
    // p0 down for the adoption in flight, and p1 dies: nobody is left to
    // run the root.
    let trace = engine_corpus(Mutant::AdoptLiveLocal, Violation::Terminal, 11);
    let mut expected = vec![EngineAction::Step(0); 5];
    expected.extend([EngineAction::Step(1); 4]);
    expected.extend([EngineAction::Restart, EngineAction::Crash(1)]);
    assert_eq!(trace, expected);
}

#[test]
fn corpus_steal_claim_before_seat_replays() {
    // The puller reads and claims, then dies holding a won claim it never
    // seated: nothing adoptable carries the root.
    let trace = engine_corpus(Mutant::ClaimBeforeSeat, Violation::Progress, 6);
    assert_eq!(trace.last(), Some(&EngineAction::Crash(0)), "{trace:?}");
}

#[test]
fn corpus_steal_done_early_replays() {
    // The early flag makes a restart find the run complete while its job
    // is still running: recovery seats nobody.
    let trace = engine_corpus(Mutant::DoneEarly, Violation::Terminal, 20);
    assert_eq!(trace.last(), Some(&EngineAction::Restart), "{trace:?}");
}

#[test]
fn corpus_engine_victim_never_helps_replays() {
    // p0 forks both leaves and runs the first; p1 wins `popTop/cam` on
    // the second and dies before its help capsules. Nothing adoptable of
    // p1's exists, and without help p0 spins forever.
    let trace = engine_corpus(Mutant::VictimNeverHelps, Violation::Progress, 18);
    let mut expected = vec![EngineAction::Step(0); 11];
    expected.extend([EngineAction::Step(1); 5]);
    expected.extend([EngineAction::Restart, EngineAction::Crash(1)]);
    assert_eq!(trace, expected);
}

#[test]
fn corpus_engine_restart_at_find_work_replays() {
    // p0 runs the first leaf and ends its thread; the restart lands on
    // its `clearBottom`, which the mutant skips.
    let trace = engine_corpus(Mutant::RestartAtFindWork, Violation::Invariant, 22);
    assert_eq!(trace[13], EngineAction::Restart, "{trace:?}");
}

#[test]
fn corpus_engine_restart_adopted_replays() {
    // p1 adopts p0's pulled root at `service/entry` and re-claims it; the
    // restart re-seats p0 there.
    let trace = engine_corpus(Mutant::RestartAdopted, Violation::Invariant, 23);
    assert_eq!(trace[9], EngineAction::Crash(0), "{trace:?}");
    assert_eq!(trace[19], EngineAction::Restart, "{trace:?}");
}

#[test]
fn corpus_lease_drop_tombstone_replays() {
    let model = LeaseModel::mutated();
    corpus_roundtrip(&model, &explore(&model, CI_DEPTH), 2);
}

#[test]
fn corpus_quiesce_skip_busy_replays() {
    let model = QuiesceModel::mutated();
    corpus_roundtrip(&model, &explore(&model, CI_DEPTH), 6);
}

// ---------------------------------------------------------------------
// Counterexamples are inert against the faithful protocol: the recorded
// bug trace of the lease mutant names a transition (tombstoning a
// never-reaped shard) that the real protocol never enables, so the
// replay must reject it rather than reproduce the violation.
// ---------------------------------------------------------------------

#[test]
fn lease_mutant_trace_is_not_enabled_in_the_faithful_protocol() {
    let mutant = LeaseModel::mutated();
    let cex = explore(&mutant, CI_DEPTH)
        .violation
        .expect("mutant counterexample");
    let faithful = LeaseModel::default();
    let mut state = faithful.initial()[0];
    let mut rejected = false;
    for action in &cex.trace {
        if !faithful.actions(&state).iter().any(|a| a == action) {
            rejected = true;
            break;
        }
        state = faithful.step(&state, action);
        faithful
            .invariant(&state)
            .expect("faithful protocol must stay clean along any enabled prefix");
    }
    assert!(
        rejected,
        "the faithful protocol should refuse some step of the mutant's bug trace"
    );
}
