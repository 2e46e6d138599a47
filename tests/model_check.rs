//! Model-checking gates: the faithful protocol models explore clean at
//! the CI depth, every seeded mutation is caught with a minimal
//! counterexample, and the counterexample traces replay as a regression
//! corpus (`ppm_check::replay`).
//!
//! The CI `verify` job runs the same checks through the `ppm-check`
//! binary; these tests pin the behavior into `cargo test` so a local run
//! cannot drift from the workflow.

use ppm::sched::model::{LeaseModel, QuiesceModel, StealModel, StealMutation};
use ppm_check::{replay, Explorer, ExplorerConfig, Model, Report};

/// The depth the CI `verify` job pins (`ppm-check --depth 60`). The
/// deque-only steal space has diameter 35 and the injector-seeded
/// space diameter 49, so depth 60 exhausts both; the lease and quiesce
/// models bottom out earlier on their own tick budgets.
const CI_DEPTH: usize = 60;

fn explore<M: Model>(model: &M, depth: usize) -> Report<M> {
    Explorer::new(ExplorerConfig::depth(depth)).run(model)
}

// ---------------------------------------------------------------------
// Faithful protocols: zero violations at the pinned CI depth.
// ---------------------------------------------------------------------

#[test]
fn steal_protocol_is_clean_and_exhausted_at_ci_depth() {
    let report = explore(&StealModel::default(), CI_DEPTH);
    report.assert_ok();
    assert!(
        !report.truncated,
        "depth {CI_DEPTH} must exhaust the steal model's reachable space"
    );
    assert!(
        report.states > 800,
        "steal state space shrank suspiciously: {} states",
        report.states
    );
}

#[test]
fn injector_steal_protocol_is_clean_and_exhausted_at_ci_depth() {
    let report = explore(&StealModel::with_injector(), CI_DEPTH);
    report.assert_ok();
    assert!(
        !report.truncated,
        "depth {CI_DEPTH} must exhaust the injector-seeded steal space"
    );
    assert!(
        report.states > 1_500,
        "injector state space shrank suspiciously: {} states",
        report.states
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
// and `Report::assert_ok` must panic with the violated invariant's
// name — the `#[should_panic]` hook CI's mutation self-test relies on.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "NoLostTask")]
fn dropping_the_lemma_a10_adoption_arm_loses_a_task() {
    explore(&StealModel::mutated(StealMutation::DropLemmaA10), CI_DEPTH).assert_ok();
}

#[test]
#[should_panic(expected = "NoDoubleExecution")]
fn adopting_a_live_processors_local_double_executes() {
    explore(
        &StealModel::mutated(StealMutation::AdoptLiveLocal),
        CI_DEPTH,
    )
    .assert_ok();
}

#[test]
#[should_panic(expected = "NoLostTask")]
fn claiming_before_seating_loses_the_service_job() {
    explore(
        &StealModel::mutated(StealMutation::ClaimBeforeSeat),
        CI_DEPTH,
    )
    .assert_ok();
}

#[test]
#[should_panic(expected = "NoLostTask")]
fn setting_the_done_flag_before_the_done_cam_loses_the_service_job() {
    explore(&StealModel::mutated(StealMutation::DoneEarly), CI_DEPTH).assert_ok();
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
// replayed step-by-step through a fresh model instance, asserting the
// invariant holds along the prefix and fails exactly at the last step.
// The pinned lengths are the BFS-minimal trace depths; a protocol or
// explorer change that lengthens (or loses) a counterexample fails
// here before it reaches CI.
// ---------------------------------------------------------------------

fn corpus_roundtrip<M: Model>(model: &M, expected_steps: usize)
where
    M::Action: PartialEq,
{
    let report = explore(model, CI_DEPTH);
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
    let end = replay(model, init, &cex.trace, true);
    assert_eq!(
        end,
        *cex.states.last().unwrap(),
        "replay must land in the recorded violating state"
    );
}

#[test]
fn corpus_steal_drop_lemma_a10_replays() {
    corpus_roundtrip(&StealModel::mutated(StealMutation::DropLemmaA10), 19);
}

#[test]
fn corpus_steal_adopt_live_local_replays() {
    corpus_roundtrip(&StealModel::mutated(StealMutation::AdoptLiveLocal), 18);
}

#[test]
fn corpus_steal_claim_before_seat_replays() {
    // The thief pulls (read, cam, check) and dies holding a won claim
    // it never seated: nothing adoptable carries the job.
    corpus_roundtrip(&StealModel::mutated(StealMutation::ClaimBeforeSeat), 4);
}

#[test]
fn corpus_steal_done_early_replays() {
    // 22, not 21: the pull seats before its claim CAM, one capsule
    // more before the early flag.
    corpus_roundtrip(&StealModel::mutated(StealMutation::DoneEarly), 22);
}

#[test]
fn corpus_lease_drop_tombstone_replays() {
    corpus_roundtrip(&LeaseModel::mutated(), 2);
}

#[test]
fn corpus_quiesce_skip_busy_replays() {
    corpus_roundtrip(&QuiesceModel::mutated(), 6);
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
