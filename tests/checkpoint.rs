//! The checkpoint subsystem end to end: bounded replay from epoch
//! checkpoints, frame-pool GC shrinking peak pool footprints, torn-record
//! fallback, and the checkpoint policies.
//!
//! Deterministic where it matters: single-processor machines with
//! scheduled hard faults give exact capsule schedules, so the
//! replay-distance assertions are inequalities over measured counts, not
//! probabilistic observations.

use ppm::algs::{prefix_sum_seq, samplesort_pool_words, MergeSort, PrefixSum, SampleSort};
use ppm::core::Active;
use ppm::pm::{FaultConfig, PmConfig, Word};
use ppm::sched::{CheckpointPolicy, Runtime, RuntimeConfig, SessionMode};

const WORDS: usize = 1 << 21;
const SLOTS: usize = 1 << 12;

// Guarded temp paths: removed on drop, so assertion failures and panics
// do not leak machine files into reruns or CI workspaces.
fn tmp(tag: &str) -> ppm::pm::TempMachineFile {
    ppm::pm::TempMachineFile::new(&format!("checkpoint-{tag}"))
}

fn input(n: usize) -> Vec<Word> {
    (0..n as u64).map(|i| i.wrapping_mul(31) % 1009).collect()
}

// ====================================================================
// Bounded replay: resume from the newest checkpoint record
// ====================================================================

const N: usize = 512;
const EPOCH_CAPSULES: u64 = 200;

fn prefix_cfg(pm: PmConfig) -> RuntimeConfig {
    RuntimeConfig::new(pm)
        .with_slots(SLOTS)
        .with_checkpoint(CheckpointPolicy::every_capsules(EPOCH_CAPSULES))
}

/// Capsules and total accesses a complete from-root run performs (P = 1,
/// deterministic). The kill-point tests schedule their hard fault as a
/// fraction of the measured access count, so they keep landing mid-run
/// when per-capsule costs change (coalesced installs, batched frames).
fn full_run_profile() -> (u64, u64) {
    let rt = Runtime::volatile(prefix_cfg(PmConfig::parallel(1, WORDS)));
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    (rep.stats().capsule_completions, rep.stats().total_work())
}

/// A scheduled-fault access index inside a named user capsule ~60%
/// through the from-root run: the first kill point past three fifths of
/// the run's accesses whose dead processor's restart pointer is a
/// `prefix/down` frame. Deterministically past the first checkpoint
/// epochs, short of completion, and inside a user capsule — never inside
/// a `pushBottom` commit, which recovery would reject as mid-push before
/// any restart pointer is looked at — however the per-capsule costs
/// move. Found by killing volatile twins of the run (a durable run
/// performs the same accesses; checkpoints cost none).
fn mid_run_kill_access() -> u64 {
    let past = full_run_profile().1 * 3 / 5;
    (past..past + 200)
        .find(|&at| {
            let pm = PmConfig::parallel(1, WORDS)
                .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, at));
            let rt = Runtime::volatile(prefix_cfg(pm));
            let ps = PrefixSum::new(rt.machine(), N);
            ps.load_input(rt.machine(), &input(N));
            assert!(!rt.run_or_recover(&ps.pcomp()).completed());
            let m = rt.machine();
            matches!(m.arena().resolve(m.active_handle(0)),
                Some(Active::Frame(f)) if f.name == "prefix/down")
        })
        .expect("a kill inside `prefix/down` past three fifths of the run")
}

#[cfg(unix)]
#[test]
fn unresumable_crash_frontier_resumes_from_checkpoint_with_bounded_replay() {
    let (full, full_work) = full_run_profile();
    let path = tmp("bounded");
    let _ = std::fs::remove_file(&path);
    {
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, full_work * 13 / 20));
        let rt = Runtime::create(&path, prefix_cfg(pm)).unwrap();
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input(N));
        let rep = rt.run_or_recover(&ps.pcomp());
        assert!(!rep.completed(), "the scheduled kill must land mid-run");
        let ck = &rep.run.as_ref().unwrap().checkpoints;
        assert!(
            ck.records_written >= 2,
            "the dying run must have written checkpoint records, got {ck:?}"
        );
        assert!(ck.words_reclaimed > 0, "GC must have reclaimed churn");
    }

    let rt = Runtime::open(&path, prefix_cfg(PmConfig::parallel(1, WORDS))).unwrap();
    // Point the restart pointer at garbage so the crash frontier cannot
    // resume (the checkpoint frontier's own frames stay intact): the
    // session must fall back to the newest checkpoint, NOT to the root.
    assert_ne!(rt.machine().active_handle(0), 0);
    rt.machine()
        .mem()
        .store(rt.machine().proc_meta(0).active, 0xBAAD_F00D);

    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    let rec = rt.run_or_recover(&ps.pcomp());
    assert!(rec.completed());
    assert_eq!(
        rec.mode,
        SessionMode::Resumed,
        "checkpoint resume, not replay"
    );
    assert!(rec.fallback_reason.is_none());
    let ckpt = rec
        .checkpoint_resume
        .as_ref()
        .expect("resume must credit the checkpoint record");
    assert!(ckpt.seq >= 1);
    assert!(
        matches!(
            ckpt.crash_frontier,
            ppm::sched::FallbackReason::Rehydrate { .. }
        ),
        "the rejected crash frontier is explained: {:?}",
        ckpt.crash_frontier
    );
    assert!(
        ckpt.capsules_at_checkpoint > 0,
        "the kill landed after the first checkpoint"
    );
    assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&input(N)));

    // Replay distance ≤ one epoch: the recovery re-drives the span after
    // the checkpoint (full − capsules_at_checkpoint) plus per-seed claim
    // overhead — never the whole run from the root.
    let recovered = rec.run.as_ref().unwrap().stats.capsule_completions;
    let slack = 4 * rec.resumed as u64 + 64;
    assert!(
        recovered <= full - ckpt.capsules_at_checkpoint + slack,
        "recovery ran {recovered} capsules; checkpoint at {} of {full} allows ≤ {}",
        ckpt.capsules_at_checkpoint,
        full - ckpt.capsules_at_checkpoint + slack
    );
    assert!(
        recovered < full,
        "checkpoint resume ({recovered}) must beat a from-root replay ({full})"
    );
    let _ = std::fs::remove_file(&path);
}

#[cfg(unix)]
#[test]
fn torn_newest_record_falls_back_to_the_previous_checkpoint() {
    use ppm::pm::control::{PageView, CHECKPOINTS};
    let path = tmp("torn");
    let _ = std::fs::remove_file(&path);
    {
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, mid_run_kill_access()));
        let rt = Runtime::create(&path, prefix_cfg(pm)).unwrap();
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input(N));
        assert!(!rt.run_or_recover(&ps.pcomp()).completed());
    }

    // Read both record slots straight off the file and tear the newest —
    // the mid-write machine-failure scenario.
    let view = PageView::read_file(&path).unwrap();
    let slot_rec = |s: usize| view.checkpoints[s].as_ref().ok().and_then(Option::as_ref);
    let (a, b) = (slot_rec(0), slot_rec(1));
    let newest = match (&a, &b) {
        (Some(a), Some(b)) => {
            if a.seq > b.seq {
                0
            } else {
                1
            }
        }
        _ => panic!("the dying run must have filled both record slots"),
    };
    let newest_seq = [&a, &b][newest].as_ref().unwrap().seq;
    let prev_seq = [&a, &b][1 - newest].as_ref().unwrap().seq;
    assert_eq!(prev_seq + 1, newest_seq);
    {
        use std::os::unix::fs::FileExt;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        // Flip a byte in the middle of the newest record's payload.
        f.write_at(&[0xFF], (CHECKPOINTS.slot_offset(newest) + 64) as u64)
            .unwrap();
    }

    let rt = Runtime::open(&path, prefix_cfg(PmConfig::parallel(1, WORDS))).unwrap();
    rt.machine()
        .mem()
        .store(rt.machine().proc_meta(0).active, 0xBAAD_F00D);
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    let rec = rt.run_or_recover(&ps.pcomp());
    assert!(rec.completed());
    assert_eq!(rec.mode, SessionMode::Resumed);
    assert_eq!(
        rec.checkpoint_resume.as_ref().unwrap().seq,
        prev_seq,
        "a torn newest record must fall back to the previous epoch's"
    );
    assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&input(N)));
    let _ = std::fs::remove_file(&path);
}

/// The acceptance scenario: a killed **samplesort** under
/// `every_capsules(K)` resumes in `Resumed` mode replaying at most one
/// epoch of capsules. Death is the all-processors-hard-fault event that
/// models `kill -9` (deterministic at P = 1; the real-SIGKILL version
/// lives in `examples/checkpointed_run.rs`), and the crash frontier is
/// smashed so the resume must come from the checkpoint record.
#[cfg(unix)]
#[test]
fn killed_samplesort_resumes_from_checkpoint_within_one_epoch() {
    const SS_N: usize = 700;
    const K: u64 = 400;
    let data = ss_data(SS_N);
    let mut expect = data.clone();
    expect.sort_unstable();
    let cfg = |fault: FaultConfig| {
        RuntimeConfig::new(
            PmConfig::parallel(1, 1 << 22)
                .with_ephemeral_words(64)
                .with_fault(fault),
        )
        .with_pool_words(samplesort_pool_words(SS_N))
        .with_slots(1 << 13)
        .with_checkpoint(CheckpointPolicy::every_capsules(K))
    };

    // Reference: the full from-root capsule count (volatile, same shape).
    let full = {
        let rt = Runtime::volatile(cfg(FaultConfig::none()));
        let ss = SampleSort::new(rt.machine(), SS_N);
        ss.load_input(rt.machine(), &data);
        let rep = rt.run_or_recover(&ss.pcomp());
        assert!(rep.completed());
        rep.stats().capsule_completions
    };

    let path = tmp("ss-bounded");
    let _ = std::fs::remove_file(&path);
    {
        let rt = Runtime::create(
            &path,
            cfg(FaultConfig::none().with_scheduled_hard_fault(0, 20_000)),
        )
        .unwrap();
        let ss = SampleSort::new(rt.machine(), SS_N);
        ss.load_input(rt.machine(), &data);
        let rep = rt.run_or_recover(&ss.pcomp());
        assert!(!rep.completed(), "the kill must land mid-pipeline");
        assert!(
            rep.run.as_ref().unwrap().checkpoints.records_written >= 1,
            "{:?}",
            rep.run.as_ref().unwrap().checkpoints
        );
    }

    let rt = Runtime::open(&path, cfg(FaultConfig::none())).unwrap();
    assert_ne!(rt.machine().active_handle(0), 0);
    rt.machine()
        .mem()
        .store(rt.machine().proc_meta(0).active, 0xBAAD_F00D);
    let ss = SampleSort::new(rt.machine(), SS_N);
    ss.load_input(rt.machine(), &data);
    let rec = rt.run_or_recover(&ss.pcomp());
    assert!(rec.completed());
    assert_eq!(rec.mode, SessionMode::Resumed);
    let ckpt = rec.checkpoint_resume.as_ref().expect("checkpoint resume");
    assert_eq!(ss.read_output(rt.machine()), expect);
    let recovered = rec.run.as_ref().unwrap().stats.capsule_completions;
    let slack = 4 * rec.resumed as u64 + 64;
    assert!(
        recovered <= full - ckpt.capsules_at_checkpoint + slack,
        "samplesort recovery ran {recovered} capsules; checkpoint at {} of {full} \
         allows ≤ {}",
        ckpt.capsules_at_checkpoint,
        full - ckpt.capsules_at_checkpoint + slack
    );
    assert!(recovered < full);
    let _ = std::fs::remove_file(&path);
}

fn ss_data(n: usize) -> Vec<Word> {
    (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(17);
            (x ^ (x >> 31)) % 10_000
        })
        .collect()
}

// ====================================================================
// Frame-pool GC: peak pool usage drops
// ====================================================================

/// Runs a pcomp workload twice — checkpointing off and on — and returns
/// `(peak_without_gc, peak_with_gc, gc_summary)`.
fn peaks<F: Fn(&Runtime) -> ppm::core::PComp>(
    build: F,
    pool_words: usize,
) -> (u64, u64, ppm::sched::CheckpointSummary) {
    let run = |policy: CheckpointPolicy| {
        // Small ephemeral memory forces deep recursion (many frames), the
        // regime the pool GC exists for.
        let rt = Runtime::volatile(
            RuntimeConfig::new(PmConfig::parallel(1, WORDS).with_ephemeral_words(64))
                .with_slots(SLOTS)
                .with_pool_words(pool_words)
                .with_checkpoint(policy),
        );
        let pcomp = build(&rt);
        let rep = rt.run_or_recover(&pcomp);
        assert!(rep.completed());
        let r = rep.run.unwrap();
        (r.stats.max_pool_peak, r.checkpoints)
    };
    let (peak_off, _) = run(CheckpointPolicy::disabled());
    let (peak_on, ck) = run(CheckpointPolicy::every_capsules(150));
    (peak_off, peak_on, ck)
}

#[test]
fn gc_shrinks_prefix_sum_peak_pool_usage() {
    let (off, on, ck) = peaks(
        |rt| {
            let ps = PrefixSum::new(rt.machine(), 2048);
            ps.load_input(rt.machine(), &input(2048));
            ps.pcomp()
        },
        1 << 17,
    );
    assert!(ck.words_reclaimed > 0, "{ck:?}");
    assert!(
        on < off,
        "prefix peak with GC ({on}) must drop below the retain-everything peak ({off})"
    );
}

#[test]
fn gc_shrinks_mergesort_peak_pool_usage() {
    let (off, on, ck) = peaks(
        |rt| {
            let ms = MergeSort::new(rt.machine(), 1500);
            ms.load_input(rt.machine(), &input(1500));
            ms.pcomp()
        },
        1 << 17,
    );
    assert!(ck.words_reclaimed > 0, "{ck:?}");
    assert!(
        on < off,
        "mergesort peak with GC ({on}) must drop below the retain-everything peak ({off})"
    );
}

#[test]
fn gc_shrinks_samplesort_peak_pool_usage_below_the_pr3_formula() {
    let n = 900;
    // The PR-3 sizing formula carried a doubled 72·n frame term for the
    // resume-rebuild worst case; GC makes the retained footprint obsolete.
    let pr3_frame_term = 72 * n;
    let (off, on, ck) = peaks(
        |rt| {
            let ss = SampleSort::new(rt.machine(), n);
            ss.load_input(rt.machine(), &input(n));
            ss.pcomp()
        },
        samplesort_pool_words(n) + pr3_frame_term,
    );
    assert!(ck.words_reclaimed > 0, "{ck:?}");
    assert!(
        on < off,
        "samplesort peak with GC ({on}) must drop below the retain-everything peak ({off})"
    );
    assert!(
        (off as usize) > samplesort_pool_words(n),
        "the retain-everything footprint ({off}) must exceed the tightened budget ({}) — \
         otherwise the PR-3 doubling was never needed and this test proves nothing",
        samplesort_pool_words(n)
    );
}

/// The tightened budget itself is sufficient: with the pool sized by the
/// post-GC formula (smaller than the retain-everything footprint measured
/// above), the run completes — the pressure-triggered GC keeps the bump
/// allocator inside the budget where the PR-3 sizing needed the doubled
/// term.
#[test]
fn tightened_samplesort_budget_completes_under_gc() {
    let n = 900;
    let data = input(n);
    let mut expect = data.clone();
    expect.sort_unstable();
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(1, WORDS).with_ephemeral_words(64))
            .with_slots(SLOTS)
            .with_pool_words(samplesort_pool_words(n)),
    );
    let ss = SampleSort::new(rt.machine(), n);
    ss.load_input(rt.machine(), &data);
    let rep = rt.run_or_recover(&ss.pcomp());
    assert!(rep.completed());
    assert_eq!(ss.read_output(rt.machine()), expect);
    let ck = rep.run.unwrap().checkpoints;
    assert!(ck.words_reclaimed > 0, "{ck:?}");
}

/// Satellite regression: the pre-checkpoint hard-fault exhaustion case.
/// A hard-faulted processor's threads are adopted and re-driven by the
/// survivor, whose pool absorbs the re-allocation — under the PR-3
/// formulas this was the case that doubled the budget. With checkpoint
/// GC on (the default) the tightened formula must still complete it.
#[test]
fn tightened_samplesort_budget_survives_hard_fault_adoption() {
    let n = 600;
    let data: Vec<Word> = (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(17);
            (x ^ (x >> 31)) % 10_000
        })
        .collect();
    let mut expect = data.clone();
    expect.sort_unstable();
    let rt = Runtime::volatile(
        RuntimeConfig::new(
            PmConfig::parallel(2, 1 << 22)
                .with_ephemeral_words(64)
                .with_fault(FaultConfig::none().with_scheduled_hard_fault(1, 2000)),
        )
        .with_pool_words(samplesort_pool_words(n))
        .with_slots(1 << 13),
    );
    let ss = SampleSort::new(rt.machine(), n);
    ss.load_input(rt.machine(), &data);
    let rep = rt.run_or_recover(&ss.pcomp());
    assert!(rep.completed(), "survivor must finish the adopted work");
    assert_eq!(rep.dead_procs(), 1);
    assert_eq!(ss.read_output(rt.machine()), expect);
}

/// A processor that panics releases the quiesce barrier: with a pool an
/// eighth of the sort's budget, some processor thread runs its pool dry
/// mid-capsule, and its sibling — parked at a checkpoint quiesce or
/// spinning for work the dead thread held — must stop too, so the
/// session re-raises the exhaustion panic instead of hanging.
#[test]
fn a_pool_exhaustion_panic_ends_a_checkpointed_p2_session() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;
    let n = 900;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let rt = Runtime::volatile(
            RuntimeConfig::new(PmConfig::parallel(2, WORDS).with_ephemeral_words(64))
                .with_slots(SLOTS)
                .with_pool_words(samplesort_pool_words(n) / 8)
                .with_checkpoint(CheckpointPolicy::every_capsules(64)),
        );
        let ss = SampleSort::new(rt.machine(), n);
        ss.load_input(rt.machine(), &input(n));
        let outcome = catch_unwind(AssertUnwindSafe(|| rt.run_or_recover(&ss.pcomp())));
        let _ = tx.send(outcome.map(|rep| rep.completed()).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(msg)) => assert!(msg.contains("allocation pool exhausted"), "{msg}"),
        Ok(Ok(completed)) => {
            panic!("the run returned (completed: {completed}) from a pool that cannot hold it")
        }
        Err(_) => panic!("the session hung after a processor panicked"),
    }
}

// ====================================================================
// Policies
// ====================================================================

#[test]
fn disabled_policy_never_checkpoints() {
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(1, WORDS))
            .with_slots(SLOTS)
            .with_checkpoint(CheckpointPolicy::disabled()),
    );
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    assert_eq!(
        rep.run.unwrap().checkpoints,
        ppm::sched::CheckpointSummary::default()
    );
}

#[test]
fn every_pool_words_policy_reclaims() {
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(1, WORDS))
            .with_slots(SLOTS)
            .with_pool_words(1 << 17)
            .with_checkpoint(CheckpointPolicy::every_pool_words(1 << 12)),
    );
    let ps = PrefixSum::new(rt.machine(), 2048);
    ps.load_input(rt.machine(), &input(2048));
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    let ck = rep.run.unwrap().checkpoints;
    assert!(ck.completed >= 1, "{ck:?}");
    assert!(ck.words_reclaimed > 0, "{ck:?}");
}

#[test]
fn manual_policy_checkpoints_only_on_request() {
    let (policy, trigger) = CheckpointPolicy::manual();
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(1, WORDS))
            .with_slots(SLOTS)
            .with_checkpoint(policy),
    );
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    // Request before the run: a boundary soon after takes it.
    trigger.request();
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    let ck = rep.run.unwrap().checkpoints;
    assert_eq!(
        ck.completed, 1,
        "exactly the one requested checkpoint completes: {ck:?}"
    );
}

#[cfg(unix)]
#[test]
fn completed_durable_run_leaves_a_record_behind() {
    let path = tmp("records");
    let _ = std::fs::remove_file(&path);
    let rt = Runtime::create(&path, prefix_cfg(PmConfig::parallel(1, WORDS))).unwrap();
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    assert!(rt.run_or_recover(&ps.pcomp()).completed());
    let rec = rt
        .machine()
        .latest_checkpoint_record()
        .expect("a durable checkpointed run leaves its records behind");
    assert!(rec.seq >= 1);
    assert!(rec.capsules > 0);
    let _ = std::fs::remove_file(&path);
}

#[cfg(unix)]
#[test]
fn replay_from_root_clears_stale_checkpoint_records() {
    let path = tmp("clear");
    let _ = std::fs::remove_file(&path);
    {
        // A checkpointed persistent run dies mid-flight, leaving records.
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, mid_run_kill_access()));
        let rt = Runtime::create(&path, prefix_cfg(pm)).unwrap();
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input(N));
        assert!(!rt.run_or_recover(&ps.pcomp()).completed());
    }
    // A session that can rehydrate neither the crash frontier nor the
    // newest record's frontier replays from the root, which resets pool
    // cursors — the stale records' frontiers would dangle, so the replay
    // must invalidate them. The recovering session itself checkpoints
    // nothing, so any record left afterwards is a stale one.
    let no_ckpt =
        prefix_cfg(PmConfig::parallel(1, WORDS)).with_checkpoint(CheckpointPolicy::disabled());
    let rt = Runtime::open(&path, no_ckpt).unwrap();
    let stale = rt
        .machine()
        .latest_checkpoint_record()
        .expect("the dying run left a record behind");
    rt.machine()
        .mem()
        .store(rt.machine().proc_meta(0).active, 0xBAAD_F00D);
    rt.machine()
        .mem()
        .store(stale.frontier[0] as usize, 0xBAAD_F00D);
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    assert_eq!(rep.mode, SessionMode::Replayed);
    assert!(
        matches!(
            rep.fallback_reason,
            Some(ppm::sched::FallbackReason::Rehydrate { .. })
        ),
        "the rejected crash frontier is explained: {:?}",
        rep.fallback_reason
    );
    assert!(rep.checkpoint_resume.is_none());
    assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&input(N)));
    assert!(
        rt.machine().latest_checkpoint_record().is_none(),
        "replay-from-root must clear stale checkpoint records"
    );
    let _ = std::fs::remove_file(&path);
}

/// A file whose restart pointer sits on a `join-check` frame — id 0x02,
/// the separate check capsule of older builds, which this build never
/// registers — opens to a structured fallback naming the unknown
/// capsule, never a panic, and the run still completes.
#[cfg(unix)]
#[test]
fn a_restart_pointer_on_a_retired_join_check_frame_falls_back() {
    use ppm::core::{RehydrateError, TOKEN_LEFT};
    use ppm::sched::FallbackReason;
    let path = tmp("retired-check");
    let _ = std::fs::remove_file(&path);
    {
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, mid_run_kill_access()));
        let rt = Runtime::create(&path, prefix_cfg(pm)).unwrap();
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input(N));
        assert!(!rt.run_or_recover(&ps.pcomp()).completed());
    }
    let rt = Runtime::open(&path, prefix_cfg(PmConfig::parallel(1, WORDS))).unwrap();
    let m = rt.machine();
    let ps = PrefixSum::new(m, N);
    ps.load_input(m, &input(N));
    // The arrival as the older build wrote it, `[cell, token, after]`, at
    // the far end of the pool: nothing live is there, and construction
    // must carve the same regions the dying run carved.
    let top = m.pool(0).end() - 16;
    let after = m.active_handle(0);
    ppm::pm::store_frame(m.mem(), top, 0x02, &[top as Word + 15, TOKEN_LEFT, after]);
    m.mem().store(m.proc_meta(0).active, top as Word);
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    assert_eq!(ps.read_output(m), prefix_sum_seq(&input(N)));
    let reason = (rep.fallback_reason.clone()).or_else(|| {
        rep.checkpoint_resume
            .as_ref()
            .map(|c| c.crash_frontier.clone())
    });
    assert!(
        matches!(
            &reason,
            Some(FallbackReason::Rehydrate {
                error: RehydrateError::UnknownCapsule {
                    capsule_id: 0x02,
                    ..
                },
                ..
            })
        ),
        "{reason:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A reopening process that carves one setup region more before the
/// computation's own than the dying run did: every region after it —
/// the prefix sum's arrays, the done flag, deques, ring, root frames —
/// lies one block higher. The newest checkpoint record pins the region
/// cursor it was taken over, so recovery refuses it with a structured
/// reason instead of reading the dying run's words where they no longer
/// are (the moved ring read as drained, and the session reported
/// complete with the output still zero), and the run replays from the
/// root.
#[cfg(unix)]
#[test]
fn a_checkpoint_taken_over_another_layout_is_refused() {
    use ppm::sched::FallbackReason;
    let path = tmp("layout");
    let _ = std::fs::remove_file(&path);
    {
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, mid_run_kill_access()));
        let rt = Runtime::create(&path, prefix_cfg(pm)).unwrap();
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input(N));
        let rep = rt.run_or_recover(&ps.pcomp());
        assert!(!rep.completed());
        assert!(rep.run.unwrap().checkpoints.records_written > 0);
    }
    let rt = Runtime::open(&path, prefix_cfg(PmConfig::parallel(1, WORDS))).unwrap();
    let m = rt.machine();
    let recorded = m
        .latest_checkpoint_record()
        .expect("the dying run left a record behind");
    m.alloc_region(1);
    let ps = PrefixSum::new(m, N);
    ps.load_input(m, &input(N));
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    assert_eq!(ps.read_output(m), prefix_sum_seq(&input(N)));
    assert_eq!(rep.mode, SessionMode::Replayed);
    assert!(rep.checkpoint_resume.is_none());
    match rep.fallback_reason {
        Some(FallbackReason::CheckpointLayout {
            seq,
            recorded: at,
            found,
        }) => {
            assert_eq!((seq, at), (recorded.seq, recorded.region_cursor));
            assert!(found > at, "the extra region moved the cursor up");
        }
        other => panic!("expected the layout refusal, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A file whose restart pointer denotes a scheduler record of a retired
/// kind — 4 (`popBottom/check`) or 16 (`pushBottom/read`), which the
/// fork paid before their bodies moved into neighbouring capsules — opens
/// to a structured fallback, never a panic, and the run still completes.
#[cfg(unix)]
#[test]
fn a_restart_pointer_on_a_retired_scheduler_kind_falls_back() {
    use ppm::core::machine::meta;
    use ppm::core::{journal_image, SchedRecord};
    use ppm::sched::FallbackReason;
    let kill = mid_run_kill_access();
    for kind in [4u16, 16] {
        let path = tmp(&format!("retired-kind-{kind}"));
        let _ = std::fs::remove_file(&path);
        {
            let pm = PmConfig::parallel(1, WORDS)
                .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, kill));
            let rt = Runtime::create(&path, prefix_cfg(pm)).unwrap();
            let ps = PrefixSum::new(rt.machine(), N);
            ps.load_input(rt.machine(), &input(N));
            assert!(!rt.run_or_recover(&ps.pcomp()).completed());
        }
        let rt = Runtime::open(&path, prefix_cfg(PmConfig::parallel(1, WORDS))).unwrap();
        let m = rt.machine();
        // The record as the older build journaled it, live in slot A
        // (a generation above both heads), behind the journal pointer.
        let block = m.proc_meta(0);
        let head = |at: usize| SchedRecord::generation(m.mem().load(block.base + at));
        let gen = head(meta::HEAD_A).max(head(meta::HEAD_B));
        let rec = SchedRecord {
            kind,
            args: [0x4000, 0x4010, 1, 0, 0],
        };
        let (off, image) = journal_image(&rec, gen + 1, true, block.active as Word);
        for (i, w) in image.iter().enumerate() {
            m.mem().store(block.base + off + i, *w);
        }
        assert_eq!(m.active_handle(0), block.active as Word);
        let ps = PrefixSum::new(m, N);
        ps.load_input(m, &input(N));
        let rep = rt.run_or_recover(&ps.pcomp());
        assert!(rep.completed(), "kind {kind}");
        assert_eq!(ps.read_output(m), prefix_sum_seq(&input(N)), "kind {kind}");
        let reason = (rep.fallback_reason.clone()).or_else(|| {
            rep.checkpoint_resume
                .as_ref()
                .map(|c| c.crash_frontier.clone())
        });
        assert!(
            matches!(&reason, Some(FallbackReason::Rehydrate { what, .. })
                if what.contains("restart pointer")),
            "kind {kind}: {reason:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

// ====================================================================
// Skip-and-retry under contention (the ROADMAP "measure skip rates at
// high P" follow-on)
// ====================================================================

/// At high P with a tiny checkpoint interval, quiesces frequently land
/// in busy windows — a fork mid-push or a steal mid-transfer somewhere
/// on the machine — and the coordinator must *skip* (never reclaim
/// wrongly) and retry at a later boundary. This records the skip counts
/// and asserts the retry policy actually converges: checkpoints still
/// land, within a bounded number of quiesce attempts each.
#[test]
fn skip_and_retry_lands_checkpoints_under_high_p_contention() {
    const P: usize = 8;
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(P, 1 << 22).with_ephemeral_words(128))
            .with_slots(SLOTS)
            .with_pool_words(samplesort_pool_words(2048))
            // An interval far below the fork rate: most quiesce requests
            // race live scheduler operations.
            .with_checkpoint(CheckpointPolicy::every_capsules(64)),
    );
    let ss = SampleSort::new(rt.machine(), 2048);
    let data = input(2048);
    ss.load_input(rt.machine(), &data);
    let rep = rt.run_or_recover(&ss.pcomp());
    assert!(rep.completed());
    let mut expect = data;
    expect.sort_unstable();
    assert_eq!(ss.read_output(rt.machine()), expect);

    let ck = rep.run_report().checkpoints;
    println!(
        "P={P} skip-rate sample: attempted={} completed={} skipped_busy={} \
         skipped_untraced={} reclaimed={}",
        ck.attempted, ck.completed, ck.skipped_busy, ck.skipped_untraced, ck.words_reclaimed
    );
    // Accounting identity: every quiesce either completes or is recorded
    // as a skip.
    assert_eq!(
        ck.attempted,
        ck.completed + ck.skipped_busy + ck.skipped_untraced
    );
    // The whole point of skip-and-retry: contention delays reclamation,
    // never starves it. At least one checkpoint must land...
    assert!(
        ck.completed >= 1,
        "no checkpoint landed in {} attempts",
        ck.attempted
    );
    // ...and each landing costs a bounded number of quiesce attempts
    // (the busy-retry backoff paces futile quiesces; 32 is far above the
    // observed worst case and far below pathological thrash).
    assert!(
        ck.attempted <= (ck.completed + 1) * 32,
        "checkpoint quiesces thrash: {} attempts for {} completions",
        ck.attempted,
        ck.completed
    );
    // Untraced skips would mean a DSL capsule lost its tracer.
    assert_eq!(ck.skipped_untraced, 0, "all DSL capsules must be traceable");
}
