//! The checkpoint subsystem end to end: bounded replay from epoch
//! checkpoints, frame-pool GC shrinking peak pool footprints, torn-record
//! fallback, and the checkpoint policies.
//!
//! Deterministic where it matters: single-processor machines with
//! scheduled hard faults give exact capsule schedules, so the
//! replay-distance assertions are inequalities over measured counts, not
//! probabilistic observations.

use std::sync::Arc;

use ppm::algs::{prefix_sum_seq, samplesort_pool_words, MergeSort, PrefixSum, SampleSort};
use ppm::core::{Active, ContArena, Machine, Next, PComp, SchedRecord, Scheduler};
use ppm::pm::{FaultConfig, PmConfig, PmError, PmResult, ProcCtx, Region, Word};
use ppm::sched::{
    CheckpointPolicy, CheckpointSummary, Runtime, RuntimeConfig, Sched, SchedConfig, SessionMode,
    SimSched,
};

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
/// epochs, short of completion, and inside a user capsule — so the
/// restart pointer is a frame — however the per-capsule costs move. Found by killing volatile twins of the run (a durable run
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
        // A join frees its subtree down to the cursor's block offset,
        // so the words between its mark and the cursor are churn that
        // only GC reclaims.
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

/// Steps of [`churn_chain`].
const CHURN_STEPS: u64 = 128;

/// A chain of [`CHURN_STEPS`] capsules, each of which frames its
/// successor, stages a value in a scratch pool word and then forks two
/// leaves that join into the successor: leaf `i` writes `i + 1` to
/// `out[i]`. The fork's join frees its subtree, but the scratch word sits
/// below its mark, so every step leaves churn that only a checkpoint's
/// GC reclaims, with fork marks open and closing around it.
fn churn_chain(out: Region) -> PComp {
    use ppm::core::dsl::{fork2, CapsuleSet, Step, K};
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("churn/leaf", move |&i: &u64, k, ctx| {
            ctx.pwrite(out.at(i as usize), i + 1)?;
            Ok(Step::Jump(k))
        });
        let step = set.declare::<u64>("churn/step");
        set.body(step, move |&n, k, ctx| {
            if n == 0 {
                return Ok(Step::Jump(k));
            }
            let next = step.frame(ctx, &(n - 1), k)?;
            let scratch = ctx.palloc(1)?;
            ctx.pwrite(scratch, n)?;
            fork2(ctx, (leaf, &(2 * n - 2)), (leaf, &(2 * n - 1)), next)
        });
        step.setup(m, &CHURN_STEPS, K(finale)).word()
    })
}

#[cfg(unix)]
#[test]
fn a_crash_after_gc_rollbacks_resumes_from_a_checkpoint_record() {
    let words = 2 * CHURN_STEPS as usize;
    let full_work = {
        let rt = Runtime::volatile(prefix_cfg(PmConfig::parallel(1, WORDS)));
        let out = rt.machine().alloc_region(words);
        let rep = rt.run_or_recover(&churn_chain(out));
        assert!(rep.completed());
        rep.stats().total_work()
    };
    let path = tmp("churn");
    let _ = std::fs::remove_file(&path);
    {
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, full_work * 13 / 20));
        let rt = Runtime::create(&path, prefix_cfg(pm)).unwrap();
        let out = rt.machine().alloc_region(words);
        let rep = rt.run_or_recover(&churn_chain(out));
        assert!(!rep.completed(), "the scheduled kill must land mid-run");
        let ck = &rep.run.as_ref().unwrap().checkpoints;
        assert!(ck.records_written >= 2, "{ck:?}");
        assert!(
            ck.words_reclaimed >= ck.completed,
            "every quiesce reclaims a step's scratch: {ck:?}"
        );
    }

    let rt = Runtime::open(&path, prefix_cfg(PmConfig::parallel(1, WORDS))).unwrap();
    // As above: a garbage restart pointer sends recovery to the record.
    rt.machine()
        .mem()
        .store(rt.machine().proc_meta(0).active, 0xBAAD_F00D);
    let out = rt.machine().alloc_region(words);
    let rec = rt.run_or_recover(&churn_chain(out));
    assert!(rec.completed());
    assert_eq!(rec.mode, SessionMode::Resumed, "{rec:?}");
    let ckpt = rec
        .checkpoint_resume
        .as_ref()
        .expect("resume must credit the checkpoint record");
    assert!(ckpt.capsules_at_checkpoint > 0);
    for i in 0..words {
        assert_eq!(
            rt.machine().mem().load(out.at(i)),
            i as Word + 1,
            "out[{i}]"
        );
    }
    drop(rt);
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

    // Reference: the full from-root capsule count and work (volatile,
    // same shape). The kill lands half-way through that work.
    let (full, kill_at) = {
        let rt = Runtime::volatile(cfg(FaultConfig::none()));
        let ss = SampleSort::new(rt.machine(), SS_N);
        ss.load_input(rt.machine(), &data);
        let rep = rt.run_or_recover(&ss.pcomp());
        assert!(rep.completed());
        (
            rep.stats().capsule_completions,
            rep.stats().total_work() / 2,
        )
    };

    let path = tmp("ss-bounded");
    let _ = std::fs::remove_file(&path);
    {
        let rt = Runtime::create(
            &path,
            cfg(FaultConfig::none().with_scheduled_hard_fault(0, kill_at)),
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

/// The scheduler as the join rule sees a run in which a thief struck
/// inside every subtree: each scheduler capsule counts a foreign event,
/// so no join frees its subtree's words and only checkpoint GC hands
/// pool words back — the regime GC is the backstop for. (At P = 1 every
/// join frees its subtree and leaves GC nothing; at P = 2 steals split
/// only a few subtrees, however the processors are interleaved.)
struct StolenEverywhere(Arc<Sched>);

impl Scheduler for StolenEverywhere {
    fn run(&self, rec: &SchedRecord, ctx: &mut ProcCtx, handles: &ContArena) -> PmResult<Next> {
        ctx.note_foreign();
        Scheduler::run(&*self.0, rec, ctx, handles)
    }
    fn on_fork(&self, ctx: &mut ProcCtx, child: Word, cont: Word) -> PmResult<SchedRecord> {
        self.0.on_fork(ctx, child, cont)
    }
    fn on_end(&self) -> SchedRecord {
        self.0.on_end()
    }
    fn name(&self, rec: &SchedRecord) -> &'static str {
        Scheduler::name(&*self.0, rec)
    }
    fn war_checked(&self, rec: &SchedRecord) -> bool {
        self.0.war_checked(rec)
    }
}

/// Runs a pcomp workload on one processor whose joins free nothing
/// ([`StolenEverywhere`]) twice — with no checkpoint, and with a quiesced
/// checkpoint every 150 capsules — and returns `(peak_without_gc,
/// peak_with_gc, gc_summary)`.
fn peaks<F: Fn(&Machine) -> PComp>(build: F, pool_words: usize) -> (u64, u64, CheckpointSummary) {
    let run = |gc: bool| {
        // Small ephemeral memory forces deep recursion (many frames), the
        // regime the pool GC exists for.
        let pm = PmConfig::parallel(1, WORDS).with_ephemeral_words(64);
        let machine = Machine::with_pool_words(pm, pool_words);
        let pcomp = build(&machine);
        let cfg = SchedConfig {
            checkpoint: CheckpointPolicy::disabled(),
            ..SchedConfig::with_slots(SLOTS)
        };
        let mut sim = SimSched::new_persistent(&machine, &pcomp, &cfg)
            .with_runner(|sched| Arc::new(StolenEverywhere(sched)));
        let mut capsules = 0u64;
        while !sim.completed() {
            assert!(capsules < 1 << 24, "the run must complete");
            sim.step(0);
            capsules += 1;
            if gc && capsules.is_multiple_of(150) {
                sim.checkpoint();
            }
        }
        (machine.stats().snapshot().max_pool_peak, sim.checkpoints())
    };
    let (peak_off, _) = run(false);
    let (peak_on, ck) = run(true);
    (peak_off, peak_on, ck)
}

#[test]
fn gc_shrinks_prefix_sum_peak_pool_usage() {
    let (off, on, ck) = peaks(
        |m| {
            let ps = PrefixSum::new(m, 2048);
            ps.load_input(m, &input(2048));
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
        |m| {
            let ms = MergeSort::new(m, 1500);
            ms.load_input(m, &input(1500));
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
        |m| {
            let ss = SampleSort::new(m, n);
            ss.load_input(m, &input(n));
            ss.pcomp()
        },
        samplesort_pool_words(n) + pr3_frame_term,
    );
    assert!(ck.words_reclaimed > 0, "{ck:?}");
    assert!(
        on < off,
        "samplesort peak with GC ({on}) must drop below the retain-everything peak ({off})"
    );
    // With buckets sized to M the top level's buckets are base sorts, and
    // even with joins freeing nothing and no checkpoint the run peaks at
    // about half the tightened budget (35 905 of 71 460 words): neither
    // the doubled frame term nor GC is what lets this sort fit.
    assert!(
        (off as usize) < samplesort_pool_words(n),
        "the retain-everything footprint ({off}) must fit the tightened budget ({})",
        samplesort_pool_words(n)
    );
}

/// The tightened budget itself is sufficient: with the pool sized by the
/// post-GC formula, without the doubled frame term, the run completes and
/// its periodic checkpoints reclaim words.
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
/// formulas this was the case that doubled the budget. The tightened
/// formula must still complete it, with a quiesced checkpoint every
/// [`DEFAULT_CHECKPOINT_CAPSULES`] steps as a session's default policy
/// takes them.
///
/// The schedule is a seeded `SimSched` interleaving, not OS threads:
/// with threads, processor 0 sometimes finished the sort before
/// processor 1 reached its scheduled access, and no processor died.
/// Here processor 1 dies at access 2000 in every run.
#[test]
fn tightened_samplesort_budget_survives_hard_fault_adoption() {
    use ppm::sched::checkpoint::DEFAULT_CHECKPOINT_CAPSULES;
    use ppm::sched::{ProcOutcome, SimEvent};
    let n = 600;
    let data: Vec<Word> = (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(17);
            (x ^ (x >> 31)) % 10_000
        })
        .collect();
    let mut expect = data.clone();
    expect.sort_unstable();
    let pm = PmConfig::parallel(2, 1 << 22)
        .with_ephemeral_words(64)
        .with_fault(FaultConfig::none().with_scheduled_hard_fault(1, 2000));
    let machine = Machine::with_pool_words(pm, samplesort_pool_words(n));
    let ss = SampleSort::new(&machine, n);
    ss.load_input(&machine, &data);
    let mut sim =
        SimSched::new_persistent(&machine, &ss.pcomp(), &SchedConfig::with_slots(1 << 13));
    // xorshift64* over the runnable processors, as `run_seeded` draws.
    let mut x = 0x5EED_0001u64;
    let mut steps = 0u64;
    while !sim.completed() {
        let runnable = sim.runnable();
        assert!(!runnable.is_empty() && steps < 1 << 24, "the run stalled");
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let pick = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % runnable.len();
        sim.step(runnable[pick]);
        steps += 1;
        if steps.is_multiple_of(DEFAULT_CHECKPOINT_CAPSULES) {
            sim.checkpoint();
        }
    }
    let died = (sim.events().iter())
        .filter(|e| matches!(e, SimEvent::Died { proc: 1, .. }))
        .count();
    assert_eq!(died, 1, "processor 1 dies at its scheduled access");
    let rep = sim.finish();
    assert!(rep.completed, "survivor must finish the adopted work");
    let dead = rep
        .outcomes
        .iter()
        .filter(|o| **o == Some(ProcOutcome::Dead));
    assert_eq!(dead.count(), 1);
    assert_eq!(ss.read_output(&machine), expect);
}

/// A processor whose pool runs dry stops the session with the error: with
/// a pool smaller than the root node's scratch (three words a key), the
/// processor that runs the root runs out mid-capsule, and its sibling —
/// spinning for work the stopped thread holds, or parked at a
/// checkpoint quiesce — must stop too, so the session returns
/// `PoolExhausted` instead of hanging or unwinding. (An eighth of the
/// sort's budget no longer always runs dry: joins hand words back.)
#[test]
fn a_pool_exhaustion_ends_a_checkpointed_p2_session_with_its_error() {
    use std::sync::mpsc;
    use std::time::Duration;
    let n = 900;
    let pool = samplesort_pool_words(n) / 64;
    assert!(pool < 3 * n, "the root's scratch alone must not fit");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let rt = Runtime::volatile(
            RuntimeConfig::new(PmConfig::parallel(2, WORDS).with_ephemeral_words(64))
                .with_slots(SLOTS)
                .with_pool_words(pool)
                .with_checkpoint(CheckpointPolicy::every_capsules(64)),
        );
        let ss = SampleSort::new(rt.machine(), n);
        ss.load_input(rt.machine(), &input(n));
        let rep = rt.run_or_recover(&ss.pcomp());
        let _ = tx.send((rep.completed(), rep.error()));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok((completed, error)) => {
            assert!(!completed, "a pool that cannot hold the sort completed it");
            match error {
                Some(PmError::PoolExhausted {
                    proc,
                    cursor,
                    words,
                    pool: len,
                }) => assert!(proc < 2 && cursor + words > len, "{error:?}"),
                None => panic!("the session stopped without saying why"),
            }
        }
        Err(_) => panic!("the session hung after a processor ran out of pool"),
    }
}

/// The same error on one processor, exactly: a `map_grain` whose forks
/// nest eight deep needs 8 · 29 pool words, and a 40-word pool runs out
/// in the second fork's frames.
#[test]
fn a_pool_too_small_for_its_run_returns_pool_exhausted() {
    use ppm::core::dsl::{CapsuleSet, Span, Step, K};
    let n = 1024;
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(1, WORDS))
            .with_slots(SLOTS)
            .with_pool_words(40)
            .with_checkpoint(CheckpointPolicy::disabled()),
    );
    let out = rt.machine().alloc_region(n);
    let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("tiny/leaf", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("tiny/split", 4, leaf);
        split
            .setup(
                m,
                &Span {
                    env: out,
                    lo: 0,
                    hi: n,
                },
                K(finale),
            )
            .word()
    });
    let rep = rt.run_or_recover(&pcomp);
    assert!(!rep.completed());
    // The second fork: its cell (word 29) and left arrival frame fit,
    // its right arrival frame (6 words at 36) does not.
    assert_eq!(
        rep.error(),
        Some(PmError::PoolExhausted {
            proc: 0,
            cursor: 36,
            words: 6,
            pool: 40
        })
    );
    assert_eq!(
        rep.error().unwrap().to_string(),
        "processor 0 allocation pool exhausted (36 + 6 > 40)"
    );
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

/// The pool-word policy fires on allocation and its GC reclaims: each
/// capsule of a chain frames its successor, then stages a value in a
/// pool word of scratch. The chain joins nothing, and the scratch is the
/// top word and dead at every boundary, so each quiesce rolls it back.
/// (At P = 1 a fork-join workload's joins free every word before a
/// quiesce could.)
#[test]
fn every_pool_words_policy_reclaims() {
    use ppm::core::dsl::{CapsuleSet, Step, K};
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(1, WORDS))
            .with_slots(SLOTS)
            .with_pool_words(1 << 17)
            .with_checkpoint(CheckpointPolicy::every_pool_words(1 << 12)),
    );
    let out = rt.machine().alloc_region(1);
    let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let countdown = set.declare::<u64>("policy/countdown");
        set.body(countdown, move |&n, k, ctx| {
            if n == 0 {
                return Ok(Step::Jump(k));
            }
            let next = countdown.frame(ctx, &(n - 1), k)?;
            let scratch = ctx.palloc(1)?;
            ctx.pwrite(scratch, n)?;
            ctx.pwrite(out.start, n)?;
            Ok(Step::Jump(next))
        });
        countdown.setup(m, &4096, K(finale)).word()
    });
    let rep = rt.run_or_recover(&pcomp);
    assert!(rep.completed());
    assert_eq!(rt.machine().mem().load(out.start), 1);
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
        Some(FallbackReason::LayoutMoved {
            seq,
            recorded: at,
            found,
        }) => {
            assert_eq!((seq, at), (Some(recorded.seq), recorded.region_cursor));
            assert!(found > at, "the extra region moved the cursor up");
        }
        other => panic!("expected the layout refusal, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// The same reopen over a file with no checkpoint record: the service
/// header still pins the ring the dying run carved, and this
/// construction's ring lies one block higher. Recovery reads the moved
/// layout off the header, republishes the ring where this construction
/// looks, and replays from the root — never reporting the run complete
/// from a drained-looking ring at the wrong words.
#[cfg(unix)]
#[test]
fn a_reopen_over_another_layout_without_a_checkpoint_replays() {
    use ppm::sched::FallbackReason;
    let path = tmp("layout-no-ckpt");
    let _ = std::fs::remove_file(&path);
    let no_ckpt = |pm| prefix_cfg(pm).with_checkpoint(CheckpointPolicy::disabled());
    {
        let kill = full_run_profile().1 * 3 / 5;
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, kill));
        let rt = Runtime::create(&path, no_ckpt(pm)).unwrap();
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input(N));
        assert!(!rt.run_or_recover(&ps.pcomp()).completed());
    }
    let rt = Runtime::open(&path, no_ckpt(PmConfig::parallel(1, WORDS))).unwrap();
    let m = rt.machine();
    assert!(m.latest_checkpoint_record().is_none());
    m.alloc_region(1);
    let ps = PrefixSum::new(m, N);
    ps.load_input(m, &input(N));
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    assert_eq!(rep.mode, SessionMode::Replayed);
    assert_eq!(ps.read_output(m), prefix_sum_seq(&input(N)));
    match rep.fallback_reason {
        Some(FallbackReason::LayoutMoved {
            seq: None,
            recorded,
            found,
        }) => assert!(found > recorded, "the extra region moved the ring up"),
        other => panic!("expected the header's layout refusal, got {other:?}"),
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
