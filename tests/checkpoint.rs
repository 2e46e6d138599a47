//! The checkpoint subsystem end to end: bounded replay from epoch
//! checkpoints, torn-record fallback, joins shrinking peak pool
//! footprints, the pool budgets that hold with no reclamation beyond
//! joins, and the checkpoint policies.
//!
//! Deterministic where it matters: single-processor machines with
//! scheduled hard faults give exact capsule schedules, so the
//! replay-distance assertions are inequalities over measured counts, not
//! probabilistic observations.

use std::sync::Arc;

use ppm::algs::{prefix_sum_seq, samplesort_pool_words, MatMul, MergeSort, PrefixSum, SampleSort};
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
/// below its mark, so every step leaves a word no join frees, with fork
/// marks open and closing around the checkpoints' floor pins.
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
fn a_crash_mid_churn_resumes_from_a_checkpoint_record() {
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
// Pool budgets: every peak fits with no reclamation beyond joins
// ====================================================================

/// The scheduler as the join rule sees a run in which a thief struck
/// inside every subtree: each scheduler capsule counts a foreign event,
/// so no join frees its subtree's words and the pool only bumps — the
/// retain-everything worst case a budget must hold. (At P = 1 every join
/// frees its subtree; at P = 2 steals split only a few subtrees, however
/// the processors are interleaved.)
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

/// A workload under its pool budget: the instance builder over a
/// machine (inputs loaded, output checked by the run's completion) and
/// the per-processor words its sizing formula gives.
struct Budgeted {
    name: &'static str,
    budget: usize,
    build: fn(&Machine) -> PComp,
}

/// Small ephemeral memory forces deep recursion (many frames), where the
/// frame terms of the budgets dominate. The runs get twice their budget,
/// so a peak past it is measured, not cut short.
fn budget_pm(procs: usize) -> PmConfig {
    PmConfig::parallel(procs, 1 << 22).with_ephemeral_words(64)
}

/// Peak pool words of `w` at P = 1 with every join foreign
/// ([`StolenEverywhere`]): nothing is ever handed back.
fn peak_retaining_everything(w: &Budgeted) -> u64 {
    let machine = Machine::with_pool_words(budget_pm(1), 2 * w.budget);
    let pcomp = (w.build)(&machine);
    let mut sim = SimSched::new_persistent(&machine, &pcomp, &SchedConfig::with_slots(SLOTS))
        .with_runner(|sched| Arc::new(StolenEverywhere(sched)));
    sim.run_to_completion(1 << 24);
    assert!(sim.completed(), "{}: the retain-everything run", w.name);
    machine.stats().snapshot().max_pool_peak
}

/// Peak pool words of `w` over a seeded P = 2 `SimSched` schedule: steals
/// split subtrees, whose words their joins cannot free.
fn peak_seeded_p2(w: &Budgeted, seed: u64) -> u64 {
    let machine = Machine::with_pool_words(budget_pm(2), 2 * w.budget);
    let pcomp = (w.build)(&machine);
    let mut sim = SimSched::new_persistent(&machine, &pcomp, &SchedConfig::with_slots(SLOTS));
    sim.run_seeded(seed, 1 << 24);
    assert!(sim.completed(), "{}: the P = 2 run, seed {seed}", w.name);
    machine.stats().snapshot().max_pool_peak
}

/// Peak pool words of `w` over a durable P = 1 session killed half-way
/// through a faultless reference run's accesses and restarted: the
/// restart allocates above the dead run's watermark, and the forks open
/// at the crash free nothing at their joins (ROADMAP defect 10).
fn peak_killed_and_restarted(w: &Budgeted) -> u64 {
    let cfg = |fault: FaultConfig| {
        RuntimeConfig::new(budget_pm(1).with_fault(fault))
            .with_slots(SLOTS)
            .with_pool_words(2 * w.budget)
    };
    let work = {
        let rt = Runtime::volatile(cfg(FaultConfig::none()));
        let rep = rt.run_or_recover(&(w.build)(rt.machine()));
        assert!(rep.completed(), "{}: the reference run", w.name);
        rep.stats().total_work()
    };
    let path = tmp(&format!("budget-{}", w.name));
    let killed = {
        let kill = FaultConfig::none().with_scheduled_hard_fault(0, work / 2);
        let rt = Runtime::create(&path, cfg(kill)).unwrap();
        let rep = rt.run_or_recover(&(w.build)(rt.machine()));
        assert!(!rep.completed(), "{}: the kill must land mid-run", w.name);
        rep.stats().max_pool_peak
    };
    let rt = Runtime::open(&path, cfg(FaultConfig::none())).unwrap();
    let rep = rt.run_or_recover(&(w.build)(rt.machine()));
    assert!(rep.completed(), "{}: the restarted run", w.name);
    assert_eq!(rep.mode, SessionMode::Resumed, "{}", w.name);
    killed.max(rep.stats().max_pool_peak)
}

const SS_N: usize = 900;

fn samplesort_900() -> Budgeted {
    Budgeted {
        name: "samplesort",
        budget: samplesort_pool_words(SS_N),
        build: |m| {
            let ss = SampleSort::new(m, SS_N);
            ss.load_input(m, &ss_data(SS_N));
            ss.pcomp()
        },
    }
}

fn matmul_16() -> Budgeted {
    Budgeted {
        name: "matmul",
        budget: ppm::algs::matmul_pool_words(16, 64),
        build: |m| {
            let mm = MatMul::new(m, 16);
            mm.load_inputs(m, &input(256), &input(256));
            mm.pcomp()
        },
    }
}

fn prefix_2048() -> Budgeted {
    Budgeted {
        name: "prefix",
        budget: ppm::core::DEFAULT_POOL_WORDS,
        build: |m| {
            let ps = PrefixSum::new(m, 2048);
            ps.load_input(m, &input(2048));
            ps.pcomp()
        },
    }
}

fn mergesort_1500() -> Budgeted {
    Budgeted {
        name: "mergesort",
        budget: ppm::core::DEFAULT_POOL_WORDS,
        build: |m| {
            let ms = MergeSort::new(m, 1500);
            ms.load_input(m, &input(1500));
            ms.pcomp()
        },
    }
}

/// Every pool budget holds with joins as the only reclaimer, in the three
/// regimes that leave words behind: P = 1 with every join foreign, a
/// seeded P = 2 schedule, and one kill plus restart. Samplesort and
/// matmul run under their sizing formulas; prefix sums and mergesort
/// under the machine's default pool. Each peak is printed as a fraction
/// of its budget.
#[cfg(unix)]
#[test]
fn every_pool_peak_fits_its_budget_without_reclamation() {
    for w in &[
        samplesort_900(),
        matmul_16(),
        prefix_2048(),
        mergesort_1500(),
    ] {
        let peaks = [
            ("P = 1, joins foreign", peak_retaining_everything(w)),
            ("P = 2, seed 7", peak_seeded_p2(w, 7)),
            ("killed + restarted", peak_killed_and_restarted(w)),
        ];
        for (run, peak) in peaks {
            let share = peak as f64 / w.budget as f64;
            println!(
                "{:>10} {run:<22} peak {peak:>7} of {:>7} words ({:5.1} %)",
                w.name,
                w.budget,
                100.0 * share
            );
            assert!(
                peak as usize <= w.budget,
                "{} {run}: peak {peak} exceeds its budget {}",
                w.name,
                w.budget
            );
        }
    }
}

// ====================================================================
// Pool collection: a join frees its subtree's words
// ====================================================================

/// Peak pool words of `w` at P = 1 under the plain scheduler: every join
/// is local, so each frees its subtree's words down to the fork's mark.
fn peak_freeing_at_joins(w: &Budgeted) -> u64 {
    let machine = Machine::with_pool_words(budget_pm(1), 2 * w.budget);
    let pcomp = (w.build)(&machine);
    let mut sim = SimSched::new_persistent(&machine, &pcomp, &SchedConfig::with_slots(SLOTS));
    sim.run_to_completion(1 << 24);
    assert!(sim.completed(), "{}: the joins-free run", w.name);
    machine.stats().snapshot().max_pool_peak
}

/// The pool's one collector, the join, shrinks `w`'s peak: the P = 1 run
/// whose joins free their subtrees peaks strictly below the run whose
/// joins are all foreign. Returns `(peak_collected, peak_retained)`.
fn joins_shrink_peak(w: &Budgeted) -> (u64, u64) {
    let collected = peak_freeing_at_joins(w);
    let retained = peak_retaining_everything(w);
    assert!(
        collected < retained,
        "{} peak with joins freeing ({collected}) must drop below the \
         retain-everything peak ({retained})",
        w.name
    );
    (collected, retained)
}

#[test]
fn gc_shrinks_prefix_sum_peak_pool_usage() {
    joins_shrink_peak(&prefix_2048());
}

#[test]
fn gc_shrinks_mergesort_peak_pool_usage() {
    joins_shrink_peak(&mergesort_1500());
}

/// The old sizing formula carried a doubled `72·n` frame term for the
/// resume-rebuild worst case. Samplesort's peak drops below the retained
/// one at its joins, and even the retained peak fits the tightened
/// budget, itself below the old formula.
#[test]
fn gc_shrinks_samplesort_peak_pool_usage_below_the_pr3_formula() {
    let w = samplesort_900();
    let old_formula = samplesort_pool_words(SS_N) + 72 * SS_N;
    let (_, retained) = joins_shrink_peak(&w);
    assert!(
        (retained as usize) <= w.budget && w.budget < old_formula,
        "the retain-everything peak ({retained}) must fit the tightened budget ({}), \
         below the old formula ({old_formula})",
        w.budget
    );
}

/// The tightened budget itself is sufficient: a default session with the
/// pool sized by `samplesort_pool_words`, joins its only collector,
/// completes, sorts, and peaks within the budget.
#[test]
fn tightened_samplesort_budget_completes_under_gc() {
    let data = ss_data(SS_N);
    let mut expect = data.clone();
    expect.sort_unstable();
    let rt = Runtime::volatile(
        RuntimeConfig::new(budget_pm(1))
            .with_slots(SLOTS)
            .with_pool_words(samplesort_pool_words(SS_N)),
    );
    let ss = SampleSort::new(rt.machine(), SS_N);
    ss.load_input(rt.machine(), &data);
    let rep = rt.run_or_recover(&ss.pcomp());
    assert!(rep.completed());
    assert_eq!(ss.read_output(rt.machine()), expect);
    let peak = rep.stats().max_pool_peak;
    assert!(
        peak as usize <= samplesort_pool_words(SS_N),
        "peak {peak} exceeds the budget {}",
        samplesort_pool_words(SS_N)
    );
}

/// The hard-fault exhaustion case: a hard-faulted processor's threads
/// are adopted and re-driven by the survivor, whose pool absorbs the
/// re-allocation. The budget formula must complete it with no
/// reclamation beyond joins.
///
/// The schedule is a seeded `SimSched` interleaving, not OS threads:
/// with threads, processor 0 sometimes finished the sort before
/// processor 1 reached its scheduled access, and no processor died.
/// Here processor 1 dies at access 2000 in every run.
#[test]
fn tightened_samplesort_budget_survives_hard_fault_adoption() {
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
#[cfg(unix)]
#[test]
fn a_pool_exhaustion_ends_a_checkpointed_p2_session_with_its_error() {
    use std::sync::mpsc;
    use std::time::Duration;
    let n = 900;
    let pool = samplesort_pool_words(n) / 64;
    assert!(pool < 3 * n, "the root's scratch alone must not fit");
    let (tx, rx) = mpsc::channel();
    let path = tmp("exhausted");
    std::thread::spawn(move || {
        let cfg = RuntimeConfig::new(PmConfig::parallel(2, WORDS).with_ephemeral_words(64))
            .with_slots(SLOTS)
            .with_pool_words(pool)
            .with_checkpoint(CheckpointPolicy::every_capsules(64));
        let rt = Runtime::create(&path, cfg).unwrap();
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

#[cfg(unix)]
#[test]
fn disabled_policy_never_checkpoints() {
    let path = tmp("disabled");
    let rt = Runtime::create(
        &path,
        RuntimeConfig::new(PmConfig::parallel(1, WORDS))
            .with_slots(SLOTS)
            .with_checkpoint(CheckpointPolicy::disabled()),
    )
    .unwrap();
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    assert_eq!(rep.run.unwrap().checkpoints, CheckpointSummary::default());
}

/// A volatile machine has no persist boundary to take: under every
/// policy its session never quiesces, and its summary is all zeros.
#[test]
fn a_volatile_session_never_checkpoints_under_any_policy() {
    let (manual, trigger) = CheckpointPolicy::manual();
    trigger.request();
    for policy in [CheckpointPolicy::every_capsules(1), manual] {
        let rt = Runtime::volatile(
            RuntimeConfig::new(PmConfig::parallel(2, WORDS))
                .with_slots(SLOTS)
                .with_checkpoint(policy.clone()),
        );
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input(N));
        let rep = rt.run_or_recover(&ps.pcomp());
        assert!(rep.completed());
        assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&input(N)));
        assert_eq!(
            rep.run.unwrap().checkpoints,
            CheckpointSummary::default(),
            "{policy:?}"
        );
    }
}

#[cfg(unix)]
#[test]
fn manual_policy_checkpoints_only_on_request() {
    let (policy, trigger) = CheckpointPolicy::manual();
    let path = tmp("manual");
    let rt = Runtime::create(
        &path,
        RuntimeConfig::new(PmConfig::parallel(1, WORDS))
            .with_slots(SLOTS)
            .with_checkpoint(policy),
    )
    .unwrap();
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
/// on the machine — and the coordinator must *skip* (never record a
/// frontier it cannot capture) and retry at a later boundary. This
/// records the skip counts and asserts the retry policy actually
/// converges: checkpoints still land, within a bounded number of quiesce
/// attempts each.
#[cfg(unix)]
#[test]
fn skip_and_retry_lands_checkpoints_under_high_p_contention() {
    const P: usize = 8;
    let path = tmp("contention");
    let rt = Runtime::create(
        &path,
        RuntimeConfig::new(PmConfig::parallel(P, 1 << 22).with_ephemeral_words(128))
            .with_slots(SLOTS)
            .with_pool_words(samplesort_pool_words(2048))
            // An interval far below the fork rate: most quiesce requests
            // race live scheduler operations.
            .with_checkpoint(CheckpointPolicy::every_capsules(64)),
    )
    .unwrap();
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
        "P={P} skip-rate sample: attempted={} completed={} skipped_busy={} records={}",
        ck.attempted, ck.completed, ck.skipped_busy, ck.records_written
    );
    // Accounting identity: every quiesce either completes or is recorded
    // as a skip.
    assert_eq!(ck.attempted, ck.completed + ck.skipped_busy);
    // The whole point of skip-and-retry: contention delays a persist
    // boundary, never starves it. At least one checkpoint must land...
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
}
