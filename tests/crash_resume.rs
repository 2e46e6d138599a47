//! Crash **resume**: a run of a registered persistent-capsule computation
//! dies mid-flight, a fresh `Runtime` session opens the durable file, and
//! `Runtime::run_or_recover` rehydrates the persisted deque entries
//! through the capsule registry — resuming the crash frontier instead of
//! replaying from the root.
//!
//! Death is simulated with scheduled hard faults killing every processor
//! (the all-processors-hard-fault event that models `kill -9`), after
//! which the session is dropped and the file reopened exactly as a fresh
//! process would (`examples/crash_resume.rs` performs the real-SIGKILL
//! version of the same scenario). With one processor the access schedule
//! is fully deterministic, so the assertions are exact.
//!
//! All four §7 algorithm families are exercised: prefix sums (the
//! deterministic strict-inequality case), samplesort and matmul (the two
//! newly ported pipelines), and mergesort implicitly inside samplesort.

#![cfg(unix)]

use ppm::algs::{matmul_seq, prefix_sum_seq, samplesort_pool_words, MatMul, PrefixSum, SampleSort};
use ppm::pm::{FaultConfig, PmConfig, Word};
use ppm::sched::{Runtime, RuntimeConfig, SessionMode};

const N: usize = 512;
const WORDS: usize = 1 << 20;
const SLOTS: usize = 1 << 12;

// Guarded temp paths: removed on drop, so failing assertions clean up too.
fn tmp(tag: &str) -> ppm::pm::TempMachineFile {
    ppm::pm::TempMachineFile::new(&format!("crash-resume-{tag}"))
}

fn input() -> Vec<Word> {
    (0..N as u64).map(|i| i.wrapping_mul(31) % 1009).collect()
}

fn cfg_with(pm: PmConfig) -> RuntimeConfig {
    RuntimeConfig::new(pm).with_slots(SLOTS)
}

/// Capsules a complete from-root run of the workload executes (the replay
/// cost a resume must beat).
fn full_run_capsules() -> u64 {
    let rt = Runtime::volatile(cfg_with(PmConfig::parallel(1, WORDS)));
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input());
    let rep = rt.run_or_recover(&ps.pcomp());
    assert!(rep.completed());
    rep.stats().capsule_completions
}

/// Runs the workload on a durable session with a hard fault at access
/// `kill_at` (death mid-run when it fires), then recovers in a fresh
/// session. Returns `(mode, resumed, recovery_capsules)`.
fn crash_and_recover(tag: &str, kill_at: u64) -> Option<(SessionMode, usize, u64)> {
    let path = tmp(tag);
    let _ = std::fs::remove_file(&path);
    let died = {
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, kill_at));
        let rt = Runtime::create(&path, cfg_with(pm)).expect("create durable session");
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input());
        !rt.run_or_recover(&ps.pcomp()).completed()
    };
    if !died {
        // The schedule outlived the computation; nothing to recover.
        let _ = std::fs::remove_file(&path);
        return None;
    }

    // --- the recovering process's view ---
    let rt = Runtime::open(&path, cfg_with(PmConfig::parallel(1, WORDS))).expect("open session");
    assert!(rt.is_recovery());
    assert_eq!(rt.machine().epoch(), 2);
    let ps = PrefixSum::new(rt.machine(), N);
    // Input is already in the file; the deterministic reload is idempotent.
    ps.load_input(rt.machine(), &input());
    let rec = rt.run_or_recover(&ps.pcomp());
    assert!(rec.completed(), "kill_at={kill_at}: recovery must finish");
    assert!(
        !rec.already_complete(),
        "kill_at={kill_at}: the dead run must not have finished"
    );
    let run = rec.run.as_ref().expect("re-driven run report");
    assert_eq!(
        ps.read_output(rt.machine()),
        prefix_sum_seq(&input()),
        "kill_at={kill_at}: recovered output must match the oracle"
    );
    let _ = std::fs::remove_file(&path);
    Some((rec.mode, rec.resumed, run.stats.capsule_completions))
}

#[test]
fn killed_run_is_resumed_not_replayed() {
    let full = full_run_capsules();
    // Deterministic single-proc schedule: kill points spread across the
    // run. Every recovery must be correct; at least one mid-run kill must
    // take the resume path and beat a from-root replay.
    let mut cheap_resumes = 0usize;
    let mut died_runs = 0usize;
    for (i, kill_at) in [40u64, 400, 1200, 2400, 4000, 6000].into_iter().enumerate() {
        let Some((mode, resumed, capsules)) = crash_and_recover(&format!("k{i}"), kill_at) else {
            continue;
        };
        died_runs += 1;
        if mode == SessionMode::Resumed {
            assert!(
                resumed > 0,
                "kill_at={kill_at}: resumed mode must re-plant entries"
            );
            // A kill at the very first capsules resumes the root itself,
            // costing a full run plus the popBottom capsules that claim
            // each re-planted seed; any later kill must pay only for what
            // was lost.
            let seed_overhead = 4 * resumed as u64;
            assert!(
                capsules <= full + seed_overhead,
                "kill_at={kill_at}: resume ({capsules} capsules) must never exceed \
                 a from-root replay ({full}) plus the per-seed claim cost"
            );
            if capsules < full {
                cheap_resumes += 1;
            }
        }
    }
    assert!(
        died_runs >= 3,
        "kill schedule must catch the run mid-flight"
    );
    assert!(
        cheap_resumes >= 1,
        "at least one mid-run kill must resume with strictly fewer capsules \
         than a from-root replay"
    );
}

#[test]
fn corrupted_frame_falls_back_to_root_replay() {
    // Checkpointing is disabled on both sessions: with records available
    // a smashed frontier would resume from the newest checkpoint instead
    // (tests/checkpoint.rs covers that path); this test pins the
    // last-resort root-replay behavior.
    let no_ckpt =
        |pm: PmConfig| cfg_with(pm).with_checkpoint(ppm::sched::CheckpointPolicy::disabled());
    let path = tmp("fallback");
    let _ = std::fs::remove_file(&path);
    {
        // Access 2405 lands inside a user capsule: the restart pointer is
        // a frame.
        let pm = PmConfig::parallel(1, WORDS)
            .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, 2405));
        let rt = Runtime::create(&path, no_ckpt(pm)).expect("create durable session");
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input());
        let rep = rt.run_or_recover(&ps.pcomp());
        assert!(!rep.completed(), "the run must die mid-flight");
    }

    let rt = Runtime::open(&path, no_ckpt(PmConfig::parallel(1, WORDS))).expect("open session");
    // Smash the restart pointer's frame header: the frontier is no longer
    // fully rehydratable, so recovery must degrade to replay-from-root —
    // cleanly, not with a panic.
    let active = rt.machine().active_handle(0);
    assert_ne!(active, 0, "the dead run left a restart pointer");
    rt.machine().mem().store(active as usize, 0xBAAD_F00D);

    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input());
    let rec = rt.run_or_recover(&ps.pcomp());
    assert_eq!(rec.mode, SessionMode::Replayed);
    assert_eq!(rec.resumed, 0);
    let reason = rec.fallback_reason.as_ref().expect("fallback reason");
    assert!(
        matches!(reason, ppm::sched::FallbackReason::Rehydrate { .. }),
        "smashed frame must surface as a structured rehydration failure, got {reason}"
    );
    assert!(rec.completed());
    assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&input()));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn multi_proc_crash_recovers_correctly_in_either_mode() {
    // With several OS threads the kill lands nondeterministically, so this
    // asserts correctness (exactly-once effects, oracle-equal output) in
    // whichever mode recovery chose.
    let path = tmp("mp");
    let _ = std::fs::remove_file(&path);
    let died = {
        let pm = PmConfig::parallel(4, WORDS).with_fault(
            FaultConfig::none()
                .with_scheduled_hard_fault(0, 900)
                .with_scheduled_hard_fault(1, 700)
                .with_scheduled_hard_fault(2, 1100)
                .with_scheduled_hard_fault(3, 800),
        );
        let rt = Runtime::create(&path, cfg_with(pm)).expect("create durable session");
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input());
        !rt.run_or_recover(&ps.pcomp()).completed()
    };
    if died {
        let rt =
            Runtime::open(&path, cfg_with(PmConfig::parallel(4, WORDS))).expect("open session");
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input());
        let rec = rt.run_or_recover(&ps.pcomp());
        assert!(rec.completed());
        assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&input()));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn recovering_a_clean_run_reports_already_complete() {
    let path = tmp("clean");
    let _ = std::fs::remove_file(&path);
    {
        let rt = Runtime::create(&path, cfg_with(PmConfig::parallel(2, WORDS))).unwrap();
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input());
        assert!(rt.run_or_recover(&ps.pcomp()).completed());
        rt.mark_clean().unwrap();
    }
    let rt = Runtime::open(&path, cfg_with(PmConfig::parallel(2, WORDS))).unwrap();
    let ps = PrefixSum::new(rt.machine(), N);
    let rec = rt.run_or_recover(&ps.pcomp());
    assert!(rec.already_complete());
    assert_eq!(rec.mode, SessionMode::AlreadyComplete);
    assert!(rec.run.is_none());
    assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&input()));
    let _ = std::fs::remove_file(&path);
}

/// A durable session killed while its puller's restart pointer is a
/// `service/pull/*` record: the root's claim CAM has landed, the puller's
/// `Local` entry is seated (the seat precedes the claim) and the root's
/// entry frame has not run. Recovery restarts the puller at its pull
/// record (§6), which finds its claim won and enters the root: the claim
/// resolves once, at the epoch it was made, and every marker is written
/// exactly once.
#[test]
fn a_kill_inside_the_root_pull_restarts_at_the_pull_record() {
    use ppm::core::dsl::{CapsuleSet, Span, Step, K};
    use ppm::core::{Active, Machine, PComp, Scheduler};
    use ppm::pm::Region;
    use ppm::sched::{InjectorQueue, JobStatus, JobTicket, SchedConfig, SimEvent, SimSched};

    const MARKS: usize = 32;
    // Task `i` CAMs its marker from unset to `i + 1`: a once-only effect.
    fn markers(rt: &Runtime) -> (Region, PComp) {
        let out = rt.machine().alloc_region(MARKS);
        let pcomp: PComp = std::sync::Arc::new(move |m: &Machine, k| {
            let mut set = CapsuleSet::new(m);
            let mark = set.define("pull/mark", |st: &Span<Region>, k, ctx| {
                for i in st.lo..st.hi {
                    ctx.pcam(st.env.at(i), 0, i as Word + 1)?;
                }
                Ok(Step::Jump(k))
            });
            let all = Span {
                env: out,
                lo: 0,
                hi: MARKS,
            };
            set.map_grain("pull/split", 2, mark).setup(m, &all, K(k)).0
        });
        (out, pcomp)
    }
    let path = tmp("pull");
    let cfg = || cfg_with(PmConfig::parallel(2, WORDS));
    {
        let rt = Runtime::create(&path, cfg()).unwrap();
        let (_, pcomp) = markers(&rt);
        let sched = SchedConfig::with_slots(SLOTS);
        let mut sim = SimSched::new_persistent(rt.machine(), &pcomp, &sched);
        let parked = (0..50).any(
            |_| matches!(sim.step(0), SimEvent::Ran { next, .. } if next == "service/pull/check"),
        );
        assert!(parked, "the claim CAM lands:\n{}", sim.render_trace());
        match rt
            .machine()
            .arena()
            .try_resolve(rt.machine().active_handle(0))
        {
            Ok(Active::Sched(rec)) => assert_eq!(sim.sched().name(&rec), "service/pull/check"),
            other => panic!("the restart pointer must be the pull record, got {other:?}"),
        }
    } // Dropped without a flush or a clean mark: the kill.

    let (tx, rx) = std::sync::mpsc::channel();
    let reopen = path.path().to_path_buf();
    std::thread::spawn(move || {
        let rt = Runtime::open(&reopen, cfg()).unwrap();
        let (out, pcomp) = markers(&rt);
        let rep = rt.run_or_recover(&pcomp);
        let marks: Vec<Word> = (0..MARKS)
            .map(|i| rt.machine().mem().load(out.at(i)))
            .collect();
        let _ = tx.send((rep, marks));
    });
    let (rep, marks) = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("recovery completes within 30 s");
    assert!(rep.completed());
    assert_eq!(rep.mode, SessionMode::Resumed, "a record restarts");
    assert!(rep.fallback_reason.is_none(), "{:?}", rep.fallback_reason);
    assert_eq!(marks, (1..=MARKS as Word).collect::<Vec<_>>());
    let machine = Machine::reopen(path.path()).unwrap();
    let root = JobTicket {
        slot: 0,
        ticket: 1,
        epoch: 1,
    };
    let status = InjectorQueue::attach(&machine).unwrap().status(root);
    assert!(
        matches!(status, JobStatus::Done { claim_epoch: 1, .. }),
        "the claim resolves once, at its own epoch: {status:?}"
    );
}

// ====================================================================
// Samplesort and matmul: the newly ported pipelines resume too
// ====================================================================

fn ss_input(n: usize) -> Vec<Word> {
    (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(17);
            (x ^ (x >> 31)) % 10_000
        })
        .collect()
}

fn samplesort_cfg(n: usize, fault: FaultConfig) -> RuntimeConfig {
    RuntimeConfig::new(
        PmConfig::parallel(1, 1 << 22)
            .with_ephemeral_words(64)
            .with_fault(fault),
    )
    .with_pool_words(samplesort_pool_words(n))
    .with_slots(1 << 13)
}

#[test]
fn killed_samplesort_resumes_mid_pipeline() {
    let n = 700;
    let data = ss_input(n);
    let mut expect = data.clone();
    expect.sort_unstable();
    // Kill points spread across the nine-phase pipeline (row sorts,
    // sampling, pivots, scatter, bucket recursion). Every recovery must
    // sort correctly; at least one must take the Resumed path.
    let mut resumed_runs = 0usize;
    let mut died_runs = 0usize;
    for (i, kill_at) in [600u64, 2000, 6000, 12_000, 20_000].into_iter().enumerate() {
        let path = tmp(&format!("ss{i}"));
        let _ = std::fs::remove_file(&path);
        let died = {
            let fault = FaultConfig::none().with_scheduled_hard_fault(0, kill_at);
            let rt = Runtime::create(&path, samplesort_cfg(n, fault)).unwrap();
            let ss = SampleSort::new(rt.machine(), n);
            ss.load_input(rt.machine(), &data);
            !rt.run_or_recover(&ss.pcomp()).completed()
        };
        if !died {
            let _ = std::fs::remove_file(&path);
            continue;
        }
        died_runs += 1;
        let rt = Runtime::open(&path, samplesort_cfg(n, FaultConfig::none())).unwrap();
        let ss = SampleSort::new(rt.machine(), n);
        ss.load_input(rt.machine(), &data);
        let rec = rt.run_or_recover(&ss.pcomp());
        assert!(rec.completed(), "kill_at={kill_at}");
        assert_eq!(
            ss.read_output(rt.machine()),
            expect,
            "kill_at={kill_at}: recovered sort must match the oracle"
        );
        if rec.mode == SessionMode::Resumed {
            assert!(rec.resumed > 0, "kill_at={kill_at}");
            resumed_runs += 1;
        }
        let _ = std::fs::remove_file(&path);
    }
    assert!(
        died_runs >= 3,
        "kill schedule must catch samplesort mid-run"
    );
    assert!(
        resumed_runs >= 1,
        "at least one samplesort kill must resume with Resumed mode"
    );
}

#[test]
fn killed_matmul_resumes_mid_recursion() {
    let n = 16;
    let m_eph = 64; // base_dim 4: two recursion levels
    let a: Vec<Word> = (0..(n * n) as u64).map(|i| i % 97).collect();
    let b: Vec<Word> = (0..(n * n) as u64).map(|i| (i * 7) % 89).collect();
    let expect = matmul_seq(&a, &b, n);
    let cfg = |fault: FaultConfig| {
        RuntimeConfig::new(
            PmConfig::parallel(1, 1 << 22)
                .with_ephemeral_words(m_eph)
                .with_fault(fault),
        )
        .with_pool_words(ppm::algs::matmul_pool_words(n, m_eph))
        .with_slots(1 << 13)
    };
    let mut resumed_runs = 0usize;
    let mut died_runs = 0usize;
    for (i, kill_at) in [400u64, 1500, 4000, 9000].into_iter().enumerate() {
        let path = tmp(&format!("mm{i}"));
        let _ = std::fs::remove_file(&path);
        let died = {
            let rt = Runtime::create(
                &path,
                cfg(FaultConfig::none().with_scheduled_hard_fault(0, kill_at)),
            )
            .unwrap();
            let mm = MatMul::new(rt.machine(), n);
            mm.load_inputs(rt.machine(), &a, &b);
            !rt.run_or_recover(&mm.pcomp()).completed()
        };
        if !died {
            let _ = std::fs::remove_file(&path);
            continue;
        }
        died_runs += 1;
        let rt = Runtime::open(&path, cfg(FaultConfig::none())).unwrap();
        let mm = MatMul::new(rt.machine(), n);
        mm.load_inputs(rt.machine(), &a, &b);
        let rec = rt.run_or_recover(&mm.pcomp());
        assert!(rec.completed(), "kill_at={kill_at}");
        assert_eq!(
            mm.read_output(rt.machine()),
            expect,
            "kill_at={kill_at}: recovered product must match the oracle"
        );
        if rec.mode == SessionMode::Resumed {
            assert!(rec.resumed > 0, "kill_at={kill_at}");
            resumed_runs += 1;
        }
        let _ = std::fs::remove_file(&path);
    }
    assert!(died_runs >= 2, "kill schedule must catch matmul mid-run");
    assert!(
        resumed_runs >= 1,
        "at least one matmul kill must resume with Resumed mode"
    );
}

// ====================================================================
// The Θ(M)-word capsules are restart units too
// ====================================================================

/// A samplesort whose embedded prefix sum and merges run 64-word
/// capsules (M = 256, B = 8): a prefix leaf is eight block reads and a
/// write, a merge base case eight reads and eight writes — room for a
/// fault to land well inside either.
const COARSE_N: usize = 5003;

fn coarse_cfg(fault: FaultConfig) -> RuntimeConfig {
    RuntimeConfig::new(
        PmConfig::parallel(1, 1 << 22)
            .with_ephemeral_words(256)
            .with_fault(fault),
    )
    .with_pool_words(samplesort_pool_words(COARSE_N))
    .with_slots(1 << 13)
}

/// One frame-denoted capsule of a clean P = 1 run, as seen at the write
/// that installed it as the restart pointer.
struct Installed {
    handle: Word,
    name: &'static str,
    args: Vec<Word>,
    /// Accesses the processor had performed once the install was done.
    at: u64,
    /// Accesses until the next install: the body, its frame flush and the
    /// successor's install.
    work: u64,
}

/// The per-capsule trace of a clean run: every restart-pointer write,
/// decoded while the frame it installs is certainly still in the pool.
fn clean_run_trace(data: &[Word]) -> Vec<Installed> {
    let path = tmp("coarse-trace");
    let rt = Runtime::create(&path, coarse_cfg(FaultConfig::none())).unwrap();
    let ss = SampleSort::new(rt.machine(), COARSE_N);
    ss.load_input(rt.machine(), data);
    let pcomp = ss.pcomp();
    let machine = rt.machine();
    let active = machine.proc_meta(0).active;
    let (mem, stats, registry) = (
        machine.mem().clone(),
        machine.stats().clone(),
        machine.registry().clone(),
    );
    let trace = std::sync::Arc::new(std::sync::Mutex::new(Vec::<Installed>::new()));
    let sink = trace.clone();
    // The run detaches the observer when it ends.
    machine
        .mem()
        .set_observer(Some(std::sync::Arc::new(move |addr, _prev, new| {
            if addr != active {
                return;
            }
            let at = stats.snapshot().total_work();
            let mut trace = sink.lock().unwrap();
            if let Some(last) = trace.last_mut() {
                last.work = at - last.at;
            }
            // Scheduler capsules install the journal pointer, not a
            // frame: they delimit the capsule before them and are
            // otherwise skipped.
            let frame = ppm::pm::read_frame(&mem, new as usize).ok();
            let name = frame.as_ref().and_then(|f| registry.name_of(f.capsule_id));
            trace.push(Installed {
                handle: new,
                name: name.unwrap_or(""),
                args: frame.map(|f| f.args).unwrap_or_default(),
                at,
                work: 0,
            });
        })));
    assert!(rt.run_or_recover(&pcomp).completed());
    let trace = std::mem::take(&mut *trace.lock().unwrap());
    trace
}

/// Kills a run of the coarse samplesort at access `kill_at` (under
/// `soft`, if given, on both sides of the crash), reopens the file and
/// finishes the sort. Returns the recovery report and the restart pointer
/// the dead run left.
fn kill_and_recover(
    tag: &str,
    data: &[Word],
    kill_at: u64,
    soft: Option<FaultConfig>,
) -> (ppm::sched::SessionReport, Word) {
    let path = tmp(tag);
    let base = || soft.clone().unwrap_or_else(FaultConfig::none);
    let left = {
        let fault = base().with_scheduled_hard_fault(0, kill_at);
        let rt = Runtime::create(&path, coarse_cfg(fault)).unwrap();
        let ss = SampleSort::new(rt.machine(), COARSE_N);
        ss.load_input(rt.machine(), data);
        let rep = rt.run_or_recover(&ss.pcomp());
        assert!(!rep.completed(), "kill_at={kill_at} must land mid-run");
        rt.machine().active_handle(0)
    };
    let rt = Runtime::open(&path, coarse_cfg(base())).unwrap();
    let ss = SampleSort::new(rt.machine(), COARSE_N);
    ss.load_input(rt.machine(), data);
    let rec = rt.run_or_recover(&ss.pcomp());
    assert!(rec.completed(), "kill_at={kill_at}: recovery must finish");
    let mut expect = data.to_vec();
    expect.sort_unstable();
    assert_eq!(
        ss.read_output(rt.machine()),
        expect,
        "kill_at={kill_at}: recovered sort must match the oracle"
    );
    (rec, left)
}

#[test]
fn a_kill_inside_a_coarsened_prefix_leaf_or_merge_base_resumes() {
    let data = ss_input(COARSE_N);
    let trace = clean_run_trace(&data);
    let len = |run: &[Word]| (run[3] - run[2]) as usize; // (region, lo, hi)
                                                         // Frame states: prefix/up = (geometry: 8 words, node, llo, lhi);
                                                         // msort/merge = (run a, run b, out, olo).
    let leaf = trace
        .iter()
        .filter(|c| c.name == "prefix/up" && c.args[10] - c.args[9] == 1)
        .max_by_key(|c| c.work)
        .expect("the clean run sums prefix leaves");
    let base = trace
        .iter()
        .filter(|c| c.name == "msort/merge" && len(&c.args[..4]) + len(&c.args[4..8]) <= 64)
        .max_by_key(|c| c.work)
        .expect("the clean run merges base cases");
    // Both really are Θ(M)-word capsules, not one-block ones.
    assert!(leaf.work >= 8, "prefix leaf of {} transfers", leaf.work);
    assert!(base.work >= 12, "merge base of {} transfers", base.work);

    for (tag, capsule) in [("coarse-leaf", leaf), ("coarse-base", base)] {
        // Half-way through the capsule's own transfers.
        let kill_at = capsule.at + 1 + capsule.work / 2;
        let (rec, left) = kill_and_recover(tag, &data, kill_at, None);
        assert_eq!(
            left, capsule.handle,
            "{tag}: the run must die with `{}` as its restart pointer",
            capsule.name
        );
        assert_eq!(rec.mode, SessionMode::Resumed, "{tag}");
        assert!(rec.resumed > 0, "{tag}");

        // The same two placements on a machine that also soft-faults: the
        // kill lands at the same access count of a perturbed schedule.
        for seed in [3, 11, 29] {
            let soft = FaultConfig::soft(0.02, seed);
            let (rec, _) = kill_and_recover(&format!("{tag}-s{seed}"), &data, kill_at, Some(soft));
            if rec.mode == SessionMode::Resumed {
                assert!(rec.resumed > 0, "{tag} seed {seed}");
            }
        }
    }
}
