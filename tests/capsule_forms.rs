//! The §5 atomically idempotent capsule forms, demonstrated directly:
//! racy-read capsules, racy-write capsules, CAM capsules, and racy
//! multiread capsules, each exercised under repetition (the restart
//! behaviour) and cross-thread races. Every capsule is a registered frame
//! run by the engine ([`run_chain`]).

use std::sync::Arc;

use ppm::core::dsl::{self, CapsuleDef, CapsuleSet, Step, K};
use ppm::core::{run_chain, InstallCtx, Machine, PComp, Persist, CORE_ID_JOIN_CAM};
use ppm::pm::{FaultConfig, PmConfig, PmResult, ProcCtx, Region, ValidateMode, Word};
use ppm::sched::{SchedConfig, SimSched};

fn machine(f: FaultConfig) -> Machine {
    Machine::new(PmConfig::parallel(2, 1 << 18).with_fault(f))
}

/// Registers `name` over state `T`, ending its thread after `body`.
fn define<T: Persist + Send + Sync + 'static>(
    m: &Machine,
    name: &'static str,
    body: impl Fn(&T, &mut ProcCtx) -> PmResult<()> + Send + Sync + 'static,
) -> CapsuleDef<T> {
    CapsuleSet::new(m).define(name, move |st: &T, _, ctx| {
        body(st, ctx)?;
        Ok(Step::End)
    })
}

/// Writes the frame of `def` over `st` (ending its thread when it is done).
fn frame<T: Persist>(m: &Machine, def: CapsuleDef<T>, st: &T) -> Word {
    def.setup(m, st, K(0)).word()
}

/// Runs the capsule `frame` denotes once, to completion, on processor 0.
fn run_once(m: &Machine, frame: Word) {
    let mut ctx = m.ctx(0);
    let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
    run_chain(&mut ctx, m.arena(), &mut install, frame).unwrap();
}

/// Theorem 3.1 (dynamic form): a write-after-read conflict free capsule
/// re-run any number of times leaves memory as if it ran once — even when
/// its writes depend on its reads.
#[test]
fn theorem_3_1_rerun_equals_run_once() {
    let m = machine(FaultConfig::none());
    let src = m.alloc_region(8);
    let dst = m.alloc_region(8);
    m.mem().store(src.at(0), 21);
    let double = define(&m, "double", |&(src, dst): &(usize, usize), ctx| {
        let v = ctx.pread(src)?;
        ctx.pwrite(dst, v * 2)
    });
    // Run the same capsule many times (what restarts do).
    let c = frame(&m, double, &(src.at(0), dst.at(0)));
    for _ in 0..7 {
        run_once(&m, c);
    }
    assert_eq!(m.mem().load(dst.at(0)), 42, "as if run exactly once");
}

/// The racy read capsule: reads a location other threads write, copies it
/// to a private location. Restarts may observe *different* values — but
/// only the final run's value is visible, because nobody reads the private
/// location until a later capsule.
#[test]
fn racy_read_capsule_is_idempotent_under_concurrent_writes() {
    let m = Arc::new(machine(FaultConfig::none()));
    let shared = m.alloc_region(8);
    let private = m.alloc_region(8);

    let writer = {
        let m = m.clone();
        std::thread::spawn(move || {
            let mut ctx = m.ctx(1);
            for v in 1..=100u64 {
                ctx.begin_capsule("w");
                ctx.pwrite(shared.at(0), v).unwrap();
                ctx.complete_capsule();
            }
        })
    };

    // The copy capsule, re-run several times while the writer races.
    let copy = define(&m, "copy", |&(shared, private): &(usize, usize), ctx| {
        let v = ctx.pread(shared)?;
        ctx.pwrite(private, v)
    });
    let c = frame(&m, copy, &(shared.at(0), private.at(0)));
    for _ in 0..50 {
        run_once(&m, c);
    }
    writer.join().unwrap();

    // The private location holds *some* single value the writer produced
    // (or the initial 0 if the first read won every race) — one coherent
    // copy, exactly once semantics from the reader's side.
    let got = m.mem().load(private.at(0));
    assert!(got <= 100, "a value some run observed: {got}");
}

/// The racy write capsule: its only racing instruction is a write racing
/// with reads. The value transitions old → new exactly once no matter how
/// many times the capsule repeats.
#[test]
fn racy_write_capsule_transitions_once() {
    let m = machine(FaultConfig::none());
    let loc = m.alloc_region(8);
    let publish = define(&m, "pub", |&loc: &usize, ctx| ctx.pwrite(loc, 7));
    let c = frame(&m, publish, &loc.at(0));
    let mut transitions = 0;
    let mut last = m.mem().load(loc.at(0));
    for _ in 0..10 {
        run_once(&m, c);
        let now = m.mem().load(loc.at(0));
        if now != last {
            transitions += 1;
            last = now;
        }
    }
    assert_eq!(transitions, 1, "0 -> 7 exactly once across 10 re-runs");
}

/// The CAM capsule (Theorem 5.2): a non-reverting CAM repeated under
/// faults succeeds at most once, even racing with another processor's
/// identical attempts.
#[test]
fn cam_capsule_exactly_one_winner_under_faults_and_racing() {
    for seed in 0..10 {
        let m = Arc::new(machine(FaultConfig::soft(0.05, seed)));
        let cell = m.alloc_region(8).at(0);
        let winners = m.alloc_region(8);
        let mut set = CapsuleSet::new(&m);
        let claim = set.define("claim", move |&id: &u64, _, ctx| {
            if ctx.pread(cell)? == id {
                ctx.pwrite(winners.at(id as usize), 1)?;
            }
            Ok(Step::End)
        });
        let cam = set.define("cam", move |&id: &u64, claim, ctx| {
            ctx.pcam(cell, 0, id)?;
            Ok(Step::Jump(claim))
        });

        let contender = |id: u64, proc: usize, m: Arc<Machine>| {
            let chain = cam.setup(&m, &id, claim.setup(&m, &id, K(0))).word();
            std::thread::spawn(move || {
                let mut ctx = m.ctx(proc);
                let mut install = InstallCtx::new(m.mem(), m.proc_meta(proc));
                // Soft faults restart; the chain completes regardless.
                run_chain(&mut ctx, m.arena(), &mut install, chain).unwrap();
            })
        };
        let t1 = contender(1, 0, m.clone());
        let t2 = contender(2, 1, m.clone());
        t1.join().unwrap();
        t2.join().unwrap();

        let w1 = m.mem().load(winners.at(1));
        let w2 = m.mem().load(winners.at(2));
        assert_eq!(w1 + w2, 1, "seed {seed}: exactly one winner, got {w1}+{w2}");
        let v = m.mem().load(cell);
        assert!(v == 1 || v == 2);
        assert_eq!(
            m.mem().load(winners.at(v as usize)),
            1,
            "winner matches cell"
        );
    }
}

/// The racy multiread capsule: several racy reads in one capsule. Not
/// atomic — the values may come from different moments — but idempotent:
/// the last complete run's values win.
#[test]
fn racy_multiread_capsule_last_run_wins() {
    let m = machine(FaultConfig::none());
    let shared = m.alloc_region(8);
    let private = m.alloc_region(8);

    m.mem().store(shared.at(0), 10);
    m.mem().store(shared.at(1), 20);

    let snap = define(
        &m,
        "multiread",
        |&(shared, private): &(usize, usize), ctx| {
            let a = ctx.pread(shared)?;
            let b = ctx.pread(shared + 1)?;
            ctx.pwrite(private, a)?;
            ctx.pwrite(private + 1, b)
        },
    );
    let c = frame(&m, snap, &(shared.start, private.start));
    // First (to-be-discarded) run.
    run_once(&m, c);
    // "Concurrent" writes between runs.
    m.mem().store(shared.at(0), 11);
    m.mem().store(shared.at(1), 21);
    // Final run overwrites the partial results entirely.
    run_once(&m, c);
    assert_eq!(m.mem().to_vec(private.start, 2), vec![11, 21]);
}

/// §4's persistent counter idiom: "placing a commit between reading the
/// old value and writing the new" makes increments exactly-once under
/// faults.
#[test]
fn persistent_counter_with_commit_is_exactly_once() {
    for seed in 0..8 {
        let m = machine(FaultConfig::soft(0.1, seed));
        let cells = m.alloc_region(64); // counter as a chain of cells
                                        // 20 increments; increment i reads cell i-1 and writes cell i
                                        // (the copy-instead-of-overwrite style of §4).
        let inc = define(&m, "inc", move |&i: &usize, ctx| {
            let old = if i == 0 {
                0
            } else {
                ctx.pread(cells.at(i - 1))?
            };
            ctx.pwrite(cells.at(i), old + 1)
        });
        for i in 0..20usize {
            run_once(&m, frame(&m, inc, &i));
        }
        assert_eq!(m.mem().load(cells.at(19)), 20, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// The §5 join: one arrival capsule CAMs the set-once cell, then reads it
// ---------------------------------------------------------------------

/// How an arrival frame is built: the runtime's one-capsule arrival, or
/// a deliberately broken one.
#[derive(Clone, Copy)]
enum Arrival {
    /// `join-cam`: CAM the cell, then read it, in one capsule.
    Fused,
    /// The mutant: read the cell *before* the CAM, and claim "first" when
    /// it was unset. Correct when nothing faults and nothing races, but a
    /// soft fault after its CAM re-runs the read, which then sees the
    /// thread's own token and continues; the other branch continues too.
    ReadBeforeCam,
}

/// The arrival frame of `token` on `cell`, continuing with `after`.
fn arrival(m: &Machine, how: Arrival, cell: Word, token: Word, after: Word) -> Word {
    match how {
        Arrival::Fused => m.setup_frame(CORE_ID_JOIN_CAM, &[cell, token, after]),
        Arrival::ReadBeforeCam => {
            let def = CapsuleSet::new(m).define(
                "join-read-before-cam",
                |&(cell, token, after): &(Word, Word, Word), _, ctx| {
                    let seen = ctx.pread(cell as usize)?;
                    ctx.pcam(cell as usize, 0, token)?;
                    Ok(if seen == 0 {
                        Step::End
                    } else {
                        Step::Jump(K(after))
                    })
                },
            );
            frame(m, def, &(cell, token, after))
        }
    }
}

/// One fork's join on a fresh cell: the left (token 1) and right (token
/// 2) arrivals, each continuing past the join into a frame that marks
/// its own word. Returns the cell, the two arrival frames and the marker
/// region; the code after the join ran once iff exactly one marker is 1.
fn join_fixture(m: &Machine, how: Arrival) -> (Word, [Word; 2], Region) {
    let cell = m.alloc_region(1).start as Word;
    let marks = m.alloc_region(2);
    let after = define(m, "after-join", |&at: &usize, ctx| ctx.pwrite(at, 1));
    let arrivals = [1, 2].map(|token| {
        let k = frame(m, after, &marks.at(token as usize - 1));
        arrival(m, how, cell, token, k)
    });
    (cell, arrivals, marks)
}

fn continued(m: &Machine, marks: Region) -> Word {
    m.mem().load(marks.at(0)) + m.mem().load(marks.at(1))
}

/// Both arrival orders under soft faults at `f`, `seeds` seeds each: the
/// code after the join must run exactly once every time.
fn join_under_soft_faults(how: Arrival, validate: ValidateMode, f: f64, seeds: u64) {
    for seed in 0..seeds {
        for order in [[0, 1], [1, 0]] {
            let m = Machine::new(
                PmConfig::parallel(2, 1 << 18)
                    .with_fault(FaultConfig::soft(f, seed))
                    .with_validate(validate),
            );
            let (_, arrivals, marks) = join_fixture(&m, how);
            for i in order {
                run_once(&m, arrivals[i]);
            }
            assert_eq!(
                continued(&m, marks),
                1,
                "f = {f}, seed {seed}, order {order:?}: the code after the join runs exactly once"
            );
        }
    }
}

#[test]
fn a_join_continues_exactly_once_in_either_arrival_order() {
    join_under_soft_faults(Arrival::Fused, ValidateMode::Strict, 0.0, 1);
}

#[test]
fn a_join_continues_exactly_once_under_soft_faults() {
    for f in [0.05, 0.2] {
        join_under_soft_faults(Arrival::Fused, ValidateMode::Strict, f, 32);
    }
}

/// The soft-fault case catches an arrival that reads before its CAM.
/// Strict validation would refuse it sooner, at its first run (the CAM
/// writes a word the capsule already read: a write-after-read conflict),
/// so this runs it under `Record` to show the exactly-once check itself
/// failing.
#[test]
#[should_panic(expected = "runs exactly once")]
fn an_arrival_that_reads_before_its_cam_is_caught_by_soft_faults() {
    for f in [0.05, 0.2] {
        join_under_soft_faults(Arrival::ReadBeforeCam, ValidateMode::Record, f, 32);
    }
}

/// Both arrivals racing on two processors, under soft faults.
#[test]
fn racing_arrivals_continue_exactly_once() {
    for seed in 0..32 {
        let m = Arc::new(machine(FaultConfig::soft(0.05, seed)));
        let (_, arrivals, marks) = join_fixture(&m, Arrival::Fused);
        let start = Arc::new(std::sync::Barrier::new(2));
        let threads = [0, 1].map(|p| {
            let (m, start) = (m.clone(), start.clone());
            std::thread::spawn(move || {
                let mut ctx = m.ctx(p);
                let mut install = InstallCtx::new(m.mem(), m.proc_meta(p));
                start.wait();
                run_chain(&mut ctx, m.arena(), &mut install, arrivals[p]).unwrap();
            })
        });
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(continued(&m, marks), 1, "seed {seed}");
    }
}

/// A processor killed inside its arrival, after the CAM and before the
/// read, is adopted at P = 2: the survivor re-runs the whole arrival (its
/// CAM fails harmlessly on the set-once cell, its read decides as the
/// dead one's would have), and the code after the join runs exactly once.
/// Every arrival of a two-leaf fork is killed this way in turn; the kill
/// point is the arrival's second access, found on an unfaulted dry run of
/// the same deterministic schedule.
#[test]
fn a_hard_fault_between_the_cam_and_the_read_is_adopted_exactly_once() {
    // (proc, that processor's accesses before the arrival) per arrival.
    let arrivals = {
        let m = Machine::new(PmConfig::parallel(2, 1 << 18));
        let (mut sim, _, _) = fork_of_two(&m);
        let mut seen = Vec::new();
        while !sim.completed() {
            let p = alternate(&sim);
            if sim.at(p) == "join-cam" {
                let st = &m.snapshot().per_proc[p];
                seen.push((p, st.reads + st.writes));
            }
            sim.step(p);
        }
        seen
    };
    assert_eq!(arrivals.len(), 2, "{arrivals:?}");
    let mut adopted = 0;
    for (p, before) in arrivals {
        // Access `before + 1` is the CAM; the processor dies at its read.
        let fault = FaultConfig::none().with_scheduled_hard_fault(p, before + 2);
        let m = Machine::new(PmConfig::parallel(2, 1 << 18).with_fault(fault));
        let (mut sim, out, after_runs) = fork_of_two(&m);
        while !sim.completed() && !sim.runnable().is_empty() {
            sim.step(alternate(&sim));
        }
        let trace = sim.render_trace();
        assert!(
            trace.contains(&format!("p{p} died in join-cam")),
            "p{p} dies in its arrival:\n{trace}"
        );
        assert!(sim.completed(), "the survivor finishes:\n{trace}");
        assert_eq!(m.mem().to_vec(out.start, 2), vec![1, 2]);
        let runs = after_runs.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(runs, 1, "p{p}: the code after the join runs once:\n{trace}");
        adopted += usize::from(trace.contains("sched/popTop/checkLocal"));
    }
    assert!(adopted > 0, "some killed arrival is adopted");
}

/// The next processor of a fixed round-robin schedule: the lower id on
/// even steps, the higher on odd, among the runnable ones.
fn alternate(sim: &SimSched<'_>) -> usize {
    let runnable = sim.runnable();
    let turn = sim.events().len() % runnable.len();
    runnable[turn]
}

/// A `Runtime`-style session whose root forks two leaves (each marking
/// its word) and joins into a frame that counts its runs host-side, then
/// ends the computation.
fn fork_of_two(m: &Machine) -> (SimSched<'_>, Region, Arc<std::sync::atomic::AtomicU32>) {
    let out = m.alloc_region(2);
    let runs = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let counted = runs.clone();
    let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("fork2/leaf", |&(at, v): &(usize, Word), k, ctx| {
            ctx.pwrite(at, v)?;
            Ok(Step::Jump(k))
        });
        let counted = counted.clone();
        let after = set.define("fork2/after", move |_: &(), k, _| {
            counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(Step::Jump(k))
        });
        let root = set.define("fork2/root", move |_: &(), k, ctx| {
            let k = after.frame(ctx, &(), k)?;
            dsl::fork2(ctx, (leaf, &(out.at(0), 1)), (leaf, &(out.at(1), 2)), k)
        });
        root.setup(m, &(), K(finale)).word()
    });
    let sim = SimSched::new_persistent(m, &pcomp, &SchedConfig::with_slots(64));
    (sim, out, runs)
}

// ---------------------------------------------------------------------
// The fused scheduler capsules: a fork pays `pushBottom/commit` (its
// reads end the forking capsule), `clearBottom` (which runs
// `popBottom/read`'s body) and `popBottom/cam` (which checks its own
// CAM). Soft faults re-run each; a hard fault inside each is adopted.
// ---------------------------------------------------------------------

/// Completed runs of `capsule` in a rendered `SimSched` trace.
fn completions(trace: &str, capsule: &str) -> usize {
    trace.matches(&format!("run  {capsule} -> ")).count()
}

/// A `map_grain` session over `leaves` one-word leaves, each marking its
/// word with its index plus one.
fn marking_fanout(m: &Machine, leaves: usize) -> (SimSched<'_>, Region) {
    let out = m.alloc_region(leaves);
    let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("fuse/leaf", |st: &dsl::Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as Word + 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("fuse/split", 1, leaf);
        let all = dsl::Span {
            env: out,
            lo: 0,
            hi: leaves,
        };
        split.setup(m, &all, K(finale)).word()
    });
    let sim = SimSched::new_persistent(m, &pcomp, &SchedConfig::with_slots(64));
    (sim, out)
}

/// Soft faults through the fused `clearBottom` and `popBottom/cam`, with
/// strict write-after-read checking: every leaf thread completes exactly
/// once (each word is marked, and the leaf capsule completes once per
/// leaf — a soft fault re-runs a capsule inside one completion). A
/// `clearBottom` that armed its exemption only on its first attempt
/// would panic here, in the check, on a re-run.
#[test]
fn a_fork_runs_every_thread_once_under_soft_faults_through_the_fused_capsules() {
    const LEAVES: usize = 8;
    for f in [0.05, 0.2] {
        for seed in 0..32 {
            let m = Machine::new(
                PmConfig::parallel(2, 1 << 18)
                    .with_fault(FaultConfig::soft(f, seed))
                    .with_validate(ValidateMode::Strict),
            );
            let (mut sim, out) = marking_fanout(&m, LEAVES);
            sim.run_seeded(seed, 20_000);
            let trace = sim.render_trace();
            assert!(sim.completed(), "f = {f}, seed {seed}:\n{trace}");
            let marks: Vec<Word> = (1..=LEAVES as Word).collect();
            assert_eq!(
                m.mem().to_vec(out.start, LEAVES),
                marks,
                "f = {f}, seed {seed}"
            );
            assert_eq!(
                completions(&trace, "fuse/leaf"),
                LEAVES,
                "f = {f}, seed {seed}: every leaf thread runs exactly once:\n{trace}"
            );
            for fused in ["sched/clearBottom", "sched/popBottom/cam"] {
                assert!(completions(&trace, fused) > 0, "{fused} ran:\n{trace}");
            }
        }
    }
}

/// Steps processor 0 alone until it stands at `capsule` (or is `dead`);
/// false if it halts or runs out of a step budget first.
fn step_until(sim: &mut SimSched<'_>, capsule: &str) -> bool {
    for _ in 0..2_000 {
        match sim.at(0) {
            at if at == capsule => return true,
            "halted" | "dead" => return false,
            _ => drop(sim.step(0)),
        }
    }
    false
}

/// Runs processor 0 of `fork_of_two` alone — it pulls the root, forks,
/// runs one leaf and pops the other — until it stands at `capsule`, and
/// returns its reads and writes so far.
fn accesses_before(capsule: &str) -> (u64, u64) {
    let m = Machine::new(PmConfig::parallel(2, 1 << 18));
    let (mut sim, _, _) = fork_of_two(&m);
    assert!(
        step_until(&mut sim, capsule),
        "processor 0 never reached {capsule}"
    );
    let st = &m.snapshot().per_proc[0];
    (st.reads, st.writes)
}

/// `fork_of_two` with processor 0 killed at its `at`-th access: p0 runs
/// alone until it dies, then p1 finishes alone (within a step budget: a
/// survivor that lost the thread spins). Returns the trace, after
/// checking that p0 died in `capsule` and that the survivor completed
/// the computation with each leaf and the code after the join run once.
fn killed_and_adopted(at: u64, capsule: &str) -> String {
    let fault = FaultConfig::none().with_scheduled_hard_fault(0, at);
    let m = Machine::new(PmConfig::parallel(2, 1 << 18).with_fault(fault));
    let (mut sim, out, after_runs) = fork_of_two(&m);
    assert!(step_until(&mut sim, "dead"), "p0 outlived access {at}");
    for _ in 0..2_000 {
        if sim.completed() || sim.runnable().is_empty() {
            break;
        }
        sim.step(1);
    }
    let trace = sim.render_trace();
    assert!(
        trace.contains(&format!("p0 died in {capsule}")),
        "p0 dies in {capsule}:\n{trace}"
    );
    assert!(sim.completed(), "the survivor finishes:\n{trace}");
    assert_eq!(m.mem().to_vec(out.start, 2), vec![1, 2]);
    assert_eq!(completions(&trace, "fork2/leaf"), 2, "{trace}");
    let runs = after_runs.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(runs, 1, "the code after the join runs once:\n{trace}");
    trace
}

/// Lemma A.10's window, now inside one capsule: the owner's
/// `popBottom/cam` wins its CAM (`job → local`) and the owner dies at the
/// read that follows. The survivor steals the dead owner's `local` entry
/// (`taken`, one tag on), adopts the `popBottom/cam` record, and its
/// re-run — a no-op CAM, then the read — finds its own `taken` and runs
/// the claimed leaf. A boundary crash cannot reach this arm any more.
#[test]
fn a_hard_fault_between_pop_bottoms_cam_and_its_read_runs_the_thread_once() {
    let (reads, writes) = accesses_before("sched/popBottom/cam");
    // Access `reads + writes + 1` is the CAM; the owner dies at its read.
    let trace = killed_and_adopted(reads + writes + 2, "sched/popBottom/cam");
    for line in [
        "p1 run  sched/popTop/checkLocal -> sched/popBottom/cam",
        "p1 run  sched/popBottom/cam -> fork2/leaf",
    ] {
        assert!(trace.contains(line), "{line}:\n{trace}");
    }
}

/// `pushBottom`'s reads end the forking capsule: the owner dies at the
/// first access after them (the commit record's install), so its restart
/// pointer is still the forking frame. The survivor adopts the owner's
/// `local` seat, re-runs the forking capsule on its own deque, and the
/// computation completes with every thread run once.
#[test]
fn a_hard_fault_after_the_forks_push_bottom_reads_runs_every_thread_once() {
    let (reads, writes) = accesses_before("fork2/root");
    let (reads_after, writes_after) = accesses_before("sched/pushBottom/commit");
    let capsule_reads = reads_after - reads;
    assert!(capsule_reads >= 3, "pushBottom's reads are the fork's");
    // The forking capsule's last reads are pushBottom's three; the access
    // right after them is the first fault index at which the dying
    // capsule has done all its reads.
    let at = (reads + writes + 1..=reads_after + writes_after)
        .find(|&at| {
            let fault = FaultConfig::none().with_scheduled_hard_fault(0, at);
            let m = Machine::new(PmConfig::parallel(2, 1 << 18).with_fault(fault));
            let (mut sim, _, _) = fork_of_two(&m);
            step_until(&mut sim, "dead") && m.snapshot().per_proc[0].reads - reads == capsule_reads
        })
        .expect("some access follows the reads");
    let trace = killed_and_adopted(at, "fork2/root");
    assert!(
        trace.contains("p1 run  sched/popTop/checkLocal -> fork2/root"),
        "the survivor adopts the forking capsule:\n{trace}"
    );
}
