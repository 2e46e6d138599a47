//! The §5 atomically idempotent capsule forms, demonstrated directly:
//! racy-read capsules, racy-write capsules, CAM capsules, and racy
//! multiread capsules, each exercised under repetition (the restart
//! behaviour) and cross-thread races. Every capsule is a registered frame
//! run by the engine ([`run_chain`]).

use std::sync::Arc;

use ppm::core::dsl::{CapsuleDef, CapsuleSet, Step, K};
use ppm::core::{run_chain, InstallCtx, Machine, Persist};
use ppm::pm::{FaultConfig, PmConfig, PmResult, ProcCtx, Word};

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
