//! The §5 atomically idempotent capsule forms, demonstrated directly:
//! racy-read capsules, racy-write capsules, CAM capsules, and racy
//! multiread capsules, each exercised under repetition (the restart
//! behaviour) and cross-thread races.

use std::sync::Arc;

use ppm::core::{capsule, final_capsule, run_chain, InstallCtx, Machine, Next};
use ppm::pm::{FaultConfig, PmConfig};

fn machine(f: FaultConfig) -> Machine {
    Machine::new(PmConfig::parallel(2, 1 << 18).with_fault(f))
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
    let c = capsule("double", move |ctx| {
        let v = ctx.pread(src.at(0))?;
        ctx.pwrite(dst.at(0), v * 2)?;
        Ok(Next::End)
    });
    let mut ctx = m.ctx(0);
    // Run the same capsule body many times (what restarts do).
    for _ in 0..7 {
        ctx.begin_capsule("double");
        match c.run(&mut ctx).unwrap() {
            Next::End => {}
            _ => panic!(),
        }
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
    let mut ctx = m.ctx(0);
    let copy = capsule("copy", move |ctx| {
        let v = ctx.pread(shared.at(0))?;
        ctx.pwrite(private.at(0), v)?;
        Ok(Next::End)
    });
    for _ in 0..50 {
        ctx.begin_capsule("copy");
        copy.run(&mut ctx).unwrap();
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
    let c = capsule("pub", move |ctx| {
        ctx.pwrite(loc.at(0), 7)?;
        Ok(Next::End)
    });
    let mut ctx = m.ctx(0);
    let mut transitions = 0;
    let mut last = m.mem().load(loc.at(0));
    for _ in 0..10 {
        ctx.begin_capsule("pub");
        c.run(&mut ctx).unwrap();
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
        let cell = m.alloc_region(8);
        let winners = m.alloc_region(8);

        let contender = |id: u64, proc: usize, m: Arc<Machine>| {
            std::thread::spawn(move || {
                let mut ctx = m.ctx(proc);
                let mut install = InstallCtx::new(m.mem(), m.proc_meta(proc));
                let claim = final_capsule("claim", move |ctx| {
                    if ctx.pread(cell.at(0))? == id {
                        ctx.pwrite(winners.at(id as usize), 1)?;
                    }
                    Ok(())
                });
                let cam = capsule("cam", move |ctx| {
                    ctx.pcam(cell.at(0), 0, id)?;
                    Ok(Next::Jump(claim.clone()))
                });
                // Soft faults restart; the chain completes regardless.
                run_chain(&mut ctx, m.arena(), &mut install, cam).unwrap();
            })
        };
        let t1 = contender(1, 0, m.clone());
        let t2 = contender(2, 1, m.clone());
        t1.join().unwrap();
        t2.join().unwrap();

        let w1 = m.mem().load(winners.at(1));
        let w2 = m.mem().load(winners.at(2));
        assert_eq!(w1 + w2, 1, "seed {seed}: exactly one winner, got {w1}+{w2}");
        let v = m.mem().load(cell.at(0));
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
    let m = Arc::new(machine(FaultConfig::none()));
    let shared = m.alloc_region(8);
    let private = m.alloc_region(8);

    m.mem().store(shared.at(0), 10);
    m.mem().store(shared.at(1), 20);

    let snap = capsule("multiread", move |ctx| {
        let a = ctx.pread(shared.at(0))?;
        let b = ctx.pread(shared.at(1))?;
        ctx.pwrite(private.at(0), a)?;
        ctx.pwrite(private.at(1), b)?;
        Ok(Next::End)
    });
    let mut ctx = m.ctx(0);
    // First (to-be-discarded) run.
    ctx.begin_capsule("multiread");
    snap.run(&mut ctx).unwrap();
    // "Concurrent" writes between restarts.
    m.mem().store(shared.at(0), 11);
    m.mem().store(shared.at(1), 21);
    // Final run overwrites the partial results entirely.
    ctx.restart_capsule("multiread");
    snap.run(&mut ctx).unwrap();
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
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        // 20 increments; increment i reads cell i-1 and writes cell i
        // (the copy-instead-of-overwrite style of §4).
        for i in 0..20usize {
            let inc = final_capsule("inc", move |ctx| {
                let old = if i == 0 {
                    0
                } else {
                    ctx.pread(cells.at(i - 1))?
                };
                ctx.pwrite(cells.at(i), old + 1)
            });
            run_chain(&mut ctx, m.arena(), &mut install, inc).unwrap();
        }
        assert_eq!(m.mem().load(cells.at(19)), 20, "seed {seed}");
    }
}
