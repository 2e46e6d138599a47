//! Direct tests of the Figure 3 operation chains against hand-crafted
//! deque states: steal paths, help paths, and the dead-owner local steal,
//! each driven capsule by capsule outside a full scheduler run.

use std::sync::Arc;

use ppm_core::{
    frame_args, run_capsule, Active, DoneFlag, InstallCtx, Machine, Next, CORE_ID_FORK_PAIR,
};
use ppm_pm::{Addr, PmConfig, PmResult, ProcCtx, Word};
use ppm_sched::{check_invariant, kind_of, pack, unpack, EntryKind, EntryVal, Sched, SchedConfig};

fn setup(procs: usize) -> (Machine, Arc<Sched>, DoneFlag) {
    let m = Machine::new(PmConfig::parallel(procs, 1 << 20));
    let done = DoneFlag::new(&m);
    let sched = Sched::new(&m, done, &SchedConfig::with_slots(64));
    (m, sched, done)
}

/// Registers `name` as a capsule over `N` raw argument words running
/// `body`, and writes a setup frame of it over `args`.
fn frame<const N: usize>(
    m: &Machine,
    name: &'static str,
    args: [Word; N],
    body: impl Fn(&[Word; N], &mut ProcCtx) -> PmResult<Next> + Send + Sync + 'static,
) -> Word {
    let id = m.registry().allocate(name);
    let decode = move |a: &[Word]| frame_args::<N>(name, a);
    m.registry().register(id, name, decode, body, |_, _| true);
    m.setup_frame(id, &args)
}

/// A thread that writes `value` to `at`, sets `done` and ends.
fn finishing_thread(m: &Machine, at: Addr, value: Word, done: DoneFlag) -> Word {
    let args = [at as Word, value, done.addr() as Word];
    frame(m, "write-and-finish", args, |&[at, value, done], ctx| {
        ctx.pwrite(at as Addr, value)?;
        ctx.pwrite(done as Addr, 1)?;
        Ok(Next::End)
    })
}

/// Drives a capsule chain on `proc` until the done flag halts it or the
/// step budget runs out; returns the number of capsules run.
fn drive(m: &Machine, sched: &Sched, proc: usize, first: Active, budget: usize) -> usize {
    let mut ctx = m.ctx(proc);
    let mut install = InstallCtx::new(m.mem(), m.proc_meta(proc));
    let mut cur = first;
    for step in 0..budget {
        match run_capsule(&mut ctx, m.arena(), &mut install, &cur, Some(sched))
            .expect("no hard faults configured")
        {
            Some(c) => cur = c,
            None => return step + 1,
        }
    }
    budget
}

#[test]
fn find_work_on_empty_deques_halts_when_done_is_set() {
    let (m, sched, done) = setup(2);
    m.mem().store(done.addr(), 1); // computation already finished
    let steps = drive(&m, &sched, 1, Active::Sched(sched.find_work()), 100);
    assert!(steps < 100, "must observe the flag and halt, took {steps}");
}

#[test]
fn steal_takes_a_planted_job_and_runs_it() {
    let (m, sched, done) = setup(2);
    let out = m.alloc_region(8);

    // Plant a job on proc 0's deque: a thread that writes a marker and
    // sets done, so the thief halts cleanly after running it.
    let handle = finishing_thread(&m, out.at(0), 99, done);
    let d0 = sched.deques()[0];
    m.mem()
        .store(d0.entry(0), pack(1, EntryVal::Job { handle }));
    m.mem().store(d0.bot, 1);

    // Proc 1 has no local work: it must steal the job, run it (which Ends,
    // so clearBottom runs), then see `done`.
    let steps = drive(&m, &sched, 1, Active::Sched(sched.find_work()), 200);
    assert!(steps < 200);
    assert_eq!(m.mem().load(out.at(0)), 99, "stolen thread must run");

    // The victim's entry is now taken and its top advanced.
    let (tag, val) = unpack(m.mem().load(d0.entry(0)));
    assert_eq!(tag, 2, "tag bumped by the steal CAM");
    match val {
        EntryVal::Taken { proc, slot, .. } => {
            assert_eq!(proc, 1, "taken by proc 1");
            assert_eq!(slot, 0, "into the thief's bottom entry");
        }
        other => panic!("expected taken, got {other:?}"),
    }
    assert_eq!(m.mem().load(d0.top), 1, "help advanced top");
    // The thief's entry went empty->local (the stolen thread) and back to
    // empty (clearBottom after the thread ended).
    let d1 = sched.deques()[1];
    assert_eq!(kind_of(m.mem().load(d1.entry(0))), EntryKind::Empty);
    check_invariant(m.mem(), &d0).unwrap();
    check_invariant(m.mem(), &d1).unwrap();
}

#[test]
fn local_entry_of_live_owner_is_never_stolen() {
    let (m, sched, done) = setup(2);
    let d0 = sched.deques()[0];
    // Proc 0 "is running" a thread: local entry at its bottom. Proc 0 is
    // alive (we never fault it).
    m.mem().store(d0.entry(0), pack(1, EntryVal::Local));
    // Give the thief a fixed budget of steal capsules; the drive returns
    // when the budget is exhausted (`done` is never set), so the thief
    // provably made thousands of attempts — deterministically, with no
    // wall-clock handshake.
    let budget = 5_000;
    let steps = drive(&m, &sched, 1, Active::Sched(sched.find_work()), budget);
    assert_eq!(
        steps, budget,
        "thief must still be probing when the budget ends"
    );
    let (tag, val) = unpack(m.mem().load(d0.entry(0)));
    assert_eq!(
        (tag, val),
        (1, EntryVal::Local),
        "live owner's local survives"
    );
    let _ = done;
}

#[test]
fn local_entry_of_dead_owner_is_stolen_and_resumed() {
    let (m, sched, done) = setup(2);
    let out = m.alloc_region(8);
    let d0 = sched.deques()[0];

    // Proc 0 was mid-thread when it died: local entry at bottom, active
    // capsule pointing at the remainder of its thread.
    let rest = finishing_thread(&m, out.at(0), 7, done);
    m.mem().store(m.proc_meta(0).active, rest);
    m.mem().store(d0.entry(0), pack(1, EntryVal::Local));
    m.liveness().mark_dead(0);

    let steps = drive(&m, &sched, 1, Active::Sched(sched.find_work()), 300);
    assert!(steps < 300);
    assert_eq!(m.mem().load(out.at(0)), 7, "dead owner's thread resumed");
    assert_eq!(kind_of(m.mem().load(d0.entry(0))), EntryKind::Taken);
    // Line 56: the entry above the stolen local was cleared with a tag
    // bump so it can never be stolen.
    let (tag_above, val_above) = unpack(m.mem().load(d0.entry(1)));
    assert_eq!(val_above, EntryVal::Empty);
    assert_eq!(tag_above, 1);
}

#[test]
fn own_jobs_are_popped_from_the_bottom_lifo() {
    // A thread forks A then B; the owner must pop B first (LIFO), then A.
    let (m, sched, done) = setup(1);
    let order = m.alloc_region(8);

    let args = [order.start as Word, done.addr() as Word];
    let leaf = |i: Word| {
        frame(
            &m,
            "leaf",
            [i, args[0], args[1]],
            |&[i, order, done], ctx| {
                // Record arrival order at the first free slot.
                let order = order as Addr;
                let pos = (0..4).find(|k| ctx.raw_mem().load(order + k) == 0).unwrap();
                ctx.pwrite(order + pos, i)?;
                if pos == 2 {
                    ctx.pwrite(done as Addr, 1)?;
                }
                Ok(Next::End)
            },
        )
    };
    let (leaf_a, leaf_b, finish) = (leaf(1), leaf(2), leaf(3));
    // A fork pair `[left, right]` forks `right` and continues with `left`.
    let root2 = m.setup_frame(CORE_ID_FORK_PAIR, &[finish, leaf_b]);
    let root = m.setup_frame(CORE_ID_FORK_PAIR, &[root2, leaf_a]);
    // Initialize as the driver would.
    m.mem().store(m.proc_meta(0).active, root);
    m.mem()
        .store(sched.deques()[0].entry(0), pack(1, EntryVal::Local));
    let root = m.arena().resolve(root).expect("a registered frame");
    let steps = drive(&m, &sched, 0, root, 400);
    assert!(steps < 400);
    // Thread order: root forks A, forks B, runs finish(3); then pops B(2);
    // then pops A(1).
    assert_eq!(m.mem().to_vec(order.start, 3), vec![3, 2, 1], "LIFO pops");
}
