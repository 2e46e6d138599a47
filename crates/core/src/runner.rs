//! The capsule engine: installing and running capsules with restarts.
//!
//! This module implements the machine-level protocol of §2/§4: each
//! completed capsule's *last instructions* write the next capsule's closure
//! and the new restart pointer ("installing" it); a soft fault re-runs the
//! active capsule from its beginning after a constant-cost restart
//! sequence; a hard fault stops the processor, leaving its restart pointer
//! in persistent memory for thieves to pick up (`getActiveCapsule`).
//!
//! There are three installs, one per capsule form, and each is a single
//! block write at B ≥ 8:
//!
//! * **Frames** ([`Next::JumpHandle`] / [`Next::ForkHandle`]): the closure
//!   was persisted when the frame was written, so the frame address itself
//!   becomes the restart pointer — one word.
//! * **Scheduler records** ([`Next::Sched`], and what a [`Scheduler`]
//!   makes of a fork or a thread end): the record's six words go into the
//!   processor's two-record journal, head word last, and the restart
//!   pointer — when it does not already say so — becomes the journal
//!   pointer behind them ([`InstallCtx::install_sched`]). The layout and
//!   the argument that a kill between any two stores leaves a complete
//!   capsule are on [`crate::machine::PROC_META_WORDS`];
//!   [`live_record`] is the read side, and every attachment to the
//!   machine reads alike.
//! * **Closures** ([`Next::Jump`], closure machine and `crates/sim`
//!   chains only): the closure object goes into the in-process arena
//!   under the free swap slot's address (the §4.1 optimization: "the
//!   implementation could use just two closures and swap back and
//!   forth") and the restart pointer swings to the slot
//!   ([`InstallCtx::install_jump`]).
//!
//! A frame or a record is fully described by shared words, so a fresh
//! process can pick the pointed-to capsule up after a crash; a closure
//! dies with its process, which is why no session mints one.
//!
//! A frame is run where it lies (`ContArena::run_frame`): header and
//! extent checked, id and argument words read onto the stack, decoded,
//! the registered body called on them. **Every attempt does this again**
//! (§2: a restart "loads the restart pointer and the start instruction"),
//! so nothing a faulted attempt decoded survives it. The reads are
//! uncosted: the model charges closure loading to the restart overhead.

use ppm_pm::{Fault, PersistentMemory, PmResult, ProcCtx, Word};

use crate::arena::{ContArena, NULL_HANDLE};
use crate::capsule::{Active, Cont, Next, SchedRecord, Scheduler};
use crate::machine::{meta, ProcMeta};
use crate::registry::CodeMemo;

/// Per-processor installation state: where the restart pointer and the
/// journal live, which slot the next install goes to, the generation it
/// will carry, and this processor's memo of the capsule registry.
#[derive(Debug)]
pub struct InstallCtx {
    meta: ProcMeta,
    /// Closure swap: which slot receives the next closure.
    use_a: bool,
    /// `Some` while the restart pointer is this processor's journal
    /// pointer (the last install was a record): whether the newest record
    /// sits in slot A.
    live_a: Option<bool>,
    gen: Word,
    codes: CodeMemo,
}

/// The words one record install stores, in store order, and the metadata
/// offset of the first: the arguments, the head at generation `gen`, and
/// — used only when the restart pointer must change — the journal
/// pointer. Slot A's image runs straight into the `active` word; slot B's
/// stops at its head.
pub fn journal_image(
    rec: &SchedRecord,
    gen: Word,
    to_a: bool,
    journal_ptr: Word,
) -> (usize, [Word; SchedRecord::WORDS + 1]) {
    let mut image = [journal_ptr; SchedRecord::WORDS + 1];
    image[..SchedRecord::WORDS].copy_from_slice(&rec.words(gen));
    (if to_a { meta::REC_A } else { meta::REC_B }, image)
}

/// The live record of a metadata block, `load` reading the block's words
/// by offset: the one whose head carries the higher generation. Pure in
/// the words, so every process attached to the machine agrees on it. A
/// block that never held a record yields kind 0, which no scheduler
/// decodes.
pub fn live_record(load: impl Fn(usize) -> Word) -> SchedRecord {
    let gen = |head| SchedRecord::generation(load(head));
    let at = if gen(meta::HEAD_A) >= gen(meta::HEAD_B) {
        meta::REC_A
    } else {
        meta::REC_B
    };
    SchedRecord::from_words(std::array::from_fn(|i| load(at + i)))
}

impl InstallCtx {
    /// Creates installation state over processor metadata. Generations
    /// continue above whatever the block's two heads already carry
    /// (uncosted setup reads), so records an earlier run left there can
    /// never outrank this run's.
    pub fn new(mem: &PersistentMemory, meta: ProcMeta) -> Self {
        let stale = |off| SchedRecord::generation(mem.load(meta.base + off));
        InstallCtx {
            meta,
            use_a: true,
            live_a: None,
            gen: stale(meta::HEAD_A).max(stale(meta::HEAD_B)) + 1,
            codes: CodeMemo::default(),
        }
    }

    /// Installs `c` as the next capsule: writes its closure into the free
    /// swap slot and swings the restart pointer to it.
    ///
    /// The metadata layout places each swap slot adjacent to the restart
    /// pointer, so filling the closure and swinging the pointer is **one**
    /// contiguous block transfer — the §4.1 "swap back and forth" pair
    /// lives in a single block. The write may fault, in which case the
    /// *current* capsule restarts and the (idempotent) install is
    /// re-attempted. Machines whose block size cannot hold the pair fall
    /// back to the two-write install.
    pub fn install_jump(&mut self, ctx: &mut ProcCtx, arena: &ContArena, c: &Cont) -> PmResult<()> {
        let ProcMeta { base, active, .. } = self.meta;
        let (slot_a, slot_b) = (base + meta::SLOT_A, base + meta::SLOT_B);
        // The slot's content word: a head at this generation whose kind
        // names no record.
        let filled = self.gen << SchedRecord::KIND_BITS;
        let (slot, lo, pair) = if self.use_a {
            (slot_a, slot_a, [filled, slot_a as Word])
        } else {
            (slot_b, active, [slot_b as Word, filled])
        };
        let b = ctx.block_size();
        // The arena's map entry is what lets a thief resolve a dead
        // processor's closure; it takes the map's lock — the closure
        // machine's cost, which no session pays.
        // hot-path-ok: `c` is a closure capsule this processor minted for
        // this one install, so its refcount is on no shared line.
        let held = c.clone();
        if lo / b == (lo + 1) / b {
            // The in-process map entry is uncosted bookkeeping; the costed
            // closure content is the block write below.
            arena.preregister(slot, held);
            ctx.write_block(lo, &pair)?;
        } else {
            arena.register_at(ctx, slot, held, filled)?;
            ctx.pwrite(active, slot as Word)?;
        }
        // Flip only after the install succeeded: a re-run must target the
        // same slot.
        self.use_a = !self.use_a;
        self.live_a = None;
        self.gen += 1;
        Ok(())
    }

    /// Installs a scheduler capsule: journals `rec` and makes the restart
    /// pointer the journal pointer.
    ///
    /// A record that follows a record goes to the slot that is not live
    /// and leaves the pointer alone; a record that follows anything else
    /// goes to slot A with the pointer swing right behind it. Either way
    /// the stores are one ascending run with the head after its arguments
    /// (see [`crate::machine::PROC_META_WORDS`] for why that is
    /// kill-safe), and at B ≥ 8 the run is one block write. A fault
    /// restarts the *current* capsule, whose re-run repeats the identical
    /// install: slot and generation move only on success.
    pub fn install_sched(&mut self, ctx: &mut ProcCtx, rec: &SchedRecord) -> PmResult<()> {
        let to_a = self.live_a != Some(true);
        let (off, image) = journal_image(rec, self.gen, to_a, self.meta.active as Word);
        let len = SchedRecord::WORDS + usize::from(self.live_a.is_none());
        let (mut at, mut rest) = (self.meta.base + off, &image[..len]);
        let b = ctx.block_size();
        while !rest.is_empty() {
            let n = (b - at % b).min(rest.len());
            ctx.write_block(at, &rest[..n])?;
            at += n;
            rest = &rest[n..];
        }
        self.live_a = Some(to_a);
        self.gen += 1;
        Ok(())
    }

    /// Clears the restart pointer (the processor is leaving threaded user
    /// code, or halting). One external write.
    pub fn install_null(&mut self, ctx: &mut ProcCtx) -> PmResult<()> {
        self.install_handle(ctx, NULL_HANDLE)
    }

    /// Installs a handle-denoted capsule: swings the restart pointer to
    /// the handle itself. One external write — a frame's closure was
    /// persisted when the frame was written, so there is nothing to copy,
    /// and the restart pointer is meaningful to *any* process that can
    /// read persistent memory.
    pub fn install_handle(&mut self, ctx: &mut ProcCtx, handle: Word) -> PmResult<()> {
        ctx.pwrite(self.meta.active, handle)?;
        self.live_a = None;
        Ok(())
    }
}

/// Runs `cur` to completion, restarting on soft faults, and installs its
/// successor. `sched` runs scheduler records and says what a fork and a
/// thread end install; without one, forking panics (the caller is a
/// non-forking chain) and [`Next::End`] finishes the chain.
///
/// Returns the installed successor — `None` when the chain is finished on
/// this processor — and `Err(Fault::Hard)` only if the processor dies;
/// soft faults never escape.
pub fn run_capsule(
    ctx: &mut ProcCtx,
    arena: &ContArena,
    install: &mut InstallCtx,
    cur: &Active,
    sched: Option<&dyn Scheduler>,
) -> Result<Option<Active>, Fault> {
    let name = cur.name(sched);
    let war_checked = match (cur, sched) {
        (Active::Sched(rec), Some(s)) => s.war_checked(rec),
        _ => true,
    };
    ctx.begin_capsule(name);
    ctx.set_war_exempt(!war_checked);
    // Open the causal span before the retry loop: the span id is
    // restart-stable (one execution = one span, however many soft-fault
    // re-runs it takes), and the frames the body writes carry it as
    // their parent-span word. An untraced (scheduler) capsule instead
    // breaks the same-thread parent chain here — see `ProcCtx::span_begin`
    // — so a stolen or adopted capsule takes its parent from the
    // persistent frame word, the true causal edge, not from the thief's
    // scheduling loop.
    ctx.span_begin(name, !matches!(cur, Active::Sched(_)));
    loop {
        let attempt = run_body_and_install(ctx, arena, install, cur, sched);
        match attempt {
            Ok(step) => {
                ctx.complete_capsule();
                ctx.set_war_exempt(false);
                return Ok(step);
            }
            Err(Fault::Soft) => {
                ctx.restart_capsule(name);
                // The restart sequence itself performs external transfers
                // and can fault; retry until it completes or the processor
                // dies.
                loop {
                    match ctx.charge_restart() {
                        Ok(()) => break,
                        Err(Fault::Soft) => continue,
                        Err(Fault::Hard) => return Err(Fault::Hard),
                    }
                }
            }
            Err(Fault::Hard) => return Err(Fault::Hard),
        }
    }
}

fn run_body_and_install(
    ctx: &mut ProcCtx,
    arena: &ContArena,
    install: &mut InstallCtx,
    cur: &Active,
    sched: Option<&dyn Scheduler>,
) -> PmResult<Option<Active>> {
    let next = match (cur, sched) {
        (Active::Capsule(c), _) => c.run(ctx)?,
        (Active::Frame(frame), _) => arena.run_frame(&mut install.codes, frame, ctx)?,
        (Active::Sched(rec), Some(s)) => s.run(rec, ctx, arena)?,
        (Active::Sched(_), None) => panic_no_scheduler(cur.name(None)),
    };
    // Charge the frames the body staged as coalesced block persists
    // *before* anything can publish their handles: after this point the
    // staged words are paid for, so an install or a successor's deque
    // write never exposes an uncharged frame. A fault here restarts the
    // capsule like any body fault.
    ctx.flush_staged()?;
    // The installs below may publish frames the body just allocated (the
    // restart pointer can become one of them); make the persisted pool
    // watermark cover them first, so a crash after the publication still
    // lets a resuming process allocate strictly above every live frame.
    ctx.publish_watermark();
    let installed = |install: &mut InstallCtx, ctx: &mut ProcCtx, rec: SchedRecord| {
        install.install_sched(ctx, &rec)?;
        Ok(Some(Active::Sched(rec)))
    };
    match next {
        Next::Jump(c) => {
            install.install_jump(ctx, arena, &c)?;
            Ok(Some(Active::Capsule(c)))
        }
        Next::JumpHandle(h) => {
            let target = resolve_handle(ctx, arena, install, h, cur.name(sched));
            install.install_handle(ctx, h)?;
            Ok(Some(target))
        }
        Next::Sched(rec) => installed(install, ctx, rec),
        Next::End => match sched {
            Some(s) => installed(install, ctx, s.on_end()),
            None => {
                install.install_null(ctx)?;
                Ok(None)
            }
        },
        Next::Halt => {
            install.install_null(ctx)?;
            Ok(None)
        }
        Next::Fork { child, cont } => {
            // The closure machine's fork: both sides become closure
            // handles in the pool, and the scheduler is handed two
            // handles, exactly as for frames.
            let s = sched.unwrap_or_else(|| panic_no_scheduler(cur.name(None)));
            let child = arena.register(ctx, child)?;
            let cont = arena.register(ctx, cont)?;
            installed(install, ctx, s.on_fork(child, cont))
        }
        Next::ForkHandle { child, cont } => {
            // Both sides were persisted by the capsule body: the child
            // handle goes straight into the deque and the continuation is
            // resolved when the push jumps back to it.
            let s = sched.unwrap_or_else(|| panic_no_scheduler(cur.name(None)));
            installed(install, ctx, s.on_fork(child, cont))
        }
    }
}

/// What the engine is about to install for `handle`. A frame costs its
/// header probe and a lookup in the processor's memo (the words are
/// decoded when they run) plus, with tracing on, the causal edge for the
/// next traced capsule begin: uncosted provenance, read after the current
/// (possibly chain-breaking) body so a scheduler's hand-off survives it.
fn resolve_handle(
    ctx: &mut ProcCtx,
    arena: &ContArena,
    install: &mut InstallCtx,
    handle: Word,
    from: &str,
) -> Active {
    let codes = &mut install.codes;
    let resolved = arena.resolve_with(handle, |mem, registry, addr| {
        ctx.set_pending_parent(addr, || mem.load(addr + 2));
        codes.frame_ref(mem, registry, addr)
    });
    resolved.unwrap_or_else(|_| {
        panic!("capsule `{from}` jumped to dangling continuation handle {handle} — scheduler bug")
    })
}

fn panic_no_scheduler(name: &str) -> ! {
    panic!(
        "capsule `{name}` needs a scheduler but this engine has no scheduler; \
         run fork-join computations on ppm-sched"
    )
}

/// Drives a non-forking capsule chain to completion on one processor.
/// Returns `Err(Fault::Hard)` if the processor dies mid-chain.
pub fn run_chain(
    ctx: &mut ProcCtx,
    arena: &ContArena,
    install: &mut InstallCtx,
    first: Cont,
) -> Result<(), Fault> {
    let mut cur = Active::Capsule(first);
    loop {
        match run_capsule(ctx, arena, install, &cur, None)? {
            Some(c) => cur = c,
            None => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::{capsule, final_capsule, step_capsule};
    use crate::machine::Machine;
    use ppm_pm::{Addr, FaultConfig, PmConfig};

    fn machine_with(f: FaultConfig) -> Machine {
        Machine::new(PmConfig::parallel(1, 1 << 16).with_fault(f))
    }

    #[test]
    fn chain_runs_in_order() {
        let m = machine_with(FaultConfig::none());
        let r = m.alloc_region(8);
        let c3 = final_capsule("c3", move |ctx| ctx.pwrite(r.at(2), 3));
        let c2 = step_capsule("c2", move |ctx| ctx.pwrite(r.at(1), 2), c3);
        let c1 = step_capsule("c1", move |ctx| ctx.pwrite(r.at(0), 1), c2);
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        run_chain(&mut ctx, m.arena(), &mut install, c1).unwrap();
        assert_eq!(m.mem().to_vec(r.start, 3), vec![1, 2, 3]);
        // The restart pointer is cleared at the end.
        assert_eq!(m.active_handle(0), NULL_HANDLE);
    }

    #[test]
    fn installs_write_restart_pointer() {
        let m = machine_with(FaultConfig::none());
        let c2 = final_capsule("c2", |_| Ok(()));
        let c1 = step_capsule("c1", |_| Ok(()), c2);
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        let step = run_capsule(
            &mut ctx,
            m.arena(),
            &mut install,
            &Active::Capsule(c1),
            None,
        )
        .unwrap();
        // After c1 completes, the active handle resolves to c2's closure.
        let h = m.active_handle(0);
        assert_ne!(h, NULL_HANDLE);
        assert_eq!(m.arena().get(h).unwrap().name(), "c2");
        match step {
            Some(c) => assert_eq!(c.name(None), "c2"),
            None => panic!("expected a successor"),
        }
    }

    #[test]
    fn soft_faults_restart_until_success_with_identical_effects() {
        let m = machine_with(FaultConfig::soft(0.2, 1234));
        let r = m.alloc_region(64);
        // A chain of 8 capsules each writing a distinct word.
        let mut cur = final_capsule("last", move |ctx| ctx.pwrite(r.at(63), 100));
        for i in (0..8).rev() {
            let prev = cur;
            cur = step_capsule("step", move |ctx| ctx.pwrite(r.at(i), i as u64 + 1), prev);
        }
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        run_chain(&mut ctx, m.arena(), &mut install, cur).unwrap();
        for i in 0..8 {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1);
        }
        assert_eq!(m.mem().load(r.at(63)), 100);
        let snap = m.snapshot();
        assert!(snap.soft_faults > 0, "f=0.2 over ~27 writes must fault");
        assert!(snap.capsule_restarts() > 0);
    }

    #[test]
    fn hard_fault_stops_chain_and_leaves_restart_pointer() {
        let m = machine_with(FaultConfig::none().with_scheduled_hard_fault(0, 4));
        let r = m.alloc_region(8);
        let c3 = final_capsule("c3", move |ctx| ctx.pwrite(r.at(2), 3));
        let c2 = step_capsule("c2", move |ctx| ctx.pwrite(r.at(1), 2), c3);
        let c1 = step_capsule("c1", move |ctx| ctx.pwrite(r.at(0), 1), c2);
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        let err = run_chain(&mut ctx, m.arena(), &mut install, c1).unwrap_err();
        assert_eq!(err, Fault::Hard);
        assert!(!m.liveness().is_live(0));
        // c1 completed (write r0 = access 1, coalesced install of c2 = 2),
        // then c2 starts: write r1 (3), and its install of c3 faults at
        // access 4. The restart pointer still points at the last
        // *installed* capsule, so a thief could resume from there.
        let h = m.active_handle(0);
        assert_ne!(h, NULL_HANDLE);
        assert!(m.arena().get(h).is_some());
    }

    #[test]
    fn total_work_under_faults_is_constant_factor_of_faultless() {
        // A long chain; compare W (f = 0) with W_f (f = 0.05) — Theorem 3.2
        // style accounting at engine level.
        let build = |_m: &Machine, r: ppm_pm::Region| {
            let mut cur = final_capsule("last", |_| Ok(()));
            for i in (0..200usize).rev() {
                let prev = cur;
                cur = step_capsule("s", move |ctx| ctx.pwrite(r.at(i % 64), 1), prev);
            }
            cur
        };
        let faultless = {
            let m = machine_with(FaultConfig::none());
            let r = m.alloc_region(64);
            let mut ctx = m.ctx(0);
            let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
            run_chain(&mut ctx, m.arena(), &mut install, build(&m, r)).unwrap();
            m.snapshot().total_work()
        };
        let faulty = {
            let m = machine_with(FaultConfig::soft(0.05, 77));
            let r = m.alloc_region(64);
            let mut ctx = m.ctx(0);
            let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
            run_chain(&mut ctx, m.arena(), &mut install, build(&m, r)).unwrap();
            m.snapshot().total_work()
        };
        assert!(faulty >= faultless);
        assert!(
            (faulty as f64) < 2.0 * faultless as f64,
            "W_f = {faulty} should be within a small constant of W = {faultless}"
        );
    }

    /// A restart reloads the closure (§2): each attempt of a frame reads
    /// and decodes the argument words again, so an attempt that follows a
    /// soft fault sees the words as they are then — nothing a faulted
    /// attempt decoded is kept.
    #[test]
    fn every_attempt_of_a_frame_decodes_its_words_again() {
        use crate::registry::frame_args;
        let mut restarted = 0;
        for seed in 0..16 {
            let m = machine_with(FaultConfig::soft(0.5, seed));
            let out = m.alloc_region(1).start;
            let id = m.registry().allocate("rerun/probe");
            m.registry().register(
                id,
                "rerun/probe",
                |args| frame_args::<2>("rerun/probe", args),
                move |&[me, v], ctx| {
                    // Uncosted, and before the first costed access: the
                    // first attempt rewrites its own second argument.
                    ctx.raw_mem()
                        .store(me as Addr + ppm_pm::frame::FRAME_ARGS_AT + 1, 2);
                    ctx.pwrite(out, v)?;
                    Ok(Next::End)
                },
                |_, _| false,
            );
            let frame = m.setup_frame(id, &[0, 1]);
            m.mem()
                .store(frame as Addr + ppm_pm::frame::FRAME_ARGS_AT, frame);
            let cur = m.arena().resolve(frame).expect("a registered frame");
            let mut ctx = m.ctx(0);
            let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
            let next = run_capsule(&mut ctx, m.arena(), &mut install, &cur, None).unwrap();
            assert!(next.is_none(), "the chain ends");
            let restarts = m.snapshot().capsule_restarts();
            assert_eq!(
                m.mem().load(out),
                if restarts > 0 { 2 } else { 1 },
                "seed {seed}: {restarts} restarts"
            );
            restarted += u64::from(restarts > 0);
        }
        assert!(restarted > 0, "f = 0.5 must restart some seed's capsule");
    }

    #[test]
    #[should_panic(expected = "no scheduler")]
    fn fork_without_scheduler_panics() {
        let m = machine_with(FaultConfig::none());
        let forker = capsule("forker", |_ctx| {
            Ok(Next::Fork {
                child: crate::capsule::end_capsule(),
                cont: crate::capsule::end_capsule(),
            })
        });
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        let _ = run_chain(&mut ctx, m.arena(), &mut install, forker);
    }

    // ----------------------------------------------------------------
    // The scheduler-record journal
    // ----------------------------------------------------------------

    use crate::capsule::{Scheduler, SCHED_ARG_WORDS};
    use crate::machine::{meta, PROC_META_WORDS};

    /// A scheduler whose records count down: `args[0]` capsules to go,
    /// each writing its count to `args[1]`.
    struct Countdown;

    fn countdown(n: Word, at: Word) -> SchedRecord {
        SchedRecord {
            kind: 1 + (n % 3) as u16,
            args: [n, at, !n, n << 40, 7],
        }
    }

    impl Scheduler for Countdown {
        fn run(&self, rec: &SchedRecord, ctx: &mut ProcCtx, _: &ContArena) -> PmResult<Next> {
            let [n, at, ..] = rec.args;
            ctx.pwrite(at as Addr, n)?;
            Ok(match n {
                0 => Next::Halt,
                _ => Next::Sched(countdown(n - 1, at)),
            })
        }
        fn on_fork(&self, _: Word, _: Word) -> SchedRecord {
            unreachable!("nothing forks here")
        }
        fn on_end(&self) -> SchedRecord {
            unreachable!("nothing ends here")
        }
        fn name(&self, _: &SchedRecord) -> &'static str {
            "countdown"
        }
        fn war_checked(&self, _: &SchedRecord) -> bool {
            true
        }
    }

    /// Drives a user capsule into a five-record countdown on a machine of
    /// block size `b`; returns the writes each install cost, and checks
    /// at every boundary that the restart pointer resolves — from words
    /// alone — to the capsule about to run.
    fn install_costs(b: usize) -> Vec<u64> {
        let m = Machine::new(PmConfig::parallel(1, 1 << 16).with_block_size(b));
        let r = m.alloc_region(8);
        let first = capsule("first", move |_| {
            Ok(Next::Sched(countdown(4, r.start as Word)))
        });
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        let mut cur = Active::Capsule(first);
        let mut costs = Vec::new();
        loop {
            let before = m.snapshot().total_writes;
            let body_writes = matches!(cur, Active::Sched(_)) as u64;
            match run_capsule(&mut ctx, m.arena(), &mut install, &cur, Some(&Countdown)).unwrap() {
                Some(next) => {
                    costs.push(m.snapshot().total_writes - before - body_writes);
                    let Active::Sched(want) = &next else {
                        panic!("countdown installs records")
                    };
                    let h = m.active_handle(0);
                    assert_eq!(h, m.proc_meta(0).active as Word, "journal pointer");
                    match m.arena().try_resolve(h) {
                        Ok(Active::Sched(found)) => assert_eq!(&found, want),
                        _ => panic!("a journal pointer resolves to a record"),
                    }
                    cur = next;
                }
                None => return costs,
            }
        }
    }

    #[test]
    fn a_record_install_is_one_block_write_from_b8_up() {
        for b in [8, 16, 64] {
            assert_eq!(install_costs(b), [1; 5], "B = {b}");
        }
    }

    #[test]
    fn a_six_word_record_is_two_block_writes_at_b4() {
        assert_eq!(install_costs(4), [2; 5]);
    }

    #[test]
    fn generations_continue_above_what_the_block_already_holds() {
        let m = machine_with(FaultConfig::none());
        let meta = m.proc_meta(0);
        m.mem()
            .store(meta.base + meta::HEAD_B, countdown(9, 0).words(41)[5]);
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), meta);
        ctx.begin_capsule("t");
        install.install_sched(&mut ctx, &countdown(1, 0)).unwrap();
        let found = live_record(|off| m.mem().load(meta.base + off));
        assert_eq!(found, countdown(1, 0), "the stale record must not outrank");
    }

    /// What a metadata block's restart pointer denotes.
    #[derive(Debug, PartialEq)]
    enum Denotes {
        Handle(Word),
        Record(SchedRecord),
    }

    const JOURNAL_PTR: Word = 0x1006;

    fn denotes(block: &[Word; PROC_META_WORDS]) -> Denotes {
        match block[meta::ACTIVE] {
            JOURNAL_PTR => Denotes::Record(live_record(|off| block[off])),
            h => Denotes::Handle(h),
        }
    }

    /// A block whose slots hold `a` and `b` at the given generations.
    fn block_with(
        active: Word,
        a: (&SchedRecord, Word),
        b: (&SchedRecord, Word),
    ) -> [Word; PROC_META_WORDS] {
        let mut block = [0; PROC_META_WORDS];
        for (to_a, (rec, gen)) in [(true, a), (false, b)] {
            let (off, image) = journal_image(rec, gen, to_a, 0);
            block[off..off + SchedRecord::WORDS].copy_from_slice(&image[..SchedRecord::WORDS]);
        }
        block[meta::ACTIVE] = active;
        block
    }

    /// Kills the install of `new` after every prefix of its stores and
    /// resolves what is left: always `old` or `new`, complete. `order`
    /// permutes the store sequence (identity is what the engine does).
    fn kill_sweep(
        block: [Word; PROC_META_WORDS],
        new: &SchedRecord,
        gen: Word,
        to_a: bool,
        swing: bool,
        order: impl Fn(usize) -> usize,
    ) {
        let old = denotes(&block);
        let (off, image) = journal_image(new, gen, to_a, JOURNAL_PTR);
        let len = SchedRecord::WORDS + usize::from(swing);
        for killed_after in 0..=len {
            let mut left = block;
            for k in (0..killed_after).map(&order) {
                left[off + k] = image[k];
            }
            let found = denotes(&left);
            assert!(
                found == old || found == Denotes::Record(*new),
                "kill after {killed_after} stores leaves {found:?}: neither {old:?} nor {new:?}"
            );
            if killed_after == len {
                assert_eq!(found, Denotes::Record(*new), "the finished install");
            }
        }
    }

    /// The three installs there are: anything → record (slot A, pointer
    /// swing), record → record into B, record → record into A.
    fn kill_sweeps(order: impl Fn(usize) -> usize + Copy) {
        let (stale, live, new) = (countdown(2, 0x20), countdown(5, 0x50), countdown(8, 0x80));
        let frame = 0x4000;
        kill_sweep(
            block_with(frame, (&stale, 3), (&live, 4)),
            &new,
            5,
            true,
            true,
            order,
        );
        kill_sweep(
            block_with(JOURNAL_PTR, (&live, 5), (&stale, 4)),
            &new,
            6,
            false,
            false,
            order,
        );
        kill_sweep(
            block_with(JOURNAL_PTR, (&stale, 5), (&live, 6)),
            &new,
            7,
            true,
            false,
            order,
        );
    }

    #[test]
    fn a_kill_between_any_two_stores_leaves_a_complete_capsule() {
        kill_sweeps(|k| k);
    }

    /// The head word is the commit point: stored before its arguments, a
    /// kill in between resolves to the new kind over the old arguments.
    #[test]
    #[should_panic(expected = "neither")]
    fn storing_the_generation_word_first_tears_the_record() {
        kill_sweeps(|k| match k {
            0 => SCHED_ARG_WORDS,
            k if k <= SCHED_ARG_WORDS => k - 1,
            k => k,
        });
    }
}
