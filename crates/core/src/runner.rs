//! The capsule engine: installing and running capsules with restarts.
//!
//! This module implements the machine-level protocol of §2/§4: each
//! completed capsule's *last instructions* write the next capsule's closure
//! and the new restart pointer ("installing" it); a soft fault re-runs the
//! active capsule from its beginning after a constant-cost restart
//! sequence; a hard fault stops the processor, leaving its restart pointer
//! in persistent memory for thieves to pick up (`getActiveCapsule`).
//!
//! There are two installs, one per capsule form, and each is a single
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
//!
//! Either capsule is fully described by shared words, so any process can
//! pick the pointed-to capsule up after a crash.
//!
//! A frame is run where it lies (`ContArena::run_frame`): header and
//! extent checked, id and argument words read onto the stack, decoded,
//! the registered body called on them. **Every attempt does this again**
//! (§2: a restart "loads the restart pointer and the start instruction"),
//! so nothing a faulted attempt decoded survives it. The reads are
//! uncosted: the model charges closure loading to the restart overhead.

use ppm_pm::{Fault, PersistentMemory, PmResult, ProcCtx, Word};

use crate::arena::{ContArena, NULL_HANDLE};
use crate::capsule::{Active, Next, SchedRecord, Scheduler};
use crate::machine::{meta, ProcMeta};
use crate::registry::CodeMemo;

/// Per-processor installation state: where the restart pointer and the
/// journal live, which slot the next record goes to, the generation it
/// will carry, and this processor's memo of the capsule registry.
#[derive(Debug)]
pub struct InstallCtx {
    meta: ProcMeta,
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
    /// never outrank this run's. A restart pointer that is already the
    /// journal pointer (a processor restarted at its record) keeps its
    /// live record: the next install goes to the other slot.
    pub fn new(mem: &PersistentMemory, meta: ProcMeta) -> Self {
        let stale = |off| SchedRecord::generation(mem.load(meta.base + off));
        let (a, b) = (stale(meta::HEAD_A), stale(meta::HEAD_B));
        InstallCtx {
            meta,
            live_a: (mem.load(meta.active) == meta.active as Word).then_some(a >= b),
            gen: a.max(b) + 1,
            codes: CodeMemo::default(),
        }
    }

    /// [`InstallCtx::install_sched`] outside any capsule, with plain
    /// stores in the same order: how a recovering process journals a
    /// processor's restart point before seating it.
    pub fn install_sched_uncosted(&mut self, mem: &PersistentMemory, rec: &SchedRecord) {
        let to_a = self.live_a != Some(true);
        let (off, image) = journal_image(rec, self.gen, to_a, self.meta.active as Word);
        let len = SchedRecord::WORDS + usize::from(self.live_a.is_none());
        for (i, word) in image[..len].iter().enumerate() {
            mem.store(self.meta.base + off + i, *word);
        }
        self.live_a = Some(to_a);
        self.gen += 1;
    }

    /// Installs a scheduler capsule: journals `rec` and makes the restart
    /// pointer the journal pointer.
    ///
    /// A record that follows a record goes to the slot that is not live
    /// and leaves the pointer alone; a record that follows anything else
    /// goes to slot A with the pointer swing right behind it. Either way
    /// the stores are one ascending run with the head after its arguments
    /// (see [`crate::machine::PROC_META_WORDS`] for why that is
    /// kill-safe), written as one costed range (one block at B ≥ 8). A fault
    /// restarts the *current* capsule, whose re-run repeats the identical
    /// install: slot and generation move only on success.
    pub fn install_sched(&mut self, ctx: &mut ProcCtx, rec: &SchedRecord) -> PmResult<()> {
        let to_a = self.live_a != Some(true);
        let (off, image) = journal_image(rec, self.gen, to_a, self.meta.active as Word);
        let len = SchedRecord::WORDS + usize::from(self.live_a.is_none());
        ctx.write_range(self.meta.base + off, &image[..len])?;
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
/// this processor — `Err(Fault::Hard)` if the processor dies and
/// `Err(Fault::Exhausted)` if its pool cannot hold the capsule's
/// allocations ([`ProcCtx::error`] says why); soft faults never escape.
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
                        Err(stop) => return Err(stop),
                    }
                }
            }
            Err(stop) => return Err(stop),
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
        Next::ForkHandle { child, cont } => {
            // Both sides were persisted by the capsule body: the child
            // handle goes straight into the deque and the continuation is
            // resolved when the push jumps back to it.
            let s = sched.unwrap_or_else(|| panic_no_scheduler(cur.name(None)));
            let rec = s.on_fork(ctx, child, cont)?;
            installed(install, ctx, rec)
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

/// Drives a non-forking capsule chain to completion on one processor,
/// starting at the frame `first`. Returns `Err(Fault::Hard)` if the
/// processor dies mid-chain.
///
/// # Panics
/// Panics if `first` is not a registered frame.
pub fn run_chain(
    ctx: &mut ProcCtx,
    arena: &ContArena,
    install: &mut InstallCtx,
    first: Word,
) -> Result<(), Fault> {
    let mut cur = arena
        .resolve(first)
        .unwrap_or_else(|| panic!("chain head {first} is not a registered frame"));
    while let Some(next) = run_capsule(ctx, arena, install, &cur, None)? {
        cur = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::registry::tests::raw_frame;
    use ppm_pm::{Addr, FaultConfig, PmConfig};

    fn machine_with(f: FaultConfig) -> Machine {
        Machine::new(PmConfig::parallel(1, 1 << 16).with_fault(f))
    }

    /// Frames that write `value` to `addr`, one per pair, each continuing
    /// with the next and the last ending the chain. Returns their handles
    /// in chain order.
    fn chain(m: &Machine, writes: &[(Addr, Word)]) -> Vec<Word> {
        let mut next = NULL_HANDLE;
        let mut handles: Vec<Word> = (writes.iter().rev())
            .map(|&(at, v)| {
                next = raw_frame(m, "write", [at as Word, v, next], |&[at, v, next], ctx| {
                    ctx.pwrite(at as Addr, v)?;
                    Ok(match next {
                        NULL_HANDLE => Next::End,
                        _ => Next::JumpHandle(next),
                    })
                });
                next
            })
            .collect();
        handles.reverse();
        handles
    }

    fn run(m: &Machine, first: Word) -> Result<(), Fault> {
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        run_chain(&mut ctx, m.arena(), &mut install, first)
    }

    #[test]
    fn chain_runs_in_order() {
        let m = machine_with(FaultConfig::none());
        let r = m.alloc_region(8);
        let c = chain(&m, &[(r.at(0), 1), (r.at(1), 2), (r.at(2), 3)]);
        run(&m, c[0]).unwrap();
        assert_eq!(m.mem().to_vec(r.start, 3), vec![1, 2, 3]);
        // The restart pointer is cleared at the end.
        assert_eq!(m.active_handle(0), NULL_HANDLE);
    }

    #[test]
    fn installs_write_restart_pointer() {
        let m = machine_with(FaultConfig::none());
        let r = m.alloc_region(8);
        let c = chain(&m, &[(r.at(0), 1), (r.at(1), 2)]);
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        let first = m.arena().resolve(c[0]).expect("a registered frame");
        let step = run_capsule(&mut ctx, m.arena(), &mut install, &first, None).unwrap();
        // After c1 completes, the restart pointer is c2's frame, and the
        // words there say so.
        let h = m.active_handle(0);
        assert_eq!(h, c[1]);
        let Ok(Active::Frame(f)) = m.arena().try_resolve(h) else {
            panic!("the restart pointer resolves to a frame")
        };
        assert_eq!(step, Some(Active::Frame(f)), "the successor is c2");
    }

    #[test]
    fn soft_faults_restart_until_success_with_identical_effects() {
        let m = machine_with(FaultConfig::soft(0.2, 1234));
        let r = m.alloc_region(64);
        // A chain of 8 capsules each writing a distinct word.
        let mut writes: Vec<_> = (0..8).map(|i| (r.at(i), i as u64 + 1)).collect();
        writes.push((r.at(63), 100));
        run(&m, chain(&m, &writes)[0]).unwrap();
        for i in 0..8 {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1);
        }
        assert_eq!(m.mem().load(r.at(63)), 100);
        let snap = m.snapshot();
        assert!(snap.soft_faults > 0, "f=0.2 over ~18 writes must fault");
        assert!(snap.capsule_restarts() > 0);
    }

    #[test]
    fn hard_fault_stops_chain_and_leaves_restart_pointer() {
        let m = machine_with(FaultConfig::none().with_scheduled_hard_fault(0, 4));
        let r = m.alloc_region(8);
        let c = chain(&m, &[(r.at(0), 1), (r.at(1), 2), (r.at(2), 3)]);
        assert_eq!(run(&m, c[0]).unwrap_err(), Fault::Hard);
        assert!(!m.liveness().is_live(0));
        // c1 completed (write r0 = access 1, install of c2 = 2), then c2
        // starts: write r1 (3), and its install of c3 faults at access 4.
        // The restart pointer still points at the last *installed*
        // capsule, and any process can resume it from the words alone.
        let h = m.active_handle(0);
        assert_eq!(h, c[1]);
        assert!(matches!(m.arena().try_resolve(h), Ok(Active::Frame(f)) if f.addr == h as Addr));
    }

    #[test]
    fn total_work_under_faults_is_constant_factor_of_faultless() {
        // A long chain; compare W (f = 0) with W_f (f = 0.05) — Theorem 3.2
        // style accounting at engine level.
        let work = |f: FaultConfig| {
            let m = machine_with(f);
            let r = m.alloc_region(64);
            let writes: Vec<_> = (0..200).map(|i| (r.at(i % 64), 1)).collect();
            run(&m, chain(&m, &writes)[0]).unwrap();
            m.snapshot().total_work()
        };
        let faultless = work(FaultConfig::none());
        let faulty = work(FaultConfig::soft(0.05, 77));
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
        let mut restarted = 0;
        for seed in 0..16 {
            let m = machine_with(FaultConfig::soft(0.5, seed));
            let out = m.alloc_region(1).start;
            let frame = raw_frame(&m, "rerun/probe", [0, 1], move |&[me, v], ctx| {
                // Uncosted, and before the first costed access: the first
                // attempt rewrites its own second argument.
                ctx.raw_mem()
                    .store(me as Addr + ppm_pm::frame::FRAME_ARGS_AT + 1, 2);
                ctx.pwrite(out, v)?;
                Ok(Next::End)
            });
            m.mem()
                .store(frame as Addr + ppm_pm::frame::FRAME_ARGS_AT, frame);
            run(&m, frame).unwrap();
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
        let end = m.setup_frame(crate::registry::CORE_ID_END, &[]);
        let forker = raw_frame(&m, "forker", [end], |&[end], _| {
            Ok(Next::ForkHandle {
                child: end,
                cont: end,
            })
        });
        let _ = run(&m, forker);
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
        fn on_fork(&self, _: &mut ProcCtx, _: Word, _: Word) -> PmResult<SchedRecord> {
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
        let first = raw_frame(&m, "first", [r.start as Word], |&[at], _| {
            Ok(Next::Sched(countdown(4, at)))
        });
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        let mut cur = m.arena().resolve(first).expect("a registered frame");
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
