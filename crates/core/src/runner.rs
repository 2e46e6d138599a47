//! The capsule engine: installing and running capsules with restarts.
//!
//! This module implements the machine-level protocol of §2/§4: each
//! completed capsule's *last instructions* write the next capsule's closure
//! and the new restart pointer ("installing" it); a soft fault re-runs the
//! active capsule from its beginning after a constant-cost restart
//! sequence; a hard fault stops the processor, leaving its restart pointer
//! in persistent memory for thieves to pick up (`getActiveCapsule`).
//!
//! Thread continuations are installed into the processor's two-slot swap
//! area (the §4.1 optimization: "the implementation could use just two
//! closures and swap back and forth"), so long-running threads consume no
//! pool space; forked children are registered at fresh pool addresses since
//! their handles sit in deques for arbitrarily long.
//!
//! Capsules denoted by *persistent frames* ([`Next::JumpHandle`] /
//! [`Next::ForkHandle`]) bypass the swap area: the frame address itself
//! becomes the restart pointer (one external write instead of two), and —
//! because the frame's words fully describe the closure — a fresh process
//! can rehydrate the pointed-to capsule after a crash instead of replaying
//! the computation from its root.

use ppm_pm::{Addr, Fault, PmResult, ProcCtx, Word};

use crate::arena::{ContArena, NULL_HANDLE};
use crate::capsule::{Cont, Next};
use crate::machine::ProcMeta;
use crate::registry::CtorCache;

/// Per-processor installation state: where the restart pointer lives,
/// which swap slot receives the next thread-continuation closure, and the
/// rehydration constructors this processor has already looked up.
#[derive(Debug)]
pub struct InstallCtx {
    active: Addr,
    slot_a: Addr,
    slot_b: Addr,
    use_a: bool,
    gen: Word,
    ctors: CtorCache,
}

impl InstallCtx {
    /// Creates installation state over processor metadata.
    pub fn new(meta: ProcMeta) -> Self {
        InstallCtx {
            active: meta.active,
            slot_a: meta.slot_a,
            slot_b: meta.slot_b,
            use_a: true,
            gen: 1,
            ctors: CtorCache::default(),
        }
    }

    /// Address of the restart-pointer word this context writes.
    pub fn active_addr(&self) -> Addr {
        self.active
    }

    #[inline]
    fn next_slot(&self) -> Addr {
        if self.use_a {
            self.slot_a
        } else {
            self.slot_b
        }
    }

    /// Installs `c` as the next capsule: writes its closure into the free
    /// swap slot and swings the restart pointer to it.
    ///
    /// The metadata layout places each swap slot adjacent to the restart
    /// pointer (`[slot_a, active, slot_b, watermark]`, block-aligned), so
    /// filling the closure and swinging the pointer is **one** contiguous
    /// block transfer — the §4.1 "swap back and forth" pair lives in a
    /// single block. The write may fault, in which case the *current*
    /// capsule restarts and the (idempotent) install is re-attempted.
    /// Machines whose block size cannot hold the pair fall back to the
    /// two-write install.
    pub fn install_jump(&mut self, ctx: &mut ProcCtx, arena: &ContArena, c: &Cont) -> PmResult<()> {
        let slot = self.next_slot();
        let adjacent = self.slot_a + 1 == self.active && self.active + 1 == self.slot_b;
        let (lo, pair) = if self.use_a {
            (self.slot_a, [self.gen, self.slot_a as Word])
        } else {
            (self.active, [self.slot_b as Word, self.gen])
        };
        let b = ctx.block_size();
        // The arena's map entry is what lets a thief resolve a dead
        // processor's restart pointer; it takes its shard's lock (ROADMAP
        // item 2, "Scheduler capsules per fork").
        // hot-path-ok: `c` is a closure capsule this processor minted for
        // this one install, so its refcount is on no shared line.
        let held = c.clone();
        if adjacent && lo / b == (lo + 1) / b {
            // The in-process map entry is uncosted bookkeeping; the costed
            // closure content is the block write below.
            arena.preregister(slot, held);
            ctx.write_block(lo, &pair)?;
        } else {
            arena.register_at(ctx, slot, held, self.gen)?;
            ctx.pwrite(self.active, slot as Word)?;
        }
        // Flip only after the install succeeded: a re-run must target the
        // same slot.
        self.use_a = !self.use_a;
        self.gen += 1;
        Ok(())
    }

    /// Clears the restart pointer (the processor is leaving threaded user
    /// code, or halting). One external write.
    pub fn install_null(&mut self, ctx: &mut ProcCtx) -> PmResult<()> {
        ctx.pwrite(self.active, NULL_HANDLE)
    }

    /// Installs a frame-denoted capsule: swings the restart pointer to the
    /// frame address itself. One external write — the closure was already
    /// persisted when the frame was written, so there is nothing to copy
    /// into a swap slot, and the restart pointer becomes meaningful to
    /// *any* process that can read persistent memory.
    pub fn install_handle(&mut self, ctx: &mut ProcCtx, handle: Word) -> PmResult<()> {
        ctx.pwrite(self.active, handle)
    }
}

/// Result of driving one capsule to completion.
pub enum Step {
    /// The installed successor; keep driving.
    Next(Cont),
    /// The chain is finished on this processor.
    Done,
}

/// Hook invoked when a capsule forks: given the freshly registered child
/// handle, the thread's continuation, and — when the continuation is a
/// persistent frame — its frame handle, produce the capsule to install
/// next (a scheduler wraps the continuation in its `pushBottom` sequence,
/// threading the frame handle through so the post-push jump keeps the
/// restart pointer frame-backed).
pub type ForkWrap<'a> = &'a (dyn Fn(Word, Cont, Option<Word>) -> Cont + 'a);

/// Runs `cur` to completion, restarting on soft faults, and installs its
/// successor. `fork_wrap` handles [`Next::Fork`] (absent ⇒ forking
/// panics: the caller is a non-forking chain). `on_end` converts
/// [`Next::End`] (thread finished) into a jump — the scheduler passes its
/// own entry capsule; absent ⇒ `End` finishes the chain.
///
/// Returns `Err(Fault::Hard)` only if the processor dies; soft faults never
/// escape.
pub fn run_capsule(
    ctx: &mut ProcCtx,
    arena: &ContArena,
    install: &mut InstallCtx,
    cur: &Cont,
    fork_wrap: Option<ForkWrap<'_>>,
    on_end: Option<&Cont>,
) -> Result<Step, Fault> {
    ctx.begin_capsule(cur.name());
    ctx.set_war_exempt(!cur.war_checked());
    // Open the causal span before the retry loop: the span id is
    // restart-stable (one execution = one span, however many soft-fault
    // re-runs it takes), and the frames the body writes carry it as
    // their parent-span word. An untraced (scheduler) capsule instead
    // breaks the same-thread parent chain here — see `ProcCtx::span_begin`.
    ctx.span_begin(cur.name(), cur.traced());
    loop {
        let attempt: PmResult<Step> =
            run_body_and_install(ctx, arena, install, cur, fork_wrap, on_end);
        match attempt {
            Ok(step) => {
                ctx.complete_capsule();
                ctx.set_war_exempt(false);
                return Ok(step);
            }
            Err(Fault::Soft) => {
                ctx.restart_capsule(cur.name());
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
    cur: &Cont,
    fork_wrap: Option<ForkWrap<'_>>,
    on_end: Option<&Cont>,
) -> PmResult<Step> {
    let next = cur.run(ctx)?;
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
    match next {
        Next::Jump(c) => {
            install.install_jump(ctx, arena, &c)?;
            Ok(Step::Next(c))
        }
        Next::JumpHandle(h) => {
            let c = resolve_handle(arena, install, h, cur.name());
            note_frame_provenance(ctx, h);
            install.install_handle(ctx, h)?;
            Ok(Step::Next(c))
        }
        Next::End => match on_end {
            Some(sched) => {
                install.install_jump(ctx, arena, sched)?;
                // hot-path-ok: the scheduler entry capsule is minted per
                // processor (`Sched::scheduler_entry` in the driver loop).
                Ok(Step::Next(sched.clone()))
            }
            None => {
                install.install_null(ctx)?;
                Ok(Step::Done)
            }
        },
        Next::Halt => {
            install.install_null(ctx)?;
            Ok(Step::Done)
        }
        Next::Fork { child, cont } => {
            let handle = arena.register(ctx, child)?;
            let target = match fork_wrap {
                Some(w) => w(handle, cont, None),
                None => panic_no_scheduler(cur.name()),
            };
            install.install_jump(ctx, arena, &target)?;
            Ok(Step::Next(target))
        }
        Next::ForkHandle { child, cont } => {
            // Both sides were persisted by the capsule body; the child
            // frame handle goes straight into the deque and the
            // continuation resolves through the arena (rehydrating from
            // its frame on first touch).
            let cont_c = resolve_handle(arena, install, cont, cur.name());
            let target = match fork_wrap {
                Some(w) => w(child, cont_c, Some(cont)),
                None => panic_no_scheduler(cur.name()),
            };
            install.install_jump(ctx, arena, &target)?;
            Ok(Step::Next(target))
        }
    }
}

/// Records the causal edge of a frame-handle install: the frame's
/// parent-span word plus the frame address, delivered to the next traced
/// capsule begin. Uncosted oracle read — provenance metadata, charged to
/// nobody (the costed install is the restart-pointer write). Runs after
/// the current (possibly untraced, chain-breaking) capsule body, so a
/// scheduler's `popBottom`/`popTop` hand-off survives to the computation
/// capsule it installs. Public for the scheduler driver, which performs
/// the same hand-off when it plants recovered or adopted frames.
pub fn note_frame_provenance(ctx: &mut ProcCtx, handle: Word) {
    if let Some(parent) = ppm_pm::frame::frame_parent_span(ctx.raw_mem(), handle as Addr) {
        ctx.set_pending_parent(parent, handle as Addr);
    }
}

fn resolve_handle(arena: &ContArena, install: &mut InstallCtx, handle: Word, from: &str) -> Cont {
    let ctors = &mut install.ctors;
    let resolved = arena.resolve_with(handle, |registry, addr, id, args| {
        ctors.instantiate(registry, addr, id, args)
    });
    resolved.unwrap_or_else(|_| {
        panic!("capsule `{from}` jumped to dangling continuation handle {handle} — scheduler bug")
    })
}

fn panic_no_scheduler(name: &str) -> ! {
    panic!(
        "capsule `{name}` forked but this engine has no scheduler; \
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
    let mut cur = first;
    loop {
        match run_capsule(ctx, arena, install, &cur, None, None)? {
            Step::Next(c) => cur = c,
            Step::Done => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::{capsule, final_capsule, step_capsule};
    use crate::machine::Machine;
    use ppm_pm::{FaultConfig, PmConfig};

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
        let mut install = InstallCtx::new(m.proc_meta(0));
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
        let mut install = InstallCtx::new(m.proc_meta(0));
        let step = run_capsule(&mut ctx, m.arena(), &mut install, &c1, None, None).unwrap();
        // After c1 completes, the active handle resolves to c2's closure.
        let h = m.active_handle(0);
        assert_ne!(h, NULL_HANDLE);
        assert_eq!(m.arena().get(h).unwrap().name(), "c2");
        match step {
            Step::Next(c) => assert_eq!(c.name(), "c2"),
            Step::Done => panic!("expected Next"),
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
        let mut install = InstallCtx::new(m.proc_meta(0));
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
        let mut install = InstallCtx::new(m.proc_meta(0));
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
            let mut install = InstallCtx::new(m.proc_meta(0));
            run_chain(&mut ctx, m.arena(), &mut install, build(&m, r)).unwrap();
            m.snapshot().total_work()
        };
        let faulty = {
            let m = machine_with(FaultConfig::soft(0.05, 77));
            let r = m.alloc_region(64);
            let mut ctx = m.ctx(0);
            let mut install = InstallCtx::new(m.proc_meta(0));
            run_chain(&mut ctx, m.arena(), &mut install, build(&m, r)).unwrap();
            m.snapshot().total_work()
        };
        assert!(faulty >= faultless);
        assert!(
            (faulty as f64) < 2.0 * faultless as f64,
            "W_f = {faulty} should be within a small constant of W = {faultless}"
        );
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
        let mut install = InstallCtx::new(m.proc_meta(0));
        let _ = run_chain(&mut ctx, m.arena(), &mut install, forker);
    }
}
