//! The Arora–Blumofe–Plaxton baseline scheduler.
//!
//! The scheduler our fault-tolerant one is built from (ABP01): a classic
//! CAS-based work-stealing deque with a tagged `age` word (top pointer +
//! ABA tag) and an untagged `bot`. It observes CAS results directly, so —
//! as §5 of the paper proves — it is **not safe under faults**: a fault
//! between the CAS and acting on its result loses the answer. It exists as
//! the comparison point for the scheduler benchmarks (same cost accounting,
//! same fork-join computations, `f = 0` enforced).
//!
//! ABP01: Arora, Blumofe, Plaxton, "Thread scheduling for multiprogrammed
//! multiprocessors", Theory of Computing Systems 34(2).

use ppm_core::{
    run_capsule, Active, ContArena, DoneFlag, InstallCtx, Machine, Next, PComp, SchedRecord,
    Scheduler, CORE_ID_FINALE, SCHED_ARG_WORDS,
};
use ppm_pm::{Addr, PmResult, ProcCtx, Region, StatsSnapshot, Word};

/// One processor's ABP deque: an array of continuation handles plus the
/// packed `age` (top:32 | tag:32) and `bot` words.
#[derive(Debug, Clone, Copy)]
pub struct AbpDeque {
    stack: Region,
    age: Addr,
    bot: Addr,
    slots: usize,
}

fn age_pack(top: u32, tag: u32) -> Word {
    ((top as u64) << 32) | tag as u64
}

fn age_unpack(w: Word) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

impl AbpDeque {
    fn entry(&self, i: usize) -> Addr {
        assert!(
            i < self.slots,
            "ABP deque overflow (slot {i} of {})",
            self.slots
        );
        self.stack.at(i)
    }

    /// `pushBottom(h)` — owner only.
    fn push_bottom(&self, ctx: &mut ProcCtx, h: Word) -> PmResult<()> {
        let b = ctx.pread(self.bot)? as usize;
        ctx.pwrite(self.entry(b), h)?;
        ctx.pwrite(self.bot, (b + 1) as Word)?;
        Ok(())
    }

    /// `popBottom()` — owner only.
    fn pop_bottom(&self, ctx: &mut ProcCtx) -> PmResult<Option<Word>> {
        let b = ctx.pread(self.bot)? as usize;
        if b == 0 {
            return Ok(None);
        }
        let b = b - 1;
        ctx.pwrite(self.bot, b as Word)?;
        let h = ctx.pread(self.entry(b))?;
        let old_age = ctx.pread(self.age)?;
        let (top, tag) = age_unpack(old_age);
        if b > top as usize {
            return Ok(Some(h));
        }
        ctx.pwrite(self.bot, 0)?;
        let new_age = age_pack(0, tag.wrapping_add(1));
        if b == top as usize && ctx.pcas_baseline(self.age, old_age, new_age)? {
            return Ok(Some(h));
        }
        ctx.pwrite(self.age, new_age)?;
        Ok(None)
    }

    /// `popTop()` — any processor.
    fn pop_top(&self, ctx: &mut ProcCtx) -> PmResult<Option<Word>> {
        let old_age = ctx.pread(self.age)?;
        let b = ctx.pread(self.bot)? as usize;
        let (top, tag) = age_unpack(old_age);
        if b <= top as usize {
            return Ok(None);
        }
        let h = ctx.pread(self.entry(top as usize))?;
        let new_age = age_pack(top + 1, tag);
        if ctx.pcas_baseline(self.age, old_age, new_age)? {
            return Ok(Some(h));
        }
        Ok(None)
    }
}

/// The ABP scheduler instance.
pub struct AbpScheduler {
    deques: Vec<AbpDeque>,
    done: DoneFlag,
    seed: u64,
}

impl AbpScheduler {
    /// Carves per-processor deques with `slots` entries each.
    pub fn new(machine: &Machine, done: DoneFlag, slots: usize, seed: u64) -> Self {
        assert_eq!(
            machine.cfg().fault.fault_prob,
            0.0,
            "the ABP baseline is not fault-tolerant; run it with FaultConfig::none()"
        );
        assert!(
            machine.cfg().fault.scheduled_hard_faults.is_empty(),
            "the ABP baseline cannot survive hard faults"
        );
        let deques = (0..machine.procs())
            .map(|_| AbpDeque {
                stack: machine.alloc_region(slots),
                age: machine.alloc_region(1).start,
                bot: machine.alloc_region(1).start,
                slots,
            })
            .collect();
        AbpScheduler { deques, done, seed }
    }
}

/// Record kind of the ABP scheduler capsule.
const FIND_WORK: u16 = 1;
/// Record kind of the ABP fork wrapper; args are `[child, cont]`.
const PUSH: u16 = 2;

fn record(kind: u16, child: Word, cont: Word) -> SchedRecord {
    let mut args = [0; SCHED_ARG_WORDS];
    args[..2].copy_from_slice(&[child, cont]);
    SchedRecord { kind, args }
}

impl Scheduler for AbpScheduler {
    fn run(&self, rec: &SchedRecord, ctx: &mut ProcCtx, _: &ContArena) -> PmResult<Next> {
        let s = self;
        let me = ctx.proc();
        if rec.kind == PUSH {
            // The fork wrapper: push the child, continue the thread.
            s.deques[me].push_bottom(ctx, rec.args[0])?;
            return Ok(Next::JumpHandle(rec.args[1]));
        }
        // The scheduler capsule: find work (own deque, then random
        // steals) or halt when done. Runs as one unchecked capsule —
        // legitimate only because the machine is fault-free.
        let p = s.deques.len();
        if let Some(h) = s.deques[me].pop_bottom(ctx)? {
            return Ok(Next::JumpHandle(h));
        }
        // A miss, then whatever is stolen: no join this processor has
        // open may free its subtree (`ProcCtx::note_foreign`).
        ctx.note_foreign();
        let mut n = 0u64;
        loop {
            if s.done.read(ctx)? {
                return Ok(Next::Halt);
            }
            if p > 1 {
                let r = (s.seed ^ ((me as u64) << 32) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let v = (r >> 33) as usize % (p - 1);
                let victim = if v >= me { v + 1 } else { v };
                if let Some(h) = s.deques[victim].pop_top(ctx)? {
                    return Ok(Next::JumpHandle(h));
                }
            }
            n += 1;
        }
    }

    fn on_fork(&self, _: &mut ProcCtx, child: Word, cont: Word) -> PmResult<SchedRecord> {
        Ok(record(PUSH, child, cont))
    }

    fn on_end(&self) -> SchedRecord {
        record(FIND_WORK, 0, 0)
    }

    fn name(&self, rec: &SchedRecord) -> &'static str {
        match rec.kind {
            PUSH => "abp/push",
            _ => "abp/findWork",
        }
    }

    fn war_checked(&self, _: &SchedRecord) -> bool {
        false
    }
}

/// Result of an ABP run.
#[derive(Debug, Clone)]
pub struct AbpReport {
    /// Whether the completion flag was set (always, absent deadlock).
    pub completed: bool,
    /// Machine statistics.
    pub stats: StatsSnapshot,
    /// Wall-clock duration of the parallel section.
    pub elapsed: std::time::Duration,
}

/// Runs a registered persistent computation under the ABP baseline
/// (fault-free): the same DAG `Runtime::run_or_recover` runs on the
/// fault-tolerant scheduler, so the two are compared on one source.
pub fn run_computation_abp(machine: &Machine, pcomp: &PComp, slots: usize, seed: u64) -> AbpReport {
    let done = DoneFlag::new(machine);
    let sched = AbpScheduler::new(machine, done, slots, seed);
    let finale = machine.setup_frame(CORE_ID_FINALE, &[done.addr() as Word]);
    let root = machine
        .arena()
        .resolve(pcomp(machine, finale))
        .expect("root frame handle must rehydrate through the registry");

    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for p in 0..machine.procs() {
            let sched = &sched;
            s.spawn(move || {
                let mut ctx = machine.ctx(p);
                let mut install = InstallCtx::new(machine.mem(), machine.proc_meta(p));
                let mut cur = match p {
                    0 => root,
                    _ => Active::Sched(sched.on_end()),
                };
                loop {
                    match run_capsule(&mut ctx, machine.arena(), &mut install, &cur, Some(sched)) {
                        Ok(Some(c)) => cur = c,
                        Ok(None) => return,
                        Err(f) => unreachable!("fault {f} on the fault-free ABP baseline"),
                    }
                }
            });
        }
    });
    AbpReport {
        completed: done.is_set(machine.mem()),
        stats: machine.stats().snapshot(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::marker_comp;
    use ppm_pm::PmConfig;

    #[test]
    fn abp_runs_fanout_on_four_procs() {
        let m = Machine::new(PmConfig::parallel(4, 1 << 21));
        let n = 64;
        let r = m.alloc_region(n);
        let rep = run_computation_abp(&m, &marker_comp(r, n), 1024, 7);
        assert!(rep.completed);
        for i in 0..n {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1, "task {i}");
        }
    }

    #[test]
    fn abp_single_proc() {
        let m = Machine::new(PmConfig::parallel(1, 1 << 20));
        let r = m.alloc_region(16);
        let rep = run_computation_abp(&m, &marker_comp(r, 8), 256, 7);
        assert!(rep.completed);
        for i in 0..8 {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "not fault-tolerant")]
    fn abp_rejects_faulty_machines() {
        let m = Machine::new(
            PmConfig::parallel(1, 1 << 18).with_fault(ppm_pm::FaultConfig::soft(0.1, 0)),
        );
        let done = DoneFlag::new(&m);
        let _ = AbpScheduler::new(&m, done, 64, 0);
    }

    #[test]
    fn age_packing_round_trips() {
        for (top, tag) in [(0u32, 0u32), (1, 2), (u32::MAX, u32::MAX), (7, 0)] {
            assert_eq!(age_unpack(age_pack(top, tag)), (top, tag));
        }
    }
}
