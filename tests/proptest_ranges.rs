//! A costed range (`ProcCtx::write_range` / `read_range`) is one call that
//! must cost, fault and check exactly what a loop of one block transfer
//! per block did. This file drives the range call and such a loop, built
//! from the machine's parts, with the same operations under the same fault
//! adversary, and demands the same outcome after every step: the result,
//! the capsule work, the adversary consultations, the counters, the
//! write-after-read verdicts and the memory image.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ppm::pm::validate::WarTracker;
use ppm::pm::{
    Addr, Fault, FaultConfig, FaultInjector, Liveness, MemStats, PersistentMemory, PmConfig,
    ProcCtx, ValidateMode, Word,
};
use proptest::prelude::*;

/// Words of the machine; every range lies below it.
const WORDS: usize = 256;

/// One step of a capsule sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(Addr, usize),
    Read(Addr, usize),
    /// Commit the running capsule and begin the next.
    Commit,
}

/// What a step did: its result, or the panic it raised.
type Outcome = Result<Result<Vec<Word>, Fault>, String>;

/// The reference: each block of a range is its own transfer, consulted,
/// charged, checked and stored one after another.
struct PerBlock {
    mem: PersistentMemory,
    stats: MemStats,
    injector: FaultInjector,
    war: WarTracker,
    work: u64,
    b: usize,
}

impl PerBlock {
    fn new(cfg: &PmConfig) -> Self {
        let mut war = WarTracker::new(cfg.validate);
        war.reset("c");
        PerBlock {
            mem: PersistentMemory::new(WORDS, cfg.block_size),
            stats: MemStats::new(1),
            injector: FaultInjector::new(&cfg.fault, 0),
            war,
            work: 0,
            b: cfg.block_size,
        }
    }

    /// The pieces of `addr..addr + len` that lie in one block each.
    fn blocks(&self, addr: Addr, len: usize) -> Vec<(Addr, usize)> {
        let (mut at, end, mut out) = (addr, addr + len, Vec::new());
        while at < end {
            let n = (self.b - at % self.b).min(end - at);
            out.push((at, n));
            at += n;
        }
        out
    }

    /// One block's consultation, with the fault recorded as a processor
    /// records it.
    fn consult(&mut self) -> Result<(), Fault> {
        match self.injector.check() {
            None => Ok(()),
            Some(Fault::Soft) => {
                self.stats.record_soft_fault(0);
                Err(Fault::Soft)
            }
            Some(fault) => {
                self.stats.record_hard_fault(0);
                Err(fault)
            }
        }
    }

    fn write(&mut self, addr: Addr, src: &[Word]) -> Result<(), Fault> {
        for (at, n) in self.blocks(addr, src.len()) {
            self.consult()?;
            self.work += 1;
            self.stats.record_write(0);
            self.war.on_write_block(at, n, &self.stats);
            self.mem.write_range(at, &src[at - addr..at - addr + n]);
        }
        Ok(())
    }

    fn read(&mut self, addr: Addr, dst: &mut [Word]) -> Result<(), Fault> {
        for (at, n) in self.blocks(addr, dst.len()) {
            self.consult()?;
            self.work += 1;
            self.stats.record_read(0);
            self.war.on_read_block(at, n);
            self.mem.read_range(at, &mut dst[at - addr..at - addr + n]);
        }
        Ok(())
    }

    /// A capsule boundary or a soft-fault restart.
    fn restart(&mut self) {
        self.work = 0;
        self.war.reset("c");
    }
}

/// The words a write of step `step` stores: distinct across steps.
fn words(step: usize, len: usize) -> Vec<Word> {
    (0..len)
        .map(|i| (step as Word + 1) << 16 | i as Word)
        .collect()
}

/// Runs `f`, catching a `Strict` conflict panic as its message.
fn caught(f: impl FnOnce() -> Result<Vec<Word>, Fault>) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into())
    })
}

/// The expected `Strict` panics would otherwise print once per caught
/// conflict; every other panic (a failed assertion) still prints.
fn quiet_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("write-after-read conflict"));
            if !expected {
                default(info);
            }
        }));
    });
}

/// Drives `ops` through a processor and the reference under `cfg`.
fn check(cfg: &PmConfig, ops: &[Op]) {
    quiet_expected_panics();
    let mem = Arc::new(PersistentMemory::new(WORDS, cfg.block_size));
    let liveness = Arc::new(Liveness::new(1));
    let mut ctx = ProcCtx::new(cfg, 0, mem, Arc::new(MemStats::new(1)), liveness.clone());
    ctx.begin_capsule("c");
    let mut reference = PerBlock::new(cfg);
    for (step, &op) in ops.iter().enumerate() {
        let (got, want) = match op {
            Op::Commit => {
                ctx.complete_capsule();
                ctx.begin_capsule("c");
                reference.restart();
                continue;
            }
            Op::Write(addr, len) => {
                let src = words(step, len);
                (
                    caught(|| ctx.write_range(addr, &src).map(|()| Vec::new())),
                    caught(|| reference.write(addr, &src).map(|()| Vec::new())),
                )
            }
            Op::Read(addr, len) => {
                let (mut a, mut b) = (vec![0; len], vec![0; len]);
                (
                    caught(|| ctx.read_range(addr, &mut a).map(|()| a)),
                    caught(|| reference.read(addr, &mut b).map(|()| b)),
                )
            }
        };
        let at = format!("step {step} ({op:?}) under {cfg:?}");
        assert_eq!(got, want, "outcome, {at}");
        if got.is_err() {
            // A `Strict` panic: the per-block loop stored the blocks before
            // the conflicting one, the range call checks before it stores.
            return;
        }
        let (snap, want_snap) = (ctx.stats().snapshot(), reference.stats.snapshot());
        assert_eq!(
            (ctx.capsule_work(), ctx.accesses(), ctx.is_dead()),
            (
                reference.work,
                reference.injector.accesses(),
                reference.injector.is_dead()
            ),
            "work, consultations, death, {at}"
        );
        assert_eq!(
            (snap.total_reads, snap.total_writes, snap.war_conflicts),
            (
                want_snap.total_reads,
                want_snap.total_writes,
                want_snap.war_conflicts
            ),
            "counters, {at}"
        );
        assert_eq!(
            (snap.soft_faults, snap.hard_faults),
            (want_snap.soft_faults, want_snap.hard_faults),
            "faults, {at}"
        );
        assert_eq!(
            ctx.raw_mem().to_vec(0, WORDS),
            reference.mem.to_vec(0, WORDS),
            "memory image, {at}"
        );
        match got {
            Ok(Err(Fault::Soft)) => {
                ctx.restart_capsule("c");
                reference.restart();
            }
            Ok(Err(_)) => {
                assert!(!liveness.is_live(0), "a hard fault marks the oracle, {at}");
                return;
            }
            _ => {}
        }
    }
}

/// Decodes 64 generated bits into an operation: ranges of up to 100 words
/// anywhere below word 150, one commit in eight.
fn decode(bits: u64) -> Op {
    let addr = (bits >> 8) as usize % 150;
    let len = (bits >> 40) as usize % 101;
    match bits % 8 {
        0 => Op::Commit,
        1..=3 => Op::Read(addr, len),
        _ => Op::Write(addr, len),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_range_costs_faults_and_checks_as_its_blocks_do(
        ops in prop::collection::vec(any::<u64>(), 1..40),
        pick_b in 0usize..7,
        prob in 0usize..4,
        death in 0u64..48,
        strict in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b = [1, 2, 3, 5, 8, 16, 64][pick_b];
        let f = [0.0, 0.0, 0.05, 0.25][prob];
        let mut fault = FaultConfig::mixed(f, 0.2, seed);
        if death > 0 {
            fault = fault.with_scheduled_hard_fault(0, death);
        }
        let mode = match strict {
            true => ValidateMode::Strict,
            false => ValidateMode::Record,
        };
        let cfg = PmConfig::small_single()
            .with_block_size(b)
            .with_fault(fault)
            .with_validate(mode);
        let ops: Vec<Op> = ops.iter().map(|&bits| decode(bits)).collect();
        check(&cfg, &ops);
    }
}
