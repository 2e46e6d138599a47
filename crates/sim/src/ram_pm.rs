//! Theorem 3.2: simulating the RAM on the PM model.
//!
//! "The simulation keeps all simulated memory in the persistent memory one
//! word per block. It also keeps two copies of the registers in persistent
//! memory, and the simulation swaps between the two." Each capsule
//! simulates exactly one RAM instruction: it reads the register copy
//! written by the previous capsule, applies the instruction (at most one
//! simulated memory read or write), and writes the other register copy.
//! The capsule is write-after-read conflict free because it reads one copy
//! and writes the other, so restarts are idempotent (Theorem 3.1), and the
//! capsule work is a constant `k`, so for `f ≤ 1/(2k)` the expected total
//! work is `O(t)`.
//!
//! The capsule is one registered frame per register copy, both written
//! once at setup, each naming the other as its successor — §4.1's "two
//! closures and swap back and forth". The step count lives with the
//! registers, so a step writes no frame and allocates nothing.

use ppm_core::dsl::{CapsuleDef, CapsuleSet, Step, K};
use ppm_core::Machine;
use ppm_pm::{Fault, Region, Word};

use crate::ram::{from_word, step, to_word, MemPort, RamProgram, NREGS};

/// A [`MemPort`] backed by costed persistent-memory accesses. Faults are
/// captured and re-raised by the capsule body (the `step` interface is
/// infallible; a faulted access returns 0, and the capsule discards all
/// state and restarts anyway).
struct PmMem<'a> {
    ctx: &'a mut ppm_pm::ProcCtx,
    region: Region,
    fault: Option<Fault>,
}

impl MemPort for PmMem<'_> {
    fn load(&mut self, a: usize) -> i64 {
        if self.fault.is_some() {
            return 0;
        }
        match self.ctx.pread(self.region.at(a)) {
            Ok(w) => from_word(w),
            Err(f) => {
                self.fault = Some(f);
                0
            }
        }
    }
    fn store(&mut self, a: usize, v: i64) {
        if self.fault.is_some() {
            return;
        }
        if let Err(f) = self.ctx.pwrite(self.region.at(a), to_word(v)) {
            self.fault = Some(f);
        }
    }
}

/// Persistent layout of one register copy: `NREGS` registers, then the
/// program counter, a halt flag, and the step count.
const COPY_WORDS: usize = NREGS + 3;
const PC_SLOT: usize = NREGS;
const HALT_SLOT: usize = NREGS + 1;
const STEPS_SLOT: usize = NREGS + 2;

ppm_core::persist_struct! {
    /// The simulation's persistent state: two register copies and the
    /// simulated memory.
    pub struct RamPmLayout {
        copies: [Region; 2],
        /// The simulated RAM's memory (one simulated word per persistent word).
        pub mem: Region,
    }
}

/// The step capsule's name; its code is the program being simulated.
const STEP: &str = "ram-pm/step";

/// A step's frame state: the layout, the copy it reads, the step limit.
type StepState = (RamPmLayout, usize, u64);

impl RamPmLayout {
    /// Carves the layout for a simulated memory of `mem_words` words.
    pub fn new(machine: &Machine, mem_words: usize) -> Self {
        RamPmLayout {
            copies: [
                machine.alloc_region(COPY_WORDS),
                machine.alloc_region(COPY_WORDS),
            ],
            mem: machine.alloc_region(mem_words),
        }
    }

    /// Loads the simulated memory with initial contents (uncosted setup).
    pub fn load_memory(&self, machine: &Machine, contents: &[i64]) {
        assert!(contents.len() <= self.mem.len);
        for (i, v) in contents.iter().enumerate() {
            machine.mem().store(self.mem.at(i), to_word(*v));
        }
    }

    /// Reads the simulated memory back (oracle).
    pub fn read_memory(&self, machine: &Machine, len: usize) -> Vec<i64> {
        (0..len)
            .map(|i| from_word(machine.mem().load(self.mem.at(i))))
            .collect()
    }
}

/// Result of a PM-model RAM simulation.
#[derive(Debug, Clone)]
pub struct RamPmReport {
    /// Simulated RAM steps executed.
    pub steps: u64,
    /// Whether the program halted (vs. the step limit).
    pub halted: bool,
    /// Final register file.
    pub regs: [i64; NREGS],
}

/// Registers the capsule simulating one instruction of `prog`: read the
/// registers and the step count from `copies[parity]`, execute, write
/// `copies[1 - parity]`, continue with the other frame.
fn register_step(machine: &Machine, prog: &RamProgram) -> CapsuleDef<StepState> {
    let prog = prog.clone();
    CapsuleSet::new(machine).define(
        STEP,
        move |&(layout, parity, max_steps): &StepState, other, ctx| {
            let src = layout.copies[parity];
            let dst = layout.copies[1 - parity];
            // Read the current register copy (constant work).
            let mut regs = [0i64; NREGS];
            for (i, r) in regs.iter_mut().enumerate() {
                *r = from_word(ctx.pread(src.at(i))?);
            }
            let mut pc = ctx.pread(src.at(PC_SLOT))? as usize;
            let steps_done = ctx.pread(src.at(STEPS_SLOT))?;

            let instr = prog.instrs.get(pc).copied();
            let halted = match instr {
                None => true,
                Some(instr) => {
                    // At most one simulated memory transfer per step.
                    let mut port = PmMem {
                        ctx,
                        region: layout.mem,
                        fault: None,
                    };
                    let cont = step(instr, &mut regs, &mut pc, &mut port);
                    if let Some(f) = port.fault {
                        return Err(f);
                    }
                    !cont
                }
            };
            let done = halted || steps_done + 1 >= max_steps;

            // Write the other copy (the swap that makes the capsule
            // conflict free).
            for (i, r) in regs.iter().enumerate() {
                ctx.pwrite(dst.at(i), to_word(*r))?;
            }
            ctx.pwrite(dst.at(PC_SLOT), pc as Word)?;
            ctx.pwrite(dst.at(HALT_SLOT), halted as Word)?;
            ctx.pwrite(dst.at(STEPS_SLOT), steps_done + 1)?;
            Ok(if done { Step::End } else { Step::Jump(other) })
        },
    )
}

/// Simulates `prog` on the PM model (processor 0 of `machine`), with the
/// machine's fault configuration active. Returns the report; `Err` only if
/// the processor hard-faults.
///
/// # Panics
/// Panics if `machine` already ran a RAM simulation: the program is the
/// step capsule's registered code, and a registry keeps the first.
pub fn simulate_ram_on_pm(
    machine: &Machine,
    prog: &RamProgram,
    layout: RamPmLayout,
    max_steps: u64,
) -> Result<RamPmReport, Fault> {
    let registered = machine.registry().id_of(STEP);
    assert!(registered.is_none(), "one RAM simulation per machine");
    let step = register_step(machine, prog);
    let first = step.setup(machine, &(layout, 0, max_steps), K(0));
    let second = step.setup(machine, &(layout, 1, max_steps), first);
    crate::run_cycle::<StepState>(machine, first, second)?;

    // The final state lives in whichever copy was written last: the one
    // with the larger step count.
    let mem = machine.mem();
    let pick =
        if mem.load(layout.copies[0].at(STEPS_SLOT)) >= mem.load(layout.copies[1].at(STEPS_SLOT)) {
            layout.copies[0]
        } else {
            layout.copies[1]
        };
    let mut regs = [0i64; NREGS];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = from_word(mem.load(pick.at(i)));
    }
    Ok(RamPmReport {
        steps: mem.load(pick.at(STEPS_SLOT)),
        halted: mem.load(pick.at(HALT_SLOT)) != 0,
        regs,
    })
}

/// Convenience: run a program natively and on the PM model with the same
/// initial memory, and return `(native, pm_report, pm_memory)` for
/// comparison. The PM machine's fault configuration applies.
pub fn run_both(
    machine: &Machine,
    prog: &RamProgram,
    initial_mem: &[i64],
    max_steps: u64,
) -> (crate::ram::RamResult, RamPmReport, Vec<i64>) {
    let mut native_mem = initial_mem.to_vec();
    let native = crate::ram::run_native(prog, &mut native_mem, max_steps);

    let layout = RamPmLayout::new(machine, initial_mem.len());
    layout.load_memory(machine, initial_mem);
    let report = simulate_ram_on_pm(machine, prog, layout, max_steps)
        .expect("single-processor RAM simulation hard-faulted");
    let pm_mem = layout.read_memory(machine, initial_mem.len());
    (native, report, pm_mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ram::programs::*;
    use ppm_pm::{FaultConfig, PmConfig};

    fn machine(f: FaultConfig) -> Machine {
        Machine::new(PmConfig::parallel(1, 1 << 20).with_fault(f))
    }

    #[test]
    fn pm_simulation_matches_native_sum() {
        let m = machine(FaultConfig::none());
        let n = 50;
        let mut init: Vec<i64> = (0..n as i64).collect();
        init.push(0);
        let (native, report, pm_mem) = run_both(&m, &sum_array(n), &init, 1 << 20);
        assert!(native.halted && report.halted);
        assert_eq!(pm_mem[n], (0..n as i64).sum::<i64>());
        assert_eq!(report.regs, native.regs);
    }

    #[test]
    fn pm_simulation_matches_native_under_soft_faults() {
        for seed in 0..5 {
            let m = machine(FaultConfig::soft(0.02, seed));
            let mut init: Vec<i64> = (0..30).collect();
            init.push(0);
            let (native, report, pm_mem) = run_both(&m, &sum_array(30), &init, 1 << 20);
            assert!(report.halted, "seed {seed}");
            assert_eq!(report.regs, native.regs, "seed {seed}");
            assert_eq!(pm_mem[30], (0..30).sum::<i64>(), "seed {seed}");
            assert!(m.snapshot().soft_faults > 0, "seed {seed}");
        }
    }

    #[test]
    fn capsule_work_is_constant() {
        let m = machine(FaultConfig::none());
        let mut init: Vec<i64> = (0..40).collect();
        init.push(0);
        let _ = run_both(&m, &sum_array(40), &init, 1 << 20);
        let c = m.snapshot().max_capsule_work;
        // NREGS+2 reads + 1 sim transfer + NREGS+3 writes + install ≤ 24.
        assert!(c <= 24, "max capsule work {c} should be a small constant");
        assert!(c >= 10);
    }

    #[test]
    fn total_work_is_linear_in_t_with_faults() {
        // Theorem 3.2's bound: expected total work O(t), constant factor.
        let work_for = |n: usize, f: f64| -> (u64, u64) {
            let m = machine(if f == 0.0 {
                FaultConfig::none()
            } else {
                FaultConfig::soft(f, 99)
            });
            let mut init: Vec<i64> = (0..n as i64).collect();
            init.push(0);
            let (native, _, _) = run_both(&m, &sum_array(n), &init, 1 << 22);
            (native.steps, m.snapshot().total_work())
        };
        let (t, w0) = work_for(200, 0.0);
        let (_, wf) = work_for(200, 0.01);
        // Faultless: ~21 transfers/step. With f = 0.01 the overhead must
        // stay a small constant factor.
        assert!(
            w0 as f64 / t as f64 <= 25.0,
            "w0/t = {}",
            w0 as f64 / t as f64
        );
        assert!(
            (wf as f64) < 1.8 * w0 as f64,
            "faulty work {wf} should be within a small factor of faultless {w0}"
        );
    }

    #[test]
    #[should_panic(expected = "one RAM simulation per machine")]
    fn a_second_program_on_one_machine_is_refused() {
        let m = machine(FaultConfig::none());
        let _ = run_both(&m, &memset(4, 1), &[0; 4], 64);
        let _ = run_both(&m, &memset(4, 2), &[0; 4], 64);
    }

    #[test]
    fn memset_on_pm_writes_all_words() {
        let m = machine(FaultConfig::soft(0.05, 3));
        let init = vec![0i64; 32];
        let (_, report, pm_mem) = run_both(&m, &memset(32, 9), &init, 1 << 20);
        assert!(report.halted);
        assert!(pm_mem.iter().all(|&v| v == 9), "{pm_mem:?}");
    }

    #[test]
    fn fib_on_pm() {
        let m = machine(FaultConfig::soft(0.03, 17));
        let init = vec![0i64; 4];
        let (_, report, pm_mem) = run_both(&m, &fib(20), &init, 1 << 20);
        assert!(report.halted);
        assert_eq!(pm_mem[0], 6765);
    }
}
