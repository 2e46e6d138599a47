//! Theorem 3.3: simulating the external-memory machine on the PM model.
//!
//! "The simulation consists of rounds each of which has a simulation
//! capsule and a commit capsule. ... The simulation capsule simulates some
//! number of steps of the source program. It starts by reading in one of
//! the two copies of the ephemeral memory and registers. Then during the
//! simulation ... writes from the ephemeral memory to the persistent
//! memory ... are buffered in the ephemeral memory. This means that all
//! reads from the external memory have to first check the buffer. ...
//! When this count reaches M/B, the simulation closes the capsule ... by
//! writing out the simulated ephemeral memory, the registers, and the
//! write buffer ... The commit capsule reads in the write buffer ... and
//! applies all the writes."
//!
//! Each round costs O(M/B) transfers and simulates M/B source transfers,
//! so the faultless work is O(t); with `f ≤ B/(cM)` each round faults with
//! constant probability and the expected total work stays O(t).
//!
//! The capsules are four registered frames written once at setup — a
//! simulation and a commit frame per copy, each naming its successor — so
//! a round writes no frame. What a commit needs from the round before it
//! (the dirty-block count, whether the program halted) is in the copy's
//! metadata block, written with the registers.

use std::collections::HashMap;

use ppm_core::dsl::{CapsuleDef, CapsuleSet, Step, K};
use ppm_core::Machine;
use ppm_pm::{Fault, ProcCtx, Region, Word};

use crate::em::{em_step, BlockPort, EmInstr, EmProgram};
use crate::ram::{from_word, to_word};

/// Zero-cost instructions executed per round before closing anyway (a
/// guard so compute-only loops cannot produce unbounded capsules; the cost
/// model is unaffected because those instructions are free).
const INSTR_ROUND_CAP: u64 = 4096;

/// Copy-region metadata slots (in the first block of each copy).
const PC_SLOT: usize = 0;
const HALT_SLOT: usize = 1;
const INSTRS_SLOT: usize = 2;
/// Write-buffer entries the round that wrote the copy left to commit.
const DIRTY_SLOT: usize = 3;

ppm_core::persist_struct! {
    /// Persistent layout for the EM simulation.
    pub struct EmPmLayout {
        /// Two copies of (metadata block + simulated ephemeral memory).
        copies: [Region; 2],
        /// Write-buffer block numbers.
        buf_meta: Region,
        /// Write-buffer block contents.
        buf_data: Region,
        /// The simulated external memory.
        pub ext: Region,
        /// Simulated M (words) and B (words).
        m: usize,
        b: usize,
    }
}

/// The simulation capsule's name; its code is the program being simulated.
const SIMULATE: &str = "em-pm/simulate";

/// A simulation frame's state: the layout, the copy it reads, the
/// instruction limit.
type SimState = (EmPmLayout, usize, u64);

impl EmPmLayout {
    /// Carves the layout for a program with ephemeral size `m` (the
    /// machine's block size must equal the program's `B`) and an external
    /// memory of `ext_words`.
    pub fn new(machine: &Machine, prog: &EmProgram, ext_words: usize) -> Self {
        let b = machine.cfg().block_size;
        assert_eq!(
            b, prog.b,
            "machine block size must match the EM program's B"
        );
        assert!(b > DIRTY_SLOT, "a copy's metadata block holds four words");
        let m = prog.m;
        let copy_words = b + m; // one metadata block + M ephemeral words
        let buf_entries = (m / b).max(1) + 1;
        EmPmLayout {
            copies: [
                machine.alloc_region(copy_words),
                machine.alloc_region(copy_words),
            ],
            buf_meta: machine.alloc_region(buf_entries),
            buf_data: machine.alloc_region(buf_entries * b),
            ext: machine.alloc_region(ext_words),
            m,
            b,
        }
    }

    /// Loads the simulated external memory (uncosted setup).
    pub fn load_ext(&self, machine: &Machine, contents: &[i64]) {
        assert!(contents.len() <= self.ext.len);
        for (i, v) in contents.iter().enumerate() {
            machine.mem().store(self.ext.at(i), to_word(*v));
        }
    }

    /// Reads the simulated external memory back (oracle).
    pub fn read_ext(&self, machine: &Machine, len: usize) -> Vec<i64> {
        (0..len)
            .map(|i| from_word(machine.mem().load(self.ext.at(i))))
            .collect()
    }
}

/// Report of a PM-model EM simulation.
#[derive(Debug, Clone, Copy)]
pub struct EmPmReport {
    /// Whether the program halted (vs. the instruction limit).
    pub halted: bool,
    /// Simulated instructions executed.
    pub instructions: u64,
}

/// The buffered external-memory port of the simulation capsule.
struct BufferedPort<'a, 'c> {
    ctx: &'a mut ProcCtx,
    ext: Region,
    b: usize,
    buffer: &'a mut HashMap<usize, Vec<i64>>,
    order: &'a mut Vec<usize>,
    fault: &'a mut Option<Fault>,
    _marker: std::marker::PhantomData<&'c ()>,
}

impl BlockPort for BufferedPort<'_, '_> {
    fn read_block(&mut self, blk: usize, buf: &mut [i64]) {
        if self.fault.is_some() {
            return;
        }
        if let Some(data) = self.buffer.get(&blk) {
            buf.copy_from_slice(data);
            return;
        }
        let mut words = vec![0u64; self.b];
        match self
            .ctx
            .read_block_into(self.ext.start + blk * self.b, &mut words)
        {
            Ok(()) => {
                for (d, w) in buf.iter_mut().zip(&words) {
                    *d = from_word(*w);
                }
            }
            Err(f) => *self.fault = Some(f),
        }
    }

    fn write_block(&mut self, blk: usize, data: &[i64]) {
        if self.fault.is_some() {
            return;
        }
        if self.buffer.insert(blk, data.to_vec()).is_none() {
            self.order.push(blk);
        }
    }
}

fn read_copy(
    ctx: &mut ProcCtx,
    copy: Region,
    m: usize,
    b: usize,
) -> Result<(usize, bool, u64, Vec<i64>), Fault> {
    let mut meta = vec![0u64; b.min(copy.len)];
    ctx.read_block_into(copy.start, &mut meta)?;
    let mut eph = vec![0i64; m];
    let mut blkbuf = vec![0u64; b];
    for blk in 0..m.div_ceil(b) {
        let start = copy.start + b + blk * b;
        let words = (m - blk * b).min(b);
        ctx.read_block_into(start, &mut blkbuf[..words])?;
        for j in 0..words {
            eph[blk * b + j] = from_word(blkbuf[j]);
        }
    }
    Ok((
        meta[PC_SLOT] as usize,
        meta[HALT_SLOT] != 0,
        meta[INSTRS_SLOT],
        eph,
    ))
}

/// Writes a copy: its metadata block (`meta` is `[pc, halted, instrs,
/// dirty]`) and the simulated ephemeral memory.
fn write_copy(
    ctx: &mut ProcCtx,
    copy: Region,
    [pc, halted, instrs, dirty]: [Word; 4],
    eph: &[i64],
    b: usize,
) -> Result<(), Fault> {
    let mut meta = vec![0u64; b];
    meta[..4].copy_from_slice(&[pc, halted, instrs, dirty]);
    ctx.write_block(copy.start, &meta)?;
    let m = eph.len();
    let mut blkbuf = vec![0u64; b];
    for blk in 0..m.div_ceil(b) {
        let words = (m - blk * b).min(b);
        for j in 0..words {
            blkbuf[j] = to_word(eph[blk * b + j]);
        }
        ctx.write_block(copy.start + b + blk * b, &blkbuf[..words])?;
    }
    Ok(())
}

/// Registers the simulation capsule of `prog` — one round starting from
/// `copies[parity]`, continuing with the commit frame of the other copy —
/// and the commit capsule.
fn register(
    machine: &Machine,
    prog: &EmProgram,
) -> (CapsuleDef<SimState>, CapsuleDef<(EmPmLayout, usize)>) {
    let prog = prog.clone();
    let mut set = CapsuleSet::new(machine);
    let simulate = set.define(
        SIMULATE,
        move |&(layout, parity, max_instrs): &SimState, commit, ctx| {
            let (m, b) = (layout.m, layout.b);
            let round_budget = (m / b).max(1) as u64;
            let (mut pc, _, total0, mut eph) = read_copy(ctx, layout.copies[parity], m, b)?;

            let mut buffer: HashMap<usize, Vec<i64>> = HashMap::new();
            let mut order: Vec<usize> = Vec::new();
            let mut fault: Option<Fault> = None;
            let mut transfers = 0u64;
            let mut executed = 0u64;
            let mut halted = false;

            loop {
                if total0 + executed >= max_instrs {
                    halted = true; // treat the limit as termination
                    break;
                }
                let Some(&instr) = prog.instrs.get(pc) else {
                    halted = true;
                    break;
                };
                let is_transfer = matches!(
                    instr,
                    EmInstr::ReadBlock { .. } | EmInstr::WriteBlock { .. }
                );
                if is_transfer && transfers >= round_budget {
                    break; // close the round before the next transfer
                }
                let cont = {
                    let mut port = BufferedPort {
                        ctx,
                        ext: layout.ext,
                        b,
                        buffer: &mut buffer,
                        order: &mut order,
                        fault: &mut fault,
                        _marker: std::marker::PhantomData,
                    };
                    em_step(instr, &mut eph, &mut pc, b, &mut port)
                };
                if let Some(f) = fault {
                    return Err(f);
                }
                if is_transfer {
                    transfers += 1;
                }
                executed += 1;
                if !cont {
                    halted = true;
                    break;
                }
                if executed >= INSTR_ROUND_CAP {
                    break;
                }
            }

            // Close the round: other copy, then the write buffer.
            let meta = [
                pc as Word,
                halted as Word,
                total0 + executed,
                order.len() as Word,
            ];
            write_copy(ctx, layout.copies[1 - parity], meta, &eph, b)?;
            let mut blkbuf = vec![0u64; b];
            for (k, blk) in order.iter().enumerate() {
                ctx.pwrite(layout.buf_meta.at(k), *blk as Word)?;
                for (j, v) in buffer[blk].iter().enumerate() {
                    blkbuf[j] = to_word(*v);
                }
                ctx.write_block(layout.buf_data.start + k * b, &blkbuf)?;
            }
            Ok(Step::Jump(commit))
        },
    );
    // The commit capsule: apply the buffered external writes the round
    // that wrote `copies[parity]` left, then continue with that copy's
    // simulation frame (or finish).
    let commit = set.define(
        "em-pm/commit",
        move |&(layout, parity): &(EmPmLayout, usize), simulate, ctx| {
            let b = layout.b;
            let mut buf = vec![0u64; b];
            ctx.read_block_into(layout.copies[parity].start, &mut buf[..=DIRTY_SLOT])?;
            let (halted, n_dirty) = (buf[HALT_SLOT] != 0, buf[DIRTY_SLOT] as usize);
            for k in 0..n_dirty {
                let blk = ctx.pread(layout.buf_meta.at(k))? as usize;
                ctx.read_block_into(layout.buf_data.start + k * b, &mut buf)?;
                ctx.write_block(layout.ext.start + blk * b, &buf)?;
            }
            Ok(if halted {
                Step::End
            } else {
                Step::Jump(simulate)
            })
        },
    );
    (simulate, commit)
}

/// Simulates `prog` on the PM model (processor 0), with the machine's
/// fault configuration active. `Err` only on a hard fault.
///
/// # Panics
/// Panics if `machine` already ran an EM simulation: the program is the
/// simulation capsule's registered code, and a registry keeps the first.
pub fn simulate_em_on_pm(
    machine: &Machine,
    prog: &EmProgram,
    layout: EmPmLayout,
    max_instrs: u64,
) -> Result<EmPmReport, Fault> {
    let registered = machine.registry().id_of(SIMULATE);
    assert!(registered.is_none(), "one EM simulation per machine");
    let (simulate, commit) = register(machine, prog);
    // simulate[0] -> commit[1] -> simulate[1] -> commit[0] -> simulate[0].
    let sim0 = simulate.setup(machine, &(layout, 0, max_instrs), K(0));
    let commit0 = commit.setup(machine, &(layout, 0), sim0);
    let sim1 = simulate.setup(machine, &(layout, 1, max_instrs), commit0);
    let commit1 = commit.setup(machine, &(layout, 1), sim1);
    crate::run_cycle::<SimState>(machine, sim0, commit1)?;

    // Read the freshest copy.
    let mem = machine.mem();
    let pick = if mem.load(layout.copies[0].at(INSTRS_SLOT))
        >= mem.load(layout.copies[1].at(INSTRS_SLOT))
    {
        layout.copies[0]
    } else {
        layout.copies[1]
    };
    Ok(EmPmReport {
        halted: mem.load(pick.at(HALT_SLOT)) != 0,
        instructions: mem.load(pick.at(INSTRS_SLOT)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::programs::{block_reverse, block_sum_built};
    use crate::em::run_native_em;
    use ppm_pm::{FaultConfig, PmConfig};

    fn machine(f: FaultConfig, b: usize) -> Machine {
        Machine::new(
            PmConfig::parallel(1, 1 << 20)
                .with_block_size(b)
                .with_fault(f),
        )
    }

    fn check(prog: EmProgram, init_ext: Vec<i64>, f: FaultConfig) -> (u64, u64) {
        let mach = machine(f, prog.b);
        let layout = EmPmLayout::new(&mach, &prog, init_ext.len());
        layout.load_ext(&mach, &init_ext);
        let report = simulate_em_on_pm(&mach, &prog, layout, 1 << 22).unwrap();
        assert!(report.halted);
        let pm_ext = layout.read_ext(&mach, init_ext.len());

        let mut native_ext = init_ext.clone();
        let native = run_native_em(&prog, &mut native_ext, 1 << 22);
        assert!(native.halted);
        assert_eq!(pm_ext, native_ext, "external memories must agree");
        assert_eq!(report.instructions, native.instructions);
        (native.transfers, mach.snapshot().total_work())
    }

    #[test]
    fn block_sum_matches_native() {
        let (nb, m, b) = (8usize, 64usize, 8usize);
        let ext: Vec<i64> = (0..((nb + 1) * b) as i64).collect();
        let (t, work) = check(block_sum_built(nb, m, b), ext, FaultConfig::none());
        assert!(t > 0 && work > 0);
    }

    #[test]
    fn block_reverse_matches_native() {
        let (nb, m, b) = (4usize, 32usize, 8usize);
        let ext: Vec<i64> = (0..(2 * nb * b) as i64).collect();
        let _ = check(block_reverse(nb, m, b), ext, FaultConfig::none());
    }

    #[test]
    fn block_sum_matches_native_under_faults() {
        // f <= B/(cM) = 8/(2*64) = 1/16; use 0.01.
        for seed in 0..3 {
            let (nb, m, b) = (8usize, 64usize, 8usize);
            let ext: Vec<i64> = (0..((nb + 1) * b) as i64).collect();
            let _ = check(
                block_sum_built(nb, m, b),
                ext,
                FaultConfig::soft(0.01, seed),
            );
        }
    }

    #[test]
    fn total_work_scales_linearly_with_t() {
        let (m, b) = (64usize, 8usize);
        let run = |nb: usize| {
            let ext: Vec<i64> = vec![1; (nb + 1) * b];
            check(block_sum_built(nb, m, b), ext, FaultConfig::none())
        };
        let (t1, w1) = run(16);
        let (t2, w2) = run(32);
        let cost_ratio = (w2 as f64 / t2 as f64) / (w1 as f64 / t1 as f64);
        assert!(
            (0.5..2.0).contains(&cost_ratio),
            "per-transfer cost should be stable: {cost_ratio}"
        );
    }
}
