//! Theorem 3.4: simulating the ideal-cache model on the PM model.
//!
//! "During each simulation capsule a simulated cache of size 2M/B blocks is
//! maintained in the ephemeral memory. The capsule starts by loading the
//! registers, and with an empty cache. During simulation, entries are never
//! evicted, but instead the simulation stops when the cache runs out of
//! space ... The capsule then writes out all dirty cache lines (together
//! with the corresponding persistent memory address for each cache line) to
//! a buffer in persistent memory, saves the registers and installs the
//! commit capsule. The commit capsule reads in the buffer, writes out all
//! the dirty cache lines to their correct locations, and installs the next
//! simulation capsule."
//!
//! The "registers" here are the trace position and the count of spilled
//! lines, saved in two persistent copies that alternate between rounds.
//! The capsules are four registered frames written once at setup — a
//! simulation and a commit frame per copy, each naming its successor.
//! Each round's capsule work is O(M/B); each round advances the trace
//! past at least M/B ideal-cache misses, giving the theorem's O(t)
//! expected total work.

use std::collections::HashMap;

use ppm_core::dsl::{CapsuleDef, CapsuleSet, Step, K};
use ppm_core::Machine;
use ppm_pm::{Fault, Region, Word};

use crate::cache::AccessPattern;

ppm_core::persist_struct! {
    /// Persistent layout for the cache simulation.
    pub struct CachePmLayout {
        /// The simulated address space.
        pub data: Region,
        /// Dirty-line buffer: block numbers (one word per entry).
        buf_meta: Region,
        /// Dirty-line buffer: block contents (B words per entry).
        buf_data: Region,
        /// Two register copies: the trace position, and the lines spilled
        /// by the round that wrote the copy.
        regs: [Region; 2],
        /// Simulated cache capacity in blocks (2M/B).
        cap_blocks: usize,
        b: usize,
    }
}

/// The simulation capsule's name; its code is the trace being simulated.
const SIMULATE: &str = "cache-pm/simulate";

/// A round frame's state: the layout and the register copy it reads.
type RoundState = (CachePmLayout, usize);

impl CachePmLayout {
    /// Carves the layout: a simulated address space of `data_words`, and a
    /// buffer sized for a 2M/B-block capsule cache. The machine's block
    /// size is the simulated `B`.
    pub fn new(machine: &Machine, data_words: usize, m: usize) -> Self {
        let b = machine.cfg().block_size;
        let cap_blocks = (2 * m / b).max(1);
        CachePmLayout {
            data: machine.alloc_region(data_words),
            buf_meta: machine.alloc_region(cap_blocks),
            buf_data: machine.alloc_region(cap_blocks * b),
            regs: [machine.alloc_region(2), machine.alloc_region(2)],
            cap_blocks,
            b,
        }
    }

    /// Reads the simulated memory back (oracle).
    pub fn read_memory(&self, machine: &Machine, len: usize) -> Vec<Word> {
        (0..len)
            .map(|i| machine.mem().load(self.data.at(i)))
            .collect()
    }
}

/// Registers the simulation capsule of `pattern` — one round replaying
/// accesses from the position in `regs[parity]` with an empty no-evict
/// cache, stopping at capacity or end of trace and spilling dirty lines —
/// and the commit capsule.
fn register(
    machine: &Machine,
    pattern: &AccessPattern,
) -> (CapsuleDef<RoundState>, CapsuleDef<RoundState>) {
    let pattern = pattern.clone();
    let len = pattern.len();
    let mut set = CapsuleSet::new(machine);
    let simulate = set.define(
        SIMULATE,
        move |&(layout, parity): &RoundState, commit, ctx| {
            let b = layout.b;
            // block -> line contents; insertion order preserved separately for
            // deterministic buffer layout.
            let mut lines: HashMap<usize, Vec<Word>> = HashMap::new();
            let mut order: Vec<usize> = Vec::new();
            let mut dirty: HashMap<usize, bool> = HashMap::new();
            let mut i = ctx.pread(layout.regs[parity].at(0))? as usize;
            while i < len {
                let (addr, write, value) = pattern.access(i);
                let blk = addr / b;
                if !lines.contains_key(&blk) {
                    if lines.len() == layout.cap_blocks {
                        break; // cache full: close the capsule
                    }
                    let mut buf = vec![0u64; b];
                    ctx.read_block_into(layout.data.start + blk * b, &mut buf)?;
                    lines.insert(blk, buf);
                    order.push(blk);
                    dirty.insert(blk, false);
                }
                if write {
                    lines.get_mut(&blk).expect("resident")[addr % b] = value;
                    dirty.insert(blk, true);
                }
                i += 1;
            }
            // Spill dirty lines (with their block numbers) to the buffer.
            let mut n_dirty = 0usize;
            for blk in &order {
                if dirty[blk] {
                    ctx.pwrite(layout.buf_meta.at(n_dirty), *blk as Word)?;
                    ctx.write_block(layout.buf_data.start + n_dirty * b, &lines[blk])?;
                    n_dirty += 1;
                }
            }
            let next = [i as Word, n_dirty as Word];
            ctx.write_block(layout.regs[1 - parity].start, &next)?;
            Ok(Step::Jump(commit))
        },
    );
    // The commit round: apply the lines the round that wrote
    // `regs[parity]` spilled, then continue with that copy's simulation
    // frame (or finish).
    let commit = set.define(
        "cache-pm/commit",
        move |&(layout, parity): &RoundState, simulate, ctx| {
            let b = layout.b;
            let mut regs = [0; 2];
            ctx.read_block_into(layout.regs[parity].start, &mut regs)?;
            let [next_pos, n_dirty] = regs.map(|w| w as usize);
            for k in 0..n_dirty {
                let blk = ctx.pread(layout.buf_meta.at(k))? as usize;
                let mut buf = vec![0u64; b];
                ctx.read_block_into(layout.buf_data.start + k * b, &mut buf)?;
                ctx.write_block(layout.data.start + blk * b, &buf)?;
            }
            Ok(if next_pos >= len {
                Step::End
            } else {
                Step::Jump(simulate)
            })
        },
    );
    (simulate, commit)
}

/// Simulates the trace on the PM model (processor 0), with the machine's
/// fault configuration active. `Err` only on a hard fault.
///
/// # Panics
/// Panics if `machine` already ran a cache simulation: the trace is the
/// simulation capsule's registered code, and a registry keeps the first.
pub fn simulate_cache_on_pm(
    machine: &Machine,
    pattern: &AccessPattern,
    layout: CachePmLayout,
) -> Result<(), Fault> {
    let registered = machine.registry().id_of(SIMULATE);
    assert!(registered.is_none(), "one cache simulation per machine");
    let (simulate, commit) = register(machine, pattern);
    // simulate[0] -> commit[1] -> simulate[1] -> commit[0] -> simulate[0].
    let sim0 = simulate.setup(machine, &(layout, 0), K(0));
    let commit0 = commit.setup(machine, &(layout, 0), sim0);
    let sim1 = simulate.setup(machine, &(layout, 1), commit0);
    let commit1 = commit.setup(machine, &(layout, 1), sim1);
    crate::run_cycle::<RoundState>(machine, sim0, commit1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{run_native_cache, AccessPattern};
    use ppm_pm::{FaultConfig, PmConfig};

    fn machine(f: FaultConfig, b: usize, m_eph: usize) -> Machine {
        Machine::new(
            PmConfig::parallel(1, 1 << 20)
                .with_block_size(b)
                .with_ephemeral_words(m_eph)
                .with_fault(f),
        )
    }

    fn check_pattern(pattern: AccessPattern, m: usize, b: usize, f: FaultConfig) {
        let range = pattern.address_range();
        let mach = machine(f, b, m);
        let layout = CachePmLayout::new(&mach, range.next_multiple_of(b), m);
        simulate_cache_on_pm(&mach, &pattern, layout).unwrap();
        let pm_mem = layout.read_memory(&mach, range);

        let mut native_mem = vec![0u64; range];
        let native = run_native_cache(&pattern, m, b, &mut native_mem);
        assert_eq!(pm_mem, native_mem, "final memories must agree");

        // Theorem 3.4's shape: PM total work within a constant factor of
        // native misses (each round costs O(M/B) and covers >= M/B misses).
        let work = mach.snapshot().total_work();
        assert!(
            work <= 8 * native.misses.max(1) + 4 * (2 * m / b) as u64,
            "work {work} vs misses {} out of O(t) shape",
            native.misses
        );
    }

    #[test]
    fn seq_scan_matches_native() {
        check_pattern(
            AccessPattern::SeqScan { n: 256 },
            64,
            8,
            FaultConfig::none(),
        );
    }

    #[test]
    fn random_matches_native() {
        check_pattern(
            AccessPattern::Random {
                n: 500,
                range: 128,
                seed: 3,
            },
            64,
            8,
            FaultConfig::none(),
        );
    }

    #[test]
    fn strided_matches_native_under_faults() {
        // f <= B/(cM): 8/(2*64) = 0.0625; use something smaller.
        check_pattern(
            AccessPattern::Strided {
                n: 400,
                stride: 7,
                range: 128,
            },
            64,
            8,
            FaultConfig::soft(0.01, 42),
        );
    }

    #[test]
    fn seq_scan_matches_native_under_faults() {
        for seed in 0..3 {
            check_pattern(
                AccessPattern::SeqScan { n: 128 },
                32,
                8,
                FaultConfig::soft(0.02, seed),
            );
        }
    }

    #[test]
    fn capsule_work_is_bounded_by_o_m_over_b() {
        let (m, b) = (64usize, 8usize);
        let mach = machine(FaultConfig::none(), b, m);
        let pattern = AccessPattern::Random {
            n: 2000,
            range: 512,
            seed: 1,
        };
        let layout = CachePmLayout::new(&mach, 512, m);
        simulate_cache_on_pm(&mach, &pattern, layout).unwrap();
        let c = mach.snapshot().max_capsule_work;
        // Reads <= 2M/B, spills <= 2 * 2M/B, commit <= 2 * 2M/B + installs.
        let bound = (6 * 2 * m / b + 8) as u64;
        assert!(c <= bound, "capsule work {c} exceeds O(M/B) bound {bound}");
    }
}
