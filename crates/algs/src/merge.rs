//! Parallel merging (§7, Theorem 7.2).
//!
//! "The algorithm conducts dual binary searches of the arrays in parallel
//! to find the elements ranked {n^{2/3}, 2n^{2/3}, ...} among the set of
//! keys from both arrays, and recurses on each pair of subarrays until the
//! base case when there are no more than B elements left. We put each of
//! the binary searches into a capsule, as well as each base case."
//!
//! The merge capsule (its body lives with the mergesort family in
//! [`crate::sort`]) splits *binary* at the median rank — one dual binary
//! search per split capsule — instead of k ≈ n^{1/3} ways, which would
//! need a variable-width fan-out frame. Work stays O(n/B + split-search
//! terms); depth grows to O(log² n) inside a merge.
//!
//! [`Merge::pcomp`] registers that body as `merge/node` with the paper's
//! base case, `B` elements (`base_size`), so this entry point runs at
//! Theorem 7.2's `C = O(log n)`. The sorts register the same body as
//! `msort/merge` with a Θ(M)-element base case (Theorem 7.3's
//! `C = O(M/B)`).
//!
//! Every capsule writes output locations disjoint from what it reads —
//! write-after-read conflict free. A binary-search capsule performs
//! O(log n) word reads, which is the Theorem 7.2 maximum capsule work;
//! base cases are O(1) block transfers.

use std::sync::Arc;

use ppm_core::dsl::{CapsuleSet, K};
use ppm_core::persist::{Persist, ValueError, WordReader, WordSink};
use ppm_core::{Machine, PComp};
use ppm_pm::{Addr, PmResult, ProcCtx, Region, Word};

/// A range of a persistent region holding a sorted run of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub region: Region,
    pub lo: usize,
    pub hi: usize,
}

impl Run {
    pub(crate) fn len(&self) -> usize {
        self.hi - self.lo
    }
    fn at(&self, i: usize) -> Addr {
        self.region.at(self.lo + i)
    }
}

/// Runs ride inside mergesort/samplesort frame states.
impl Persist for Run {
    const WORDS: usize = Region::WORDS + 2;
    fn encode(&self, out: &mut impl WordSink) {
        self.region.encode(out);
        self.lo.encode(out);
        self.hi.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        Ok(Run {
            region: Region::decode(r)?,
            lo: usize::decode(r)?,
            hi: usize::decode(r)?,
        })
    }

    fn pool_refs(&self, out: &mut ppm_core::PoolRefs) {
        self.region.pool_refs(out);
    }
}

/// Base-case size: merge sequentially once `≤ B` elements remain (the
/// paper's rule; a floor of 2 keeps degenerate B = 1 configurations from
/// recursing on single elements forever).
pub(crate) fn base_size(b: usize) -> usize {
    b.max(2)
}

/// Dual binary search: the number of elements `sa` to take from `a` such
/// that `(sa, r - sa)` splits the merged order at rank `r`. O(log) costed
/// word reads.
pub(crate) fn split_rank(ctx: &mut ProcCtx, a: Run, b: Run, r: usize) -> PmResult<usize> {
    let (na, nb) = (a.len(), b.len());
    debug_assert!(r <= na + nb);
    let mut lo = r.saturating_sub(nb);
    let mut hi = r.min(na);
    while lo < hi {
        let sa = (lo + hi) / 2; // sa < hi <= min(r, na) ⇒ a[sa] and b[r-sa-1] valid
        let sb = r - sa; // sb >= r - hi + 1 >= 1
        let av = ctx.pread(a.at(sa))?;
        let bv = ctx.pread(b.at(sb - 1))?;
        if av < bv {
            lo = sa + 1;
        } else {
            hi = sa;
        }
    }
    Ok(lo)
}

/// A merge instance: two sorted input arrays and the output.
#[derive(Debug, Clone, Copy)]
pub struct Merge {
    /// First sorted input (length `la`).
    pub a: Region,
    /// Second sorted input (length `lb`).
    pub b: Region,
    /// Output (length `la + lb`).
    pub out: Region,
    la: usize,
    lb: usize,
}

impl Merge {
    /// Carves regions for merging arrays of lengths `la` and `lb`.
    pub fn new(machine: &Machine, la: usize, lb: usize) -> Self {
        Merge {
            a: machine.alloc_region(la.max(1)),
            b: machine.alloc_region(lb.max(1)),
            out: machine.alloc_region((la + lb).max(1)),
            la,
            lb,
        }
    }

    /// Loads both inputs (uncosted setup). Each must be sorted.
    pub fn load_inputs(&self, machine: &Machine, a: &[Word], b: &[Word]) {
        assert_eq!((a.len(), b.len()), (self.la, self.lb));
        debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "input a must be sorted");
        debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "input b must be sorted");
        machine.mem().write_range(self.a.start, a);
        machine.mem().write_range(self.b.start, b);
    }

    /// Reads the merged output (oracle).
    pub fn read_output(&self, machine: &Machine) -> Vec<Word> {
        machine.mem().to_vec(self.out.start, self.la + self.lb)
    }

    /// The merging computation as registered persistent capsules, for
    /// `ppm_sched::Runtime::run_or_recover` (reuses the mergesort
    /// family's merge capsule — a binary median-rank split, see the
    /// [module docs](self)). An empty merge's root is the finale itself.
    pub fn pcomp(&self) -> PComp {
        let s = *self;
        Arc::new(move |machine: &Machine, finale: Word| {
            let mut set = CapsuleSet::new(machine);
            let merge = crate::sort::declare_merge(&mut set, "merge/node", |ctx| {
                base_size(ctx.block_size())
            });
            if s.la + s.lb == 0 {
                return finale;
            }
            merge
                .setup(
                    machine,
                    &crate::sort::MergeState {
                        a: Run {
                            region: s.a,
                            lo: 0,
                            hi: s.la,
                        },
                        b: Run {
                            region: s.b,
                            lo: 0,
                            hi: s.lb,
                        },
                        out: s.out,
                        olo: 0,
                    },
                    K(finale),
                )
                .word()
        })
    }
}

/// Sequential oracle.
pub fn merge_seq(a: &[Word], b: &[Word]) -> Vec<Word> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_pm::{FaultConfig, PmConfig};
    use ppm_sched::{Runtime, SchedConfig};

    fn sorted(seed: u64, n: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9).wrapping_add(seed);
                (x ^ (x >> 13)) % 10_000
            })
            .collect();
        v.sort_unstable();
        v
    }

    fn runtime(procs: usize, f: FaultConfig) -> Runtime {
        Runtime::new(
            Machine::new(PmConfig::parallel(procs, 1 << 22).with_fault(f)),
            SchedConfig::with_slots(1 << 13),
        )
    }

    /// Pool sized for the un-reclaimed frames of 2n = 2^13 (~7 per word).
    fn theorem_runtime() -> Runtime {
        crate::util::theorem_runtime(PmConfig::parallel(1, 1 << 22), 1 << 17)
    }

    fn check_registered(la: usize, lb: usize, procs: usize, f: FaultConfig) {
        let rt = runtime(procs, f);
        let mg = Merge::new(rt.machine(), la, lb);
        let (a, b) = (sorted(3, la), sorted(4, lb));
        mg.load_inputs(rt.machine(), &a, &b);
        let rep = rt.run_or_recover(&mg.pcomp());
        assert!(rep.completed());
        assert_eq!(
            mg.read_output(rt.machine()),
            merge_seq(&a, &b),
            "registered la={la} lb={lb}"
        );
    }

    #[test]
    fn registered_merge_matches_oracle() {
        check_registered(0, 0, 1, FaultConfig::none());
        check_registered(0, 5, 1, FaultConfig::none());
        check_registered(16, 16, 1, FaultConfig::none());
        check_registered(1000, 10, 2, FaultConfig::none());
        check_registered(1 << 11, 1 << 11, 4, FaultConfig::none());
    }

    #[test]
    fn registered_merge_with_soft_faults() {
        check_registered(400, 400, 2, FaultConfig::soft(0.005, 13));
    }

    #[test]
    fn tiny_and_base_cases() {
        check_registered(5, 0, 1, FaultConfig::none());
        check_registered(3, 3, 1, FaultConfig::none());
    }

    #[test]
    fn uneven_sizes() {
        check_registered(10, 1000, 2, FaultConfig::none());
    }

    #[test]
    fn duplicate_heavy() {
        let rt = runtime(2, FaultConfig::none());
        let mg = Merge::new(rt.machine(), 300, 300);
        let a = vec![5u64; 300];
        let mut b = vec![5u64; 300];
        b[299] = 6;
        mg.load_inputs(rt.machine(), &a, &b);
        let rep = rt.run_or_recover(&mg.pcomp());
        assert!(rep.completed());
        assert_eq!(mg.read_output(rt.machine()), merge_seq(&a, &b));
    }

    #[test]
    fn with_soft_faults() {
        for seed in 0..3 {
            check_registered(400, 400, 2, FaultConfig::soft(0.005, seed));
        }
    }

    #[test]
    fn with_a_hard_fault() {
        check_registered(
            512,
            512,
            3,
            FaultConfig::none().with_scheduled_hard_fault(2, 200),
        );
    }

    #[test]
    fn work_is_linear_in_n() {
        let work = |n: usize| {
            let rt = theorem_runtime();
            let mg = Merge::new(rt.machine(), n, n);
            mg.load_inputs(rt.machine(), &sorted(1, n), &sorted(2, n));
            let rep = rt.run_or_recover(&mg.pcomp());
            assert!(rep.completed());
            rep.stats().total_work()
        };
        let (w1, w2) = (work(1 << 10), work(1 << 12));
        let ratio = w2 as f64 / w1 as f64;
        assert!(
            (3.0..6.0).contains(&ratio),
            "4x data should be ~4x work (plus lower-order search terms), got {ratio}"
        );
    }

    #[test]
    fn capsule_work_is_logarithmic() {
        let rt = theorem_runtime();
        let n = 1 << 12;
        let mg = Merge::new(rt.machine(), n, n);
        mg.load_inputs(rt.machine(), &sorted(1, n), &sorted(2, n));
        let rep = rt.run_or_recover(&mg.pcomp());
        assert!(rep.completed());
        // O(log n): 2 reads per bisection step + constants; log2(8192)=13.
        assert!(
            rep.stats().max_capsule_work <= 40,
            "C = {} should be O(log n)",
            rep.stats().max_capsule_work
        );
    }
}
