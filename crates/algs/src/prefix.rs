//! Parallel prefix sums (§7, Theorem 7.1).
//!
//! The standard two-phase algorithm: an **up-sweep** computes, for every
//! node of a balanced binary tree over the input's blocks, the sum of its
//! subtree (writing each partial sum to a *separate* location in the
//! `sums` tree — this is the paper's one modification, avoiding
//! write-after-read conflicts); then a **down-sweep** passes each node the
//! sum `t` of everything to its left, finishing at the leaves by writing
//! the output block.
//!
//! Each capsule is one tree node: O(1) block transfers, so maximum capsule
//! work is O(1); the tree gives O(n/B) work and O(log n) depth —
//! Theorem 7.1 exactly. Inclusive sums: `out[i] = Σ_{j ≤ i} a[j]`.
//!
//! That is [`PrefixSum::new`] / [`PrefixSum::pcomp`]: leaves of one block,
//! `C = O(1)`. A caller whose own theorem tolerates bigger capsules passes
//! its capsule size to [`PrefixSum::with_regions`] as `leaf_words` and
//! gets `C = O(leaf_words / B)` with `n / leaf_words` leaves — samplesort
//! (Theorem 7.3, `C = O(M/B)`) runs its bucket-offset sums that way.
//!
//! The computation ([`PrefixSum::pcomp`]) is built on the typed
//! `ppm_core::dsl` — three capsules whose frames carry the instance
//! geometry ([`PrefixSum`] itself implements
//! [`ppm_core::persist::Persist`]), so any number of instances
//! coexist under the registry-allocated ids and a crashed run resumes
//! mid-tree.

use std::sync::Arc;

use ppm_core::dsl::{fork2, CapsuleDef, CapsuleSet, Step, K};
use ppm_core::persist::{Persist, ValueError, WordReader, WordSink};
use ppm_core::{persist_struct, Machine, PComp};
use ppm_pm::{PmResult, ProcCtx, Region, Word};

use crate::util::{ceil_div, next_pow2, pread_range, pwrite_range};

/// A prefix-sum instance: input, output, and the partial-sums tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixSum {
    /// The input array (n words).
    pub input: Region,
    /// The output array (n words).
    pub output: Region,
    /// The partial-sums tree (heap-numbered, one word per node).
    sums: Region,
    n: usize,
    /// Number of leaves, padded to a power of two.
    leaves: usize,
    /// Input words one leaf capsule sums (up-sweep) or rewrites
    /// (down-sweep): `B` for [`PrefixSum::new`], the caller's capsule
    /// size for [`PrefixSum::with_regions`].
    leaf_words: usize,
}

/// The instance geometry rides inside every prefix frame. `leaves` is
/// derived, so the impl is manual: it encodes the five defining fields
/// and recomputes `leaves` on decode.
impl Persist for PrefixSum {
    const WORDS: usize = 3 * Region::WORDS + 2;

    fn encode(&self, out: &mut impl WordSink) {
        self.input.encode(out);
        self.output.encode(out);
        self.sums.encode(out);
        self.n.encode(out);
        self.leaf_words.encode(out);
    }

    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        let input = Region::decode(r)?;
        let output = Region::decode(r)?;
        let sums = Region::decode(r)?;
        let n = usize::decode(r)?;
        let leaf_words = usize::decode(r)?;
        Ok(PrefixSum {
            input,
            output,
            sums,
            n,
            leaves: next_pow2(ceil_div(n, leaf_words.max(1))),
            leaf_words,
        })
    }

    fn pool_refs(&self, out: &mut ppm_core::PoolRefs) {
        self.input.pool_refs(out);
        self.output.pool_refs(out);
        self.sums.pool_refs(out);
    }
}

impl PrefixSum {
    /// Carves regions for an instance of size `n` on `machine`.
    pub fn new(machine: &Machine, n: usize) -> Self {
        assert!(n > 0);
        let b = machine.cfg().block_size;
        let leaves = next_pow2(ceil_div(n, b));
        PrefixSum {
            input: machine.alloc_region(n),
            output: machine.alloc_region(n),
            sums: machine.alloc_region(2 * leaves - 1),
            n,
            leaves,
            leaf_words: b,
        }
    }

    /// Words of `sums`-tree scratch needed for an instance of size `n`
    /// whose leaves cover `leaf_words` inputs each (for callers providing
    /// their own regions).
    pub fn sums_words(n: usize, leaf_words: usize) -> usize {
        2 * next_pow2(ceil_div(n, leaf_words)) - 1
    }

    /// Builds an instance over caller-provided regions (e.g. pool
    /// allocations inside a larger algorithm — samplesort's bucket-offset
    /// computation). `sums` must hold [`PrefixSum::sums_words`] words.
    ///
    /// `leaf_words` is the capsule size: each leaf capsule transfers
    /// `leaf_words / B` blocks, so the instance runs at
    /// `C = O(leaf_words / B)` — the caller passes what *its* theorem
    /// tolerates (samplesort: Θ(M), Theorem 7.3), while
    /// [`PrefixSum::new`] keeps `leaf_words = B` and Theorem 7.1's
    /// `C = O(1)`.
    pub fn with_regions(
        input: Region,
        output: Region,
        sums: Region,
        n: usize,
        leaf_words: usize,
    ) -> Self {
        assert!(n > 0 && leaf_words > 0);
        assert!(input.len >= n && output.len >= n);
        assert!(sums.len >= Self::sums_words(n, leaf_words));
        PrefixSum {
            input,
            output,
            sums,
            n,
            leaves: next_pow2(ceil_div(n, leaf_words)),
            leaf_words,
        }
    }

    /// Loads the input (uncosted setup).
    pub fn load_input(&self, machine: &Machine, data: &[Word]) {
        assert_eq!(data.len(), self.n);
        machine.mem().write_range(self.input.start, data);
    }

    /// Reads the output (oracle).
    pub fn read_output(&self, machine: &Machine) -> Vec<Word> {
        machine.mem().to_vec(self.output.start, self.n)
    }

    /// Element range covered by leaf `l`.
    fn leaf_range(&self, l: usize) -> (usize, usize) {
        let lo = (l * self.leaf_words).min(self.n);
        let hi = ((l + 1) * self.leaf_words).min(self.n);
        (lo, hi)
    }

    /// Sums one leaf's input words (an up-sweep leaf body).
    fn up_leaf_sum(&self, ctx: &mut ProcCtx, leaf: usize) -> PmResult<Word> {
        let (lo, hi) = self.leaf_range(leaf);
        Ok(if lo < hi {
            pread_range(ctx, self.input.at(lo), hi - lo)?
                .iter()
                .fold(0u64, |a, v| a.wrapping_add(*v))
        } else {
            0 // padding leaf
        })
    }

    /// Writes one leaf's output words given `t`, the sum of everything to
    /// its left (a down-sweep leaf body).
    fn down_leaf_body(self, ctx: &mut ProcCtx, leaf: usize, t: Word) -> PmResult<()> {
        let (lo, hi) = self.leaf_range(leaf);
        if lo >= hi {
            return Ok(()); // padding leaf
        }
        let input = pread_range(ctx, self.input.at(lo), hi - lo)?;
        let mut acc = t;
        let out: Vec<Word> = input
            .iter()
            .map(|v| {
                acc = acc.wrapping_add(*v);
                acc
            })
            .collect();
        pwrite_range(ctx, self.output.at(lo), &out)
    }

    /// The full prefix-sum computation (up-sweep, then down-sweep) as
    /// registered persistent capsules, for
    /// `ppm_sched::Runtime::run_or_recover`. Declares the
    /// `PrefixCapsules` family; frames carry the instance's full
    /// geometry, so any number of prefix-sum instances can coexist on one
    /// machine under the registry-allocated ids.
    pub fn pcomp(&self) -> PComp {
        let s = *self;
        Arc::new(move |machine: &Machine, finale: Word| {
            let caps = PrefixCapsules::declare(machine);
            // Root chain: up-sweep the whole tree, then down-sweep with
            // offset 0, then the caller's finale.
            let down = caps.down.setup(
                machine,
                &DownState {
                    s,
                    node: 0,
                    llo: 0,
                    lhi: s.leaves,
                    t: 0,
                },
                K(finale),
            );
            caps.up
                .setup(
                    machine,
                    &UpState {
                        s,
                        node: 0,
                        llo: 0,
                        lhi: s.leaves,
                    },
                    down,
                )
                .word()
        })
    }
}

// ====================================================================
// The capsule family (typed DSL)
// ====================================================================

persist_struct! {
    /// Up-sweep node state: instance geometry plus the node's heap index
    /// and leaf span.
    struct UpState {
        s: PrefixSum,
        node: usize,
        llo: usize,
        lhi: usize,
    }
}

persist_struct! {
    /// Up-sweep combine state: both children's sums are in; write the
    /// node's.
    struct CombineState {
        s: PrefixSum,
        node: usize,
    }
}

persist_struct! {
    /// Down-sweep node state: `t` is the sum of everything left of this
    /// subtree.
    struct DownState {
        s: PrefixSum,
        node: usize,
        llo: usize,
        lhi: usize,
        t: Word,
    }
}

/// The prefix-sum capsule family on the typed DSL. Each tree node is a
/// frame whose state is the instance geometry plus the node coordinates,
/// which is what lets a recovering session resume a killed run mid-tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefixCapsules {
    up: CapsuleDef<UpState>,
    down: CapsuleDef<DownState>,
}

impl PrefixCapsules {
    /// Declares (idempotently) the three prefix capsules on `machine`'s
    /// registry and installs their bodies.
    pub(crate) fn declare(machine: &Machine) -> PrefixCapsules {
        let mut set = CapsuleSet::new(machine);
        let up = set.declare::<UpState>("prefix/up");
        let combine = set.declare::<CombineState>("prefix/up-combine");
        let down = set.declare::<DownState>("prefix/down");

        set.body(up, move |st: &UpState, k, ctx| {
            let s = st.s;
            if st.lhi - st.llo == 1 {
                let sum = s.up_leaf_sum(ctx, st.llo)?;
                ctx.pwrite(s.sums.at(st.node), sum)?;
                return Ok(Step::Jump(k));
            }
            let mid = st.llo + (st.lhi - st.llo) / 2;
            let (lc, rc) = (2 * st.node + 1, 2 * st.node + 2);
            let kc = combine.frame(ctx, &CombineState { s, node: st.node }, k)?;
            fork2(
                ctx,
                (
                    up,
                    &UpState {
                        s,
                        node: lc,
                        llo: st.llo,
                        lhi: mid,
                    },
                ),
                (
                    up,
                    &UpState {
                        s,
                        node: rc,
                        llo: mid,
                        lhi: st.lhi,
                    },
                ),
                kc,
            )
        });

        set.body(combine, move |st: &CombineState, k, ctx| {
            let s = st.s;
            let (lc, rc) = (2 * st.node + 1, 2 * st.node + 2);
            let l = ctx.pread(s.sums.at(lc))?;
            let r = ctx.pread(s.sums.at(rc))?;
            ctx.pwrite(s.sums.at(st.node), l.wrapping_add(r))?;
            Ok(Step::Jump(k))
        });

        set.body(down, move |st: &DownState, k, ctx| {
            let s = st.s;
            if st.lhi - st.llo == 1 {
                s.down_leaf_body(ctx, st.llo, st.t)?;
                return Ok(Step::Jump(k));
            }
            let mid = st.llo + (st.lhi - st.llo) / 2;
            let (lc, rc) = (2 * st.node + 1, 2 * st.node + 2);
            let left_sum = ctx.pread(s.sums.at(lc))?;
            fork2(
                ctx,
                (
                    down,
                    &DownState {
                        s,
                        node: lc,
                        llo: st.llo,
                        lhi: mid,
                        t: st.t,
                    },
                ),
                (
                    down,
                    &DownState {
                        s,
                        node: rc,
                        llo: mid,
                        lhi: st.lhi,
                        t: st.t.wrapping_add(left_sum),
                    },
                ),
                k,
            )
        });

        PrefixCapsules { up, down }
    }

    /// Writes the up-then-down frame chain for instance `s` from within a
    /// running capsule, returning the chain's entry handle. How larger
    /// registered algorithms (samplesort) embed a prefix sum as a phase.
    pub(crate) fn chain(&self, ctx: &mut ProcCtx, s: PrefixSum, k: K) -> PmResult<K> {
        let down = self.down.frame(
            ctx,
            &DownState {
                s,
                node: 0,
                llo: 0,
                lhi: s.leaves,
                t: 0,
            },
            k,
        )?;
        self.up.frame(
            ctx,
            &UpState {
                s,
                node: 0,
                llo: 0,
                lhi: s.leaves,
            },
            down,
        )
    }
}

/// Sequential oracle: inclusive prefix sums with wrapping addition.
pub fn prefix_sum_seq(input: &[Word]) -> Vec<Word> {
    let mut acc = 0u64;
    input
        .iter()
        .map(|v| {
            acc = acc.wrapping_add(*v);
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_pm::{FaultConfig, PmConfig};
    use ppm_sched::{Runtime, SchedConfig};

    fn runtime(procs: usize, f: FaultConfig) -> Runtime {
        Runtime::new(
            Machine::new(PmConfig::parallel(procs, 1 << 22).with_fault(f)),
            SchedConfig::with_slots(1 << 13),
        )
    }

    /// Pool sized for the un-reclaimed frames of n = 2^16 (~16 per word).
    fn theorem_runtime() -> Runtime {
        crate::util::theorem_runtime(PmConfig::parallel(1, 1 << 22), 1 << 21)
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1usize, 3, 9, 17, 100, 257] {
            check_registered(n, 2, FaultConfig::none());
        }
    }

    #[test]
    fn work_is_linear_in_n_over_b() {
        // Theorem 7.1: O(n/B) work. Compare faultless work at two sizes.
        let work = |n: usize| {
            let rt = theorem_runtime();
            let ps = PrefixSum::new(rt.machine(), n);
            ps.load_input(rt.machine(), &vec![1u64; n]);
            let rep = rt.run_or_recover(&ps.pcomp());
            assert!(rep.completed());
            rep.stats().total_work()
        };
        let (w1, w2) = (work(1 << 10), work(1 << 12));
        let ratio = w2 as f64 / w1 as f64;
        assert!(
            (3.0..5.5).contains(&ratio),
            "4x data should be ~4x work, got {ratio} ({w1} -> {w2})"
        );
    }

    #[test]
    fn max_capsule_work_is_constant() {
        let max_work = |n: usize| {
            let rt = theorem_runtime();
            let ps = PrefixSum::new(rt.machine(), n);
            ps.load_input(rt.machine(), &vec![1u64; n]);
            let rep = rt.run_or_recover(&ps.pcomp());
            assert!(rep.completed());
            rep.stats().max_capsule_work
        };
        let (c1, c2) = (max_work(1 << 10), max_work(1 << 16));
        // The largest capsule is a forking one: 10 accesses, and since a
        // fork's `pushBottom` reads end the forking capsule, 3 more.
        assert!(c1 <= 13, "C = {c1} should be O(1)");
        assert_eq!(c1, c2, "C must not grow with n (64x the data)");
    }

    #[test]
    fn oracle_matches_hand_computation() {
        assert_eq!(prefix_sum_seq(&[1, 2, 3, 4]), vec![1, 3, 6, 10]);
        assert_eq!(prefix_sum_seq(&[]), Vec::<u64>::new());
    }

    #[test]
    fn geometry_round_trips_through_persist() {
        let rt = runtime(1, FaultConfig::none());
        let ps = PrefixSum::new(rt.machine(), 300);
        let words = ppm_core::persist::encode_args(&ps);
        assert_eq!(words.len(), PrefixSum::WORDS);
        let back: PrefixSum = ppm_core::persist::decode_args("prefix", &words).unwrap();
        assert_eq!(back.input, ps.input);
        assert_eq!(back.sums, ps.sums);
        assert_eq!(back.leaves, ps.leaves, "derived field recomputed");
    }

    fn check_registered(n: usize, procs: usize, f: FaultConfig) {
        let rt = runtime(procs, f);
        let ps = PrefixSum::new(rt.machine(), n);
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(13) % 997).collect();
        ps.load_input(rt.machine(), &data);
        let rep = rt.run_or_recover(&ps.pcomp());
        assert!(rep.completed());
        assert_eq!(
            ps.read_output(rt.machine()),
            prefix_sum_seq(&data),
            "registered n={n} P={procs}"
        );
    }

    #[test]
    fn registered_form_matches_oracle() {
        for n in [1usize, 8, 17, 257] {
            check_registered(n, 1, FaultConfig::none());
        }
        check_registered(1 << 12, 4, FaultConfig::none());
    }

    #[test]
    fn registered_form_with_soft_faults() {
        for seed in 0..3 {
            check_registered(300, 2, FaultConfig::soft(0.01, seed));
        }
    }

    #[test]
    fn two_registered_instances_coexist_on_one_machine() {
        // Frames carry their instance's geometry, so a second instance
        // under the same capsule ids must not rehydrate into the first
        // instance's regions.
        let rt = Runtime::new(
            Machine::new(PmConfig::parallel(2, 1 << 22)),
            SchedConfig::with_slots(1 << 12),
        );
        let ps1 = PrefixSum::new(rt.machine(), 300);
        let ps2 = PrefixSum::new(rt.machine(), 77);
        let d1: Vec<u64> = (0..300).map(|i| i * 3 + 1).collect();
        let d2: Vec<u64> = (0..77).map(|i| 1000 - i).collect();
        ps1.load_input(rt.machine(), &d1);
        ps2.load_input(rt.machine(), &d2);
        assert!(rt.run_or_recover(&ps1.pcomp()).completed());
        assert!(rt.run_or_recover(&ps2.pcomp()).completed());
        assert_eq!(ps1.read_output(rt.machine()), prefix_sum_seq(&d1));
        assert_eq!(ps2.read_output(rt.machine()), prefix_sum_seq(&d2));
    }

    #[test]
    fn registered_form_with_a_hard_fault() {
        check_registered(
            512,
            3,
            FaultConfig::none().with_scheduled_hard_fault(1, 150),
        );
    }
}
