//! Property-based tests over the reproduction's core invariants.

use std::sync::Arc;

use ppm::algs::{merge_seq, prefix_sum_seq, Merge, MergeSort, PrefixSum};
use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, Region};
use ppm::sched::{
    pack, unpack, CheckpointPolicy, EntryKind, EntryVal, Runtime, RuntimeConfig, SchedConfig,
};
use proptest::prelude::*;

/// Runs `n` counter-style tasks (a `map_grain` at grain 1, task `i`
/// writing 1 to its word) as a fresh session on `procs` processors,
/// checkpoints off; returns whether it completed and the words.
fn run_tasks(procs: usize, fault: FaultConfig, n: usize) -> (bool, Vec<u64>) {
    let rt = Runtime::volatile(
        RuntimeConfig::new(PmConfig::parallel(procs, 1 << 21).with_fault(fault))
            .with_slots(1 << 11)
            .with_checkpoint(CheckpointPolicy::disabled()),
    );
    let r = rt.machine().alloc_region(n);
    let tasks: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("inc", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), 1)?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain("inc/split", 1, leaf);
        split
            .setup(
                m,
                &Span {
                    env: r,
                    lo: 0,
                    hi: n,
                },
                K(finale),
            )
            .word()
    });
    let completed = rt.run_or_recover(&tasks).completed();
    (completed, rt.machine().mem().to_vec(r.start, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deque entry packing is a bijection on its domain.
    #[test]
    fn entry_pack_unpack_round_trips(
        tag in any::<u16>(),
        kind in 0usize..4,
        handle in 0u64..(1 << 46),
        proc in 0usize..256,
        slot in 0usize..(1 << 22),
        ttag in any::<u16>(),
    ) {
        let val = match kind {
            0 => EntryVal::Empty,
            1 => EntryVal::Local,
            2 => EntryVal::Job { handle },
            _ => EntryVal::Taken { proc, slot, tag: ttag },
        };
        let w = pack(tag, val);
        prop_assert_eq!(unpack(w), (tag, val));
    }

    /// Distinct (tag, value) pairs pack to distinct words.
    #[test]
    fn entry_packing_is_injective(
        t1 in any::<u16>(), t2 in any::<u16>(),
        h1 in 0u64..(1 << 46), h2 in 0u64..(1 << 46),
    ) {
        let w1 = pack(t1, EntryVal::Job { handle: h1 });
        let w2 = pack(t2, EntryVal::Job { handle: h2 });
        prop_assert_eq!(w1 == w2, t1 == t2 && h1 == h2);
    }

    /// The Figure 4 transition relation is antisymmetric on distinct
    /// states except the job/local pair (the only two-way edge).
    #[test]
    fn transition_table_shape(a in 0usize..4, b in 0usize..4) {
        let ka = EntryKind::from_bits(a as u64);
        let kb = EntryKind::from_bits(b as u64);
        if ka == kb {
            prop_assert!(!ka.can_transition_to(kb), "no self transitions");
        }
        if ka == EntryKind::Taken {
            prop_assert!(!ka.can_transition_to(kb), "taken is terminal");
        }
        if ka.can_transition_to(kb) && kb.can_transition_to(ka) {
            prop_assert!(
                matches!((ka, kb), (EntryKind::Job, EntryKind::Local)
                                 | (EntryKind::Local, EntryKind::Job)
                                 | (EntryKind::Local, EntryKind::Empty)
                                 | (EntryKind::Empty, EntryKind::Local)),
                "two-way edges are only local<->job and local<->empty"
            );
        }
    }

    /// Prefix sums match the oracle on arbitrary inputs.
    #[test]
    fn prefix_sum_correct(data in prop::collection::vec(any::<u64>(), 1..300)) {
        let rt = Runtime::new(
            Machine::new(PmConfig::parallel(2, 1 << 21)),
            SchedConfig::with_slots(1 << 12),
        );
        let ps = PrefixSum::new(rt.machine(), data.len());
        ps.load_input(rt.machine(), &data);
        prop_assert!(rt.run_or_recover(&ps.pcomp()).completed());
        prop_assert_eq!(ps.read_output(rt.machine()), prefix_sum_seq(&data));
    }

    /// Merging matches the oracle on arbitrary sorted inputs.
    #[test]
    fn merge_correct(
        mut a in prop::collection::vec(0u64..10_000, 0..200),
        mut b in prop::collection::vec(0u64..10_000, 0..200),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let rt = Runtime::new(
            Machine::new(PmConfig::parallel(2, 1 << 21)),
            SchedConfig::with_slots(1 << 12),
        );
        let mg = Merge::new(rt.machine(), a.len(), b.len());
        mg.load_inputs(rt.machine(), &a, &b);
        prop_assert!(rt.run_or_recover(&mg.pcomp()).completed());
        prop_assert_eq!(mg.read_output(rt.machine()), merge_seq(&a, &b));
    }

    /// Mergesort matches std sort on arbitrary inputs.
    #[test]
    fn mergesort_correct(data in prop::collection::vec(any::<u64>(), 1..400)) {
        let rt = Runtime::new(
            Machine::new(PmConfig::parallel(2, 1 << 21).with_ephemeral_words(64)),
            SchedConfig::with_slots(1 << 12),
        );
        let ms = MergeSort::new(rt.machine(), data.len());
        ms.load_input(rt.machine(), &data);
        prop_assert!(rt.run_or_recover(&ms.pcomp()).completed());
        let mut expect = data.clone();
        expect.sort_unstable();
        prop_assert_eq!(ms.read_output(rt.machine()), expect);
    }
}

proptest! {
    // Scheduler runs spawn threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once execution holds for every (fault seed, fault rate,
    /// task count, processor count) the strategy produces.
    #[test]
    fn scheduler_exactly_once_under_arbitrary_soft_faults(
        seed in any::<u64>(),
        f in 0.0f64..0.04,
        n in 4usize..48,
        procs in 1usize..5,
    ) {
        let fault = if f == 0.0 { FaultConfig::none() } else { FaultConfig::soft(f, seed) };
        let (completed, words) = run_tasks(procs, fault, n);
        prop_assert!(completed);
        prop_assert_eq!(words, vec![1; n]);
    }

    /// A scheduled hard fault anywhere in the root processor's first 400
    /// accesses never loses work (P >= 2).
    #[test]
    fn scheduler_survives_arbitrary_root_death(at in 1u64..400, procs in 2usize..5) {
        let fault = FaultConfig::none().with_scheduled_hard_fault(0, at);
        let (completed, words) = run_tasks(procs, fault, 24);
        prop_assert!(completed);
        prop_assert_eq!(words, vec![1; 24]);
    }
}
