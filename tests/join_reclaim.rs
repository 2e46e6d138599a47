//! Frames die at their join: the hazards of join-time reclamation, each
//! pinned by a run that goes wrong if the rule is broken.
//!
//! A fork registers a mark (its first join cell) and a stamp (the
//! processor's count of foreign events); the pushed branch's arrival, if
//! it continues on the forking processor under the same stamp, rolls the
//! pool back to the mark (`ppm_pm::proc`). The engine explorer
//! (`ppm_sched::model::engine`) runs its four-leaf scope on pools that
//! only fit with that reuse, but it crashes processors at capsule
//! boundaries only, and a join whose first arriver has committed leaves
//! nothing of the subtree in use. So the three ways to break the rule
//! that matter only while a first arriver sits between its CAM and its
//! read, or that need a `fork_many` whose leaves allocate, are pinned
//! here: a left-token continue that reclaims, a stamp that is not
//! checked, and an inner `fork_many` cell registered as a mark. So are a
//! thief in flight that meets a recycled handle, soft faults inside the
//! capsules that register and apply marks, and checkpoint GC rolling the
//! pool back under open marks.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ppm::core::dsl::{self, fork_many, CapsuleDef, CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, ProcCtx, Region, Word};
use ppm::sched::{CheckpointPolicy, Runtime, RuntimeConfig, SchedConfig, SimEvent, SimSched};

/// Per-leaf run counters, host-side: a second run of a leaf is visible
/// whatever it wrote.
type Runs = Arc<Vec<AtomicU32>>;

fn runs(n: usize) -> Runs {
    Arc::new((0..n).map(|_| AtomicU32::new(0)).collect())
}

fn each_ran_once(runs: &Runs) -> bool {
    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1)
}

/// A leaf over index `i`: counts its run and writes `i + 1` to `out[i]`.
fn marking_leaf(
    set: &mut CapsuleSet,
    name: &'static str,
    out: Region,
    runs: Runs,
) -> CapsuleDef<usize> {
    set.define(name, move |&i: &usize, k, ctx| {
        runs[i].fetch_add(1, Ordering::Relaxed);
        ctx.pwrite(out.at(i), i as Word + 1)?;
        Ok(Step::Jump(k))
    })
}

fn written(m: &Machine, out: Region, n: usize) -> bool {
    (0..n).all(|i| m.mem().load(out.at(i)) == i as Word + 1)
}

// ---------------------------------------------------------------------
// fork_many: only the top-level cell is a mark
// ---------------------------------------------------------------------

/// A `fork_many` over eight leaves, each of which forks a `map_grain` of
/// its own, at P = 1. The inner `fork-pair` capsules fork frames the top
/// capsule planted; if one registered its cell, its join would free the
/// planted frames of the subtrees to its right before they ran, and the
/// next leaf's forks would write over them. Only the top-level join
/// frees the tree, so every leaf and every index runs once, and the pool
/// peak is the planted tree, the leaves' own frames and one leaf's two
/// nested forks.
#[test]
fn a_fork_many_frees_its_planted_tree_only_at_the_top_join() {
    const LEAVES: usize = 8;
    const PER_LEAF: usize = 8;
    let m = Machine::with_pool_words(PmConfig::parallel(1, 1 << 18), 1 << 12);
    let out = m.alloc_region(LEAVES * PER_LEAF);
    let leaf_runs = runs(LEAVES);
    let counted = leaf_runs.clone();
    let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let write = set.define("many/write", move |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as Word + 1)?;
            }
            Ok(Step::Jump(k))
        });
        let inner = set.map_grain("many/inner", 2, write);
        let counted = counted.clone();
        let leaf = set.define("many/leaf", move |&j: &usize, k, ctx| {
            counted[j].fetch_add(1, Ordering::Relaxed);
            let span = Span {
                env: out,
                lo: j * PER_LEAF,
                hi: (j + 1) * PER_LEAF,
            };
            dsl::jump_to(ctx, inner, &span, k)
        });
        let root = set.define("many/root", move |_: &(), k, ctx| {
            let states: Vec<usize> = (0..LEAVES).collect();
            fork_many(ctx, leaf, &states, k)
        });
        root.setup(m, &(), K(finale)).word()
    });
    let mut sim = sim(&m, &pcomp);
    sim.run_to_completion(5_000);
    let trace = sim.render_trace();
    assert!(sim.completed(), "{trace}");
    assert!(each_ran_once(&leaf_runs), "{leaf_runs:?}\n{trace}");
    assert!(written(&m, out, LEAVES * PER_LEAF));
    // The planted tree: the top cell and its two arrival frames, then per
    // inner node a cell, two arrival frames and a `fork-pair` frame, and
    // a frame per leaf. Above it each leaf's 8-word `jump_to` frame, which
    // no fork of the leaf's own frees; the 7 words (3 · 29 mod 8) the
    // join of each of the first seven leaves' three forks leaves above
    // its mark, since a join keeps the cursor's offset within its 8-word
    // block; and at the last leaf its two nested forks, with the 5 words
    // (29 mod 8) its first finished child left: 13 + 6 · 18 + 8 · 5 +
    // 8 · 8 + 7 · 7 + 2 · 29 + 5 words.
    assert_eq!(
        m.stats().snapshot().max_pool_peak,
        13 + 6 * 18 + 8 * 5 + 8 * 8 + 7 * 7 + 2 * 29 + 5
    );
}

// ---------------------------------------------------------------------
// A first arriver killed between its CAM and its read
// ---------------------------------------------------------------------

/// A two-phase session: a root that frames `second` and then forks
/// leaves `0..first` — `fork2` for two, `fork_many` for more —
/// continuing after the join with `second`, which forks the next
/// `then` leaves the same way. `second`'s frames land wherever the pool
/// cursor stands after the first join: on the first fork's words if that
/// join freed them, at the very same addresses when `then` is `first`.
fn two_phase(m: &Machine, first: usize, then: usize) -> (PComp, Region, Runs) {
    let n = first + then;
    let out = m.alloc_region(n);
    let leaf_runs = runs(n);
    let counted = leaf_runs.clone();
    let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = marking_leaf(&mut set, "phase/leaf", out, counted.clone());
        let fork = move |ctx: &mut ProcCtx, leaves: std::ops::Range<usize>, k| match leaves.len() {
            2 => dsl::fork2(ctx, (leaf, &leaves.start), (leaf, &(leaves.start + 1)), k),
            _ => fork_many(ctx, leaf, &leaves.collect::<Vec<_>>(), k),
        };
        let second = set.define("phase/second", move |_: &(), k, ctx| fork(ctx, first..n, k));
        let root = set.define("phase/root", move |_: &(), k, ctx| {
            let k2 = second.frame(ctx, &(), k)?;
            fork(ctx, 0..first, k2)
        });
        root.setup(m, &(), K(finale)).word()
    });
    (pcomp, out, leaf_runs)
}

fn sim<'m>(m: &'m Machine, pcomp: &PComp) -> SimSched<'m> {
    SimSched::new_persistent(m, pcomp, &SchedConfig::with_slots(64))
}

/// Steps `p` until it stands at `capsule`; panics if it halts or dies.
fn step_to(sim: &mut SimSched<'_>, p: usize, capsule: &str) {
    for _ in 0..500 {
        match sim.at(p) {
            at if at == capsule => return,
            "halted" | "dead" => break,
            _ => drop(sim.step(p)),
        }
    }
    panic!("p{p} never reached {capsule}:\n{}", sim.render_trace());
}

/// Runs `script` on a fault-free machine to find processor 1's accesses
/// before its scripted arrival, then again with processor 1 killed at
/// that arrival's second access — after its CAM, before its read — and
/// lets processor 0 finish alone. The dead processor's restart pointer
/// is that arrival's frame, in processor 0's pool, and it must be what
/// it was when processor 1 died: an adopter would re-run it.
fn killed_mid_arrival(first: usize, then: usize, script: fn(&mut SimSched<'_>)) {
    let before = {
        let m = Machine::new(PmConfig::parallel(2, 1 << 18));
        let (pcomp, _, _) = two_phase(&m, first, then);
        let mut sim = sim(&m, &pcomp);
        script(&mut sim);
        assert_eq!(sim.at(1), "join-cam");
        let st = &m.snapshot().per_proc[1];
        st.reads + st.writes
    };
    let fault = FaultConfig::none().with_scheduled_hard_fault(1, before + 2);
    let m = Machine::new(PmConfig::parallel(2, 1 << 18).with_fault(fault));
    let (pcomp, out, leaf_runs) = two_phase(&m, first, then);
    let mut sim = sim(&m, &pcomp);
    script(&mut sim);
    assert!(matches!(sim.step(1), SimEvent::Died { proc: 1, .. }));
    let restart = m.active_handle(1) as usize;
    assert!(
        m.pool(0).contains(restart),
        "the dead arrival is in p0's pool"
    );
    let frame = m.mem().to_vec(restart, 6);
    for _ in 0..5_000 {
        if sim.completed() {
            break;
        }
        sim.step(0);
    }
    let trace = sim.render_trace();
    assert!(sim.completed(), "p0 finishes alone:\n{trace}");
    assert!(each_ran_once(&leaf_runs), "{leaf_runs:?}\n{trace}");
    assert!(written(&m, out, first + then));
    assert_eq!(
        m.mem().to_vec(restart, 6),
        frame,
        "the dead processor's arrival frame was written over:\n{trace}"
    );
}

/// p1 steals the pushed leaf of a `fork2` and dies inside its arrival,
/// after its CAM: the cell reads the right token. p0's left arrival then
/// continues with the left token — the first arriver never read the cell
/// — and must free nothing: `second`'s frames would land on p1's arrival
/// frame, its restart pointer.
#[test]
fn a_left_token_continue_frees_nothing_while_the_first_arriver_is_mid_arrival() {
    killed_mid_arrival(2, 2, |sim| {
        step_to(sim, 0, "phase/leaf");
        step_to(sim, 1, "phase/leaf");
        sim.step(1);
    });
}

/// A `fork_many` over four leaves: p1 steals the right half, forks its
/// two leaves, runs the left one and dies inside its arrival at the
/// inner cell, which p0 planted. p0 runs the left half, misses on the
/// stolen half (a foreign event), steals p1's last leaf, and is the last
/// arriver at the inner cell and then at the top-level cell, whose mark
/// is the innermost one p0 holds. Only the stamp says that the subtree
/// did not all run here; reclaiming would plant `second`'s three-leaf
/// tree over p1's arrival frame. (A four-leaf tree would write the very
/// same words there: its inner arrival frames name the same addresses.)
#[test]
fn a_stale_stamp_frees_nothing_of_a_tree_a_dead_thief_arrived_in() {
    killed_mid_arrival(4, 3, |sim| {
        step_to(sim, 0, "phase/leaf");
        step_to(sim, 1, "fork-pair");
        step_to(sim, 1, "phase/leaf");
        sim.step(1);
    });
}

// ---------------------------------------------------------------------
// A recycled handle in a thief's CAM
// ---------------------------------------------------------------------

/// A thief reads a job entry and stalls before its `popTop` CAM. The
/// owner pops that job itself, runs it, its join frees the words, and a
/// later fork pushes a frame at the same address into the same slot: the
/// entry holds the same handle again. The thief's CAM still names the
/// old tag, so it fails, the check sees the loss, and every leaf runs
/// once. The machine's blocks are one word, so the join rolls the cursor
/// back to its mark exactly (it keeps the cursor's offset within its
/// block) and the second fork's frames land on the first one's words.
#[test]
fn a_thief_in_flight_on_a_recycled_handle_is_refused_by_the_entry_tag() {
    use ppm::sched::{unpack, EntryVal};
    let m = Machine::new(PmConfig::parallel(2, 1 << 18).with_block_size(1));
    let (pcomp, out, leaf_runs) = two_phase(&m, 2, 2);
    let mut sim = sim(&m, &pcomp);
    step_to(&mut sim, 0, "phase/leaf");
    step_to(&mut sim, 1, "sched/popTop/cam");
    let deque = sim.sched().deques()[0];
    let slot = |m: &Machine| {
        (0..64)
            .map(|i| m.mem().load(deque.entry(i)))
            .find_map(|w| match unpack(w) {
                (tag, EntryVal::Job { handle }) => Some((tag, handle)),
                _ => None,
            })
    };
    let (tag, handle) = slot(&m).expect("the stalled thief's job");
    let mut recycled = false;
    for _ in 0..500 {
        sim.step(0);
        if let Some((t, h)) = slot(&m) {
            if h == handle && t != tag {
                recycled = true;
                break;
            }
        }
    }
    assert!(
        recycled,
        "a later fork pushed the same handle:\n{}",
        sim.render_trace()
    );
    // The thief wakes: its CAM names the old tag.
    let mut steps = 0;
    while !sim.completed() && steps < 10_000 {
        sim.step(steps % 2);
        steps += 1;
    }
    let trace = sim.render_trace();
    assert!(sim.completed(), "{trace}");
    let check = trace
        .lines()
        .find(|l| l.contains("p1 run  sched/popTop/check"));
    assert!(
        check.is_some_and(|l| l.ends_with("-> sched/steal")),
        "the stalled thief's CAM lost:\n{trace}"
    );
    assert!(each_ran_once(&leaf_runs), "{leaf_runs:?}\n{trace}");
    assert!(written(&m, out, 4));
}

// ---------------------------------------------------------------------
// Soft faults and checkpoint GC
// ---------------------------------------------------------------------

/// `map_grain` over 64 leaves at P = 1 under soft faults: every capsule
/// that registers a mark or applies a reclaim may restart any number of
/// times, and must still do so once. Every index is written once, and
/// the pool peak is the fault-free one — no reclaim lost, none doubled.
#[test]
fn soft_faults_neither_lose_nor_double_a_reclaim() {
    let peak = |fault: FaultConfig| {
        let rt = Runtime::volatile(
            RuntimeConfig::new(PmConfig::parallel(1, 1 << 18).with_fault(fault))
                .with_pool_words(1 << 12)
                .with_checkpoint(CheckpointPolicy::disabled()),
        );
        let out = rt.machine().alloc_region(64);
        let leaf_runs = runs(64);
        let counted = leaf_runs.clone();
        let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
            let mut set = CapsuleSet::new(m);
            let counted = counted.clone();
            let leaf = set.define("soft/leaf", move |st: &Span<Region>, k, ctx| {
                ctx.pwrite(st.env.at(st.lo), st.lo as Word + 1)?;
                counted[st.lo].fetch_add(1, Ordering::Relaxed);
                Ok(Step::Jump(k))
            });
            let split = set.map_grain("soft/split", 1, leaf);
            let all = Span {
                env: out,
                lo: 0,
                hi: 64,
            };
            split.setup(m, &all, K(finale)).word()
        });
        let rep = rt.run_or_recover(&pcomp);
        assert!(rep.completed());
        assert!(written(rt.machine(), out, 64));
        // A leaf counts after its write: a soft fault between the two
        // re-runs it, so runs are at least one, and the write once.
        assert!(leaf_runs.iter().all(|r| r.load(Ordering::Relaxed) >= 1));
        (rep.stats().max_pool_peak, rep.stats().soft_faults)
    };
    let (clean, _) = peak(FaultConfig::none());
    for seed in 0..8 {
        let (faulted, soft) = peak(FaultConfig::soft(0.2, seed));
        assert!(soft > 0);
        assert_eq!(
            faulted, clean,
            "seed {seed}: the pool peak moved under soft faults"
        );
    }
}

/// Checkpoint GC rolls a pool back under a processor's open marks: a
/// mark whose cell the quiesce found dead goes (its words may be handed
/// out as another capsule's), a mark below the new cursor stays. Seeded
/// P = 2 schedules of a `map_grain` take a quiesced checkpoint after
/// every capsule; every leaf runs once and every index is written.
#[test]
fn checkpoints_after_every_capsule_race_the_marks_soundly() {
    let mut reclaimed = 0;
    for seed in 1..=6 {
        let m = Machine::with_pool_words(PmConfig::parallel(2, 1 << 18), 1 << 12);
        let (pcomp, out, leaf_runs) = two_phase(&m, 4, 4);
        let mut sim = sim(&m, &pcomp);
        let mut x = seed;
        let mut steps = 0;
        while !sim.completed() {
            assert!(steps < 20_000, "seed {seed} stalled");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let runnable = sim.runnable();
            sim.step(runnable[(x % runnable.len() as u64) as usize]);
            sim.checkpoint();
            steps += 1;
        }
        assert!(each_ran_once(&leaf_runs), "seed {seed}: {leaf_runs:?}");
        assert!(written(&m, out, 8));
        reclaimed += sim.checkpoints().words_reclaimed;
    }
    assert!(reclaimed > 0, "no checkpoint rolled a pool back");
}
