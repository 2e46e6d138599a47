//! Sorting (§7, Theorem 7.3): mergesort and samplesort.
//!
//! **Mergesort** recursively sorts halves into alternating buffers and
//! merges them with the Theorem 7.2 merge: O((n/B)·log(n/M)) work with
//! base cases sorted sequentially inside one capsule.
//!
//! **Samplesort** follows the paper (after BGS10, "Low depth
//! cache-oblivious algorithms"): split into ~√n subarrays and sort each;
//! sample every ⌈log n⌉-th element of each sorted subarray; sort the
//! samples (with mergesort) and pick pivots by fixed stride; compute
//! each subarray's bucket boundaries; use **prefix sums and matrix
//! transposes** to compute destination offsets; move keys with a
//! divide-and-conquer **propagation-blocked bucket transpose**: each base
//! tile streams its row segments through per-bucket one-block staging
//! bins ([`crate::util::BlockScatter`]), so every destination write is a
//! (near-)full sequential block and the move stays at O(n/B) transfers
//! with tiles ~8× taller than whole-tile buffering would allow; then
//! recursively sort each bucket. Work O((n/B)·log_M n), maximum capsule
//! work O(M/B + √n/B) (= O(M/B) whenever n ≤ M², which the constructor
//! asserts).
//!
//! **Buckets are sized to M, not √n.** BGS10 takes √n buckets. Theorem
//! 7.3 needs less: each bucket must fit a capsule, so that one level
//! reaches the base case. A node of `n` keys on a machine with `M`
//! ephemeral words takes `b = min(rows, samples, ⌈2n/M⌉)` buckets, an
//! expected `M/2` keys each; that is BGS10's √n once `n ≥ M²/4`. At the
//! default `M = 4096` and `n = 2¹⁷` it is 64 buckets, not 362, and the
//! three rows × buckets matrices (boundaries, counts, sums) shrink from
//! 131 k words each to 23.5 k. Under Theorem 7.3:
//!
//! * **Work stays O((n/B)·log_M n).** Every phase of a level moves
//!   O(n/B) blocks: the matrices hold `rows·b ≤ √n·2n/M ≤ 2n` words for
//!   `n ≤ M²`, and the scatter's tiles each move about `2M` words (next
//!   point) and flush at most `M/(2B)` partial bins, O(n/B) over the
//!   O(n/M) tiles. Fewer buckets only shrink the matrix terms.
//! * **C stays O(M/B).** Row sorts, row groups and the transpose's
//!   `M/4`-cell tiles are unchanged, and a boundary capsule reads fewer
//!   pivots. The scatter's area cap of `2M` cells is divided by the
//!   keys a row puts in a bucket, `⌈rows/b⌉` (√n/b rounded up; exactly
//!   1 when `b = rows`), so a tile still moves about `2M` words of keys
//!   rather than `2M` cells.
//! * **Bucket sizes.** Row `i` samples ranks `phase(i) + k·s`, with
//!   stride `s = ⌈log₂(n+1)⌉` and `phase(i) = ⌊i·s/rows⌋`. A row's keys
//!   in one pivot interval number fewer than `s` per sample of that row
//!   in it, plus `s`, so a bucket holds at most `n/b + rows·s` keys
//!   (distinct keys): `M/2 + √n·log n`, which can exceed `M`, as BGS10's
//!   `√n + √n·log n` can. A bucket over `M` recurses as before. The
//!   phases keep the expected case at one level. Were every row to
//!   sample ranks `0, s, 2s, …`, random keys would give pooled samples
//!   bunched around the same `√n/s` quantiles of every row; 64 pivots
//!   drawn from 21 bunches leave some gap between bunches to one bucket,
//!   4.6 k keys on two uniform inputs at `n = 2¹⁷` (above `M`). With the
//!   phases the rows' grids tile the stride, and the largest bucket of
//!   the same inputs holds 2.5 k keys
//!   (`uniform_keys_at_the_benchmark_size_need_one_level`).
//!
//! All scratch comes from the §4.1 restart-stable pool allocator, so every
//! capsule writes fresh locations: write-after-read conflict free.
//!
//! **Capsule size.** Theorem 7.3 lets sorting run at `C = O(M/B)`, and
//! both entry points here do, in every phase: row sorts and mergesort
//! base cases take `M` words, scatter tiles about `2M`, and the phases that
//! would otherwise run one block per capsule — the embedded prefix sum
//! over the rows × buckets counts matrix, the base case of every merge,
//! the per-row sampling and boundary passes — take
//! `util::sort_capsule_words(M, B)` ≈ `M/4` words. That is
//! what keeps the capsule count at a fraction of a capsule per key
//! (0.053 at n = 2¹⁷ with the default `(M, B)`, against 3.4 with one-block
//! leaves) while `C` stays where the row sorts already had it. The same
//! prefix sum and merge run at their own theorems' `C` — O(1) and
//! O(log n) — through [`crate::prefix::PrefixSum::pcomp`] and
//! [`crate::merge::Merge::pcomp`].
//!
//! Both sorts are registered persistent capsules on the typed
//! `ppm_core::dsl` ([`MergeSort::pcomp`], [`SampleSort::pcomp`]): every
//! continuation — including samplesort's nine-phase pipeline, embedded
//! prefix sum, and per-bucket recursion — is a typed frame in persistent
//! memory, so a `kill -9`'d run is *resumed* from its in-flight deque
//! entries by `ppm_sched::Runtime::run_or_recover`. The merge capsule
//! (`declare_merge`: one body, registered here with a Θ(M) base case and
//! in [`crate::merge`] with a one-block one) splits *binary* at the median
//! rank.

use std::sync::Arc;

use ppm_core::dsl::{fork2, jump_to, CapsuleDef, CapsuleSet, Span, Step, K};
use ppm_core::{persist_struct, Machine, PComp};
use ppm_pm::{PmResult, ProcCtx, Region, Word};

use crate::merge::{base_size, split_rank, Run};
use crate::prefix::{PrefixCapsules, PrefixSum};
use crate::util::{ceil_div, pread_range, pwrite_range, sort_capsule_words, BlockScatter};

fn region_at(start: usize, len: usize) -> Region {
    Region { start, len }
}

/// [`sort_capsule_words`] of the machine `ctx` runs on.
fn capsule_words(ctx: &ProcCtx) -> usize {
    sort_capsule_words(ctx.ephemeral_words(), ctx.block_size())
}

/// The in-capsule sequential sort: read a range, sort it in ephemeral
/// memory, write it out. O(len/B) capsule work; callers guarantee
/// `len = O(M)`.
fn sort_base_body(ctx: &mut ProcCtx, src: Run, dst: Region, dlo: usize) -> ppm_pm::PmResult<()> {
    if src.len() == 0 {
        return Ok(());
    }
    let mut v = pread_range(ctx, src.region.at(src.lo), src.len())?;
    v.sort_unstable();
    pwrite_range(ctx, dst.at(dlo), &v)
}

/// A mergesort instance.
#[derive(Debug, Clone, Copy)]
pub struct MergeSort {
    /// Input array (n words; not modified).
    pub input: Region,
    /// Output array (n words, sorted).
    pub output: Region,
    aux: Region,
    n: usize,
}

impl MergeSort {
    /// Carves regions for sorting `n` words.
    pub fn new(machine: &Machine, n: usize) -> Self {
        assert!(n > 0);
        MergeSort {
            input: machine.alloc_region(n),
            output: machine.alloc_region(n),
            aux: machine.alloc_region(n),
            n,
        }
    }

    /// Loads the input (uncosted setup).
    pub fn load_input(&self, machine: &Machine, data: &[Word]) {
        assert_eq!(data.len(), self.n);
        machine.mem().write_range(self.input.start, data);
    }

    /// Reads the sorted output (oracle).
    pub fn read_output(&self, machine: &Machine) -> Vec<Word> {
        machine.mem().to_vec(self.output.start, self.n)
    }

    /// The sorting computation as registered persistent capsules, for
    /// `ppm_sched::Runtime::run_or_recover`. Declares the
    /// `MsortCapsules` family (typed frame states carry the full run
    /// geometry, so the capsules are instance-free and shared by every
    /// mergesort on the machine).
    pub fn pcomp(&self) -> PComp {
        let s = *self;
        Arc::new(move |machine: &Machine, finale: Word| {
            let caps = MsortCapsules::declare(machine);
            caps.node
                .setup(
                    machine,
                    &MsortState {
                        src: Run {
                            region: s.input,
                            lo: 0,
                            hi: s.n,
                        },
                        dst: s.output,
                        dlo: 0,
                        aux: s.aux,
                        alo: 0,
                    },
                    K(finale),
                )
                .word()
        })
    }
}

// ====================================================================
// The mergesort capsule family (typed DSL)
// ====================================================================

persist_struct! {
    /// Mergesort node state: sort `src` into `dst[dlo..)` using
    /// `aux[alo..)` (same length) as scratch. Base cases of up to `M`
    /// elements sort inside one capsule.
    pub(crate) struct MsortState {
        pub(crate) src: Run,
        pub(crate) dst: Region,
        pub(crate) dlo: usize,
        pub(crate) aux: Region,
        pub(crate) alo: usize,
    }
}

persist_struct! {
    /// Merge node state: merge sorted runs `a` and `b` into `out[olo..)`.
    pub(crate) struct MergeState {
        pub(crate) a: Run,
        pub(crate) b: Run,
        pub(crate) out: Region,
        pub(crate) olo: usize,
    }
}

/// The mergesort capsule family on the typed DSL.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MsortCapsules {
    pub(crate) node: CapsuleDef<MsortState>,
}

impl MsortCapsules {
    /// Declares (idempotently) the mergesort capsules on `machine`'s
    /// registry and installs their bodies.
    pub(crate) fn declare(machine: &Machine) -> MsortCapsules {
        let mut set = CapsuleSet::new(machine);
        let node = set.declare::<MsortState>("msort/node");
        let merge = declare_merge(&mut set, "msort/merge", |ctx| base_size(capsule_words(ctx)));

        set.body(node, move |st: &MsortState, k, ctx| {
            let n = st.src.len();
            let base = ctx.ephemeral_words().max(ctx.block_size());
            if n <= base {
                sort_base_body(ctx, st.src, st.dst, st.dlo)?;
                return Ok(Step::Jump(k));
            }
            let mid = n / 2;
            let (left, right) = (
                Run {
                    region: st.src.region,
                    lo: st.src.lo,
                    hi: st.src.lo + mid,
                },
                Run {
                    region: st.src.region,
                    lo: st.src.lo + mid,
                    hi: st.src.hi,
                },
            );
            // Sort halves into aux (each using the matching dst half as
            // its own scratch), then merge aux halves into dst.
            let aux_l = Run {
                region: st.aux,
                lo: st.alo,
                hi: st.alo + mid,
            };
            let aux_r = Run {
                region: st.aux,
                lo: st.alo + mid,
                hi: st.alo + n,
            };
            let after = merge.frame(
                ctx,
                &MergeState {
                    a: aux_l,
                    b: aux_r,
                    out: st.dst,
                    olo: st.dlo,
                },
                k,
            )?;
            fork2(
                ctx,
                (
                    node,
                    &MsortState {
                        src: left,
                        dst: st.aux,
                        dlo: st.alo,
                        aux: st.dst,
                        alo: st.dlo,
                    },
                ),
                (
                    node,
                    &MsortState {
                        src: right,
                        dst: st.aux,
                        dlo: st.alo + mid,
                        aux: st.dst,
                        alo: st.dlo + mid,
                    },
                ),
                after,
            )
        });

        MsortCapsules { node }
    }
}

/// Declares a merge capsule named `name` whose sequential base case
/// takes up to `base(ctx)` elements. One body, two registrations: the
/// sorts pass Θ(M) ([`sort_capsule_words`], Theorem 7.3's `C = O(M/B)`),
/// [`crate::merge::Merge::pcomp`] passes `base_size(B)` (Theorem 7.2's
/// `C = O(log n)`).
pub(crate) fn declare_merge(
    set: &mut CapsuleSet,
    name: &'static str,
    base: fn(&ProcCtx) -> usize,
) -> CapsuleDef<MergeState> {
    let merge = set.declare::<MergeState>(name);
    set.body(merge, move |st: &MergeState, k, ctx| {
        let (a, b) = (st.a, st.b);
        let n = a.len() + b.len();
        if n <= base(ctx) {
            // Sequential base merge in one capsule (empty runs can sit
            // at a region's end; never form their address).
            let av = if a.len() > 0 {
                pread_range(ctx, a.region.at(a.lo), a.len())?
            } else {
                Vec::new()
            };
            let bv = if b.len() > 0 {
                pread_range(ctx, b.region.at(b.lo), b.len())?
            } else {
                Vec::new()
            };
            let merged = crate::merge::merge_seq(&av, &bv);
            if !merged.is_empty() {
                pwrite_range(ctx, st.out.at(st.olo), &merged)?;
            }
            return Ok(Step::Jump(k));
        }
        // Binary split at the median rank: one dual binary search
        // (O(log n) capsule work), then fork the two sub-merges.
        let r = n / 2;
        let sa = split_rank(ctx, a, b, r)?;
        let sb = r - sa;
        let (a_l, a_r) = (
            Run {
                region: a.region,
                lo: a.lo,
                hi: a.lo + sa,
            },
            Run {
                region: a.region,
                lo: a.lo + sa,
                hi: a.hi,
            },
        );
        let (b_l, b_r) = (
            Run {
                region: b.region,
                lo: b.lo,
                hi: b.lo + sb,
            },
            Run {
                region: b.region,
                lo: b.lo + sb,
                hi: b.hi,
            },
        );
        fork2(
            ctx,
            (
                merge,
                &MergeState {
                    a: a_l,
                    b: b_l,
                    out: st.out,
                    olo: st.olo,
                },
            ),
            (
                merge,
                &MergeState {
                    a: a_r,
                    b: b_r,
                    out: st.out,
                    olo: st.olo + r,
                },
            ),
            k,
        )
    });
    merge
}

// ====================================================================
// Samplesort
// ====================================================================

/// Pivot-selection chunk size (keeps strided pivot reads out of any one
/// capsule's work bound).
const PIVOT_CHUNK: usize = 256;

/// Per-node samplesort geometry, derived deterministically from `n` and
/// the machine's `M`: every phase of a node rebuilds the same one.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    n: usize,
    /// Subarray length (≈ √n).
    sub: usize,
    /// Number of subarrays (rows).
    rows: usize,
    /// Sampling stride (≈ log₂ n).
    stride: usize,
    /// Total samples.
    total_samples: usize,
    /// Number of buckets: ⌈2n/M⌉, an expected `M/2` keys each, and at
    /// most `rows` and `total_samples`.
    buckets: usize,
}

impl Geometry {
    fn new(n: usize, m: usize) -> Self {
        let sub = (n as f64).sqrt().ceil() as usize;
        let mut g = Geometry {
            n,
            sub,
            rows: ceil_div(n, sub),
            stride: (usize::BITS - n.leading_zeros()) as usize, // ~log2 n
            total_samples: 0,
            buckets: 0,
        };
        g.total_samples = (0..g.rows).map(|i| g.samples_in_row(i)).sum();
        g.buckets = g
            .rows
            .min(g.total_samples)
            .min(ceil_div(2 * n, m.max(1)))
            .max(1);
        g
    }

    /// The geometry of an `n`-key node on the machine `ctx` runs on.
    fn of(ctx: &ProcCtx, n: usize) -> Self {
        Geometry::new(n, ctx.ephemeral_words())
    }

    fn row_len(&self, i: usize) -> usize {
        (self.n - i * self.sub).min(self.sub)
    }

    /// The rank of row `i`'s first sample: row `i` samples ranks
    /// `phase(i) + k·stride`, the phases spread evenly over one stride.
    fn phase(&self, i: usize) -> usize {
        i * self.stride / self.rows
    }

    /// Samples of row `i`: none when the row is shorter than its phase.
    fn samples_in_row(&self, i: usize) -> usize {
        ceil_div(self.row_len(i).saturating_sub(self.phase(i)), self.stride)
    }

    fn sample_offset(&self, i: usize) -> usize {
        (0..i).map(|r| self.samples_in_row(r)).sum()
    }

    /// Key words a row puts in one bucket, rounded up: ≈ √n keys over
    /// the buckets (`rows` is √n within one), and exactly 1 when
    /// `buckets = rows`.
    fn words_per_cell(&self) -> usize {
        ceil_div(self.rows, self.buckets)
    }
}

persist_struct! {
    /// Scratch regions for one samplesort node, pool-allocated in its
    /// expansion capsule (restart-stable). Rides in every phase frame.
    struct Scratch {
        subsorted: Region,
        row_aux: Region,
        samples: Region,
        samples_sorted: Region,
        samples_aux: Region,
        pivots: Region,
        /// Row-major boundaries: rows × (buckets + 1).
        bounds: Region,
        /// Column-major counts (prefix input): buckets × rows.
        counts_cm: Region,
        /// Inclusive prefix sums of `counts_cm`.
        sums: Region,
        sums_tree: Region,
        /// The partitioned elements, bucket-major.
        bucketed: Region,
    }
}

impl Scratch {
    fn alloc(ctx: &mut ProcCtx, g: &Geometry, leaf_words: usize) -> PmResult<Scratch> {
        let cm = g.rows * g.buckets;
        Ok(Scratch {
            subsorted: region_at(ctx.palloc(g.n)?, g.n),
            row_aux: region_at(ctx.palloc(g.n)?, g.n),
            samples: region_at(ctx.palloc(g.total_samples.max(1))?, g.total_samples.max(1)),
            samples_sorted: region_at(ctx.palloc(g.total_samples.max(1))?, g.total_samples.max(1)),
            samples_aux: region_at(ctx.palloc(g.total_samples.max(1))?, g.total_samples.max(1)),
            pivots: region_at(ctx.palloc(g.buckets.max(2) - 1)?, g.buckets.max(2) - 1),
            bounds: region_at(
                ctx.palloc(g.rows * (g.buckets + 1))?,
                g.rows * (g.buckets + 1),
            ),
            counts_cm: region_at(ctx.palloc(cm)?, cm),
            sums: region_at(ctx.palloc(cm)?, cm),
            sums_tree: region_at(
                ctx.palloc(PrefixSum::sums_words(cm, leaf_words))?,
                PrefixSum::sums_words(cm, leaf_words),
            ),
            bucketed: region_at(ctx.palloc(g.n)?, g.n),
        })
    }
}

/// Pool words one samplesort node of size `n` allocates, on any machine
/// that can run it (for sizing machine pools). The bucket count and the
/// sums tree depend on `(M, B)`. The matrices are largest with the most
/// buckets, √n, which `M = 1` asks for here; every row sampled from rank
/// 0 counts at least `total_samples`; and the sums tree is largest where
/// the prefix leaves are smallest: `n ≤ M²` ([`SampleSort::new`]) puts
/// [`sort_capsule_words`] — the size [`Scratch::alloc`] allocates with —
/// above `√n / 8` for every `B`.
fn node_scratch_words(n: usize) -> usize {
    let g = Geometry::new(n, 1);
    let samples: usize = (0..g.rows).map(|i| ceil_div(g.row_len(i), g.stride)).sum();
    let cm = g.rows * g.buckets;
    let min_leaf_words = (g.sub / 8).max(1);
    3 * n
        + 3 * samples
        + g.buckets
        + g.rows * (g.buckets + 1)
        + 2 * cm
        + PrefixSum::sums_words(cm.max(1), min_leaf_words)
        + 64
}

/// Frame and join-cell words budgeted per key, on top of the scratch.
///
/// Every phase forks over Θ(M)-word capsules, so a recursion level
/// writes `O(n/M + √n)` frames — not the `O(n/B)` the embedded prefix sum
/// wrote while its leaves were single blocks (≈ 12 frame words per counts
/// element then). Measured retain-everything footprints — P = 1, every
/// join foreign so none frees a word, checkpoints off, uniform keys,
/// scratch included: 4.3·n words at n = 2¹⁵ and 2¹⁷ with the default
/// `(M, B)` = (4096, 8), about n of it frames; 29·n at (64, 8), n = 900,
/// and 42·n at n = M² = 4096, because `n/M` approaches `√n` and a frame is
/// ≈ 40 words. (With √n buckets they were 7.7·n, 7.2·n, 56·n and 57·n.)
/// The term is sized for that smallest legal memory, where those runs
/// take 36–61 % of [`samplesort_pool_words`]; the slack is kept because
/// callers size their pools with it.
const FRAME_WORDS_PER_KEY: usize = 40;

/// Recommended per-processor pool words for samplesorting `n` elements:
/// the scratch of four recursion levels (depth is `log_M n`; the worst
/// case is one processor expanding every node), 40 words per key
/// for the typed frames and join cells every phase writes, and a constant
/// tail for one checkpoint epoch of churn.
///
/// **It holds without reclamation.** Joins free a finished fork's words
/// (`ppm_pm::proc`), and the checkpoint GC (`ppm_sched::checkpoint`, on by
/// default) reclaims what joins cannot; but with neither — every join
/// foreign, checkpoints off, P = 1 — a run on uniform keys peaks at 7 %
/// of this budget with the default `(M, B)` at n = 2¹⁵ and 2¹⁷, and at
/// 36–61 % with `M = 64` at n = 900 and 4096 (40–65 % on
/// `tests/checkpoint.rs`'s keys at n = 700–4096). A run configured with
/// `CheckpointPolicy::disabled()` that must survive crash resume or
/// hard-fault adoption re-allocates the replayed span on top of the dead
/// run's watermark and should budget roughly an extra `40 * n` words.
pub fn samplesort_pool_words(n: usize) -> usize {
    4 * node_scratch_words(n.max(16)) + FRAME_WORDS_PER_KEY * n + (1 << 13)
}

// ---- Phase bodies ---------------------------------------------------

/// Phase 2 body: sample sorted rows `[r0, r1)`, every ⌈log n⌉-th element
/// of row `i` from rank `phase(i)` on.
fn sample_rows_body(
    ctx: &mut ProcCtx,
    g: &Geometry,
    s: &Scratch,
    r0: usize,
    r1: usize,
) -> ppm_pm::PmResult<()> {
    let mut offset = g.sample_offset(r0);
    for i in r0..r1 {
        let count = g.samples_in_row(i);
        if count == 0 {
            continue;
        }
        let phase = g.phase(i);
        let row = pread_range(ctx, s.subsorted.at(i * g.sub + phase), g.row_len(i) - phase)?;
        let picks: Vec<Word> = row.iter().step_by(g.stride).copied().collect();
        debug_assert_eq!(picks.len(), count);
        pwrite_range(ctx, s.samples.at(offset), &picks)?;
        offset += count;
    }
    Ok(())
}

/// Phase 4 body: pick pivots by fixed stride, chunk `c`.
fn pivot_chunk_body(
    ctx: &mut ProcCtx,
    g: &Geometry,
    s: &Scratch,
    c: usize,
) -> ppm_pm::PmResult<()> {
    let npiv = g.buckets - 1;
    let lo = c * PIVOT_CHUNK;
    let hi = ((c + 1) * PIVOT_CHUNK).min(npiv);
    if lo >= hi {
        return Ok(());
    }
    let mut vals = Vec::with_capacity(hi - lo);
    for j in lo..hi {
        let idx = ((j + 1) * g.total_samples / g.buckets).min(g.total_samples - 1);
        vals.push(ctx.pread(s.samples_sorted.at(idx))?);
    }
    pwrite_range(ctx, s.pivots.at(lo), &vals)
}

/// Phase 5 body: bucket boundaries of rows `[r0, r1)` (merge each row
/// with the pivots, which are read once for the whole group).
fn bounds_rows_body(
    ctx: &mut ProcCtx,
    g: &Geometry,
    s: &Scratch,
    r0: usize,
    r1: usize,
) -> ppm_pm::PmResult<()> {
    let piv = pread_range(ctx, s.pivots.at(0), g.buckets - 1)?;
    for i in r0..r1 {
        let row = pread_range(ctx, s.subsorted.at(i * g.sub), g.row_len(i))?;
        let mut out = Vec::with_capacity(g.buckets + 1);
        out.push(0u64);
        let mut pos = 0usize;
        for p in &piv {
            while pos < row.len() && row[pos] <= *p {
                pos += 1;
            }
            out.push(pos as Word);
        }
        out.push(row.len() as Word);
        pwrite_range(ctx, s.bounds.at(i * (g.buckets + 1)), &out)?;
    }
    Ok(())
}

/// Phase 6 base body: transpose counts for the submatrix
/// `[r0, r1) × [j0, j1)`.
fn transpose_base_body(
    ctx: &mut ProcCtx,
    g: &Geometry,
    s: &Scratch,
    r0: usize,
    r1: usize,
    j0: usize,
    j1: usize,
) -> ppm_pm::PmResult<()> {
    // Read each row's boundary slice [j0..j1], emit per-column contiguous
    // runs of counts.
    let mut cols: Vec<Vec<Word>> = vec![Vec::with_capacity(r1 - r0); j1 - j0];
    for i in r0..r1 {
        let row = pread_range(ctx, s.bounds.at(i * (g.buckets + 1) + j0), j1 - j0 + 1)?;
        for (c, w) in row.windows(2).enumerate() {
            cols[c].push(w[1] - w[0]);
        }
    }
    for (c, col) in cols.iter().enumerate() {
        let j = j0 + c;
        pwrite_range(ctx, s.counts_cm.at(j * g.rows + r0), col)?;
    }
    Ok(())
}

/// Phase 8 base body: move the `[r0, r1) × [j0, j1)` segments of
/// `subsorted` to their destinations in `bucketed` — propagation-blocked.
///
/// Row segments are read sequentially and appended into per-bucket
/// staging bins ([`BlockScatter`]); full bins stream to the destination
/// as aligned block writes. Bins bound the ephemeral footprint at
/// `O((j1−j0)·B)` regardless of the tile's row count, which is what lets
/// [`tile_plan`] run scatter tiles ~8× taller than the buffered-transpose
/// tiles: fewer tiles means fewer per-tile offset reads, and taller
/// tiles mean longer per-bucket runs, so more writes are full blocks.
fn scatter_base_body(
    ctx: &mut ProcCtx,
    g: &Geometry,
    s: &Scratch,
    r0: usize,
    r1: usize,
    j0: usize,
    j1: usize,
) -> ppm_pm::PmResult<()> {
    let jw = j1 - j0;
    // Per bucket j: destination of the run contributed by rows [r0, r1)
    // starts at S[j·rows + r0] − count(r0, j); count(r0, j) falls out of
    // row r0's boundary slice, which doubles as the first data row's.
    let brow0 = pread_range(ctx, s.bounds.at(r0 * (g.buckets + 1) + j0), jw + 1)?;
    let mut dests = Vec::with_capacity(jw);
    for c in 0..jw {
        let j = j0 + c;
        let s_first = ctx.pread(s.sums.at(j * g.rows + r0))? as usize;
        let count_r0 = (brow0[c + 1] - brow0[c]) as usize;
        // An empty bucket column at the tail of the key range starts its
        // (zero-length) run one past the region end — cursor, not at.
        dests.push(s.bucketed.cursor(s_first - count_r0));
    }
    let mut sc = BlockScatter::new(ctx, dests);
    for i in r0..r1 {
        let brow = if i == r0 {
            brow0.clone()
        } else {
            pread_range(ctx, s.bounds.at(i * (g.buckets + 1) + j0), jw + 1)?
        };
        let lo = brow[0] as usize;
        let hi = brow[jw] as usize;
        if hi == lo {
            continue;
        }
        let data = pread_range(ctx, s.subsorted.at(i * g.sub + lo), hi - lo)?;
        for c in 0..jw {
            let (a, b) = (brow[c] as usize, brow[c + 1] as usize);
            sc.push_run(ctx, c, &data[a - lo..b - lo])?;
        }
    }
    sc.flush(ctx)
}

/// Rows one capsule of the per-row phases (sampling, boundaries) takes:
/// as many as fit the sort capsule size, so a phase over `rows` rows is
/// `rows / row_group` leaf capsules instead of `rows`.
fn row_group(ctx: &ProcCtx, g: &Geometry) -> usize {
    (capsule_words(ctx) / g.sub).max(1)
}

/// 2D split threshold.
fn grid_cap(ctx: &ProcCtx) -> usize {
    (ctx.ephemeral_words() / 4).max(64)
}

/// Tile caps for the two grid phases: `(area cap, bucket-width cap)`.
///
/// The transpose buffers its whole submatrix ephemerally, so its area is
/// capped at `M/4` and its width unconstrained. The propagation-blocked
/// scatter only keeps one staging bin per bucket column plus one data
/// row, so its tiles run `2M` words of keys — `2M` cells divided by the
/// expected words per cell — as long as the bin footprint `(j1−j0)·B`
/// stays under `M/2`.
fn tile_caps(ctx: &ProcCtx, g: &Geometry, scatter: bool) -> (usize, usize) {
    if scatter {
        let m = ctx.ephemeral_words();
        let b = ctx.block_size();
        (
            ((2 * m).max(64) / g.words_per_cell()).max(1),
            (m / (2 * b)).max(1),
        )
    } else {
        (grid_cap(ctx), usize::MAX)
    }
}

/// A 2D grid step: run the tile as a base case, or split rows/buckets.
enum Tile {
    Base,
    SplitR(usize),
    SplitJ(usize),
}

/// The split policy of the two grid capsules: force bucket splits until
/// the width cap holds (the staging bins must fit in ephemeral memory),
/// then halve the longer dimension until the area fits a capsule.
fn tile_plan(r0: usize, r1: usize, j0: usize, j1: usize, caps: (usize, usize)) -> Tile {
    let (area_cap, jcap) = caps;
    let area = (r1 - r0) * (j1 - j0);
    if (r1 - r0 == 1 && j1 - j0 == 1) || (area <= area_cap && j1 - j0 <= jcap) {
        return Tile::Base;
    }
    if j1 - j0 > jcap {
        return Tile::SplitJ((j0 + j1) / 2);
    }
    if r1 - r0 >= j1 - j0 {
        Tile::SplitR((r0 + r1) / 2)
    } else {
        Tile::SplitJ((j0 + j1) / 2)
    }
}

// ====================================================================
// The samplesort capsule family (typed DSL)
// ====================================================================

persist_struct! {
    /// Samplesort phase environment: one node's instance coordinates plus
    /// its scratch. Rides in every phase frame.
    struct SsEnv {
        src: Run,
        dst: Region,
        dlo: usize,
        n: usize,
        s: Scratch,
    }
}

persist_struct! {
    /// A 2D submatrix task (counts transpose / bucket scatter) of the
    /// row × bucket grid.
    struct SsGrid {
        env: SsEnv,
        r0: usize,
        r1: usize,
        j0: usize,
        j1: usize,
    }
}

persist_struct! {
    /// One samplesort node: sort `src` into `dst[dlo..)`; `progress`
    /// guards degenerate partitions.
    struct SsNode {
        src: Run,
        dst: Region,
        dlo: usize,
        progress: bool,
    }
}

/// The samplesort capsule family on the typed DSL: the node capsule
/// (entry point), plus — captured inside the bodies — the two 2D-grid
/// capsules, one map per row/chunk/bucket phase, and the embedded
/// mergesort and prefix-sum families.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SsCapsules {
    node: CapsuleDef<SsNode>,
}

impl SsCapsules {
    /// Declares (idempotently) the samplesort capsules — plus the
    /// mergesort and prefix-sum families they embed — on `machine`'s
    /// registry and installs their bodies.
    pub(crate) fn declare(machine: &Machine) -> SsCapsules {
        let msort = MsortCapsules::declare(machine);
        let prefix = PrefixCapsules::declare(machine);
        let mut set = CapsuleSet::new(machine);

        let node = set.declare::<SsNode>("ssort/node");
        let transpose = set.declare::<SsGrid>("ssort/transpose");
        let scatter = set.declare::<SsGrid>("ssort/scatter");

        // Phase 1: sort each row — each leaf jumps into the mergesort
        // family over its row.
        let sortrow_leaf = set.define("ssort/sortrow", move |st: &Span<SsEnv>, k, ctx| {
            let env = st.env;
            let g = Geometry::of(ctx, env.n);
            debug_assert_eq!(st.hi, st.lo + 1, "grain-1 map leaf");
            let i = st.lo;
            let row = Run {
                region: env.src.region,
                lo: env.src.lo + i * g.sub,
                hi: env.src.lo + i * g.sub + g.row_len(i),
            };
            jump_to(
                ctx,
                msort.node,
                &MsortState {
                    src: row,
                    dst: env.s.subsorted,
                    dlo: i * g.sub,
                    aux: env.s.row_aux,
                    alo: i * g.sub,
                },
                k,
            )
        });
        let sortrows = set.map_grain("ssort/sortrows", 1, sortrow_leaf);

        // Phase 2: sample each sorted row (span indices are row groups).
        let sample_leaf = set.define("ssort/sample", |st: &Span<SsEnv>, k, ctx| {
            let g = Geometry::of(ctx, st.env.n);
            let rg = row_group(ctx, &g);
            sample_rows_body(ctx, &g, &st.env.s, st.lo * rg, (st.hi * rg).min(g.rows))?;
            Ok(Step::Jump(k))
        });
        let samples = set.map_grain("ssort/samples", 1, sample_leaf);

        // Phase 4: pivots by chunk.
        let pivot_leaf = set.define("ssort/pivot-chunk", |st: &Span<SsEnv>, k, ctx| {
            let g = Geometry::of(ctx, st.env.n);
            for c in st.lo..st.hi {
                pivot_chunk_body(ctx, &g, &st.env.s, c)?;
            }
            Ok(Step::Jump(k))
        });
        let pivots = set.map_grain("ssort/pivot-chunks", 1, pivot_leaf);

        // Phase 5: per-row bucket boundaries (span indices are row groups).
        let bounds_leaf = set.define("ssort/bounds-row", |st: &Span<SsEnv>, k, ctx| {
            let g = Geometry::of(ctx, st.env.n);
            let rg = row_group(ctx, &g);
            bounds_rows_body(ctx, &g, &st.env.s, st.lo * rg, (st.hi * rg).min(g.rows))?;
            Ok(Step::Jump(k))
        });
        let bounds = set.map_grain("ssort/bounds-rows", 1, bounds_leaf);

        // Phase 9: per-bucket recursion — each leaf reads its bucket's
        // offsets and jumps back into the node capsule.
        let recurse_leaf = set.define("ssort/recurse", move |st: &Span<SsEnv>, k, ctx| {
            let env = st.env;
            let g = Geometry::of(ctx, env.n);
            debug_assert_eq!(st.hi, st.lo + 1, "grain-1 map leaf");
            let j = st.lo;
            let start = if j == 0 {
                0
            } else {
                ctx.pread(env.s.sums.at(j * g.rows - 1))? as usize
            };
            let end = ctx.pread(env.s.sums.at((j + 1) * g.rows - 1))? as usize;
            if start == end {
                return Ok(Step::Jump(k));
            }
            jump_to(
                ctx,
                node,
                &SsNode {
                    src: Run {
                        region: env.s.bucketed,
                        lo: start,
                        hi: end,
                    },
                    dst: env.dst,
                    dlo: env.dlo + start,
                    progress: end - start < env.n,
                },
                k,
            )
        });
        let recurse = set.map_grain("ssort/recurses", 1, recurse_leaf);

        // Phases 6 and 8: the 2D grid splits.
        set.body(transpose, move |st: &SsGrid, k, ctx| {
            grid_body(ctx, transpose, st, k, false, transpose_base_body)
        });
        set.body(scatter, move |st: &SsGrid, k, ctx| {
            grid_body(ctx, scatter, st, k, true, scatter_base_body)
        });

        // The node: base sort, degenerate fallback, or the nine-phase
        // pipeline chained backward as frames.
        set.body(node, move |st: &SsNode, k, ctx| {
            let n = st.src.len();
            let base = ctx.ephemeral_words().max(ctx.block_size());
            if n <= base {
                sort_base_body(ctx, st.src, st.dst, st.dlo)?;
                return Ok(Step::Jump(k));
            }
            if !st.progress {
                // Degenerate partition (e.g. all-equal keys): mergesort.
                let aux = region_at(ctx.palloc(n)?, n);
                return jump_to(
                    ctx,
                    msort.node,
                    &MsortState {
                        src: st.src,
                        dst: st.dst,
                        dlo: st.dlo,
                        aux,
                        alo: 0,
                    },
                    k,
                );
            }
            let g = Geometry::of(ctx, n);
            // The embedded prefix sum and the merges run at this node's
            // theorem: Θ(M)-word capsules (Theorem 7.3).
            let leaf_words = capsule_words(ctx);
            let s = Scratch::alloc(ctx, &g, leaf_words)?;
            let env = SsEnv {
                src: st.src,
                dst: st.dst,
                dlo: st.dlo,
                n,
                s,
            };
            let span = |lo: usize, hi: usize| Span { env, lo, hi };
            let grid = SsGrid {
                env,
                r0: 0,
                r1: g.rows,
                j0: 0,
                j1: g.buckets,
            };
            // Chain the phases backward from k: each phase's continuation
            // is the next phase's entry frame.
            let k9 = recurse.frame(ctx, &span(0, g.buckets), k)?;
            let k8 = scatter.frame(ctx, &grid, k9)?;
            let cm = g.rows * g.buckets;
            let pre = PrefixSum::with_regions(s.counts_cm, s.sums, s.sums_tree, cm, leaf_words);
            let k7 = prefix.chain(ctx, pre, k8)?;
            let k6 = transpose.frame(ctx, &grid, k7)?;
            let groups = ceil_div(g.rows, row_group(ctx, &g));
            let k5 = bounds.frame(ctx, &span(0, groups), k6)?;
            let chunks = ceil_div((g.buckets - 1).max(1), PIVOT_CHUNK);
            let k4 = pivots.frame(ctx, &span(0, chunks), k5)?;
            let k3 = msort.node.frame(
                ctx,
                &MsortState {
                    src: Run {
                        region: s.samples,
                        lo: 0,
                        hi: g.total_samples,
                    },
                    dst: s.samples_sorted,
                    dlo: 0,
                    aux: s.samples_aux,
                    alo: 0,
                },
                k4,
            )?;
            let k2 = samples.frame(ctx, &span(0, groups), k3)?;
            let k1 = sortrows.frame(ctx, &span(0, g.rows), k2)?;
            Ok(Step::Jump(k1))
        });

        SsCapsules { node }
    }
}

/// Shared body of the two 2D-grid capsules: run the base case inline when
/// the submatrix fits a capsule, otherwise fork on the longer dimension.
fn grid_body(
    ctx: &mut ProcCtx,
    def: CapsuleDef<SsGrid>,
    st: &SsGrid,
    k: K,
    scatter: bool,
    base: fn(&mut ProcCtx, &Geometry, &Scratch, usize, usize, usize, usize) -> ppm_pm::PmResult<()>,
) -> ppm_pm::PmResult<Step> {
    let g = Geometry::of(ctx, st.env.n);
    let (r0, r1, j0, j1) = (st.r0, st.r1, st.j0, st.j1);
    let sub = |r0, r1, j0, j1| SsGrid {
        env: st.env,
        r0,
        r1,
        j0,
        j1,
    };
    match tile_plan(r0, r1, j0, j1, tile_caps(ctx, &g, scatter)) {
        Tile::Base => {
            base(ctx, &g, &st.env.s, r0, r1, j0, j1)?;
            Ok(Step::Jump(k))
        }
        Tile::SplitR(rm) => fork2(
            ctx,
            (def, &sub(r0, rm, j0, j1)),
            (def, &sub(rm, r1, j0, j1)),
            k,
        ),
        Tile::SplitJ(jm) => fork2(
            ctx,
            (def, &sub(r0, r1, j0, jm)),
            (def, &sub(r0, r1, jm, j1)),
            k,
        ),
    }
}

/// A samplesort instance.
#[derive(Debug, Clone, Copy)]
pub struct SampleSort {
    /// Input array (n words; not modified).
    pub input: Region,
    /// Output array (n words, sorted).
    pub output: Region,
    n: usize,
}

impl SampleSort {
    /// Carves regions for sorting `n` words. Requires `n ≤ M²` (keeps one
    /// subarray plus the pivots within a capsule's ephemeral memory).
    ///
    /// The machine's per-processor pools must be at least
    /// [`samplesort_pool_words`]`(n)` — build it with
    /// [`Machine::with_pool_words`].
    pub fn new(machine: &Machine, n: usize) -> Self {
        assert!(n > 0);
        let m = machine.cfg().ephemeral_words;
        assert!(
            n <= m * m,
            "samplesort requires n <= M^2 (n = {n}, M = {m}) so a subarray fits a capsule"
        );
        SampleSort {
            input: machine.alloc_region(n),
            output: machine.alloc_region(n),
            n,
        }
    }

    /// Loads the input (uncosted setup).
    pub fn load_input(&self, machine: &Machine, data: &[Word]) {
        assert_eq!(data.len(), self.n);
        machine.mem().write_range(self.input.start, data);
    }

    /// Reads the sorted output (oracle).
    pub fn read_output(&self, machine: &Machine) -> Vec<Word> {
        machine.mem().to_vec(self.output.start, self.n)
    }

    /// The sorting computation as registered persistent capsules, for
    /// `ppm_sched::Runtime::run_or_recover`: the full nine-phase pipeline
    /// — row sorts, sampling, sample sort, pivots, boundaries, counts
    /// transpose, prefix sums, bucket scatter, per-bucket recursion — as
    /// typed frames, so a killed run resumes mid-pipeline.
    pub fn pcomp(&self) -> PComp {
        let s = *self;
        Arc::new(move |machine: &Machine, finale: Word| {
            let caps = SsCapsules::declare(machine);
            caps.node
                .setup(
                    machine,
                    &SsNode {
                        src: Run {
                            region: s.input,
                            lo: 0,
                            hi: s.n,
                        },
                        dst: s.output,
                        dlo: 0,
                        progress: true,
                    },
                    K(finale),
                )
                .word()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_pm::{FaultConfig, PmConfig};
    use ppm_sched::{Runtime, SchedConfig};

    fn data(seed: u64, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
                (x ^ (x >> 31)) % 100_000
            })
            .collect()
    }

    fn runtime_for_samplesort(n: usize, procs: usize, m_eph: usize, f: FaultConfig) -> Runtime {
        samplesort_runtime(
            n,
            PmConfig::parallel(procs, 1 << 23).with_ephemeral_words(m_eph),
            f,
        )
    }

    fn samplesort_runtime(n: usize, pm: PmConfig, f: FaultConfig) -> Runtime {
        Runtime::new(
            Machine::with_pool_words(pm.with_fault(f), samplesort_pool_words(n)),
            SchedConfig::with_slots(1 << 14),
        )
    }

    fn runtime_for_mergesort(procs: usize, m_eph: usize, f: FaultConfig) -> Runtime {
        Runtime::new(
            Machine::new(
                PmConfig::parallel(procs, 1 << 22)
                    .with_ephemeral_words(m_eph)
                    .with_fault(f),
            ),
            SchedConfig::with_slots(1 << 13),
        )
    }

    #[test]
    #[should_panic(expected = "n <= M^2")]
    fn samplesort_rejects_oversized_instances() {
        let m = Machine::new(PmConfig::parallel(1, 1 << 20).with_ephemeral_words(16));
        let _ = SampleSort::new(&m, 1 << 10);
    }

    fn check_registered_mergesort(n: usize, procs: usize, m_eph: usize, f: FaultConfig) {
        let rt = runtime_for_mergesort(procs, m_eph, f);
        let ms = MergeSort::new(rt.machine(), n);
        let input = data(19, n);
        ms.load_input(rt.machine(), &input);
        let rep = rt.run_or_recover(&ms.pcomp());
        assert!(rep.completed());
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(
            ms.read_output(rt.machine()),
            expect,
            "registered mergesort n={n}"
        );
    }

    fn check_registered_samplesort(n: usize, procs: usize, m_eph: usize, f: FaultConfig) {
        check_samplesort_on(runtime_for_samplesort(n, procs, m_eph, f), n);
    }

    fn check_samplesort_on(rt: Runtime, n: usize) {
        let ss = SampleSort::new(rt.machine(), n);
        let input = data(23, n);
        ss.load_input(rt.machine(), &input);
        let rep = rt.run_or_recover(&ss.pcomp());
        assert!(rep.completed());
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(
            ss.read_output(rt.machine()),
            expect,
            "registered samplesort n={n}"
        );
    }

    #[test]
    fn registered_mergesort_small_and_base() {
        check_registered_mergesort(1, 1, 64, FaultConfig::none());
        check_registered_mergesort(63, 1, 64, FaultConfig::none());
        check_registered_mergesort(64, 1, 64, FaultConfig::none());
        check_registered_mergesort(65, 1, 64, FaultConfig::none());
    }

    #[test]
    fn registered_mergesort_medium_parallel() {
        check_registered_mergesort(1 << 12, 4, 256, FaultConfig::none());
    }

    #[test]
    fn registered_mergesort_with_soft_faults() {
        for seed in [5, 7] {
            check_registered_mergesort(512, 2, 64, FaultConfig::soft(0.005, seed));
        }
    }

    #[test]
    fn registered_mergesort_with_hard_fault() {
        check_registered_mergesort(
            700,
            3,
            64,
            FaultConfig::none().with_scheduled_hard_fault(2, 400),
        );
    }

    #[test]
    fn registered_samplesort_small_and_recursive() {
        check_registered_samplesort(64, 1, 64, FaultConfig::none());
        check_registered_samplesort(400, 2, 64, FaultConfig::none());
    }

    #[test]
    fn registered_samplesort_across_memory_and_block_sizes() {
        // The capsule size follows (M, B): 16, 64 and 1024 words here. Odd
        // sizes, so no row, leaf or tile boundary lines up with another.
        for (n, m_eph, b) in [(1237, 64, 4), (5003, 256, 8), (20_011, 4096, 16)] {
            let pm = PmConfig::parallel(2, 1 << 23)
                .with_ephemeral_words(m_eph)
                .with_block_size(b);
            check_samplesort_on(samplesort_runtime(n, pm, FaultConfig::none()), n);
        }
    }

    #[test]
    fn registered_samplesort_medium_parallel() {
        check_registered_samplesort(1 << 12, 4, 64, FaultConfig::none());
    }

    #[test]
    fn registered_samplesort_with_soft_faults() {
        for seed in [2, 9] {
            check_registered_samplesort(500, 2, 64, FaultConfig::soft(0.003, seed));
        }
    }

    #[test]
    fn registered_samplesort_with_hard_fault() {
        check_registered_samplesort(
            800,
            3,
            64,
            FaultConfig::none().with_scheduled_hard_fault(1, 500),
        );
    }

    #[test]
    fn registered_samplesort_duplicate_heavy_falls_back() {
        let n = 600;
        let rt = runtime_for_samplesort(n, 2, 64, FaultConfig::none());
        let ss = SampleSort::new(rt.machine(), n);
        let mut input = vec![42u64; n];
        input[0] = 1;
        input[n - 1] = 99;
        ss.load_input(rt.machine(), &input);
        let rep = rt.run_or_recover(&ss.pcomp());
        assert!(rep.completed());
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(ss.read_output(rt.machine()), expect);
    }

    #[test]
    fn buckets_follow_m_below_m_squared_over_four() {
        // The benchmark's geometry: 362 rows of 363 keys, 64 buckets of
        // an expected M/2 keys (BGS10's √n would be 362).
        let g = Geometry::new(1 << 17, 4096);
        assert_eq!((g.sub, g.rows, g.stride, g.buckets), (363, 362, 18, 64));
        assert_eq!(g.words_per_cell(), 6);
    }

    #[test]
    fn buckets_stay_sqrt_n_from_m_squared_over_four() {
        for m in [64usize, 256, 4096] {
            for n in [m * m / 4, m * m / 4 + 1, m * m / 2 + 7, m * m] {
                let g = Geometry::new(n, m);
                assert_eq!(g.buckets, g.rows, "n = {n}, M = {m}");
                assert_eq!(g.words_per_cell(), 1, "n = {n}, M = {m}");
            }
        }
    }

    #[test]
    fn total_samples_is_the_sum_of_every_rows_samples() {
        let mut short_last_rows = 0;
        for n in 1..6000 {
            let g = Geometry::new(n, 64);
            let per_row: Vec<usize> = (0..g.rows).map(|i| g.samples_in_row(i)).collect();
            assert_eq!(g.total_samples, per_row.iter().sum::<usize>(), "n = {n}");
            for (i, &c) in per_row.iter().enumerate() {
                assert_eq!(g.sample_offset(i), per_row[..i].iter().sum::<usize>());
                let ranks = (g.phase(i)..g.row_len(i)).step_by(g.stride);
                assert_eq!(c, ranks.count(), "n = {n}, row {i}");
            }
            let last = g.rows - 1;
            if g.row_len(last) <= g.phase(last) {
                short_last_rows += 1;
            }
        }
        assert!(
            short_last_rows > 0,
            "some last row must be shorter than its phase"
        );
    }

    #[test]
    fn a_last_row_shorter_than_its_phase_samples_nothing_and_sorts() {
        // n = 901: 30 rows of 31 keys, the last one 2 keys long against
        // its phase of 9 ranks.
        let g = Geometry::new(901, 64);
        assert_eq!((g.rows, g.row_len(29), g.phase(29)), (30, 2, 9));
        assert_eq!(g.samples_in_row(29), 0);
        check_registered_samplesort(901, 1, 64, FaultConfig::none());
        check_registered_samplesort(901, 2, 64, FaultConfig::none());
    }

    /// Seeded uniform 64-bit keys (SplitMix64, as `bench/e2e` draws them).
    fn uniform_keys(seed: u64, n: usize) -> Vec<Word> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    /// The bucket sizes of the top node over `keys` on an `M = m`
    /// machine: the sampling, pivot and boundary phase bodies run on the
    /// machine's memory, with the row sorts and the sample sort done
    /// uncosted in between.
    fn top_level_buckets(keys: &[Word], m: usize) -> Vec<usize> {
        let n = keys.len();
        let machine = Machine::with_pool_words(
            PmConfig::parallel(1, 1 << 21).with_ephemeral_words(m),
            node_scratch_words(n),
        );
        let mut ctx = machine.ctx(0);
        let g = Geometry::of(&ctx, n);
        ctx.begin_capsule("test/partition");
        let leaf_words = capsule_words(&ctx);
        let s = Scratch::alloc(&mut ctx, &g, leaf_words).unwrap();
        let mem = machine.mem();
        for i in 0..g.rows {
            let mut row = keys[i * g.sub..i * g.sub + g.row_len(i)].to_vec();
            row.sort_unstable();
            mem.write_range(s.subsorted.at(i * g.sub), &row);
        }
        sample_rows_body(&mut ctx, &g, &s, 0, g.rows).unwrap();
        let mut samples = mem.to_vec(s.samples.start, g.total_samples);
        samples.sort_unstable();
        mem.write_range(s.samples_sorted.start, &samples);
        for c in 0..ceil_div((g.buckets - 1).max(1), PIVOT_CHUNK) {
            pivot_chunk_body(&mut ctx, &g, &s, c).unwrap();
        }
        bounds_rows_body(&mut ctx, &g, &s, 0, g.rows).unwrap();
        ctx.complete_capsule();
        let bounds = mem.to_vec(s.bounds.start, g.rows * (g.buckets + 1));
        let mut sizes = vec![0usize; g.buckets];
        for row in bounds.chunks(g.buckets + 1) {
            for (j, w) in row.windows(2).enumerate() {
                sizes[j] += (w[1] - w[0]) as usize;
            }
        }
        assert_eq!(sizes.iter().sum::<usize>(), n);
        sizes
    }

    #[test]
    fn uniform_keys_at_the_benchmark_size_need_one_level() {
        // n = 2¹⁷, M = 4096: 64 buckets of an expected 2048 keys. Every
        // bucket fits a capsule, so each recursion leaf is a base sort.
        let (n, m) = (1 << 17, 4096);
        for seed in [7, 23] {
            let sizes = top_level_buckets(&uniform_keys(seed, n), m);
            assert_eq!(sizes.len(), 64);
            let largest = *sizes.iter().max().unwrap();
            assert!(
                largest <= m,
                "seed {seed}: a bucket of {largest} keys exceeds M"
            );
        }
    }

    #[test]
    fn samplesort_beats_mergesort_on_io_for_large_n() {
        // Theorem 7.3's point: O((n/B) log_M n) < O((n/B) log(n/M)) once
        // n/M is large. With M = 64 and n = 2^12, mergesort does ~6 merge
        // levels; samplesort one partition level.
        let n = 1 << 12;
        let work_ss = {
            let rt = runtime_for_samplesort(n, 1, 64, FaultConfig::none());
            let ss = SampleSort::new(rt.machine(), n);
            ss.load_input(rt.machine(), &data(3, n));
            let rep = rt.run_or_recover(&ss.pcomp());
            assert!(rep.completed());
            rep.stats().total_work()
        };
        let work_ms = {
            let rt = runtime_for_mergesort(1, 64, FaultConfig::none());
            let ms = MergeSort::new(rt.machine(), n);
            ms.load_input(rt.machine(), &data(3, n));
            let rep = rt.run_or_recover(&ms.pcomp());
            assert!(rep.completed());
            rep.stats().total_work()
        };
        // Same asymptotic family; samplesort should not be dramatically
        // worse and the harness tracks the crossover. Allow generous slack
        // here; `exp_t73_sort` prints the actual ratio.
        assert!(
            (work_ss as f64) < 3.0 * work_ms as f64,
            "samplesort {work_ss} vs mergesort {work_ms}"
        );
    }
}
