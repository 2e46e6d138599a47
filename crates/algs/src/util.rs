//! Shared helpers for the Section 7 algorithms.
//!
//! The algorithms operate on word arrays in persistent regions. These
//! helpers perform *costed* range transfers at block granularity: a range
//! of `len` words costs `O(len/B + 1)` transfers, charged through the
//! processor context like every other access. Partial blocks at range
//! edges transfer only the covered words (still one unit each — the model
//! charges per block transfer).

use ppm_pm::{Addr, PmResult, ProcCtx, Word};

/// Reads `len` words starting at `start` (one unit per block touched;
/// `O(len/B + 1)` cost).
pub fn pread_range(ctx: &mut ProcCtx, start: Addr, len: usize) -> PmResult<Vec<Word>> {
    let mut out = vec![0u64; len];
    ctx.read_range(start, &mut out)?;
    Ok(out)
}

/// Writes `src` starting at `start` (one unit per block touched;
/// `O(len/B + 1)` cost).
pub fn pwrite_range(ctx: &mut ProcCtx, start: Addr, src: &[Word]) -> PmResult<()> {
    ctx.write_range(start, src)
}

/// Propagation-blocking scatter: per-bucket staging bins of one block
/// each, filled by sequential appends and streamed to the bucket's
/// destination cursor as they fill.
///
/// A naive scatter pays one block transfer *per element* when
/// destinations are spread across buckets (every write lands in a cold
/// block). Binning first turns that into one transfer per *block*: a
/// bin's spill writes `B` contiguous words, so moving `n` elements into
/// `k` buckets costs `O(n/B + k)` write transfers instead of `O(n)` —
/// the propagation-blocking idea, applied to the PPM cost model.
///
/// The first spill of each bucket is trimmed to the destination's block
/// boundary, so every later spill is a single aligned transfer. Bins are
/// ephemeral (`O(k·B)` words); callers bound `k` so the bins fit in `M`.
/// All writes go through the costed [`pwrite_range`] path, so the
/// combinator inherits restart-stability: re-running the capsule replays
/// identical appends to identical addresses.
pub struct BlockScatter {
    /// Per-bucket staging bins (≤ one block each).
    bins: Vec<Vec<Word>>,
    /// Per-bucket destination cursor: where the next spill lands.
    cursors: Vec<Addr>,
    /// Block size `B` — the bin capacity once a cursor is aligned.
    block: usize,
}

impl BlockScatter {
    /// Creates a scatter with `dests[j]` as bucket `j`'s first
    /// destination address. Destination ranges must be disjoint.
    pub fn new(ctx: &ProcCtx, dests: Vec<Addr>) -> BlockScatter {
        let block = ctx.block_size();
        BlockScatter {
            bins: vec![Vec::with_capacity(block); dests.len()],
            cursors: dests,
            block,
        }
    }

    /// Words bucket `j`'s bin holds before its next spill: up to the
    /// destination's block boundary, so spills after the first are
    /// aligned single transfers.
    #[inline]
    fn bin_capacity(&self, j: usize) -> usize {
        self.block - self.cursors[j] % self.block
    }

    /// Streams bucket `j`'s bin to its destination and advances the
    /// cursor.
    fn spill(&mut self, ctx: &mut ProcCtx, j: usize) -> PmResult<()> {
        pwrite_range(ctx, self.cursors[j], &self.bins[j])?;
        self.cursors[j] += self.bins[j].len();
        self.bins[j].clear();
        Ok(())
    }

    /// Appends one word to bucket `j` (sequential; spills on a full bin).
    #[inline]
    pub fn push(&mut self, ctx: &mut ProcCtx, j: usize, w: Word) -> PmResult<()> {
        self.bins[j].push(w);
        if self.bins[j].len() >= self.bin_capacity(j) {
            self.spill(ctx, j)?;
        }
        Ok(())
    }

    /// Appends a run of words to bucket `j`, spilling full bins as they
    /// form.
    pub fn push_run(&mut self, ctx: &mut ProcCtx, j: usize, mut ws: &[Word]) -> PmResult<()> {
        while !ws.is_empty() {
            let room = self.bin_capacity(j) - self.bins[j].len();
            let take = room.min(ws.len());
            self.bins[j].extend_from_slice(&ws[..take]);
            ws = &ws[take..];
            if self.bins[j].len() >= self.bin_capacity(j) {
                self.spill(ctx, j)?;
            }
        }
        Ok(())
    }

    /// Streams every partial bin (call once, after the last append).
    pub fn flush(&mut self, ctx: &mut ProcCtx) -> PmResult<()> {
        for j in 0..self.bins.len() {
            if !self.bins[j].is_empty() {
                self.spill(ctx, j)?;
            }
        }
        Ok(())
    }
}

/// The naive per-element scatter the blocked combinator is measured
/// against: one costed write per `(bucket, word)` pair, each landing in
/// whatever block its destination cursor points at.
pub fn scatter_naive(
    ctx: &mut ProcCtx,
    dests: &mut [Addr],
    pairs: impl IntoIterator<Item = (usize, Word)>,
) -> PmResult<()> {
    for (j, w) in pairs {
        ctx.pwrite(dests[j], w)?;
        dests[j] += 1;
    }
    Ok(())
}

/// Capsule size, in words, of the inner loops of the two sorts: the
/// embedded prefix sum's leaves and the base case of the merges. Theorem
/// 7.3 allows sorting `C = O(M/B)`, so a capsule may move Θ(M) words; a
/// quarter of the ephemeral memory (the same share the grid tiles take)
/// leaves room for an input, an output and the staging bins at once.
/// A multiple of `B`, and at least one block.
pub(crate) fn sort_capsule_words(m: usize, b: usize) -> usize {
    (m / 4 / b * b).max(b)
}

/// Next power of two (≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Integer ceiling division.
pub fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// A P = 1 faultless session for the §7 theorem-shape tests: checkpoints
/// off (frame-pool GC shifts block alignment, and a model cost must
/// repeat to the digit), so `pool_words` must hold every frame of the run.
#[cfg(test)]
pub(crate) fn theorem_runtime(pm: ppm_pm::PmConfig, pool_words: usize) -> ppm_sched::Runtime {
    ppm_sched::Runtime::volatile(
        ppm_sched::RuntimeConfig::new(pm)
            .with_slots(1 << 13)
            .with_pool_words(pool_words)
            .with_checkpoint(ppm_sched::CheckpointPolicy::disabled()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_core::Machine;
    use ppm_pm::PmConfig;

    fn setup() -> Machine {
        Machine::new(PmConfig::parallel(1, 1 << 16))
    }

    #[test]
    fn range_round_trip_unaligned() {
        let m = setup();
        let r = m.alloc_region(64);
        let mut ctx = m.ctx(0);
        ctx.begin_capsule("w");
        let data: Vec<u64> = (100..137).collect();
        pwrite_range(&mut ctx, r.at(3), &data).unwrap();
        ctx.complete_capsule();
        ctx.begin_capsule("r");
        let back = pread_range(&mut ctx, r.at(3), 37).unwrap();
        assert_eq!(back, data);
        // Neighbours untouched.
        assert_eq!(m.mem().load(r.at(2)), 0);
        assert_eq!(m.mem().load(r.at(40)), 0);
    }

    #[test]
    fn range_costs_are_blockwise() {
        let m = setup(); // B = 8
        let r = m.alloc_region(128);
        let mut ctx = m.ctx(0);
        ctx.begin_capsule("w");
        let before = ctx.stats().snapshot().total_writes;
        // 32 aligned words = 4 blocks = 4 writes.
        pwrite_range(&mut ctx, r.at(0), &[1u64; 32]).unwrap();
        assert_eq!(ctx.stats().snapshot().total_writes - before, 4);
        // 10 words starting at offset 5 (region is block-aligned): words
        // 5..15 span blocks [0..8) and [8..16) — two transfers.
        let before = ctx.stats().snapshot().total_writes;
        pwrite_range(&mut ctx, r.at(5), &[2u64; 10]).unwrap();
        assert_eq!(ctx.stats().snapshot().total_writes - before, 2);
    }

    #[test]
    fn block_scatter_matches_naive_and_costs_blockwise() {
        let m = setup(); // B = 8
        let n = 256;
        let buckets = 4;
        let blocked = m.alloc_region(n);
        let naive = m.alloc_region(n);
        // Deterministic skewed assignment; bucket j's range is [offs[j], offs[j+1]).
        let assign: Vec<usize> = (0..n).map(|i| (i * i + i / 3) % buckets).collect();
        let mut counts = vec![0usize; buckets];
        for &j in &assign {
            counts[j] += 1;
        }
        let offs: Vec<usize> = counts
            .iter()
            .scan(0, |acc, c| {
                let o = *acc;
                *acc += c;
                Some(o)
            })
            .collect();

        let mut ctx = m.ctx(0);
        ctx.begin_capsule("blocked");
        let before = ctx.stats().snapshot().total_writes;
        let mut sc = BlockScatter::new(&ctx, offs.iter().map(|o| blocked.at(*o)).collect());
        for (i, &j) in assign.iter().enumerate() {
            sc.push(&mut ctx, j, 1000 + i as Word).unwrap();
        }
        sc.flush(&mut ctx).unwrap();
        let w_blocked = ctx.stats().snapshot().total_writes - before;
        ctx.complete_capsule();

        ctx.begin_capsule("naive");
        let before = ctx.stats().snapshot().total_writes;
        let mut cursors: Vec<Addr> = offs.iter().map(|o| naive.at(*o)).collect();
        scatter_naive(
            &mut ctx,
            &mut cursors,
            assign
                .iter()
                .enumerate()
                .map(|(i, &j)| (j, 1000 + i as Word)),
        )
        .unwrap();
        let w_naive = ctx.stats().snapshot().total_writes - before;
        ctx.complete_capsule();

        // Same permutation of the input lands in both regions.
        let read = |r: ppm_pm::Region| (0..n).map(|i| m.mem().load(r.at(i))).collect::<Vec<_>>();
        assert_eq!(read(blocked), read(naive));
        // Blocked: ~n/B full-block spills (+ ≤1 partial per bucket); naive:
        // one transfer per element.
        assert_eq!(w_naive, n as u64);
        assert!(
            w_blocked <= (n / 8 + 2 * buckets) as u64,
            "blocked scatter cost {w_blocked} not block-granular"
        );
    }

    #[test]
    fn block_scatter_aligns_after_first_spill() {
        let m = setup(); // B = 8
        let r = m.alloc_region(64);
        let mut ctx = m.ctx(0);
        ctx.begin_capsule("align");
        // One bucket starting 3 words into a block: the first spill is
        // trimmed to 5 words, then every full spill is one aligned block.
        let mut sc = BlockScatter::new(&ctx, vec![r.at(3)]);
        let before = ctx.stats().snapshot().total_writes;
        for i in 0..29u64 {
            sc.push(&mut ctx, 0, i + 1).unwrap();
        }
        sc.flush(&mut ctx).unwrap();
        let w = ctx.stats().snapshot().total_writes - before;
        // 5 (trim) + 8 + 8 + 8 = 29 words in 4 transfers.
        assert_eq!(w, 4);
        for i in 0..29u64 {
            assert_eq!(m.mem().load(r.at(3 + i as usize)), i + 1);
        }
        assert_eq!(m.mem().load(r.at(2)), 0);
        assert_eq!(m.mem().load(r.at(32)), 0);
    }

    #[test]
    fn helpers() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(8), 8);
        assert_eq!(ceil_div(9, 4), 3);
        assert_eq!(ceil_div(8, 4), 2);
    }
}
