//! The ideal-cache model: trace-driven executor.
//!
//! Theorem 3.4 simulates "any (M,B) ideal cache computation". An
//! ideal-cache computation is fully characterized by its word-access
//! trace, so the substrate here is a family of deterministic
//! [`AccessPattern`]s (the "program") plus an executor that counts cache
//! misses under an LRU replacement policy.
//!
//! The paper's ideal cache uses *optimal* replacement; following the
//! standard resource-augmentation result (Sleator–Tarjan: LRU with twice
//! the capacity is 2-competitive with OPT), we use LRU: the native
//! baseline ([`run_native_cache`]) counts LRU misses at capacity `M`,
//! which are at most twice OPT's at capacity `M/2`. A constant simulation
//! work per LRU miss — what `exp_t34_cache_sim` reports — therefore keeps
//! the theorem's `O(t)` shape, up to that constant and a factor of two in
//! the cache size.

use std::collections::HashMap;

use ppm_pm::Word;

/// A deterministic word-access trace generator.
#[derive(Debug, Clone)]
pub enum AccessPattern {
    /// Sequential read scan of `0..n`, then a write pass storing a
    /// deterministic value at every word.
    SeqScan {
        /// Words scanned.
        n: usize,
    },
    /// Repeated strided reads/writes over a range (cache-unfriendly for
    /// strides ≥ B).
    Strided {
        /// Accesses issued.
        n: usize,
        /// Address stride.
        stride: usize,
        /// Address range (addresses wrap modulo this).
        range: usize,
    },
    /// Uniform random reads and writes over a range.
    Random {
        /// Accesses issued.
        n: usize,
        /// Address range.
        range: usize,
        /// Stream seed.
        seed: u64,
    },
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl AccessPattern {
    /// Number of accesses in the trace.
    pub fn len(&self) -> usize {
        match self {
            AccessPattern::SeqScan { n } => 2 * n,
            AccessPattern::Strided { n, .. } => *n,
            AccessPattern::Random { n, .. } => *n,
        }
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th access: `(address, is_write, value_if_write)`.
    /// Deterministic — re-running a capsule replays identical accesses.
    pub fn access(&self, i: usize) -> (usize, bool, Word) {
        match self {
            AccessPattern::SeqScan { n } => {
                if i < *n {
                    (i, false, 0)
                } else {
                    let j = i - n;
                    (j, true, splitmix64(j as u64))
                }
            }
            AccessPattern::Strided {
                n: _,
                stride,
                range,
            } => {
                let addr = (i * stride) % range;
                let write = i % 3 == 2;
                (addr, write, splitmix64(i as u64))
            }
            AccessPattern::Random { n: _, range, seed } => {
                let r = splitmix64(seed ^ (i as u64));
                let addr = (r >> 8) as usize % range;
                let write = r & 1 == 1;
                (addr, write, splitmix64(r))
            }
        }
    }

    /// The size of the address space the pattern touches.
    pub fn address_range(&self) -> usize {
        match self {
            AccessPattern::SeqScan { n } => *n,
            AccessPattern::Strided { range, .. } => *range,
            AccessPattern::Random { range, .. } => *range,
        }
    }
}

/// Result of an ideal-cache (LRU) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheResult {
    /// Accesses issued.
    pub accesses: u64,
    /// Cache misses — the `t` of Theorem 3.4.
    pub misses: u64,
    /// Dirty evictions + final flush writes.
    pub writebacks: u64,
}

/// An LRU cache simulator over blocks, with dirty tracking. Eviction scan
/// is O(resident) — fine for the model sizes used in experiments.
#[derive(Debug)]
pub struct LruCache {
    capacity_blocks: usize,
    resident: HashMap<usize, (u64, bool)>, // block -> (last_use, dirty)
    clock: u64,
}

impl LruCache {
    /// Creates an empty cache of `capacity_blocks` blocks.
    pub fn new(capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0);
        LruCache {
            capacity_blocks,
            resident: HashMap::new(),
            clock: 0,
        }
    }

    /// Touches `block`; returns `(miss, evicted_dirty_block)`.
    pub fn touch(&mut self, block: usize, write: bool) -> (bool, Option<usize>) {
        self.clock += 1;
        if let Some((lu, dirty)) = self.resident.get_mut(&block) {
            *lu = self.clock;
            *dirty |= write;
            return (false, None);
        }
        let mut evicted = None;
        if self.resident.len() == self.capacity_blocks {
            let (&victim, &(_, dirty)) = self
                .resident
                .iter()
                .min_by_key(|(_, (lu, _))| *lu)
                .expect("cache non-empty");
            self.resident.remove(&victim);
            if dirty {
                evicted = Some(victim);
            }
        }
        self.resident.insert(block, (self.clock, write));
        (true, evicted)
    }

    /// Blocks currently resident and dirty, sorted.
    pub fn dirty_blocks(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .resident
            .iter()
            .filter(|(_, (_, d))| *d)
            .map(|(b, _)| *b)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Runs a pattern natively under an LRU cache of `m` words with blocks of
/// `b` words, applying writes to `mem`. Returns the miss statistics.
pub fn run_native_cache(
    pattern: &AccessPattern,
    m: usize,
    b: usize,
    mem: &mut [Word],
) -> CacheResult {
    let mut cache = LruCache::new((m / b).max(1));
    let mut res = CacheResult {
        accesses: 0,
        misses: 0,
        writebacks: 0,
    };
    for i in 0..pattern.len() {
        let (addr, write, value) = pattern.access(i);
        let (miss, evicted) = cache.touch(addr / b, write);
        res.accesses += 1;
        if miss {
            res.misses += 1;
        }
        if evicted.is_some() {
            res.writebacks += 1;
        }
        if write {
            mem[addr] = value;
        }
    }
    res.writebacks += cache.dirty_blocks().len() as u64;
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_scan_misses_once_per_block_per_pass() {
        let n = 256;
        let (m, b) = (64, 8);
        let mut mem = vec![0u64; n];
        let res = run_native_cache(&AccessPattern::SeqScan { n }, m, b, &mut mem);
        // Read pass: n/B misses; write pass re-scans: another n/B (the
        // cache only holds M/B = 8 of the 32 blocks).
        assert_eq!(res.misses, 2 * (n / b) as u64);
        assert_eq!(res.accesses, 2 * n as u64);
    }

    #[test]
    fn small_working_set_fits_in_cache() {
        let (m, b) = (64, 8);
        let mut mem = vec![0u64; 32];
        let res = run_native_cache(
            &AccessPattern::Strided {
                n: 1000,
                stride: 1,
                range: 32,
            },
            m,
            b,
            &mut mem,
        );
        // 32 words = 4 blocks fit in an 8-block cache: only cold misses.
        assert_eq!(res.misses, 4);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert_eq!(c.touch(1, false), (true, None));
        assert_eq!(c.touch(2, true), (true, None));
        assert_eq!(c.touch(1, false), (false, None)); // 1 freshened
                                                      // 3 evicts 2 (LRU), which is dirty.
        assert_eq!(c.touch(3, false), (true, Some(2)));
    }

    #[test]
    fn writes_land_in_memory() {
        let n = 16;
        let mut mem = vec![0u64; n];
        run_native_cache(&AccessPattern::SeqScan { n }, 32, 4, &mut mem);
        for (j, v) in mem.iter().enumerate() {
            assert_eq!(*v, splitmix64(j as u64));
        }
    }

    #[test]
    fn patterns_are_deterministic() {
        let p = AccessPattern::Random {
            n: 100,
            range: 64,
            seed: 9,
        };
        let a: Vec<_> = (0..p.len()).map(|i| p.access(i)).collect();
        let b: Vec<_> = (0..p.len()).map(|i| p.access(i)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn random_pattern_stays_in_range() {
        let p = AccessPattern::Random {
            n: 1000,
            range: 37,
            seed: 5,
        };
        for i in 0..p.len() {
            let (addr, _, _) = p.access(i);
            assert!(addr < 37);
        }
    }
}
