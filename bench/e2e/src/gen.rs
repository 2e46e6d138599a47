//! Seeded input generation. Everything a workload feeds the program comes
//! from here, so one `--seed` gives one set of inputs, byte for byte.

/// SplitMix64: small, fast, and good enough to make uniform keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound > 0); the modulo bias is below 2⁻⁴⁰
    /// for every bound this benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// `n` uniform 64-bit keys.
pub fn keys(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// `n` uniform values below `bound` (matrix entries, prefix-sum terms:
/// small enough that sums and products cannot overflow a word).
pub fn small_values(seed: u64, n: usize, bound: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.below(bound)).collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates): which output slice each
/// job of a service lifetime writes.
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5EED_0F51_1CE5);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// One job of an open-loop segment: when it is due (nanoseconds after the
/// segment starts) and which slice it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    pub due_ns: u64,
    pub slice: usize,
}

/// The open-loop schedule: `n` jobs at a fixed interval of `1/rate`
/// seconds — independent users do not wait for each other — over the
/// seeded slice order `slices`.
pub fn open_loop_schedule(rate_per_s: f64, slices: &[usize]) -> Vec<Due> {
    let interval_ns = 1e9 / rate_per_s;
    slices
        .iter()
        .enumerate()
        .map(|(i, slice)| Due {
            due_ns: (i as f64 * interval_ns) as u64,
            slice: *slice,
        })
        .collect()
}

/// The word a fan-out leaf or a service job writes at index `i`: depends
/// on the seed, so a stale file from another run cannot pass verification,
/// and is never 0, so an unwritten word cannot either.
pub fn mark(salt: u64, i: usize) -> u64 {
    ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(keys(7, 1000), keys(7, 1000));
        assert_ne!(keys(7, 1000), keys(8, 1000));
        assert_eq!(small_values(7, 100, 1 << 20), small_values(7, 100, 1 << 20));
        assert!(small_values(7, 100, 1 << 20).iter().all(|v| *v < 1 << 20));
        let p = permutation(7, 500);
        assert_eq!(p, permutation(7, 500));
        assert_ne!(p, permutation(8, 500));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
        let a = open_loop_schedule(2000.0, &p);
        assert_eq!(a, open_loop_schedule(2000.0, &p));
    }

    #[test]
    fn open_loop_schedule_is_fixed_interval() {
        let s = open_loop_schedule(2000.0, &[4, 2, 9]);
        assert_eq!(
            s.iter().map(|d| d.due_ns).collect::<Vec<_>>(),
            vec![0, 500_000, 1_000_000]
        );
        assert_eq!(s.iter().map(|d| d.slice).collect::<Vec<_>>(), vec![4, 2, 9]);
    }

    #[test]
    fn marks_are_nonzero_and_seed_dependent() {
        assert!((0..1000).all(|i| mark(0, i) != 0));
        assert_ne!(mark(1 << 8, 5), mark(2 << 8, 5));
    }
}
