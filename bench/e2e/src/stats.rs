//! Summary statistics for timing samples: median, quartiles the way the
//! driver computes them, and percentiles that refuse to speak for a tail
//! they have not seen.

/// Samples of one timing, summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Inter-quartile range as a share of the median — the spread the
    /// driver holds against each metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    v
}

/// Median of the finite values; 0 for none (a metric the run could not
/// measure reads 0, which `compare` reports rather than hides).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What a run reports for a timing: the mean of the better half of its
/// samples (the ⌈n/2⌉ lowest when `lower_is_better`, else the highest).
///
/// Not the median: the reference host runs at a few discrete speeds (×1,
/// ×1.2, ×1.5 — other tenants decide which, for seconds or minutes at a
/// time) and only ever slows a trial down, so the better half is the half
/// that says something about the program. Not the single best sample
/// either: with two busy threads a lucky schedule now and then beats the
/// rest by 20 %. Over ten runs of ten to fifteen trials each, this read
/// steadier than median, best or lower quartile on the worst case (see
/// README.md, "Run-to-run spread").
pub fn better_half_mean(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = sorted(values);
    if !lower_is_better {
        v.reverse();
    }
    let half = &v[..v.len().div_ceil(2)];
    if half.is_empty() {
        0.0
    } else {
        half.iter().sum::<f64>() / half.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so a spread computed here is the spread the
/// driver computes. One value has no spread: all three are that value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return [0.0; 3];
    }
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

pub fn summarize(values: &[f64]) -> Summary {
    let [q1, _, q3] = quartiles(values);
    Summary {
        n: values.iter().filter(|x| x.is_finite()).count(),
        median: median(values),
        q1,
        q3,
    }
}

/// The `q`-quantile (nearest rank), or `None` unless at least ten samples
/// lie beyond it: a p99 of 200 samples would be the word of two.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
    }

    #[test]
    fn better_half_mean_takes_the_half_nearer_the_good_end() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(better_half_mean(&v, true), 2.0); // 1, 2, 3
        assert_eq!(better_half_mean(&v, false), 4.0); // 5, 4, 3
        assert_eq!(better_half_mean(&[7.0, 9.0], true), 7.0);
        assert_eq!(better_half_mean(&[7.0], false), 7.0);
        assert_eq!(better_half_mean(&[], true), 0.0);
        assert_eq!(better_half_mean(&[f64::NAN, 2.0, 4.0], true), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let s = summarize(&v);
        assert_eq!((s.n, s.median, s.iqr()), (10, 5.5, 5.5));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0)); // exactly ten beyond
        assert_eq!(percentile(&v, 0.999), None); // one beyond
        let few: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.99), None); // two beyond
        assert_eq!(percentile(&few, 0.95), Some(190.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
