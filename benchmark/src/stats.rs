//! Order statistics over lap values and per-call samples.

/// Median and quartiles of one metric across laps, as written to the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Laps the statistic is taken over.
    pub laps: usize,
    /// Per-call samples behind each lap value (0 for whole-section timings).
    pub samples: usize,
}

impl Summary {
    /// Summary of lap values; `samples` is the per-lap sample count.
    pub fn of(values: &[f64], samples: usize) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            laps: values.len(),
            samples,
        }
    }

    /// A value that repeats exactly on every lap.
    pub fn exact(value: f64, laps: usize) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            laps,
            samples: 0,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one lap.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` the way Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so the driver's spread and ours agree.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u32], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| f64::from(sorted[rank - 1]))
}

/// Median of per-call samples (nearest rank, no beyond rule).
pub fn sample_median(sorted: &[u32]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        f64::from(sorted[(sorted.len() - 1) / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v, 0);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(5.0, 9).spread(), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u32> = (1..=1000).collect();
        // p99 of 1000 samples is the 990th: exactly ten lie beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p99.9 would leave one sample beyond: refused.
        assert_eq!(percentile(&v, 0.999), None);
        // 999 samples: rank 990, nine beyond: refused.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn sample_median_is_lower_middle() {
        assert_eq!(sample_median(&[1, 2, 3, 4]), 2.0);
        assert_eq!(sample_median(&[1, 2, 3]), 2.0);
        assert_eq!(sample_median(&[]), 0.0);
    }
}
