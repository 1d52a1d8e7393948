//! The one percentile helper every timing in the benchmark goes through.
//!
//! Samples are raw microseconds, kept with their nanosecond fraction so that
//! a median of samples pinned to a timer still reads differently from run to
//! run. A timing is reported as its median and a
//! tail percentile together with the sample count, never as a mean: the
//! update path is bimodal (incremental kernel vs skeleton rebuild) and a mean
//! hides which mode moved.

/// Percentiles considered by [`Summary::highest_supported`], ascending.
const TAILS: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples beyond a percentile below which it is one outlier's word.
const MIN_BEYOND: f64 = 10.0;

/// Sorted raw samples.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_unstable_by(f64::total_cmp);
        Self { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-th percentile (0–100), linearly interpolated between the two
    /// closest ranks; 0 for an empty sample.
    pub fn percentile(&self, p: f64) -> f64 {
        let Some(&last) = self.sorted.last() else { return 0.0 };
        let pos = (p / 100.0).clamp(0.0, 1.0) * (self.sorted.len() - 1) as f64;
        let below = pos.floor() as usize;
        let lower = self.sorted[below];
        let upper = self.sorted.get(below + 1).copied().unwrap_or(last);
        lower + (upper - lower) * (pos - below as f64)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// First quartile, median, third quartile.
    pub fn quartiles(&self) -> (f64, f64, f64) {
        (self.percentile(25.0), self.median(), self.percentile(75.0))
    }

    /// The highest percentile of [`TAILS`] with at least ten samples beyond
    /// it, or `None` when even the median has fewer.
    pub fn highest_supported(&self) -> Option<f64> {
        let n = self.sorted.len() as f64;
        // The small slack keeps 100 samples at p90 (exactly ten beyond) from
        // being lost to `1.0 - 0.9` not being `0.1`.
        TAILS.iter().copied().rev().find(|p| n * (100.0 - p) / 100.0 + 1e-9 >= MIN_BEYOND)
    }
}

/// Median of a handful of `f64` readings (set-up times, probe repeats).
pub fn median_f64(values: &[f64]) -> f64 {
    Summary::new(values.to_vec()).median()
}

/// Distance between the quartiles as a share of the median — the run-to-run
/// spread `compare` holds against a metric's bound. Uses the same exclusive
/// quartile method as Python's `statistics.quantiles(values, n=4)`.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (sorted.len() + 1) as f64 - 1.0;
        let below = (pos.floor().max(0.0) as usize).min(sorted.len() - 1);
        let above = (below + 1).min(sorted.len() - 1);
        sorted[below] + (sorted[above] - sorted[below]) * (pos - below as f64).clamp(0.0, 1.0)
    };
    let median = median_f64(&sorted);
    (median != 0.0).then(|| (quantile(0.75) - quantile(0.25)) / median.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u32) -> Summary {
        // Descending on purpose: `new` must sort.
        Summary::new((1..=n).rev().map(f64::from).collect())
    }

    #[test]
    fn ten_samples_support_no_percentile() {
        let s = ramp(10);
        assert_eq!(s.count(), 10);
        assert_eq!(s.highest_supported(), None);
        assert_eq!(s.median(), 5.5);
        assert_eq!(s.quartiles(), (3.25, 5.5, 7.75));
    }

    #[test]
    fn hundred_samples_support_p90() {
        let s = ramp(100);
        assert_eq!(s.highest_supported(), Some(90.0));
        assert_eq!(s.median(), 50.5);
        assert!((s.percentile(90.0) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn six_hundred_samples_support_p95() {
        let s = ramp(600);
        assert_eq!(s.highest_supported(), Some(95.0));
        assert!((s.percentile(95.0) - 570.05).abs() < 1e-9);
    }

    #[test]
    fn twenty_thousand_samples_support_p99_9() {
        let s = ramp(20_000);
        assert_eq!(s.highest_supported(), Some(99.9));
        assert!((s.percentile(99.9) - 19_980.001).abs() < 1e-6);
        assert_eq!(s.percentile(100.0), 20_000.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn empty_and_single_samples_do_not_panic() {
        assert_eq!(Summary::default().median(), 0.0);
        assert_eq!(Summary::default().highest_supported(), None);
        assert_eq!(Summary::new(vec![7.0]).percentile(99.0), 7.0);
    }

    #[test]
    fn medians_and_spread_of_readings() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
        assert_eq!(relative_iqr(&[1.0, 2.0, 3.0]), None);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25].
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&values).unwrap() - 1.0).abs() < 1e-12);
    }
}
