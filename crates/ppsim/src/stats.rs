//! Summary statistics for experiment results.
//!
//! Small, dependency-free statistics helpers: five-number-style summaries,
//! a two-sample Kolmogorov–Smirnov distance, and a log–log least-squares
//! slope used to check asymptotic shapes (e.g. "stabilization time scales
//! like `1/r`").

use serde::Serialize;

/// A summary of a sample of real values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for a single value).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains non-finite values.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "cannot summarize non-finite values"
        );
        let mut sorted: Vec<f64> = values.to_vec();
        // lint:allow(panic): all values asserted finite above, so partial_cmp is total
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            p10: percentile(&sorted, 0.10),
            median: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            max: sorted[count - 1],
        }
    }
}

/// Linear interpolation percentile of an already-sorted sample, `q ∈ [0, 1]`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Least-squares slope of `ln(y)` against `ln(x)`.
///
/// Used to verify asymptotic shapes: if `y ≈ c · x^a`, the returned slope
/// approximates `a`.
///
/// # Panics
///
/// Panics if fewer than two points are given or any coordinate is not
/// strictly positive.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points for a slope");
    assert!(
        points.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
        "log-log slope requires strictly positive coordinates"
    );
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Two-sample Kolmogorov–Smirnov statistic: the maximum distance between the
/// empirical CDFs of the two samples.
///
/// Used by the cross-engine equivalence checks (batched vs per-step
/// stabilization-time distributions): for samples of sizes `m` and `n` from
/// the same distribution, the statistic exceeds
/// `1.63 · sqrt((m + n) / (m n))` with probability below 1%.
///
/// # Panics
///
/// Panics if either sample is empty or contains non-finite values.
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "need two non-empty samples");
    assert!(
        a.iter().chain(b).all(|v| v.is_finite()),
        "samples must be finite"
    );
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_by(|x, y| x.total_cmp(y));
    b.sort_by(|x, y| x.total_cmp(y));
    let (mut i, mut j, mut d) = (0usize, 0usize, 0f64);
    while i < a.len() && j < b.len() {
        // Step past one distinct value on both sides at once, so tied
        // observations (common for integer-valued hitting times) do not
        // produce spurious transient gaps.
        let x = if a[i] <= b[j] { a[i] } else { b[j] };
        while i < a.len() && a[i] == x {
            i += 1;
        }
        while j < b.len() && b[j] == x {
            j += 1;
        }
        let fa = i as f64 / a.len() as f64;
        let fb = j as f64 / b.len() as f64;
        d = d.max((fa - fb).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn log_log_slope_recovers_exponent() {
        let points: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = (1 << i) as f64;
                (x, 3.0 * x.powf(1.5))
            })
            .collect();
        assert!((log_log_slope(&points) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn log_log_slope_negative_exponent() {
        let points: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = (1 << i) as f64;
                (x, 10.0 / x)
            })
            .collect();
        assert!((log_log_slope(&points) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn ks_distance_is_zero_for_identical_and_one_for_disjoint_samples() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_distance(&a, &a), 0.0);
        let b = [10.0, 11.0, 12.0];
        assert_eq!(ks_distance(&a, &b), 1.0);
        // Interleaved samples of the same range stay small.
        let c = [1.5, 2.5, 3.5];
        assert!(ks_distance(&a, &c) <= 0.5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn ks_distance_rejects_empty_samples() {
        let _ = ks_distance(&[], &[1.0]);
    }
}
