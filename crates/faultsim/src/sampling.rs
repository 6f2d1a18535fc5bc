//! Statistical fault sampling (extension beyond the paper).
//!
//! The paper grades the *complete* fault list (34,400 faults). For larger
//! circuits or longer benches, exhaustive campaigns grow quadratically;
//! sampling with confidence intervals is the standard remedy. This
//! module adds Wilson-score intervals over sampled
//! [`GradingSummary`]s, so a user can grade, say,
//! 2,000 of 34,400 faults and bound each class percentage.

use crate::{FaultClass, GradingSummary};

/// A two-sided confidence interval for a class proportion, in percent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassEstimate {
    /// The graded class.
    pub class: FaultClass,
    /// Point estimate, percent.
    pub percent: f64,
    /// Lower bound of the interval, percent.
    pub low: f64,
    /// Upper bound of the interval, percent.
    pub high: f64,
}

impl ClassEstimate {
    /// Whether a reference percentage lies inside the interval.
    #[must_use]
    pub fn covers(&self, reference_pct: f64) -> bool {
        (self.low..=self.high).contains(&reference_pct)
    }

    /// Interval half-width in percentage points.
    #[must_use]
    pub fn half_width(&self) -> f64 {
        (self.high - self.low) / 2.0
    }
}

/// Wilson score interval for a binomial proportion.
///
/// `successes` out of `trials`, with critical value `z` (1.96 for 95 %).
/// Returns `(low, high)` as fractions in `[0, 1]`.
///
/// # Panics
///
/// Panics if `trials` is zero or `successes > trials`.
#[must_use]
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    assert!(trials > 0, "wilson interval over zero trials");
    assert!(successes <= trials, "more successes than trials");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let margin = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre - margin).max(0.0), (centre + margin).min(1.0))
}

/// Computes a 95 % Wilson estimate for every class of a (sampled)
/// summary.
///
/// # Panics
///
/// Panics if the summary is empty.
#[must_use]
pub fn estimate_classes(summary: &GradingSummary) -> Vec<ClassEstimate> {
    let total = summary.total();
    assert!(total > 0, "estimates need at least one graded fault");
    FaultClass::ALL
        .iter()
        .map(|&class| {
            let count = summary.count(class);
            let (lo, hi) = wilson_interval(count, total, 1.96);
            ClassEstimate {
                class,
                percent: summary.percent(class),
                low: lo * 100.0,
                high: hi * 100.0,
            }
        })
        .collect()
}

/// Sample size needed for a target half-width (percentage points) at
/// 95 % confidence, using the conservative `p = 0.5` bound.
///
/// # Panics
///
/// Panics if `half_width_pct` is not positive.
#[must_use]
pub fn sample_size_for(half_width_pct: f64) -> usize {
    assert!(half_width_pct > 0.0, "half width must be positive");
    let h = half_width_pct / 100.0;
    let z = 1.96f64;
    ((z * z * 0.25) / (h * h)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use crate::FaultOutcome;
    use super::*;

    #[test]
    fn wilson_brackets_the_proportion() {
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.25, "reasonably tight at n=100");
        let (lo, hi) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi < 0.06);
        let (lo, hi) = wilson_interval(100, 100, 1.96);
        assert!(lo > 0.94);
        assert!(hi > 0.999, "floating-point upper bound near 1: {hi}");
    }

    #[test]
    fn interval_tightens_with_n() {
        let (lo1, hi1) = wilson_interval(30, 100, 1.96);
        let (lo2, hi2) = wilson_interval(300, 1000, 1.96);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn estimates_cover_each_class() {
        let outcomes: Vec<FaultOutcome> = (0..200)
            .map(|i| match i % 4 {
                0 | 1 => FaultOutcome::failure(1),
                2 => FaultOutcome::latent(),
                _ => FaultOutcome::silent(0),
            })
            .collect();
        let summary = GradingSummary::from_outcomes(&outcomes);
        let est = estimate_classes(&summary);
        assert_eq!(est.len(), 3);
        for e in &est {
            assert!(e.low <= e.percent && e.percent <= e.high, "{e:?}");
        }
        // failure = 50 %
        assert!(est[0].covers(50.0));
        assert!(!est[0].covers(90.0));
    }

    #[test]
    fn sample_size_formula() {
        // Classic result: +/-2 points at 95 % needs ~2,401 samples.
        assert_eq!(sample_size_for(2.0), 2_401);
        assert!(sample_size_for(1.0) > sample_size_for(5.0));
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trials_panics() {
        let _ = wilson_interval(0, 0, 1.96);
    }

}
