//! Order statistics over a run's samples.

/// The median of `xs` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it. Returns `(value, percentile,
/// samples)`; with too few samples for that, the maximum at the 100th
/// percentile.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n.checked_sub(TAIL_BEYOND + 1) {
        Some(i) => (v[i], 100.0 * (i + 1) as f64 / n as f64, n),
        None => (v.last().copied().unwrap_or(0.0), 100.0, n),
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct, n) = tail(&xs);
        assert_eq!((value, pct, n), (30.0, 75.0, 40));
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert_eq!(tail(&[2.0, 5.0]), (5.0, 100.0, 2));
    }
}
