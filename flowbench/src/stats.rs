//! Order statistics used by every workload's report.

/// Sorts a copy of `xs` ascending (total order, so NaN cannot panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle samples for even counts);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail latency the benchmark reports: the highest percentile that
/// still has at least `beyond` samples above it, i.e. the sample with
/// exactly `beyond` larger-ranked samples. With `beyond` or fewer
/// samples no such percentile exists and the maximum is returned.
/// Returns `(value, percentile level in [0, 1])`; `(0, 0)` when empty.
pub fn high_percentile(xs: &[f64], beyond: usize) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= beyond {
        return (v[n - 1], 1.0);
    }
    let idx = n - 1 - beyond;
    (v[idx], (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn high_percentile_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, level) = high_percentile(&xs, 10);
        assert_eq!(v, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((level - 0.99).abs() < 1e-12);
    }

    #[test]
    fn high_percentile_is_order_independent() {
        let mut xs: Vec<f64> = (0..50).map(|i| f64::from((i * 37) % 50)).collect();
        let (a, _) = high_percentile(&xs, 10);
        xs.reverse();
        let (b, _) = high_percentile(&xs, 10);
        assert_eq!(a, b);
        assert_eq!(a, 39.0);
    }

    #[test]
    fn high_percentile_falls_back_to_the_maximum_for_small_samples() {
        assert_eq!(high_percentile(&[], 10), (0.0, 0.0));
        assert_eq!(high_percentile(&[2.0, 7.0, 1.0], 10), (7.0, 1.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(high_percentile(&ten, 10), (10.0, 1.0));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(high_percentile(&eleven, 10).0, 1.0);
    }
}
