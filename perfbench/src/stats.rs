//! Order statistics over measured samples.

use mlconf_util::stats::quantile_sorted;

/// The `q` quantile of an unsorted sample (linear interpolation between
/// order statistics); `0.0` for an empty sample, which the per-layer
/// metrics of a layer a workload never calls report.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of an unsorted sample (`0.0` when empty).
pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

/// The arithmetic mean (`0.0` when empty).
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tolerate_empty_samples() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(mean(&s), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
