//! Order statistics over small samples of timings.

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// The median and the `q` quantile of a sample: the latency pair every
/// workload reports.
pub fn median_and(values: &[f64], q: f64) -> (f64, f64) {
    let v = sorted(values);
    (median(&v), quantile(&v, q))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    (quantile(&v, 0.75) - quantile(&v, 0.25)) / median(&v)
}
