//! Order statistics: percentiles with the "at least ten samples beyond"
//! rule, medians, and the quartile spread the acceptance procedure uses.

/// Percentiles a latency report may quote, highest first, in tenths of a
/// percent (integers, so the ten-beyond count is exact).
const CANDIDATE_PERMILLES: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples needed before p95 may be quoted (ten samples lie beyond it).
pub const MIN_SAMPLES_FOR_P95: usize = 200;

/// Sorts a sample ascending (NaN-free input is the caller's contract).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median with the usual mean-of-the-middle-two for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest quotable percentile of a sample of `n`: the largest candidate
/// whose nearest-rank position leaves at least ten samples beyond it, or the
/// median for small samples.
pub fn highest_supported_percentile(n: usize) -> f64 {
    CANDIDATE_PERMILLES
        .into_iter()
        .find(|permille| n - (n * permille).div_ceil(1000) >= 10)
        .unwrap_or(500) as f64
        / 10.0
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the acceptance procedure compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(9_999), 99.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(MIN_SAMPLES_FOR_P95), 95.0);
        assert_eq!(highest_supported_percentile(MIN_SAMPLES_FOR_P95 - 1), 90.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
        assert_eq!(highest_supported_percentile(0), 50.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&v), Some(1.0));
    }
}
