//! A lock-free log₂-bucket histogram for microsecond durations — the one
//! histogram of the workspace: the service's latency and queue-wait
//! distributions and the windowed time series all bucket with it, so
//! percentiles stay comparable across surfaces.
//!
//! Bucket `i` counts observations in `[2^i, 2^(i+1))` µs (bucket 0 also
//! holds sub-microsecond observations; the last bucket is unbounded above),
//! and a percentile reports the exclusive upper edge `2^(i+1)` of the bucket
//! holding its rank.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: the last one starts at 2^30 µs (≈18 minutes) and its
/// reported edge is 2^31 µs, far beyond any query.
pub const HISTOGRAM_BUCKETS: usize = 31;

/// A concurrent histogram of microsecond durations with power-of-two
/// buckets.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    total_us: AtomicU64,
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// The bucket an observation of `micros` microseconds lands in.
    pub(crate) fn bucket_of(micros: u64) -> usize {
        if micros == 0 {
            0
        } else {
            ((64 - micros.leading_zeros()) as usize - 1).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Upper-bound estimate of the `p`-th percentile from raw bucket
    /// counts: the exclusive upper edge of the bucket holding that rank (0
    /// when empty).
    pub(crate) fn percentile_of(counts: &[u64; HISTOGRAM_BUCKETS], p: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << HISTOGRAM_BUCKETS
    }

    /// Records one observation of `micros` microseconds.
    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in microseconds.
    pub fn total_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    /// Largest observation in microseconds (0 when empty) — the service
    /// clamps its reported quantiles to it.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us().checked_div(self.count()).unwrap_or(0)
    }

    /// Upper-bound estimate of the `p`-th percentile in microseconds: the
    /// exclusive upper edge of the bucket holding that rank (0 when empty).
    pub fn percentile_us(&self, p: f64) -> u64 {
        Self::percentile_of(&self.bucket_counts(), p)
    }

    /// Point-in-time bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Renders this histogram as Prometheus `histogram` sample lines with
    /// cumulative `_bucket{le=...}` counts (upper edges in **seconds**, per
    /// Prometheus convention), plus `_sum` and `_count`.
    pub fn render_prometheus(&self, name: &str, out: &mut String) {
        let counts = self.bucket_counts();
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            if c == 0 && i + 1 < HISTOGRAM_BUCKETS {
                // Keep the exposition compact: emit only occupied buckets
                // (cumulative counts make skipped empties recoverable).
                continue;
            }
            let le_seconds = (1u64 << (i + 1)) as f64 / 1e6;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{le_seconds}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", self.count()));
        out.push_str(&format!("{name}_sum {}\n", self.total_us() as f64 / 1e6));
        out.push_str(&format!("{name}_count {}\n", self.count()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_mapping_covers_the_range() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert!(LogHistogram::bucket_of(u64::MAX) < HISTOGRAM_BUCKETS);
        // Buckets are non-decreasing in the observation.
        let mut last = 0;
        for exp in 0..40u32 {
            let b = LogHistogram::bucket_of(1u64 << exp);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn percentiles_and_mean() {
        let h = LogHistogram::new();
        for us in [1u64, 2, 4, 8, 1000] {
            h.record(us);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.total_us(), 1015);
        assert_eq!(h.mean_us(), 203);
        assert_eq!(h.max_us(), 1000);
        // p50 rank=3 lands in the bucket of 4 -> upper edge 8.
        assert_eq!(h.percentile_us(50.0), 8);
        assert!(h.percentile_us(99.0) >= 1024);
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let h = LogHistogram::new();
        h.record(1);
        h.record(3);
        h.record(3);
        let mut out = String::new();
        h.render_prometheus("ms_test_seconds", &mut out);
        assert!(out.contains("ms_test_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("ms_test_seconds_count 3"));
        // The le="4" bucket (observations < 4 µs, i.e. all three) is
        // cumulative.
        assert!(out.contains("ms_test_seconds_bucket{le=\"0.000004\"} 3"));
    }
}
