//! Server-wide metrics: the since-start counts of
//! [`MetricsSnapshot::ROWS`] and the log-bucketed latency and queue-wait
//! histograms ([`LogHistogram`]).
//!
//! Everything here is lock-free (`AtomicU64` + `Ordering::Relaxed`): metrics
//! recording sits on the per-query hot path of every executing thread and must
//! never contend with query execution.

pub use masksearch_obs::keys::MetricsSnapshot;
use masksearch_obs::LogHistogram;
use masksearch_query::QueryStats;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Counters and histograms describing everything a server has done since it
/// started.
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    /// One count per row of [`MetricsSnapshot::ROWS`].
    counts: [AtomicU64; MetricsSnapshot::N],
    /// End-to-end latency (submission to completion).
    latency: LogHistogram,
    /// Time spent waiting for an execution slot.
    queue_wait: LogHistogram,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            counts: [const { AtomicU64::new(0) }; MetricsSnapshot::N],
            latency: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
        }
    }
}

impl ServiceMetrics {
    /// Adds the counts `set` writes into a zero snapshot; the rows it
    /// leaves at zero do not move.
    pub fn add(&self, set: impl FnOnce(&mut MetricsSnapshot)) {
        MetricsSnapshot::add(&self.counts, set);
    }

    /// Records how long a statement waited for an execution slot.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(micros(wait));
    }

    /// Records a successfully completed query with its execution statistics
    /// and end-to-end latency.
    pub fn record_completed(&self, stats: &QueryStats, latency: Duration) {
        self.add(|m| {
            m.completed = 1;
            m.candidates = stats.candidates;
            m.masks_loaded = stats.masks_loaded;
            m.tiles_pruned = stats.tiles_pruned;
            m.tiles_hist = stats.tiles_hist;
            m.tiles_scanned = stats.tiles_scanned;
            m.pairs_bound = stats.pairs_bound;
            m.planner_kernel_on = stats.planner_kernel_on;
            m.planner_kernel_off = stats.planner_kernel_off;
            m.index_probes = stats.index_probes;
            m.index_rows = stats.index_rows;
            m.planner_index_on = stats.planner_index_on;
            m.planner_index_off = stats.planner_index_off;
        });
        self.latency.record(micros(latency));
    }

    /// End-to-end latency of completed queries (submission to completion).
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// Time statements spent waiting for an execution slot.
    pub fn queue_wait(&self) -> &LogHistogram {
        &self.queue_wait
    }

    /// The `p`-th latency percentile in µs: the upper edge of its log₂
    /// bucket, clamped to the largest observation so a quantile never
    /// exceeds what was actually seen.
    fn latency_quantile(&self, p: f64) -> u64 {
        self.latency
            .percentile_us(p)
            .min(self.latency.max_us().max(1))
    }

    /// Point-in-time summary of everything recorded so far. The levels
    /// this registry does not see (cache hit rate, queue depth, connections,
    /// the store's write path, the profile ring and slow log) are zero; the
    /// engine fills them.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::load(&self.counts);
        let uptime = self.started.elapsed();
        s.uptime_ms = uptime.as_millis() as u64;
        if uptime.as_secs_f64() > 0.0 {
            s.qps = s.completed as f64 / uptime.as_secs_f64();
        }
        if s.candidates > 0 {
            s.filter_rate = 1.0 - s.masks_loaded as f64 / s.candidates as f64;
        }
        s.p50_us = self.latency_quantile(50.0);
        s.p99_us = self.latency_quantile(99.0);
        s.mean_us = self.latency.mean_us();
        s
    }
}

/// A duration in whole microseconds, saturating.
fn micros(duration: Duration) -> u64 {
    duration.as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let m = ServiceMetrics::default();
        for ms in [1u64, 2, 3, 5, 8, 13, 200] {
            m.record_completed(&QueryStats::default(), Duration::from_millis(ms));
        }
        let s = m.snapshot();
        assert_eq!(m.latency().count(), 7);
        assert!(s.p50_us <= s.p99_us);
        assert!(s.p99_us <= m.latency().max_us().max(1));
        assert!(s.mean_us >= 1_000);
        assert_eq!(m.latency().max_us(), 200_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let m = ServiceMetrics::default();
        let s = m.snapshot();
        assert_eq!(m.latency().count(), 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.mean_us, 0);
    }

    /// The `STATS` quantiles and the Prometheus exposition of fixed
    /// observations, byte for byte: a value in `[2^k, 2^(k+1))` µs reports
    /// `2^(k+1)`, quantiles are clamped to the largest observation, and the
    /// exposition closes with the `2^31` µs bucket.
    #[test]
    fn latency_reports_keep_the_log2_upper_edge_convention() {
        let m = ServiceMetrics::default();
        for us in [1u64, 2, 3, 7, 8, 100, 1_000, 65_536, 3_000_000] {
            m.record_completed(&QueryStats::default(), Duration::from_micros(us));
        }
        let s = m.snapshot();
        assert_eq!((s.p50_us, s.p99_us, s.mean_us), (16, 3_000_000, 340_739));
        let mut text = String::new();
        m.latency().render_prometheus("t", &mut text);
        assert_eq!(
            text,
            "t_bucket{le=\"0.000002\"} 1\n\
             t_bucket{le=\"0.000004\"} 3\n\
             t_bucket{le=\"0.000008\"} 4\n\
             t_bucket{le=\"0.000016\"} 5\n\
             t_bucket{le=\"0.000128\"} 6\n\
             t_bucket{le=\"0.001024\"} 7\n\
             t_bucket{le=\"0.131072\"} 8\n\
             t_bucket{le=\"4.194304\"} 9\n\
             t_bucket{le=\"2147.483648\"} 9\n\
             t_bucket{le=\"+Inf\"} 9\n\
             t_sum 3.066657\n\
             t_count 9\n"
        );
    }

    #[test]
    fn snapshot_derives_rates() {
        let m = ServiceMetrics::default();
        m.add(|m| {
            m.submitted = 2;
            m.rejected = 1;
        });
        let stats = QueryStats {
            candidates: 100,
            masks_loaded: 25,
            pruned: 60,
            ..Default::default()
        };
        m.record_completed(&stats, Duration::from_millis(3));
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!((s.candidates, s.masks_loaded), (100, 25));
        assert!((s.filter_rate - 0.75).abs() < 1e-12);
        assert!(s.qps > 0.0);
    }
}
