//! Server-wide metrics: throughput, log-bucketed latency and queue-wait
//! histograms ([`LogHistogram`]), filter effectiveness, and cache
//! efficiency.
//!
//! Everything here is lock-free (`AtomicU64` + `Ordering::Relaxed`): metrics
//! recording sits on the per-query hot path of every executing thread and must
//! never contend with query execution.

use masksearch_obs::LogHistogram;
use masksearch_query::{MutationOutcome, QueryStats};
use masksearch_storage::IngestSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counters and histograms describing everything a server has done since it
/// started.
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    deadline_expired: AtomicU64,
    mutations: AtomicU64,
    masks_inserted: AtomicU64,
    masks_deleted: AtomicU64,
    masks_updated: AtomicU64,
    /// Mutations answered from the token-dedup registry instead of being
    /// re-applied (a client resent after a transport error).
    mutations_deduped: AtomicU64,
    /// Sum of `QueryStats::candidates` over completed queries.
    candidates: AtomicU64,
    /// Sum of `QueryStats::masks_loaded` over completed queries.
    masks_loaded: AtomicU64,
    /// Sum of `QueryStats::pruned` over completed queries.
    pruned: AtomicU64,
    /// Sum of `QueryStats::tiles_pruned` over completed queries.
    tiles_pruned: AtomicU64,
    /// Sum of `QueryStats::tiles_hist` over completed queries.
    tiles_hist: AtomicU64,
    /// Sum of `QueryStats::tiles_scanned` over completed queries.
    tiles_scanned: AtomicU64,
    /// Sum of `QueryStats::pairs_bound` over completed queries.
    pairs_bound: AtomicU64,
    /// Sum of `QueryStats::planner_kernel_on` over completed queries.
    planner_kernel_on: AtomicU64,
    /// Sum of `QueryStats::planner_kernel_off` over completed queries.
    planner_kernel_off: AtomicU64,
    /// Sum of `QueryStats::planner_bounds_skipped` over completed queries.
    planner_bounds_skipped: AtomicU64,
    /// Sum of `QueryStats::planner_reorders` over completed queries.
    planner_reorders: AtomicU64,
    /// Sum of `QueryStats::index_probes` over completed queries.
    index_probes: AtomicU64,
    /// Sum of `QueryStats::index_rows` over completed queries.
    index_rows: AtomicU64,
    /// Sum of `QueryStats::planner_index_on` over completed queries.
    planner_index_on: AtomicU64,
    /// Sum of `QueryStats::planner_index_off` over completed queries.
    planner_index_off: AtomicU64,
    /// End-to-end latency (submission to completion).
    latency: LogHistogram,
    /// Time spent waiting for an execution slot.
    queue_wait: LogHistogram,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Creates a zeroed registry with the uptime clock starting now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            masks_inserted: AtomicU64::new(0),
            masks_deleted: AtomicU64::new(0),
            masks_updated: AtomicU64::new(0),
            mutations_deduped: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            masks_loaded: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            tiles_pruned: AtomicU64::new(0),
            tiles_hist: AtomicU64::new(0),
            tiles_scanned: AtomicU64::new(0),
            pairs_bound: AtomicU64::new(0),
            planner_kernel_on: AtomicU64::new(0),
            planner_kernel_off: AtomicU64::new(0),
            planner_bounds_skipped: AtomicU64::new(0),
            planner_reorders: AtomicU64::new(0),
            index_probes: AtomicU64::new(0),
            index_rows: AtomicU64::new(0),
            planner_index_on: AtomicU64::new(0),
            planner_index_off: AtomicU64::new(0),
            latency: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
        }
    }

    /// Records that a query was admitted past the waiting bound.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rejection by admission control.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query abandoned because its deadline passed while it
    /// waited for a slot.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query that failed during execution.
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successfully applied write and what it did. Mutation
    /// latencies are deliberately kept out of the query latency histogram so
    /// ingestion bursts do not distort read p99s.
    pub fn record_mutation(&self, outcome: &MutationOutcome) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
        self.masks_inserted
            .fetch_add(outcome.inserted as u64, Ordering::Relaxed);
        self.masks_deleted
            .fetch_add(outcome.deleted as u64, Ordering::Relaxed);
        self.masks_updated
            .fetch_add(outcome.updated as u64, Ordering::Relaxed);
    }

    /// Records a mutation answered from the token-dedup registry (the write
    /// had already been applied; only the recorded outcome was replayed).
    pub fn record_mutation_deduped(&self) {
        self.mutations_deduped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records how long a statement waited for an execution slot.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(micros(wait));
    }

    /// Records a successfully completed query with its execution statistics
    /// and end-to-end latency.
    pub fn record_completed(&self, stats: &QueryStats, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(stats.candidates, Ordering::Relaxed);
        self.masks_loaded
            .fetch_add(stats.masks_loaded, Ordering::Relaxed);
        self.pruned.fetch_add(stats.pruned, Ordering::Relaxed);
        self.tiles_pruned
            .fetch_add(stats.tiles_pruned, Ordering::Relaxed);
        self.tiles_hist
            .fetch_add(stats.tiles_hist, Ordering::Relaxed);
        self.tiles_scanned
            .fetch_add(stats.tiles_scanned, Ordering::Relaxed);
        self.pairs_bound
            .fetch_add(stats.pairs_bound, Ordering::Relaxed);
        self.planner_kernel_on
            .fetch_add(stats.planner_kernel_on, Ordering::Relaxed);
        self.planner_kernel_off
            .fetch_add(stats.planner_kernel_off, Ordering::Relaxed);
        self.planner_bounds_skipped
            .fetch_add(stats.planner_bounds_skipped, Ordering::Relaxed);
        self.planner_reorders
            .fetch_add(stats.planner_reorders, Ordering::Relaxed);
        self.index_probes
            .fetch_add(stats.index_probes, Ordering::Relaxed);
        self.index_rows
            .fetch_add(stats.index_rows, Ordering::Relaxed);
        self.planner_index_on
            .fetch_add(stats.planner_index_on, Ordering::Relaxed);
        self.planner_index_off
            .fetch_add(stats.planner_index_off, Ordering::Relaxed);
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

    /// Point-in-time summary of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let completed = self.completed.load(Ordering::Relaxed);
        let candidates = self.candidates.load(Ordering::Relaxed);
        let loaded = self.masks_loaded.load(Ordering::Relaxed);
        MetricsSnapshot {
            uptime,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            masks_inserted: self.masks_inserted.load(Ordering::Relaxed),
            masks_deleted: self.masks_deleted.load(Ordering::Relaxed),
            masks_updated: self.masks_updated.load(Ordering::Relaxed),
            mutations_deduped: self.mutations_deduped.load(Ordering::Relaxed),
            tiles_pruned: self.tiles_pruned.load(Ordering::Relaxed),
            tiles_hist: self.tiles_hist.load(Ordering::Relaxed),
            tiles_scanned: self.tiles_scanned.load(Ordering::Relaxed),
            pairs_bound: self.pairs_bound.load(Ordering::Relaxed),
            planner_kernel_on: self.planner_kernel_on.load(Ordering::Relaxed),
            planner_kernel_off: self.planner_kernel_off.load(Ordering::Relaxed),
            planner_bounds_skipped: self.planner_bounds_skipped.load(Ordering::Relaxed),
            planner_reorders: self.planner_reorders.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            index_rows: self.index_rows.load(Ordering::Relaxed),
            planner_index_on: self.planner_index_on.load(Ordering::Relaxed),
            planner_index_off: self.planner_index_off.load(Ordering::Relaxed),
            // Store-level write-path counters; the engine overwrites this
            // from the session store's `ingest_stats` at snapshot time, like
            // the cache hit rate below.
            ingest: IngestSnapshot::default(),
            qps: if uptime.as_secs_f64() > 0.0 {
                completed as f64 / uptime.as_secs_f64()
            } else {
                0.0
            },
            filter_rate: if candidates == 0 {
                0.0
            } else {
                1.0 - loaded as f64 / candidates as f64
            },
            // Attributing shared-cache hits to individual queries across
            // concurrent statements would double count; the engine fills this
            // from the session cache's own counters at snapshot time.
            cache_hit_rate: 0.0,
            // Saturation signals live outside the registry: the engine fills
            // the queue depth and the TCP front end the connection count.
            active_connections: 0,
            queue_depth: 0,
            p50_us: self.latency_quantile(50.0),
            p99_us: self.latency_quantile(99.0),
            mean_us: self.latency.mean_us(),
        }
    }
}

/// Point-in-time view of [`ServiceMetrics`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Time since the registry (server) started.
    pub uptime: Duration,
    /// Queries admitted.
    pub submitted: u64,
    /// Queries finished successfully.
    pub completed: u64,
    /// Queries that failed during execution.
    pub failed: u64,
    /// Queries rejected by admission control.
    pub rejected: u64,
    /// Queries whose deadline passed while they waited for a slot.
    pub deadline_expired: u64,
    /// Write statements applied through the service.
    pub mutations: u64,
    /// Masks inserted by served writes.
    pub masks_inserted: u64,
    /// Masks deleted by served writes.
    pub masks_deleted: u64,
    /// Masks re-masked in place (`UPDATE`) by served writes.
    pub masks_updated: u64,
    /// Mutations answered from the token-dedup registry (client resends
    /// after transport errors) instead of being re-applied.
    pub mutations_deduped: u64,
    /// Verification-kernel tiles decided from min/max summaries, summed
    /// over completed queries.
    pub tiles_pruned: u64,
    /// Verification-kernel tiles answered from tile histograms.
    pub tiles_hist: u64,
    /// Verification-kernel tiles that fell back to a pixel scan.
    pub tiles_scanned: u64,
    /// Pair-query images bound (both join sides resolved), summed over
    /// completed queries.
    pub pairs_bound: u64,
    /// Masks the planner routed to the tiled verification kernel.
    pub planner_kernel_on: u64,
    /// Masks the planner routed to the reference scan.
    pub planner_kernel_off: u64,
    /// Pairs whose bounds classification the planner skipped (load-first).
    pub planner_bounds_skipped: u64,
    /// Queries whose CP terms the planner evaluated out of written order.
    pub planner_reorders: u64,
    /// Secondary-index probes issued by metadata resolution.
    pub index_probes: u64,
    /// Candidate rows produced by secondary-index probes.
    pub index_rows: u64,
    /// Queries whose metadata filter was answered through an index.
    pub planner_index_on: u64,
    /// Index-eligible queries the planner kept on the catalog scan.
    pub planner_index_off: u64,
    /// Store-level write-path counters (WAL bytes, checkpoints, commits) for
    /// stores that track them; zeros otherwise. Filled by the engine at
    /// snapshot time.
    pub ingest: IngestSnapshot,
    /// Completed queries per second of uptime.
    pub qps: f64,
    /// Fraction of candidate masks the index let the server avoid loading
    /// (`1 - masks_loaded / candidates`), aggregated over completed queries.
    pub filter_rate: f64,
    /// Hit rate of the session's shared mask cache (filled by the engine;
    /// zero in a bare [`ServiceMetrics::snapshot`]).
    pub cache_hit_rate: f64,
    /// Currently open TCP client connections (filled by the server; zero in
    /// a bare [`ServiceMetrics::snapshot`]).
    pub active_connections: u64,
    /// Callers waiting for an execution slot right now (filled by the
    /// engine) — together with `active_connections` the operator's
    /// saturation signal.
    pub queue_depth: u64,
    /// Median end-to-end query latency in µs (see
    /// [`ServiceMetrics::latency`]; log₂ bucket edge clamped to the largest
    /// observation).
    pub p50_us: u64,
    /// 99th-percentile end-to-end query latency in µs.
    pub p99_us: u64,
    /// Mean end-to-end query latency in µs.
    pub mean_us: u64,
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
        let m = ServiceMetrics::new();
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
        let m = ServiceMetrics::new();
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
        let m = ServiceMetrics::new();
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
        let m = ServiceMetrics::new();
        m.record_submitted();
        m.record_submitted();
        m.record_rejected();
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
        assert!((s.filter_rate - 0.75).abs() < 1e-12);
        assert!(s.qps > 0.0);
    }
}
