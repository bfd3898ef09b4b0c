//! The metrics registry: every exported metric declared once, as one row.
//!
//! A row gives a metric's `STATS` / `MONITOR` key, its Prometheus name, its
//! HELP text (the row's doc comment), its [`Kind`] and the coordinator's
//! [`Merge`] rule. The tables are [`MetricsSnapshot::ROWS`] (a node's
//! service metrics, in `STATS` order), [`ClusterMetricsSnapshot::ROWS`] (a
//! coordinator's own) and [`counters::ROWS`](crate::counters::ROWS) (the
//! process-global statics). The `STATS` writers, both Prometheus
//! expositions, `MONITOR` and the coordinator's merge walk the rows, so no
//! surface spells a metric its own way.
//!
//! The rest of this module names the per-statement counters of `OK` frame
//! summaries, `EXPLAIN ANALYZE` and span trees.

use std::fmt::Write as _;

/// Whether a metric only grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic: a Prometheus `counter`; `MONITOR` streams it if on `STATS`.
    Counter,
    /// A level that may fall: a Prometheus `gauge`.
    Gauge,
}

/// How a coordinator folds its shards' `STATS` values of a row. The order
/// is its `STATS` order: summed keys, then maxed, each group alphabetical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Merge {
    /// The cluster did the sum of its shards' work.
    Sum,
    /// The slowest shard bounds the cluster (latency percentiles).
    Max,
    /// Not merged: the coordinator reports its own value, or none.
    Own,
}

/// How a row's value is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// An integer: a count, a level, or microseconds.
    Count,
    /// Milliseconds: an integer on `STATS`, seconds on Prometheus.
    Millis,
    /// Events per second: three decimals on `STATS`.
    PerSecond,
    /// A fraction: six decimals on `STATS`.
    Ratio,
}

/// One exported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Key on `STATS` and in `MONITOR` frames; empty when not on `STATS`.
    pub key: &'static str,
    /// Prometheus series name; empty when not on `METRICS`.
    pub prom: &'static str,
    /// Prometheus HELP text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// The coordinator's merge rule.
    pub merge: Merge,
    /// How the value is written.
    pub unit: Unit,
}

impl Metric {
    /// Whether `MONITOR` streams this row: a counter on `STATS`, so deltas
    /// summed from server-zero equal its cumulative `STATS` value.
    pub const fn monitored(&self) -> bool {
        !self.key.is_empty() && matches!(self.kind, Kind::Counter)
    }

    /// Appends ` key=value` to a `STATS` line.
    pub fn write_stat(&self, line: &mut String, value: f64) {
        let key = self.key;
        let _ = match self.unit {
            Unit::Count | Unit::Millis => write!(line, " {key}={}", value as u64),
            Unit::PerSecond => write!(line, " {key}={value:.3}"),
            Unit::Ratio => write!(line, " {key}={value:.6}"),
        };
    }
}

/// The HELP text of a row: its doc comment's lines joined.
macro_rules! help {
    ($($doc:literal)+) => {
        concat!($($doc),+).trim_ascii_start()
    };
}
pub(crate) use help;

macro_rules! metric_table {
    (@ty PerSecond) => { f64 };
    (@ty Ratio) => { f64 };
    (@ty $integer:ident) => { u64 };
    (@or $text:literal) => { $text };
    (@or) => { "" };
    (
        $(#[$attr:meta])*
        pub struct $name:ident;
        $(
            $(#[doc = $doc:literal])+
            $field:ident: $kind:ident, $merge:ident, $unit:ident
                $(, $KEY:ident = $key:literal)? $(=> $prom:literal)?;
        )+
    ) => {
        $(#[$attr])*
        pub struct $name {
            $( $(#[doc = $doc])+ pub $field: metric_table!(@ty $unit), )+
        }

        $($(
            #[doc = concat!("`STATS` key of [`", stringify!($name), "::", stringify!($field), "`].")]
            pub const $KEY: &str = $key;
        )?)+

        impl $name {
            /// Number of rows.
            pub const N: usize = [$(stringify!($field)),+].len();

            /// The rows, in field order.
            pub const ROWS: [Metric; Self::N] = [$(
                Metric {
                    key: metric_table!(@or $($key)?),
                    prom: metric_table!(@or $($prom)?),
                    help: help!($($doc)+),
                    kind: Kind::$kind,
                    merge: Merge::$merge,
                    unit: Unit::$unit,
                },
            )+];

            /// Every row's value, in row order.
            pub fn values(&self) -> [f64; Self::N] {
                [$(self.$field as f64),+]
            }

            /// Adds to `counts`, one atomic per row, the delta `set` writes
            /// into a zero snapshot (`add(&counts, |delta| delta.failed = 1)`):
            /// lock-free, for the per-statement path.
            pub fn add(
                counts: &[std::sync::atomic::AtomicU64; Self::N],
                set: impl FnOnce(&mut Self),
            ) {
                let mut delta = Self::default();
                set(&mut delta);
                for (count, delta) in counts.iter().zip([$(delta.$field as u64),+]) {
                    if delta > 0 {
                        count.fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }

            /// A snapshot of `counts`, one per row.
            pub fn load(counts: &[std::sync::atomic::AtomicU64; Self::N]) -> Self {
                let [$($field),+] = counts
                    .each_ref()
                    .map(|count| count.load(std::sync::atomic::Ordering::Relaxed));
                Self { $($field: $field as _),+ }
            }
        }
    };
}

metric_table! {
    /// A single node's service metrics: since-start counts, the latency
    /// quantiles, and levels filled in when the snapshot is taken.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct MetricsSnapshot;

    /// Completed queries per second of uptime.
    qps: Gauge, Sum, PerSecond, QPS = "qps" => "masksearch_qps";
    /// Queries finished successfully.
    completed: Counter, Sum, Count, COMPLETED = "completed" => "masksearch_queries_completed_total";
    /// Queries that failed during execution.
    failed: Counter, Sum, Count, FAILED = "failed" => "masksearch_queries_failed_total";
    /// Queries rejected by admission control.
    rejected: Counter, Sum, Count, REJECTED = "rejected" => "masksearch_queries_rejected_total";
    /// Queries whose deadline passed while they waited for a slot.
    deadline_expired: Counter, Sum, Count,
        DEADLINE_EXPIRED = "deadline_expired" => "masksearch_queries_deadline_expired_total";
    /// Median end-to-end query latency in microseconds: the upper edge of
    /// its log2 bucket, clamped to the largest observation.
    p50_us: Gauge, Max, Count, P50_US = "p50_us";
    /// 99th-percentile end-to-end query latency in microseconds.
    p99_us: Gauge, Max, Count, P99_US = "p99_us";
    /// Mean end-to-end query latency in microseconds.
    mean_us: Gauge, Own, Count, MEAN_US = "mean_us";
    /// Fraction of candidate masks the index let the server avoid loading.
    filter_rate: Gauge, Own, Ratio, FILTER_RATE = "filter_rate" => "masksearch_filter_rate";
    /// Hit rate of the shared mask cache.
    cache_hit_rate: Gauge, Own, Ratio, CACHE_HIT_RATE = "cache_hit_rate" => "masksearch_cache_hit_rate";
    /// Time since the server started.
    uptime_ms: Gauge, Own, Millis, UPTIME_MS = "uptime_ms" => "masksearch_uptime_seconds";
    /// Write statements applied.
    mutations: Counter, Sum, Count, MUTATIONS = "mutations" => "masksearch_mutations_total";
    /// Masks inserted by served writes.
    masks_inserted: Counter, Sum, Count, INSERTED = "inserted" => "masksearch_masks_inserted_total";
    /// Masks deleted by served writes.
    masks_deleted: Counter, Sum, Count, DELETED = "deleted" => "masksearch_masks_deleted_total";
    /// Masks re-masked in place (UPDATE) by served writes.
    masks_updated: Counter, Sum, Count, UPDATED = "updated" => "masksearch_masks_updated_total";
    /// Mutations answered from the token-dedup registry (a client resent
    /// after a transport error) instead of being applied again.
    mutations_deduped: Counter, Sum, Count, DEDUPED = "deduped" => "masksearch_mutations_deduped_total";
    /// Bytes appended to the write-ahead log since the store opened (a
    /// checkpoint does not lower it).
    wal_bytes: Counter, Sum, Count, WAL_BYTES = "wal_bytes" => "masksearch_wal_bytes_total";
    /// Checkpoints completed.
    checkpoints: Counter, Sum, Count, CHECKPOINTS = "checkpoints" => "masksearch_checkpoints_total";
    /// Committed write transactions.
    commits: Counter, Sum, Count, COMMITS = "commits" => "masksearch_commits_total";
    /// CHI cells the verification cell kernel decided whole (none or all of
    /// their pixels in range).
    tiles_pruned: Counter, Sum, Count, TILES_PRUNED = "tiles_pruned" => "masksearch_tiles_pruned_total";
    /// CHI cells the verification cell kernel took exactly from the histogram.
    tiles_hist: Counter, Sum, Count, TILES_HIST = "tiles_hist" => "masksearch_tiles_hist_total";
    /// CHI cells whose ROI pixels the verification cell kernel scanned.
    tiles_scanned: Counter, Sum, Count,
        TILES_SCANNED = "tiles_scanned" => "masksearch_tiles_scanned_total";
    /// Mask pairs resolved by composed bounds without loading both masks.
    pairs_bound: Counter, Sum, Count, PAIRS_BOUND = "pairs_bound" => "masksearch_pairs_bound_total";
    /// Masks verification counted by CHI cell.
    planner_kernel_on: Counter, Sum, Count,
        PLANNER_KERNEL_ON = "planner_kernel_on" => "masksearch_planner_kernel_on_total";
    /// Masks verification counted by the reference scan.
    planner_kernel_off: Counter, Sum, Count,
        PLANNER_KERNEL_OFF = "planner_kernel_off" => "masksearch_planner_kernel_off_total";
    /// Secondary-index point probes issued during candidate resolution.
    index_probes: Counter, Sum, Count, INDEX_PROBES = "index_probes" => "masksearch_index_probes_total";
    /// Mask ids returned by secondary-index probes, before re-verification.
    index_rows: Counter, Sum, Count, INDEX_ROWS = "index_rows" => "masksearch_index_rows_total";
    /// Metadata-constrained resolutions the planner routed through an index.
    planner_index_on: Counter, Sum, Count,
        PLANNER_INDEX_ON = "planner_index_on" => "masksearch_planner_index_on_total";
    /// Metadata-constrained resolutions the planner kept on the catalog scan.
    planner_index_off: Counter, Sum, Count,
        PLANNER_INDEX_OFF = "planner_index_off" => "masksearch_planner_index_off_total";
    /// Open client connections.
    active_connections: Gauge, Sum, Count, ACTIVE_CONNECTIONS = "active_connections";
    /// Callers waiting for an execution slot.
    queue_depth: Gauge, Sum, Count, QUEUE_DEPTH = "queue_depth" => "masksearch_queue_depth";
    /// Queries admitted past the waiting bound.
    submitted: Counter, Own, Count => "masksearch_queries_submitted_total";
    /// Candidate masks the filter stage considered, summed over queries.
    candidates: Counter, Own, Count => "masksearch_candidates_total";
    /// Masks loaded from the store, summed over completed queries.
    masks_loaded: Counter, Own, Count => "masksearch_masks_loaded_total";
    /// Query profiles recorded into the profile ring.
    profiles_recorded: Counter, Own, Count => "masksearch_profiles_recorded_total";
    /// Entries written to the slow-query log.
    slow_queries_logged: Counter, Own, Count => "masksearch_slow_queries_logged_total";
}

metric_table! {
    /// A cluster coordinator's own metrics: scatter widths, top-k
    /// refinement and write routing.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ClusterMetricsSnapshot;

    /// Read statements coordinated.
    queries: Counter, Own, Count,
        CLUSTER_QUERIES = "cluster_queries" => "masksearch_cluster_queries_total";
    /// Ranked (distributed top-k) read statements coordinated.
    ranked_queries: Counter, Own, Count,
        CLUSTER_RANKED = "cluster_ranked" => "masksearch_cluster_ranked_queries_total";
    /// Write statements routed.
    mutations: Counter, Own, Count,
        CLUSTER_MUTATIONS = "cluster_mutations" => "masksearch_cluster_mutations_total";
    /// Mutations answered from the coordinator's token-dedup registry.
    mutations_deduped: Counter, Own, Count,
        CLUSTER_DEDUPED = "cluster_deduped" => "masksearch_cluster_mutations_deduped_total";
    /// Statements that failed.
    failed: Counter, Own, Count,
        CLUSTER_FAILED = "cluster_failed" => "masksearch_cluster_failed_total";
    /// Shard requests issued: scatter width times statements, plus writes.
    shard_requests: Counter, Own, Count,
        SHARD_REQUESTS = "shard_requests" => "masksearch_cluster_shard_requests_total";
    /// Distributed top-k scatter rounds.
    topk_rounds: Counter, Own, Count,
        TOPK_ROUNDS = "topk_rounds" => "masksearch_cluster_topk_rounds_total";
    /// Shard re-queries issued by top-k refinement beyond each first round.
    topk_refined_requests: Counter, Own, Count,
        TOPK_REFINED = "topk_refined_requests" => "masksearch_cluster_topk_refined_requests_total";
    /// Ranked queries run in single-round mode (full k to every shard).
    topk_single_round: Counter, Own, Count,
        TOPK_SINGLE_ROUND = "topk_single_round" => "masksearch_cluster_topk_single_round_total";
    /// Stale copies removed because an overwrite moved a mask to a new
    /// image, and so possibly to a new owning shard.
    masks_relocated: Counter, Own, Count,
        RELOCATED = "relocated" => "masksearch_cluster_masks_relocated_total";
    /// BEGIN ... COMMIT scripts applied atomically on a single owning shard.
    transactions: Counter, Own, Count,
        CLUSTER_TRANSACTIONS = "cluster_transactions" => "masksearch_cluster_transactions_total";
    /// Masks re-masked in place (UPDATE) through the coordinator.
    masks_updated: Counter, Own, Count,
        CLUSTER_UPDATED = "cluster_updated" => "masksearch_cluster_masks_updated_total";
    /// Mask-id owners resolved from the in-memory owner index.
    owner_resolutions: Counter, Own, Count,
        OWNER_RESOLUTIONS = "owner_resolutions" => "masksearch_cluster_owner_resolutions_total";
    /// LOOKUP broadcasts issued for ids the owner index did not know.
    lookup_broadcasts: Counter, Own, Count,
        LOOKUP_BROADCASTS = "lookup_broadcasts" => "masksearch_cluster_lookup_broadcasts_total";
    /// Masks inserted through the coordinator.
    masks_inserted: Counter, Own, Count => "masksearch_cluster_masks_inserted_total";
    /// Masks deleted through the coordinator.
    masks_deleted: Counter, Own, Count => "masksearch_cluster_masks_deleted_total";
    /// Shards the coordinator scatters over.
    shards: Gauge, Own, Count => "masksearch_cluster_shards";
    /// Time since the coordinator started.
    uptime_ms: Gauge, Own, Millis => "masksearch_cluster_uptime_seconds";
    /// Coordinated-query profiles recorded.
    profiles_recorded: Counter, Own, Count => "masksearch_cluster_profiles_recorded_total";
}

impl ClusterMetricsSnapshot {
    /// Mean top-k rounds per ranked query (1.0 = refinement never needed).
    pub fn mean_topk_rounds(&self) -> f64 {
        if self.ranked_queries == 0 {
            0.0
        } else {
            self.topk_rounds as f64 / self.ranked_queries as f64
        }
    }

    /// Mean rounds over *threshold-mode* ranked queries only — single-round
    /// queries take exactly one round by construction and would bias the
    /// planner's convergence feedback towards flapping back to threshold
    /// mode. `None` until a threshold-mode query has run, and for a
    /// snapshot that caught a concurrent recording half-way (its counters
    /// are loaded one by one, so `topk_single_round` can run ahead of
    /// `ranked_queries` or `topk_rounds`).
    pub fn mean_threshold_rounds(&self) -> Option<f64> {
        let threshold_queries = self
            .ranked_queries
            .checked_sub(self.topk_single_round)
            .filter(|&n| n > 0)?;
        let threshold_rounds = self.topk_rounds.checked_sub(self.topk_single_round)?;
        Some(threshold_rounds as f64 / threshold_queries as f64)
    }
}

/// Appends ` key=value` for every row of `rows` on the `STATS` line.
pub fn write_stats(line: &mut String, rows: &[Metric], values: &[f64]) {
    for (row, &value) in rows.iter().zip(values) {
        if !row.key.is_empty() {
            row.write_stat(line, value);
        }
    }
}

/// Folds shards' `STATS` lines into one value per [`MetricsSnapshot`] row
/// by the row's [`Merge`] rule; `Own` rows stay zero.
pub fn merge_stats(lines: &[String]) -> [f64; MetricsSnapshot::N] {
    let rows = &MetricsSnapshot::ROWS;
    let mut merged = [0.0; MetricsSnapshot::N];
    for line in lines {
        let tokens = line.split_ascii_whitespace().skip(1);
        for (key, value) in tokens.filter_map(|token| token.split_once('=')) {
            let (Some(i), Ok(value)) = (
                rows.iter().position(|row| row.key == key),
                value.parse::<f64>(),
            ) else {
                continue;
            };
            match rows[i].merge {
                Merge::Sum => merged[i] += value,
                Merge::Max => merged[i] = merged[i].max(value),
                Merge::Own => {}
            }
        }
    }
    merged
}

/// The `MONITOR` counters' values out of `values`, one per
/// [`MONITOR_DELTA_KEYS`] key.
pub fn monitor_values(values: &[f64; MetricsSnapshot::N]) -> Vec<(&'static str, u64)> {
    MetricsSnapshot::ROWS
        .iter()
        .zip(values)
        .filter(|(row, _)| row.monitored())
        .map(|(row, &value)| (row.key, value as u64))
        .collect()
}

/// The first `M` monitored keys of [`MetricsSnapshot::ROWS`], and how many
/// there are in all (so `monitored::<0>().1` sizes the full array).
const fn monitored<const M: usize>() -> ([&'static str; M], usize) {
    let (mut keys, mut n, mut i) = ([""; M], 0, 0);
    while i < MetricsSnapshot::N {
        if MetricsSnapshot::ROWS[i].monitored() {
            if n < M {
                keys[n] = MetricsSnapshot::ROWS[i].key;
            }
            n += 1;
        }
        i += 1;
    }
    (keys, n)
}

/// `STATS` keys streamed as deltas by the `MONITOR` subscription: the
/// [monitored](Metric::monitored) rows of [`MetricsSnapshot`], in row order.
pub const MONITOR_DELTA_KEYS: [&str; monitored::<0>().1] = monitored().0;

/// Candidate masks considered by the filter stage (`OK` frame summaries and
/// span counters).
pub const CANDIDATES: &str = "candidates";
/// Candidates pruned by CHI bounds without loading.
pub const PRUNED: &str = "pruned";
/// Candidates accepted by bounds alone, without loading pixels.
pub const ACCEPTED: &str = "accepted";
/// Candidates that required pixel-level verification.
pub const VERIFIED: &str = "verified";
/// Masks loaded from the store.
pub const LOADED: &str = "loaded";
/// Of `loaded`, masks verified in place: their ROI rows were read and
/// counted where the store holds them, nothing was decoded or cached.
pub const IN_PLACE: &str = "in_place";
/// Bytes read from the store.
pub const BYTES_READ: &str = "bytes_read";
/// CHI indexes built on demand (incremental indexing).
pub const INDEXES_BUILT: &str = "indexes_built";
/// Server-side wall time in microseconds.
pub const WALL_US: &str = "wall_us";

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn registry_keys_are_unique() {
        let mut keys: Vec<&str> = MetricsSnapshot::ROWS
            .iter()
            .chain(&ClusterMetricsSnapshot::ROWS)
            .map(|row| row.key)
            .filter(|key| !key.is_empty())
            .collect();
        let all = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(all, keys.len(), "duplicate key in registry");
    }

    #[test]
    fn monitor_keys_are_summed_stats_keys() {
        // Every monitored delta must also be a summed STATS key, or the
        // "deltas sum to the cumulative STATS counters" invariant (checked
        // end-to-end in the service tests) could not hold cluster-wide.
        for key in MONITOR_DELTA_KEYS {
            let row = MetricsSnapshot::ROWS.iter().find(|row| row.key == key);
            assert_eq!(
                row.map(|row| row.merge),
                Some(Merge::Sum),
                "{key} monitored but not summed"
            );
        }
        let mut dedup = MONITOR_DELTA_KEYS.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), MONITOR_DELTA_KEYS.len());
        assert!(MONITOR_DELTA_KEYS.contains(&WAL_BYTES));
    }

    #[test]
    fn help_joins_doc_lines() {
        let row = MetricsSnapshot::ROWS
            .iter()
            .find(|row| row.key == P50_US)
            .unwrap();
        assert_eq!(
            row.help,
            "Median end-to-end query latency in microseconds: the upper edge of \
             its log2 bucket, clamped to the largest observation."
        );
    }

    #[test]
    fn snapshots_add_to_and_load_from_counts() {
        let counts = [const { AtomicU64::new(0) }; ClusterMetricsSnapshot::N];
        for _ in 0..2 {
            ClusterMetricsSnapshot::add(&counts, |delta| {
                delta.ranked_queries = 3;
                delta.shards = 2;
            });
        }
        let loaded = ClusterMetricsSnapshot::load(&counts);
        assert_eq!((loaded.ranked_queries, loaded.shards), (6, 4));
        assert_eq!(loaded.values().iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn merge_sums_maxes_and_drops_own_rows() {
        let lines = [
            "STATS qps=1.5 completed=2 p99_us=40 mean_us=9 bogus=1 wal_bytes=x".to_string(),
            "STATS qps=2.25 completed=3 p99_us=70 mean_us=9".to_string(),
        ];
        let merged = merge_stats(&lines);
        let value = |key| {
            let i = MetricsSnapshot::ROWS.iter().position(|row| row.key == key);
            merged[i.unwrap()]
        };
        assert_eq!(value(QPS), 3.75);
        assert_eq!(value(COMPLETED), 5.0);
        assert_eq!(value(P99_US), 70.0);
        assert_eq!(value(MEAN_US), 0.0);
        assert_eq!(value(WAL_BYTES), 0.0);
        let monitor = monitor_values(&merged);
        assert_eq!(monitor.len(), MONITOR_DELTA_KEYS.len());
        assert_eq!(monitor[0], (COMPLETED, 5));
    }

    #[test]
    fn mean_threshold_rounds_is_none_for_a_torn_snapshot() {
        // A snapshot taken while a single-round query was being recorded:
        // its single-round count is ahead of the ranked-query count.
        let torn = ClusterMetricsSnapshot {
            ranked_queries: 3,
            topk_rounds: 4,
            topk_single_round: 4,
            ..Default::default()
        };
        assert_eq!(torn.mean_threshold_rounds(), None);
        // Or ahead of the round count only.
        let torn = ClusterMetricsSnapshot {
            ranked_queries: 5,
            topk_rounds: 2,
            topk_single_round: 3,
            ..Default::default()
        };
        assert_eq!(torn.mean_threshold_rounds(), None);
        // Only single-round queries so far: no threshold feedback yet.
        let single = ClusterMetricsSnapshot {
            ranked_queries: 4,
            topk_rounds: 4,
            topk_single_round: 4,
            ..Default::default()
        };
        assert_eq!(single.mean_threshold_rounds(), None);
        // Two threshold-mode queries took 5 rounds between them.
        let mixed = ClusterMetricsSnapshot {
            ranked_queries: 3,
            topk_rounds: 6,
            topk_single_round: 1,
            ..Default::default()
        };
        assert_eq!(mixed.mean_threshold_rounds(), Some(2.5));
    }
}
