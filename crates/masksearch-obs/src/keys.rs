//! The shared metric-name registry.
//!
//! The per-shard `STATS` line, the coordinator's scatter-gather aggregation,
//! the `OK` frame summaries, the Prometheus exposition, and the span
//! counters all name the same quantities. Before this crate existed each
//! surface spelled the names independently — a rename in one silently broke
//! the others. Every name now lives here once, and the coordinator's
//! sum/max aggregation arrays are the very constants the `STATS` writer
//! uses, so the surfaces cannot drift.

/// Served queries per second since start.
pub const QPS: &str = "qps";
/// Queries completed.
pub const COMPLETED: &str = "completed";
/// Queries failed.
pub const FAILED: &str = "failed";
/// Queries rejected by admission control.
pub const REJECTED: &str = "rejected";
/// Queries abandoned because their deadline passed while queued.
pub const DEADLINE_EXPIRED: &str = "deadline_expired";
/// Write statements served.
pub const MUTATIONS: &str = "mutations";
/// Masks inserted.
pub const INSERTED: &str = "inserted";
/// Masks deleted.
pub const DELETED: &str = "deleted";
/// Masks updated in place.
pub const UPDATED: &str = "updated";
/// Mutations answered from the token-dedup registry.
pub const DEDUPED: &str = "deduped";
/// WAL bytes pending checkpoint.
pub const WAL_BYTES: &str = "wal_bytes";
/// Checkpoints taken.
pub const CHECKPOINTS: &str = "checkpoints";
/// WAL commits.
pub const COMMITS: &str = "commits";
/// Tiles skipped entirely by the verification kernel.
pub const TILES_PRUNED: &str = "tiles_pruned";
/// Tiles answered from per-tile histograms.
pub const TILES_HIST: &str = "tiles_hist";
/// Tiles scanned pixel-by-pixel.
pub const TILES_SCANNED: &str = "tiles_scanned";
/// Mask pairs resolved by composed bounds without loading both masks.
pub const PAIRS_BOUND: &str = "pairs_bound";
/// Loaded masks the plan routed through the tiled kernel.
pub const PLANNER_KERNEL_ON: &str = "planner_kernel_on";
/// Loaded masks the plan routed to the reference scan.
pub const PLANNER_KERNEL_OFF: &str = "planner_kernel_off";
/// Secondary-index point probes issued during candidate resolution.
pub const INDEX_PROBES: &str = "index_probes";
/// Mask ids returned by secondary-index probes (before re-verification).
pub const INDEX_ROWS: &str = "index_rows";
/// Metadata-constrained resolutions the planner routed through an index.
pub const PLANNER_INDEX_ON: &str = "planner_index_on";
/// Metadata-constrained resolutions the planner kept on the catalog scan.
pub const PLANNER_INDEX_OFF: &str = "planner_index_off";
/// Open client connections.
pub const ACTIVE_CONNECTIONS: &str = "active_connections";
/// Jobs waiting in the queue.
pub const QUEUE_DEPTH: &str = "queue_depth";
/// Median end-to-end latency in microseconds.
pub const P50_US: &str = "p50_us";
/// 99th-percentile end-to-end latency in microseconds.
pub const P99_US: &str = "p99_us";

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

/// `STATS` keys a cluster coordinator aggregates across shards by summing
/// (throughput and work counters: the cluster did the sum of its shards).
///
/// Both the shard-side `STATS` writer and the coordinator's merge draw from
/// this one array, so a key added or renamed here changes every surface at
/// once.
pub const STATS_SUM_KEYS: [&str; 25] = [
    QPS,
    COMPLETED,
    FAILED,
    REJECTED,
    DEADLINE_EXPIRED,
    MUTATIONS,
    INSERTED,
    DELETED,
    UPDATED,
    DEDUPED,
    WAL_BYTES,
    CHECKPOINTS,
    COMMITS,
    TILES_PRUNED,
    TILES_HIST,
    TILES_SCANNED,
    PAIRS_BOUND,
    PLANNER_KERNEL_ON,
    PLANNER_KERNEL_OFF,
    INDEX_PROBES,
    INDEX_ROWS,
    PLANNER_INDEX_ON,
    PLANNER_INDEX_OFF,
    ACTIVE_CONNECTIONS,
    QUEUE_DEPTH,
];

/// `STATS` keys a cluster coordinator aggregates by taking the maximum
/// (latency percentiles: the slowest shard bounds the cluster).
pub const STATS_MAX_KEYS: [&str; 2] = [P50_US, P99_US];

/// `STATS` keys streamed as deltas by the `MONITOR` subscription: the
/// monotonic counters, so that deltas summed over a subscription that
/// started at server-zero equal the cumulative `STATS` values. Gauges
/// (`queue_depth`, `active_connections`), rates (`qps`), percentiles, and
/// the non-monotonic `wal_bytes` (it shrinks at checkpoint) are excluded.
pub const MONITOR_DELTA_KEYS: [&str; 21] = [
    COMPLETED,
    FAILED,
    REJECTED,
    DEADLINE_EXPIRED,
    MUTATIONS,
    INSERTED,
    DELETED,
    UPDATED,
    DEDUPED,
    CHECKPOINTS,
    COMMITS,
    TILES_PRUNED,
    TILES_HIST,
    TILES_SCANNED,
    PAIRS_BOUND,
    PLANNER_KERNEL_ON,
    PLANNER_KERNEL_OFF,
    INDEX_PROBES,
    INDEX_ROWS,
    PLANNER_INDEX_ON,
    PLANNER_INDEX_OFF,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_keys_are_unique() {
        let mut all: Vec<&str> = STATS_SUM_KEYS.to_vec();
        all.extend_from_slice(&STATS_MAX_KEYS);
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len(), "duplicate key in registry");
    }

    #[test]
    fn monitor_keys_are_summed_stats_keys() {
        // Every monitored delta must also be a summed STATS key, or the
        // "deltas sum to the cumulative STATS counters" invariant (checked
        // end-to-end in the service tests) could not hold cluster-wide.
        for key in MONITOR_DELTA_KEYS {
            assert!(
                STATS_SUM_KEYS.contains(&key),
                "{key} monitored but not summed"
            );
        }
        let mut dedup = MONITOR_DELTA_KEYS.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), MONITOR_DELTA_KEYS.len());
    }
}
