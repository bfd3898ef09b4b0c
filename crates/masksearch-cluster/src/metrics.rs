//! Coordinator-level metrics: scatter widths, top-k refinement behaviour,
//! and write routing. Lock-free, mirroring the per-shard
//! [`ServiceMetrics`](masksearch_service::ServiceMetrics) design.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counters describing everything a coordinator has done since it started.
#[derive(Debug)]
pub struct ClusterMetrics {
    started: Instant,
    queries: AtomicU64,
    ranked_queries: AtomicU64,
    mutations: AtomicU64,
    failed: AtomicU64,
    shard_requests: AtomicU64,
    topk_rounds: AtomicU64,
    topk_refined_requests: AtomicU64,
    topk_single_round: AtomicU64,
    masks_inserted: AtomicU64,
    masks_deleted: AtomicU64,
    masks_updated: AtomicU64,
    masks_relocated: AtomicU64,
    mutations_deduped: AtomicU64,
    transactions: AtomicU64,
    owner_resolutions: AtomicU64,
    lookup_broadcasts: AtomicU64,
}

impl Default for ClusterMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterMetrics {
    /// A zeroed registry with the uptime clock starting now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            queries: AtomicU64::new(0),
            ranked_queries: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shard_requests: AtomicU64::new(0),
            topk_rounds: AtomicU64::new(0),
            topk_refined_requests: AtomicU64::new(0),
            topk_single_round: AtomicU64::new(0),
            masks_inserted: AtomicU64::new(0),
            masks_deleted: AtomicU64::new(0),
            masks_updated: AtomicU64::new(0),
            masks_relocated: AtomicU64::new(0),
            mutations_deduped: AtomicU64::new(0),
            transactions: AtomicU64::new(0),
            owner_resolutions: AtomicU64::new(0),
            lookup_broadcasts: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_ranked(&self, rounds: usize, refined: usize, single_round: bool) {
        self.ranked_queries.fetch_add(1, Ordering::Relaxed);
        self.topk_rounds.fetch_add(rounds as u64, Ordering::Relaxed);
        self.topk_refined_requests
            .fetch_add(refined as u64, Ordering::Relaxed);
        self.topk_single_round
            .fetch_add(single_round as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_mutation(
        &self,
        inserted: u64,
        deleted: u64,
        updated: u64,
        relocated: u64,
    ) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
        self.masks_inserted.fetch_add(inserted, Ordering::Relaxed);
        self.masks_deleted.fetch_add(deleted, Ordering::Relaxed);
        self.masks_updated.fetch_add(updated, Ordering::Relaxed);
        self.masks_relocated.fetch_add(relocated, Ordering::Relaxed);
    }

    pub(crate) fn record_transaction(&self) {
        self.transactions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_owner_resolutions(&self, n: usize) {
        self.owner_resolutions
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_lookup_broadcast(&self) {
        self.lookup_broadcasts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_deduped(&self) {
        self.mutations_deduped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shard_requests(&self, n: usize) {
        self.shard_requests.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Point-in-time summary.
    pub fn snapshot(&self) -> ClusterMetricsSnapshot {
        ClusterMetricsSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queries: self.queries.load(Ordering::Relaxed),
            ranked_queries: self.ranked_queries.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shard_requests: self.shard_requests.load(Ordering::Relaxed),
            topk_rounds: self.topk_rounds.load(Ordering::Relaxed),
            topk_refined_requests: self.topk_refined_requests.load(Ordering::Relaxed),
            topk_single_round: self.topk_single_round.load(Ordering::Relaxed),
            masks_inserted: self.masks_inserted.load(Ordering::Relaxed),
            masks_deleted: self.masks_deleted.load(Ordering::Relaxed),
            masks_updated: self.masks_updated.load(Ordering::Relaxed),
            masks_relocated: self.masks_relocated.load(Ordering::Relaxed),
            mutations_deduped: self.mutations_deduped.load(Ordering::Relaxed),
            transactions: self.transactions.load(Ordering::Relaxed),
            owner_resolutions: self.owner_resolutions.load(Ordering::Relaxed),
            lookup_broadcasts: self.lookup_broadcasts.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of [`ClusterMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterMetricsSnapshot {
    /// Milliseconds since the coordinator started.
    pub uptime_ms: u64,
    /// Read statements served.
    pub queries: u64,
    /// Ranked (distributed top-k) statements among them.
    pub ranked_queries: u64,
    /// Write statements served.
    pub mutations: u64,
    /// Statements that failed.
    pub failed: u64,
    /// Total shard requests issued (scatter width × statements + writes).
    pub shard_requests: u64,
    /// Total top-k scatter rounds (ranked_queries × 1 when no refinement
    /// was ever needed).
    pub topk_rounds: u64,
    /// Shard re-queries issued by top-k refinement beyond each first round.
    pub topk_refined_requests: u64,
    /// Ranked queries the planner ran in single-round mode (full `k` to
    /// every shard, no refinement) instead of the threshold algorithm.
    pub topk_single_round: u64,
    /// Masks inserted through the coordinator.
    pub masks_inserted: u64,
    /// Masks deleted through the coordinator.
    pub masks_deleted: u64,
    /// Masks re-masked in place (`UPDATE`) through the coordinator.
    pub masks_updated: u64,
    /// Stale copies removed because an overwrite moved a mask to a new
    /// image (and therefore possibly a new owning shard).
    pub masks_relocated: u64,
    /// Mutations answered from the coordinator's token-dedup registry
    /// (client resends after transport errors) without re-routing.
    pub mutations_deduped: u64,
    /// `BEGIN … COMMIT` scripts applied atomically on a single owning shard.
    pub transactions: u64,
    /// Mask-id owners resolved from the coordinator's in-memory owner index
    /// (no shard round trip).
    pub owner_resolutions: u64,
    /// `LOOKUP` broadcasts issued because a write referenced mask ids the
    /// owner index did not know (zero in steady state: the index is seeded
    /// at connect and maintained by every routed write).
    pub lookup_broadcasts: u64,
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
    /// snapshot that caught a concurrent `record_ranked` half-way (its
    /// counters are loaded one by one, so `topk_single_round` can run
    /// ahead of `ranked_queries` or `topk_rounds`).
    pub fn mean_threshold_rounds(&self) -> Option<f64> {
        let threshold_queries = self
            .ranked_queries
            .checked_sub(self.topk_single_round)
            .filter(|&n| n > 0)?;
        let threshold_rounds = self.topk_rounds.checked_sub(self.topk_single_round)?;
        Some(threshold_rounds as f64 / threshold_queries as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
