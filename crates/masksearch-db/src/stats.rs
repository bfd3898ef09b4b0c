//! Atomic ingestion counters shared between the durable store and the
//! serving layer.

use masksearch_storage::IngestSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters for the write path. Snapshot as
/// [`IngestSnapshot`] through [`IngestStats::snapshot`].
#[derive(Debug, Default)]
pub struct IngestStats {
    masks_inserted: AtomicU64,
    masks_deleted: AtomicU64,
    commits: AtomicU64,
    wal_bytes: AtomicU64,
    checkpoints: AtomicU64,
}

impl IngestStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one committed transaction that inserted `inserted` and
    /// deleted `deleted` masks, appending `wal_bytes` to the log.
    pub fn record_commit(&self, inserted: u64, deleted: u64, wal_bytes: u64) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.masks_inserted.fetch_add(inserted, Ordering::Relaxed);
        self.masks_deleted.fetch_add(deleted, Ordering::Relaxed);
        self.wal_bytes.fetch_add(wal_bytes, Ordering::Relaxed);
    }

    /// Records `wal_bytes` appended to the log outside a commit (a
    /// checkpoint logging the directory).
    pub fn record_wal_bytes(&self, wal_bytes: u64) {
        self.wal_bytes.fetch_add(wal_bytes, Ordering::Relaxed);
    }

    /// Records a completed checkpoint.
    pub fn record_checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> IngestSnapshot {
        IngestSnapshot {
            masks_inserted: self.masks_inserted.load(Ordering::Relaxed),
            masks_deleted: self.masks_deleted.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = IngestStats::new();
        stats.record_commit(3, 0, 1000);
        stats.record_commit(0, 2, 500);
        stats.record_checkpoint();
        stats.record_wal_bytes(25);
        let snap = stats.snapshot();
        assert_eq!(snap.masks_inserted, 3);
        assert_eq!(snap.masks_deleted, 2);
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.wal_bytes, 1525);
        assert_eq!(snap.checkpoints, 1);
    }
}
