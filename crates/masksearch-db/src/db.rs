//! [`MaskDb`]: the single-directory database handle.
//!
//! A `MaskDb` is a cheap-to-clone handle over one [`DurableMaskStore`]. It
//! exists to make the common wiring one-liners: open a directory, hand the
//! store to a query `Session`, share the maintained CHI, rebuild the catalog
//! after recovery, checkpoint on demand.

use crate::store::{DbConfig, DurableMaskStore};
use masksearch_core::{Mask, MaskId, MaskRecord};
use masksearch_index::ChiStore;
use masksearch_storage::store::IngestSnapshot;
use masksearch_storage::{Catalog, MaskStore, StorageResult};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A durable mask database living in one directory
/// (`masks.db` + `masks.wal` + `masks.chi`).
///
/// Note on sessions: a query `Session` keeps its own catalog, initialised
/// from [`MaskDb::catalog`]. Writes that should become visible to an
/// already-running session must flow *through that session* (or its serving
/// engine) — direct [`MaskDb::insert_masks`] calls are durable and maintain
/// the shared CHI, but an existing session's catalog only learns about them
/// when it is rebuilt.
#[derive(Clone)]
pub struct MaskDb {
    dir: PathBuf,
    store: Arc<DurableMaskStore>,
}

impl MaskDb {
    /// Opens (creating or crash-recovering) the database in `dir`.
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> StorageResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        let store = Arc::new(DurableMaskStore::open(&dir, config)?);
        Ok(Self { dir, store })
    }

    /// The directory the database lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying durable store.
    pub fn store(&self) -> &Arc<DurableMaskStore> {
        &self.store
    }

    /// The store as a trait object, ready for a query session.
    pub fn mask_store(&self) -> Arc<dyn MaskStore> {
        Arc::clone(&self.store) as Arc<dyn MaskStore>
    }

    /// The CHI store maintained on every commit.
    pub fn chi_store(&self) -> Arc<ChiStore> {
        Arc::clone(self.store.chi_store())
    }

    /// Checks that every mask's CHI matches its pixels and their stamp;
    /// returns the number of masks checked. See
    /// [`DurableMaskStore::verify_indexes`].
    pub fn verify_indexes(&self) -> StorageResult<usize> {
        self.store.verify_indexes()
    }

    /// Rebuilds the metadata catalog from the persisted directory records.
    pub fn catalog(&self) -> Catalog {
        self.store.catalog()
    }

    /// Atomically inserts a batch of masks with their records.
    pub fn insert_masks(&self, batch: &[(MaskRecord, Mask)]) -> StorageResult<()> {
        self.store.insert_masks(batch)
    }

    /// Atomically deletes a batch of masks.
    pub fn delete_masks(&self, mask_ids: &[MaskId]) -> StorageResult<()> {
        self.store.delete_masks(mask_ids)
    }

    /// Forces a checkpoint: database file fsync, WAL truncation, CHI file
    /// rewrite.
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.store.checkpoint()
    }

    /// Ingestion counters.
    pub fn ingest_stats(&self) -> IngestSnapshot {
        self.store
            .ingest_stats()
            .expect("durable store always tracks ingest stats")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_index::ChiConfig;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "masksearch-maskdb-test-{}-{}",
            name,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> DbConfig {
        DbConfig::default()
            .page_size(256)
            .chi_config(ChiConfig::new(4, 4, 4).unwrap())
    }

    #[test]
    fn handle_round_trips_and_clones_share_state() {
        let dir = temp_dir("handle");
        let db = MaskDb::open(&dir, config()).unwrap();
        let clone = db.clone();
        let mask = Mask::from_fn(8, 8, |x, y| ((x + y) % 5) as f32 / 5.0);
        let record = MaskRecord::builder(MaskId::new(1)).shape(8, 8).build();
        db.insert_masks(&[(record, mask.clone())]).unwrap();
        assert_eq!(clone.store().get(MaskId::new(1)).unwrap(), mask);
        assert_eq!(clone.catalog().len(), 1);
        assert_eq!(clone.chi_store().len(), 1);
        assert_eq!(db.ingest_stats().masks_inserted, 1);
        db.checkpoint().unwrap();
        assert_eq!(clone.ingest_stats().checkpoints, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
