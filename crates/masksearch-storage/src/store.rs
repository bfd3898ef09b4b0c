//! Object-store-like mask stores: one blob per mask.
//!
//! This is the layout MaskSearch itself uses (and the layout the NumPy
//! baseline of the paper uses: "masks are stored as NumPy arrays on disk").
//! [`MaskStore`] is the interface; [`MemoryMaskStore`] keeps the encoded
//! blobs in memory and charges the disk cost model, for tests and small
//! experiments. The durable store is `masksearch-db`'s.

use crate::disk::{DiskProfile, IoStats};
use crate::error::{StorageError, StorageResult};
use crate::format::{self, MaskEncoding};
use masksearch_core::{Mask, MaskId, MaskRecord};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The commit that installed a mask's pixels, as the store that holds them
/// numbers its commits. A store that stamps reports a mask's stamp with
/// every read of its pixels ([`MaskStore::get_stamped`],
/// [`MaskStore::read_rows`]); an index installed by the same commit carries
/// the same stamp, so a reader can tell that the index summarises exactly
/// the pixels it read.
pub type Stamp = u64;

/// What [`MaskStore::read_rows`] read: the mask's shape, and the stamp of
/// the pixels read when the store stamps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsRead {
    /// Mask width in pixels.
    pub width: u32,
    /// Mask height in pixels.
    pub height: u32,
    /// The commit that installed the pixels read; `None` when the store
    /// does not stamp.
    pub stamp: Option<Stamp>,
}

/// Point-in-time ingestion counters of a mutable mask store.
///
/// Stores that support durable writes (see `masksearch-db`) expose these
/// through [`MaskStore::ingest_stats`] so the serving layer can report
/// write-path health (masks inserted/deleted, WAL traffic, checkpoints)
/// alongside its query metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSnapshot {
    /// Masks inserted since the store was opened.
    pub masks_inserted: u64,
    /// Masks deleted since the store was opened.
    pub masks_deleted: u64,
    /// Committed write transactions.
    pub commits: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Checkpoints completed (WAL truncations).
    pub checkpoints: u64,
}

/// Interface shared by every mask store.
///
/// A store maps [`MaskId`]s to mask blobs and charges every read/write to a
/// shared [`IoStats`] according to its [`DiskProfile`]. Query executors only
/// depend on this trait, so the same executor runs unmodified against the
/// durable `masksearch-db` store and the in-memory store used in tests.
pub trait MaskStore: Send + Sync {
    /// Inserts (or overwrites) a mask.
    fn put(&self, mask_id: MaskId, mask: &Mask) -> StorageResult<()>;

    /// Removes a mask from the store.
    ///
    /// The default implementation reports the operation as unsupported, so
    /// read-mostly stores need not opt in to mutability.
    fn delete(&self, mask_id: MaskId) -> StorageResult<()> {
        let _ = mask_id;
        Err(StorageError::unsupported("delete"))
    }

    /// Inserts a batch of masks together with their catalog records.
    ///
    /// Durable stores override this to commit the whole batch atomically
    /// (and to persist the records for crash recovery); the default simply
    /// loops over [`MaskStore::put`] and ignores the metadata, which is what
    /// catalog-less stores want.
    fn insert_batch(&self, batch: &[(MaskRecord, Mask)]) -> StorageResult<()> {
        for (record, mask) in batch {
            self.put(record.mask_id, mask)?;
        }
        Ok(())
    }

    /// Removes a batch of masks. Durable stores override this to commit the
    /// batch atomically; the default loops over [`MaskStore::delete`].
    fn delete_batch(&self, mask_ids: &[MaskId]) -> StorageResult<()> {
        for &id in mask_ids {
            self.delete(id)?;
        }
        Ok(())
    }

    /// Applies deletions and insertions as one write, and returns the
    /// [`Stamp`] it gave the inserted pixels, when the store stamps. Durable
    /// stores override this to publish both in a single commit frame so a
    /// crash can never expose half of a multi-statement transaction; the
    /// default runs the deletes then the inserts with no atomicity guarantee
    /// and no stamp.
    fn apply_batch(
        &self,
        inserts: &[(MaskRecord, Mask)],
        deletes: &[MaskId],
    ) -> StorageResult<Option<Stamp>> {
        self.delete_batch(deletes)?;
        self.insert_batch(inserts)?;
        Ok(None)
    }

    /// The secondary metadata index registry this store persists across
    /// restarts, when it does (the durable mask database keeps one
    /// `masks.idx.<col>` file per definition, holding only its name and
    /// column). Sessions built over such a store share the registry so
    /// `CREATE INDEX` survives a restart; the default (`None`) makes
    /// sessions keep a private, process-lifetime registry.
    fn meta_indexes(&self) -> Option<Arc<crate::meta_index::MetaIndexRegistry>> {
        None
    }

    /// Brings the persisted secondary index definitions in line with the
    /// registry after DDL (`CREATE INDEX` / `DROP INDEX`), durably, for
    /// stores that keep them on disk. The default — any store whose registry
    /// lives only in memory — does nothing.
    fn persist_meta_indexes(&self) -> StorageResult<()> {
        Ok(())
    }

    /// Ingestion counters for stores with a durable write path; `None` for
    /// stores that do not track them.
    fn ingest_stats(&self) -> Option<IngestSnapshot> {
        None
    }

    /// Loads a mask in full, charging the cost model.
    fn get(&self, mask_id: MaskId) -> StorageResult<Mask>;

    /// Loads a mask in full, as [`MaskStore::get`] does, with the
    /// [`Stamp`] of the pixels read when the store stamps them. The default
    /// stamps nothing.
    fn get_stamped(&self, mask_id: MaskId) -> StorageResult<(Mask, Option<Stamp>)> {
        Ok((self.get(mask_id)?, None))
    }

    /// Reads the row bands `bands` (ascending and disjoint) of a mask as it
    /// is stored — whole rows of row-major little-endian `f32` — into `out`,
    /// one band after another, resized to fit (a caller verifying many
    /// masks reuses one buffer), and returns the mask's shape and the stamp
    /// of the rows read, all of one committed state. The read counts as one
    /// mask loaded. This is what lets verification count an ROI's pixels in
    /// place (`masksearch_core::cp_many_le_rows`) instead of loading and
    /// decoding the mask.
    ///
    /// `Ok(None)` means "not supported here": the caller loads the mask
    /// whole. That is the default, and what a store that can serve rows
    /// answers for a mask it holds in another encoding, for no band, or for
    /// a band that is empty or that its height does not cover.
    fn read_rows(
        &self,
        mask_id: MaskId,
        bands: &[Range<u32>],
        out: &mut Vec<u8>,
    ) -> StorageResult<Option<RowsRead>> {
        let _ = (mask_id, bands, out);
        Ok(None)
    }

    /// Returns `true` if the store holds a mask with this id.
    fn contains(&self, mask_id: MaskId) -> bool;

    /// All mask ids in the store, in ascending order.
    fn ids(&self) -> Vec<MaskId>;

    /// Number of masks in the store.
    fn len(&self) -> usize;

    /// Returns `true` if the store holds no masks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk (encoded) size of one mask in bytes.
    fn stored_bytes(&self, mask_id: MaskId) -> StorageResult<u64>;

    /// Total on-disk size of all masks in bytes.
    fn total_bytes(&self) -> u64;

    /// Shared I/O statistics for this store.
    fn io_stats(&self) -> Arc<IoStats>;

    /// The disk cost model this store charges against.
    fn disk_profile(&self) -> DiskProfile;
}

/// An in-memory mask store charged against the disk cost model.
///
/// Masks are kept in their *encoded* form so the bytes charged to the cost
/// model (and hence every reported statistic) are those of the encoded
/// blobs a disk would hold.
pub struct MemoryMaskStore {
    encoding: MaskEncoding,
    profile: DiskProfile,
    emulate_latency: bool,
    stats: Arc<IoStats>,
    blobs: RwLock<BTreeMap<MaskId, Arc<Vec<u8>>>>,
}

impl MemoryMaskStore {
    /// Creates an empty in-memory store.
    pub fn new(encoding: MaskEncoding, profile: DiskProfile) -> Self {
        Self {
            encoding,
            profile,
            emulate_latency: false,
            stats: IoStats::new_shared(),
            blobs: RwLock::new(BTreeMap::new()),
        }
    }

    /// Makes every read actually *wait out* the profile's modeled cost
    /// (`thread::sleep`) instead of only charging virtual time. This turns
    /// the store into a stand-in for slow media on fast benchmark hosts:
    /// concurrency benefits — overlapping reads across threads, shards or
    /// pipelined requests — become measurable in wall-clock terms even when
    /// the host has fewer cores than the modeled deployment has spindles.
    pub fn emulate_latency(mut self, emulate: bool) -> Self {
        self.emulate_latency = emulate;
        self
    }

    /// Creates an empty store with raw encoding and no I/O cost — the usual
    /// configuration for unit tests.
    pub fn for_tests() -> Self {
        Self::new(MaskEncoding::Raw, DiskProfile::unthrottled())
    }
}

impl MaskStore for MemoryMaskStore {
    fn put(&self, mask_id: MaskId, mask: &Mask) -> StorageResult<()> {
        let bytes = format::encode_mask(mask_id, mask, self.encoding);
        self.stats.record_write(
            bytes.len() as u64,
            self.profile.write_cost(bytes.len() as u64, 1),
        );
        self.blobs.write().insert(mask_id, Arc::new(bytes));
        Ok(())
    }

    fn delete(&self, mask_id: MaskId) -> StorageResult<()> {
        match self.blobs.write().remove(&mask_id) {
            Some(_) => Ok(()),
            None => Err(StorageError::MaskNotFound(mask_id)),
        }
    }

    fn get(&self, mask_id: MaskId) -> StorageResult<Mask> {
        let blob = {
            let blobs = self.blobs.read();
            blobs
                .get(&mask_id)
                .cloned()
                .ok_or(StorageError::MaskNotFound(mask_id))?
        };
        let cost = self.profile.read_cost(blob.len() as u64, 1);
        if self.emulate_latency {
            std::thread::sleep(cost);
        }
        self.stats.record_read(blob.len() as u64, cost);
        self.stats.record_mask_loaded();
        let (_, mask) = format::decode_mask(&blob)?;
        Ok(mask)
    }

    fn contains(&self, mask_id: MaskId) -> bool {
        self.blobs.read().contains_key(&mask_id)
    }

    fn ids(&self) -> Vec<MaskId> {
        self.blobs.read().keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.blobs.read().len()
    }

    fn stored_bytes(&self, mask_id: MaskId) -> StorageResult<u64> {
        self.blobs
            .read()
            .get(&mask_id)
            .map(|b| b.len() as u64)
            .ok_or(StorageError::MaskNotFound(mask_id))
    }

    fn total_bytes(&self) -> u64 {
        self.blobs.read().values().map(|b| b.len() as u64).sum()
    }

    fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn disk_profile(&self) -> DiskProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_mask(seed: u32) -> Mask {
        Mask::from_fn(16, 16, |x, y| ((x + y + seed) % 13) as f32 / 13.0)
    }

    fn exercise_store(store: &dyn MaskStore) {
        assert!(store.is_empty());
        for i in 0..5u64 {
            store.put(MaskId::new(i), &sample_mask(i as u32)).unwrap();
        }
        assert_eq!(store.len(), 5);
        assert!(store.contains(MaskId::new(3)));
        assert!(!store.contains(MaskId::new(99)));
        assert_eq!(store.ids(), (0..5).map(MaskId::new).collect::<Vec<_>>());

        let loaded = store.get(MaskId::new(2)).unwrap();
        assert_eq!(loaded, sample_mask(2));
        assert!(matches!(
            store.get(MaskId::new(42)),
            Err(StorageError::MaskNotFound(_))
        ));

        let per_mask = store.stored_bytes(MaskId::new(0)).unwrap();
        assert!(per_mask > 0);
        assert_eq!(store.total_bytes(), per_mask * 5);

        let stats = store.io_stats();
        assert_eq!(stats.masks_loaded(), 1);
        assert_eq!(stats.write_ops(), 5);
        assert!(stats.bytes_read() >= per_mask);
    }

    #[test]
    fn memory_store_basic_operations() {
        let store = MemoryMaskStore::for_tests();
        exercise_store(&store);
    }

    #[test]
    fn reads_are_charged_to_the_cost_model() {
        let profile = DiskProfile {
            read_bandwidth_bytes_per_sec: 1024, // absurdly slow: 1 KiB/s
            write_bandwidth_bytes_per_sec: u64::MAX,
            per_op_latency: Duration::ZERO,
        };
        let store = MemoryMaskStore::new(MaskEncoding::Raw, profile);
        let mask = sample_mask(0);
        store.put(MaskId::new(1), &mask).unwrap();
        store.get(MaskId::new(1)).unwrap();
        // 16*16*4 bytes + 32-byte header at 1 KiB/s -> about one second.
        let io = store.io_stats().virtual_read_time();
        assert!(io > Duration::from_millis(900), "io time was {io:?}");
    }

    #[test]
    fn delete_removes_masks_from_the_memory_store() {
        let store = MemoryMaskStore::for_tests();
        store.put(MaskId::new(1), &sample_mask(1)).unwrap();
        store.put(MaskId::new(2), &sample_mask(2)).unwrap();
        store.delete(MaskId::new(1)).unwrap();
        assert!(!store.contains(MaskId::new(1)));
        assert_eq!(store.ids(), vec![MaskId::new(2)]);
        assert!(matches!(
            store.delete(MaskId::new(1)),
            Err(StorageError::MaskNotFound(_))
        ));
    }

    #[test]
    fn trait_defaults_loop_and_report_unsupported() {
        /// A minimal store that only implements the required methods.
        struct PutOnly(MemoryMaskStore);
        impl MaskStore for PutOnly {
            fn put(&self, id: MaskId, mask: &Mask) -> StorageResult<()> {
                self.0.put(id, mask)
            }
            fn get(&self, id: MaskId) -> StorageResult<Mask> {
                self.0.get(id)
            }
            fn contains(&self, id: MaskId) -> bool {
                self.0.contains(id)
            }
            fn ids(&self) -> Vec<MaskId> {
                self.0.ids()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn stored_bytes(&self, id: MaskId) -> StorageResult<u64> {
                self.0.stored_bytes(id)
            }
            fn total_bytes(&self) -> u64 {
                self.0.total_bytes()
            }
            fn io_stats(&self) -> Arc<IoStats> {
                self.0.io_stats()
            }
            fn disk_profile(&self) -> DiskProfile {
                self.0.disk_profile()
            }
        }
        let store = PutOnly(MemoryMaskStore::for_tests());
        assert!(matches!(
            store.delete(MaskId::new(1)),
            Err(StorageError::Unsupported {
                operation: "delete"
            })
        ));
        assert!(store.ingest_stats().is_none());
        // The default insert_batch loops over `put`.
        let batch = vec![
            (
                masksearch_core::MaskRecord::builder(MaskId::new(1))
                    .shape(16, 16)
                    .build(),
                sample_mask(1),
            ),
            (
                masksearch_core::MaskRecord::builder(MaskId::new(2))
                    .shape(16, 16)
                    .build(),
                sample_mask(2),
            ),
        ];
        store.insert_batch(&batch).unwrap();
        assert_eq!(store.len(), 2);
        // The default delete_batch surfaces the unsupported delete.
        assert!(store.delete_batch(&[MaskId::new(1)]).is_err());
        // apply_batch with no deletes degrades to insert_batch; with deletes
        // it surfaces the unsupported delete before inserting anything.
        assert!(store.meta_indexes().is_none());
        assert!(store.apply_batch(&[], &[MaskId::new(1)]).is_err());
        let more = vec![(
            masksearch_core::MaskRecord::builder(MaskId::new(3))
                .shape(16, 16)
                .build(),
            sample_mask(3),
        )];
        store.apply_batch(&more, &[]).unwrap();
        assert_eq!(store.len(), 3);
    }
}
