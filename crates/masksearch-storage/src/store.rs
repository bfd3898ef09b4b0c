//! Object-store-like mask stores: one blob per mask.
//!
//! This is the layout MaskSearch itself uses (and the layout the NumPy
//! baseline of the paper uses: "masks are stored as NumPy arrays on disk").
//! [`MaskStore`] is the interface; [`MemoryMaskStore`] keeps the encoded
//! blobs in memory and charges the disk cost model, for tests and small
//! experiments. The durable store is `masksearch-db`'s.
//!
//! Every store numbers its commits, and every read of a mask's pixels
//! reports the [`Stamp`] of the commit that installed them.

use crate::disk::{DiskProfile, IoStats};
use crate::error::{StorageError, StorageResult};
use crate::format::{self, MaskEncoding};
use masksearch_core::{Mask, MaskId, MaskRecord};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The commit that installed a mask's pixels, as the store that holds them
/// numbers its commits. A store reports a mask's stamp with every read of
/// its pixels ([`MaskStore::get_stamped`], [`MaskStore::read_rows`]); an
/// index built from those pixels carries the same stamp, so a reader can
/// tell that the index summarises exactly the pixels it read.
pub type Stamp = u64;

/// The stamp of the pixels a store holds when it opens, and of every index
/// read from a file. No commit has it: stores number their commits from 1.
pub const RECOVERED: Stamp = 0;

/// What [`MaskStore::read_rows`] read: the mask's shape and the stamp of
/// the pixels read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsRead {
    /// Mask width in pixels.
    pub width: u32,
    /// Mask height in pixels.
    pub height: u32,
    /// The commit that installed the pixels read.
    pub stamp: Stamp,
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

/// Interface shared by every mask store: what a query session calls.
///
/// A store maps [`MaskId`]s to mask blobs. It has one write,
/// [`MaskStore::apply_batch`], which commits a batch and stamps the pixels
/// it installs, and one load to implement, [`MaskStore::get_stamped`]. Every
/// read is counted in the store's shared [`IoStats`]. Query executors only
/// depend on this trait, so the same executor runs unmodified against the
/// durable `masksearch-db` store and the in-memory store used in tests.
pub trait MaskStore: Send + Sync {
    /// Applies deletions and insertions (or overwrites) as one commit, and
    /// returns its [`Stamp`]: the stamp every inserted mask's pixels now
    /// carry, greater than that of any earlier commit. Fails without a
    /// change if a deleted id is not in the store. An empty batch installs
    /// nothing, and its stamp names no pixels.
    fn apply_batch(
        &self,
        inserts: &[(MaskRecord, Mask)],
        deletes: &[MaskId],
    ) -> StorageResult<Stamp>;

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

    /// Loads a mask in full, with the [`Stamp`] of the pixels read.
    fn get_stamped(&self, mask_id: MaskId) -> StorageResult<(Mask, Stamp)>;

    /// Loads a mask in full ([`MaskStore::get_stamped`] without the stamp).
    fn get(&self, mask_id: MaskId) -> StorageResult<Mask> {
        Ok(self.get_stamped(mask_id)?.0)
    }

    /// Reads the row bands `bands` (ascending and disjoint) of a mask as it
    /// is stored — whole rows of row-major little-endian `f32` — into `out`,
    /// one band after another, resized to fit (a caller verifying many
    /// masks reuses one buffer), and returns the mask's shape and the stamp
    /// of the rows read, all of one committed state. The read counts as one
    /// mask loaded. This is what lets verification count an ROI's pixels in
    /// place (`masksearch_core::RowSweep`) instead of loading and decoding
    /// the mask. With no band, no pixel is read and no load is counted: the
    /// answer is the mask's shape and stamp alone.
    ///
    /// `Ok(None)` means "not supported here": the caller loads the mask
    /// whole. That is the default, and what a store that can serve rows
    /// answers for a mask it holds in another encoding, or for a band that
    /// is empty or that its height does not cover.
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

    /// Shared I/O statistics for this store.
    fn io_stats(&self) -> Arc<IoStats>;
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
    blobs: RwLock<Blobs>,
}

/// The masks of a [`MemoryMaskStore`]: each one's blob with the stamp of
/// the commit that installed it, under one lock, and the last commit's
/// stamp.
#[derive(Default)]
struct Blobs {
    masks: BTreeMap<MaskId, (Arc<Vec<u8>>, Stamp)>,
    last: Stamp,
}

impl MemoryMaskStore {
    /// Creates an empty in-memory store.
    pub fn new(encoding: MaskEncoding, profile: DiskProfile) -> Self {
        Self {
            encoding,
            profile,
            emulate_latency: false,
            stats: IoStats::new_shared(),
            blobs: RwLock::new(Blobs::default()),
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

    /// Stores `mask` under `mask_id` in a commit of its own, and returns
    /// its stamp: the set-up helper of tests and experiments, which keep
    /// their catalogs apart from the store.
    pub fn put(&self, mask_id: MaskId, mask: &Mask) -> StorageResult<Stamp> {
        self.commit([(mask_id, mask)], &[])
    }

    /// Encodes `masks` outside the lock, then deletes `deletes` and installs
    /// `masks` as the next commit.
    fn commit<'m>(
        &self,
        masks: impl IntoIterator<Item = (MaskId, &'m Mask)>,
        deletes: &[MaskId],
    ) -> StorageResult<Stamp> {
        let encoded: Vec<(MaskId, Vec<u8>)> = masks
            .into_iter()
            .map(|(mask_id, mask)| (mask_id, format::encode_mask(mask_id, mask, self.encoding)))
            .collect();
        let mut blobs = self.blobs.write();
        if let Some(&missing) = deletes.iter().find(|id| !blobs.masks.contains_key(id)) {
            return Err(StorageError::MaskNotFound(missing));
        }
        blobs.last += 1;
        let stamp = blobs.last;
        for id in deletes {
            blobs.masks.remove(id);
        }
        for (mask_id, bytes) in encoded {
            let len = bytes.len() as u64;
            self.stats
                .record_write(len, self.profile.write_cost(len, 1));
            blobs.masks.insert(mask_id, (Arc::new(bytes), stamp));
        }
        Ok(stamp)
    }
}

impl MaskStore for MemoryMaskStore {
    fn apply_batch(
        &self,
        inserts: &[(MaskRecord, Mask)],
        deletes: &[MaskId],
    ) -> StorageResult<Stamp> {
        self.commit(
            inserts.iter().map(|(record, mask)| (record.mask_id, mask)),
            deletes,
        )
    }

    fn get_stamped(&self, mask_id: MaskId) -> StorageResult<(Mask, Stamp)> {
        let (blob, stamp) = self
            .blobs
            .read()
            .masks
            .get(&mask_id)
            .cloned()
            .ok_or(StorageError::MaskNotFound(mask_id))?;
        let cost = self.profile.read_cost(blob.len() as u64, 1);
        if self.emulate_latency {
            std::thread::sleep(cost);
        }
        self.stats.record_read(blob.len() as u64, cost);
        self.stats.record_mask_loaded();
        let (_, mask) = format::decode_mask(&blob)?;
        Ok((mask, stamp))
    }

    fn contains(&self, mask_id: MaskId) -> bool {
        self.blobs.read().masks.contains_key(&mask_id)
    }

    fn ids(&self) -> Vec<MaskId> {
        self.blobs.read().masks.keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.blobs.read().masks.len()
    }

    fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_mask(seed: u32) -> Mask {
        Mask::from_fn(16, 16, |x, y| ((x + y + seed) % 13) as f32 / 13.0)
    }

    fn record(id: u64) -> MaskRecord {
        MaskRecord::builder(MaskId::new(id)).shape(16, 16).build()
    }

    #[test]
    fn memory_store_basic_operations() {
        let store = MemoryMaskStore::for_tests();
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

        let stats = store.io_stats();
        let per_mask = stats.bytes_written() / 5;
        assert!(per_mask > 0);
        assert_eq!(stats.masks_loaded(), 1);
        assert_eq!(stats.write_ops(), 5);
        assert_eq!(stats.bytes_read(), per_mask);
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
        let first = store.put(MaskId::new(1), &sample_mask(1)).unwrap();
        store.put(MaskId::new(2), &sample_mask(2)).unwrap();
        let deleted = store.apply_batch(&[], &[MaskId::new(1)]).unwrap();
        assert!(!store.contains(MaskId::new(1)));
        assert_eq!(store.ids(), vec![MaskId::new(2)]);
        assert!(matches!(
            store.apply_batch(&[(record(3), sample_mask(3))], &[MaskId::new(1)]),
            Err(StorageError::MaskNotFound(_))
        ));
        assert!(!store.contains(MaskId::new(3)));
        // The failed batch took no stamp.
        let next = store
            .apply_batch(&[(record(3), sample_mask(3))], &[])
            .unwrap();
        assert_eq!((first, deleted, next), (1, 3, 4));
    }

    #[test]
    fn every_commit_stamps_its_pixels_above_every_earlier_one() {
        let store = MemoryMaskStore::for_tests();
        let mut last = RECOVERED;
        for round in 0..4u32 {
            let batch: Vec<_> = (0..3u64)
                .map(|id| (record(id), sample_mask(round * 3 + id as u32)))
                .collect();
            let stamp = store
                .apply_batch(&batch[..=round as usize % 3], &[])
                .unwrap();
            assert!(stamp > last, "commit {round}: {stamp} after {last}");
            for (record, mask) in &batch[..=round as usize % 3] {
                assert_eq!(
                    store.get_stamped(record.mask_id).unwrap(),
                    (mask.clone(), stamp)
                );
            }
            last = stamp;
        }
        // A mask the last commit did not touch keeps its own stamp.
        let (_, kept) = store.get_stamped(MaskId::new(2)).unwrap();
        assert!(RECOVERED < kept && kept < last);
    }

    #[test]
    fn provided_methods_load_through_get_stamped_and_serve_no_rows() {
        /// A store that implements only the required methods.
        struct RequiredOnly(MemoryMaskStore);
        impl MaskStore for RequiredOnly {
            fn apply_batch(
                &self,
                inserts: &[(MaskRecord, Mask)],
                deletes: &[MaskId],
            ) -> StorageResult<Stamp> {
                self.0.apply_batch(inserts, deletes)
            }
            fn get_stamped(&self, id: MaskId) -> StorageResult<(Mask, Stamp)> {
                self.0.get_stamped(id)
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
            fn io_stats(&self) -> Arc<IoStats> {
                self.0.io_stats()
            }
        }
        let store = RequiredOnly(MemoryMaskStore::for_tests());
        assert!(store.is_empty());
        store
            .apply_batch(&[(record(1), sample_mask(1))], &[])
            .unwrap();
        assert_eq!(store.get(MaskId::new(1)).unwrap(), sample_mask(1));
        assert_eq!(store.io_stats().masks_loaded(), 1);
        assert!(store.ingest_stats().is_none());
        assert!(store.meta_indexes().is_none());
        assert!(store.persist_meta_indexes().is_ok());
        let (mut out, rows) = (Vec::new(), 0..2);
        let read = store.read_rows(MaskId::new(1), std::slice::from_ref(&rows), &mut out);
        assert_eq!(read.unwrap(), None);
    }
}
