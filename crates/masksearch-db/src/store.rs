//! The durable mask store: atomic multi-page commits over the pager + WAL,
//! with live CHI maintenance.
//!
//! ## Commit protocol
//!
//! A write transaction (a batch of inserts and/or deletes) is planned
//! entirely off to the side — new blob extents, a rewritten directory
//! extent, and an updated meta page — then:
//!
//! 1. all page after-images plus a commit record are appended to the WAL
//!    (fsynced when [`DbConfig::fsync`] is set): *this* is the commit point;
//! 2. the images enter the pager's dirty table and the in-memory directory
//!    is swapped **under the state write lock**, so readers see either none
//!    or all of the batch;
//! 3. the CHI store is updated (inserted masks indexed, deleted masks
//!    already evicted before step 1), preserving the invariant that no index
//!    entry ever refers to a mask that is not durably present. Tile-summary
//!    grids for the verification kernel are maintained the same way, except
//!    their insertion happens *inside* step 2's write lock so pixels and
//!    summaries publish together.
//!
//! A checkpoint writes all dirty pages to the database file, fsyncs it,
//! atomically rewrites the CHI and tile-summary files via temp + rename, and
//! then truncates the WAL. Recovery replays committed WAL transactions over
//! the database file, discards any torn tail (see [`crate::wal`]), and drops
//! persisted index entries for masks whose pages the replay rewrote (their
//! checkpointed summaries may predate the replayed commits).

use crate::dir::{BlobEntry, Directory};
use crate::page::{Meta, PageNo, MIN_PAGE_SIZE};
use crate::pager::Pager;
use crate::stats::IngestStats;
use crate::wal::{CommittedTxn, Wal};
use masksearch_core::{Mask, MaskId, MaskRecord, TileGrid, TiledMask};
use masksearch_index::{ChiConfig, ChiStore, TileStore};
use masksearch_obs::counters as obs_counters;
use masksearch_obs::ShapeStatsRegistry;
use masksearch_storage::format;
use masksearch_storage::meta_index::{self, MetaColumn, MetaIndexRegistry};
use masksearch_storage::store::IngestSnapshot;
use masksearch_storage::{
    DiskProfile, IoStats, MaskEncoding, MaskStore, StorageError, StorageResult,
};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the page file inside a database directory.
pub const DB_FILE: &str = "masks.db";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "masks.wal";
/// File name of the persisted CHI store.
pub const CHI_FILE: &str = "masks.chi";
/// File name of the persisted tile-summary store (verification kernel).
pub const TILES_FILE: &str = "masks.tiles";
/// File name of the persisted per-query-shape statistics.
pub const SHAPE_STATS_FILE: &str = "masks.stats";
/// File-name prefix of persisted secondary metadata indexes; the full name
/// is `masks.idx.<column>` (e.g. `masks.idx.model_id`).
pub const META_INDEX_FILE_PREFIX: &str = "masks.idx.";

/// The snapshot file name of a secondary index over `column`.
pub fn meta_index_file(column: MetaColumn) -> String {
    format!("{}{}", META_INDEX_FILE_PREFIX, column.name())
}

/// Configuration of a durable mask database.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Page size in bytes (clamped to at least [`MIN_PAGE_SIZE`]).
    pub page_size: u32,
    /// Whether commits fsync the WAL before returning. Turning this off
    /// trades crash durability of the most recent commits for throughput
    /// (atomicity is unaffected: recovery still lands on a committed prefix).
    pub fsync: bool,
    /// WAL size that triggers an automatic checkpoint after a commit;
    /// `0` disables automatic checkpoints.
    pub checkpoint_wal_bytes: u64,
    /// CHI configuration for the maintained index.
    pub chi_config: ChiConfig,
    /// Encoding of stored mask blobs.
    pub encoding: MaskEncoding,
    /// Disk cost model charged for blob reads and writes.
    pub profile: DiskProfile,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            page_size: 4096,
            fsync: true,
            checkpoint_wal_bytes: 8 * 1024 * 1024,
            chi_config: ChiConfig::default(),
            encoding: MaskEncoding::Raw,
            profile: DiskProfile::unthrottled(),
        }
    }
}

impl DbConfig {
    /// Sets the page size.
    pub fn page_size(mut self, bytes: u32) -> Self {
        self.page_size = bytes.max(MIN_PAGE_SIZE);
        self
    }

    /// Sets whether commits fsync the WAL.
    pub fn fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the automatic-checkpoint WAL threshold (0 disables).
    pub fn checkpoint_wal_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_wal_bytes = bytes;
        self
    }

    /// Sets the CHI configuration.
    pub fn chi_config(mut self, config: ChiConfig) -> Self {
        self.chi_config = config;
        self
    }

    /// Sets the blob encoding.
    pub fn encoding(mut self, encoding: MaskEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Sets the disk cost model.
    pub fn profile(mut self, profile: DiskProfile) -> Self {
        self.profile = profile;
        self
    }
}

/// Mutable state guarded by one `RwLock`: readers resolve a mask's location
/// and read its pages under a single read guard, so a concurrent commit
/// (which applies under the write guard) can never tear a read. Readers
/// share the pager; only a commit's `write_page` needs it exclusively.
struct State {
    pager: Pager,
    dir: Directory,
    free: BTreeSet<PageNo>,
    page_count: u64,
    next_txn: u64,
    dir_start: PageNo,
    dir_pages: u32,
}

/// A durable, mutable mask store over a pager, WAL, and maintained CHI.
pub struct DurableMaskStore {
    config: DbConfig,
    chi_path: PathBuf,
    tiles_path: PathBuf,
    state: RwLock<State>,
    wal: Mutex<Wal>,
    /// Serialises commits and checkpoints; reads never take it.
    writer: Mutex<()>,
    chi: Arc<ChiStore>,
    /// Tile-summary grids for the verification kernel, maintained like the
    /// CHI: evicted before the commit point for deletes/overwrites and
    /// (re)inserted when the batch publishes. Insertions happen **under the
    /// state write lock**, so a reader holding the state read guard that
    /// finds a grid here knows it was built from exactly the pixels the
    /// directory currently points at (see [`MaskStore::get_tiled`]).
    tiles: Arc<TileStore>,
    /// Per-query-shape statistics recorded by sessions over this store
    /// (shared via [`MaskStore::shape_stats`]) and persisted at checkpoint
    /// next to the CHI and tile files, so the observed
    /// selectivity/decisiveness profile of a workload survives restarts.
    shape_stats: Arc<ShapeStatsRegistry>,
    shape_stats_path: PathBuf,
    /// Secondary metadata index definitions, shared with query sessions via
    /// [`MaskStore::meta_indexes`] and snapshotted to one `masks.idx.<col>`
    /// file per definition (on DDL and at checkpoint). Posting lists live in
    /// the catalog's secondary maps — maintained inside every commit — so a
    /// snapshot is rebuilt from the recovered catalog whenever it is stale,
    /// torn, or foreign.
    meta_indexes: Arc<MetaIndexRegistry>,
    db_dir: PathBuf,
    ingest: IngestStats,
    io: Arc<IoStats>,
    /// Error of a failed *automatic* checkpoint. The triggering commit was
    /// already durable, so the error is parked here instead of failing it;
    /// see [`DurableMaskStore::take_checkpoint_error`].
    checkpoint_error: Mutex<Option<StorageError>>,
}

impl DurableMaskStore {
    /// Opens (creating or recovering) a database in `dir`.
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> StorageResult<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| {
            StorageError::io(format!("creating database directory {}", dir.display()), e)
        })?;
        let config = DbConfig {
            page_size: config.page_size.max(MIN_PAGE_SIZE),
            ..config
        };
        let db_path = dir.join(DB_FILE);
        let wal_path = dir.join(WAL_FILE);
        let chi_path = dir.join(CHI_FILE);
        let tiles_path = dir.join(TILES_FILE);
        let shape_stats_path = dir.join(SHAPE_STATS_FILE);

        let mut pager = Pager::open(&db_path, config.page_size)?;
        let (mut wal, committed) = Wal::open(&wal_path, config.page_size)?;
        let fresh = pager.file_pages() == 0 && committed.is_empty();
        // Pages rewritten by WAL replay: any mask whose extent intersects
        // this set got its current content from a post-checkpoint commit, so
        // index entries for it in the persisted CHI/tile files (written at
        // the last checkpoint) may be stale and must be rebuilt from pixels.
        let mut replayed_pages: BTreeSet<PageNo> = BTreeSet::new();
        for txn in &committed {
            for (page_no, image) in &txn.pages {
                replayed_pages.insert(*page_no);
                pager.write_page(*page_no, image.clone());
            }
        }

        let (meta, directory) = if fresh {
            // Bootstrap through the WAL so a crash at any point during
            // initialisation recovers to either "no database" or "empty
            // database", never a torn meta page.
            let directory = Directory::new();
            let dir_blob = directory.encode();
            let meta = Meta {
                page_size: config.page_size,
                page_count: 2,
                next_txn_id: 1,
                dir_start: 1,
                dir_pages: 1,
                dir_bytes: dir_blob.len() as u64,
            };
            let pages = vec![
                (0, meta.encode_page()),
                (1, pad_page(dir_blob, config.page_size)),
            ];
            wal.append_txn(0, &pages, config.fsync)?;
            for (page_no, image) in pages {
                pager.write_page(page_no, image);
            }
            (meta, directory)
        } else {
            let meta_page = pager.read_extent(0, 1, config.page_size as u64)?;
            let meta = Meta::decode_page(&meta_page, config.page_size)?;
            let dir_blob = pager.read_extent(meta.dir_start, meta.dir_pages, meta.dir_bytes)?;
            (meta, Directory::decode(&dir_blob)?)
        };

        let free = derive_free_set(&meta, &directory)?;
        let (chi, tiles) =
            reconcile_indexes(&chi_path, &tiles_path, &config, &directory, &pager, {
                |entry: &BlobEntry| {
                    (entry.start..entry.start + entry.pages as u64)
                        .any(|p| replayed_pages.contains(&p))
                }
            })?;

        // A missing or foreign-format statistics file simply starts fresh;
        // shape statistics are advisory, never load-bearing.
        let shape_stats = fs::read(&shape_stats_path)
            .ok()
            .and_then(|bytes| ShapeStatsRegistry::from_bytes(&bytes))
            .unwrap_or_default();

        // Recover secondary index definitions from their snapshot files.
        // Posting lists are served from the catalog's live secondary maps,
        // so only the *definition* is load-bearing here; postings that went
        // stale since the last snapshot are rewritten from the recovered
        // catalog, and torn or foreign files are discarded (snapshots are
        // written via temp + rename, so a torn file means external damage
        // — the directory remains the source of truth, like the CHI).
        let meta_indexes = Arc::new(MetaIndexRegistry::new());
        {
            let mut catalog = masksearch_storage::Catalog::new();
            for entry in directory.entries.values() {
                catalog.insert(entry.record.clone());
            }
            for column in MetaColumn::ALL {
                let path = dir.join(meta_index_file(column));
                let Ok(bytes) = fs::read(&path) else { continue };
                match meta_index::decode_snapshot(&bytes) {
                    Ok((def, map))
                        if def.column == column
                            && meta_indexes.create(&def.name, def.column, true).is_ok() =>
                    {
                        if map != meta_index::postings(&catalog, column) {
                            write_atomic(
                                &path,
                                &meta_index::snapshot_bytes(&def, &catalog),
                                "metadata index rebuild",
                            )?;
                        }
                    }
                    _ => {
                        let _ = fs::remove_file(&path);
                    }
                }
            }
        }

        let store = Self {
            chi: Arc::new(chi),
            tiles: Arc::new(tiles),
            shape_stats: Arc::new(shape_stats),
            shape_stats_path,
            meta_indexes,
            db_dir: dir.to_path_buf(),
            config,
            chi_path,
            tiles_path,
            state: RwLock::new(State {
                pager,
                dir: directory,
                free,
                page_count: meta.page_count,
                next_txn: meta.next_txn_id,
                dir_start: meta.dir_start,
                dir_pages: meta.dir_pages,
            }),
            wal: Mutex::new(wal),
            writer: Mutex::new(()),
            ingest: IngestStats::new(),
            io: IoStats::new_shared(),
            checkpoint_error: Mutex::new(None),
        };
        Ok(store)
    }

    /// The store's configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The CHI store maintained on every commit. Share it with a query
    /// session (`Session::with_shared_index`) so the filter stage always
    /// reflects exactly the durably-present masks.
    pub fn chi_store(&self) -> &Arc<ChiStore> {
        &self.chi
    }

    /// The tile-summary store maintained on every commit (the verification
    /// kernel's within-mask index).
    pub fn tile_store(&self) -> &Arc<TileStore> {
        &self.tiles
    }

    /// Invariant check used by the ingest-path and crash-recovery tests:
    /// every durably-present mask must have a tile grid, and every grid must
    /// equal one freshly rebuilt from the mask's pixels. Returns the number
    /// of masks checked.
    pub fn verify_tile_summaries(&self) -> StorageResult<usize> {
        let ids = self.ids();
        for &mask_id in &ids {
            let mask = self.get(mask_id)?;
            let grid = self.tiles.get(mask_id).ok_or_else(|| {
                StorageError::corrupt(format!("mask {mask_id} has no tile summaries"))
            })?;
            if !grid.verify(&mask) {
                return Err(StorageError::corrupt(format!(
                    "tile summaries of mask {mask_id} do not match its pixels"
                )));
            }
        }
        Ok(ids.len())
    }

    /// Current WAL size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.lock().len()
    }

    /// Takes the error of a failed automatic checkpoint, if one occurred
    /// since the last call. Commits never fail for checkpoint reasons (the
    /// data is durable in the WAL either way); callers that care about
    /// checkpoint health poll this or call [`DurableMaskStore::checkpoint`]
    /// explicitly.
    pub fn take_checkpoint_error(&self) -> Option<StorageError> {
        self.checkpoint_error.lock().take()
    }

    /// Rebuilds a metadata catalog from the persisted directory records.
    pub fn catalog(&self) -> masksearch_storage::Catalog {
        let state = self.state.read();
        let mut catalog = masksearch_storage::Catalog::new();
        for entry in state.dir.entries.values() {
            catalog.insert(entry.record.clone());
        }
        catalog
    }

    /// Atomically inserts (or overwrites) a batch of masks with their
    /// records: after this returns, either every mask in the batch is
    /// durable or (on error / crash) none of them are visible.
    pub fn insert_masks(&self, batch: &[(MaskRecord, Mask)]) -> StorageResult<()> {
        self.commit(batch, &[])
    }

    /// Atomically deletes a batch of masks. Fails without side effects if
    /// any of the ids is unknown.
    pub fn delete_masks(&self, mask_ids: &[MaskId]) -> StorageResult<()> {
        self.commit(&[], mask_ids)
    }

    /// Writes all committed pages to the database file, fsyncs it, truncates
    /// the WAL, and rewrites the CHI file.
    pub fn checkpoint(&self) -> StorageResult<()> {
        let _writer = self.writer.lock();
        self.checkpoint_locked()
    }

    fn checkpoint_locked(&self) -> StorageResult<()> {
        let checkpoint_start = std::time::Instant::now();
        // Log-ahead: every commit must be durable in the WAL before its
        // pages can touch the database file — otherwise a crash mid-flush
        // with an unsynced log (fsync off) could leave a page mix that no
        // committed prefix explains.
        self.wal.lock().sync()?;
        {
            let state = self.state.read();
            state.pager.flush()?;
        }
        // CHI and tile-summary rewrites via temp + rename: a crash leaves
        // either the old or the new index file, and recovery reconciles
        // either against the directory. The rewrites happen *before* the WAL
        // truncation below: recovery treats masks touched by replayed WAL
        // transactions as possibly-stale in these files, so as long as the
        // WAL still names every post-file-write commit, an old file is safe.
        // (Truncating first would open a window where the files are stale
        // and the WAL no longer says which masks they are stale for.)
        write_atomic(&self.chi_path, &self.chi.to_bytes(), "chi checkpoint")?;
        write_atomic(
            &self.tiles_path,
            &self.tiles.to_bytes(),
            "tile summary checkpoint",
        )?;
        // Shape statistics ride along: they describe the workload, not the
        // data, so staleness after a crash is harmless.
        write_atomic(
            &self.shape_stats_path,
            &self.shape_stats.to_bytes(),
            "shape statistics checkpoint",
        )?;
        // Secondary index snapshots too: definitions were already durable
        // (persisted at DDL time), and postings are recomputed from the
        // recovered catalog at open, so a stale snapshot is harmless.
        self.persist_meta_indexes_locked()?;
        // The database and index files are durable; the log can be dropped.
        self.wal.lock().reset()?;
        self.ingest.record_checkpoint();
        obs_counters::incr(&obs_counters::DB_CHECKPOINTS);
        obs_counters::add(
            &obs_counters::DB_CHECKPOINT_US,
            checkpoint_start.elapsed().as_micros() as u64,
        );
        Ok(())
    }

    fn commit(&self, inserts: &[(MaskRecord, Mask)], deletes: &[MaskId]) -> StorageResult<()> {
        if inserts.is_empty() && deletes.is_empty() {
            return Ok(());
        }
        let _writer = self.writer.lock();

        // Plan the transaction against a copy of the allocation state. The
        // writer mutex guarantees nobody else mutates it concurrently.
        let (mut dir, mut free, mut page_count, txn_id, old_dir_start, old_dir_pages) = {
            let state = self.state.read();
            (
                state.dir.clone(),
                state.free.clone(),
                state.page_count,
                state.next_txn,
                state.dir_start,
                state.dir_pages,
            )
        };
        let page_size = self.config.page_size as usize;
        let mut pages: Vec<(PageNo, Vec<u8>)> = Vec::new();

        let mut deleted_ids: BTreeSet<MaskId> = BTreeSet::new();
        for &mask_id in deletes {
            match dir.entries.remove(&mask_id) {
                Some(entry) => {
                    free_extent(&mut free, entry.start, entry.pages);
                    deleted_ids.insert(mask_id);
                }
                // A duplicate id in one batch is one delete, not an error.
                None if deleted_ids.contains(&mask_id) => {}
                None => return Err(StorageError::MaskNotFound(mask_id)),
            }
        }

        let mut blob_bytes = 0u64;
        let mut overwritten: Vec<MaskId> = Vec::new();
        for (record, mask) in inserts {
            if record.width != mask.width() || record.height != mask.height() {
                return Err(StorageError::corrupt(format!(
                    "record for mask {} declares shape {}x{} but the mask is {}x{}",
                    record.mask_id,
                    record.width,
                    record.height,
                    mask.width(),
                    mask.height()
                )));
            }
            let blob = format::encode_mask(record.mask_id, mask, self.config.encoding);
            if let Some(old) = dir.entries.remove(&record.mask_id) {
                free_extent(&mut free, old.start, old.pages);
                overwritten.push(record.mask_id);
            }
            let extent_pages = blob.len().div_ceil(page_size).max(1) as u32;
            let start = alloc_run(&mut free, &mut page_count, extent_pages);
            for (i, chunk) in blob.chunks(page_size).enumerate() {
                pages.push((
                    start + i as u64,
                    pad_page(chunk.to_vec(), self.config.page_size),
                ));
            }
            blob_bytes += blob.len() as u64;
            dir.entries.insert(
                record.mask_id,
                BlobEntry {
                    start,
                    pages: extent_pages,
                    bytes: blob.len() as u64,
                    record: record.clone(),
                },
            );
        }

        // Rewrite the directory extent and the meta page.
        free_extent(&mut free, old_dir_start, old_dir_pages);
        let dir_blob = dir.encode();
        let dir_pages = dir_blob.len().div_ceil(page_size).max(1) as u32;
        let dir_start = alloc_run(&mut free, &mut page_count, dir_pages);
        for (i, chunk) in dir_blob.chunks(page_size).enumerate() {
            pages.push((
                dir_start + i as u64,
                pad_page(chunk.to_vec(), self.config.page_size),
            ));
        }
        let dir_bytes = dir_blob.len() as u64;
        let meta = Meta {
            page_size: self.config.page_size,
            page_count,
            next_txn_id: txn_id + 1,
            dir_start,
            dir_pages,
            dir_bytes,
        };
        pages.push((0, meta.encode_page()));

        // Build the tile grids of the incoming masks while nothing is
        // locked: their insertion must happen inside the publish critical
        // section below (so grids are never observable ahead of or behind
        // the pixels they summarise), but the O(pixels) build work should
        // not extend it.
        let grids: Vec<(MaskId, Arc<TileGrid>)> = inserts
            .iter()
            .map(|(record, mask)| (record.mask_id, Arc::new(TileGrid::build(mask))))
            .collect();

        // Deleted masks leave the indexes before the commit point so the
        // filter stage never holds bounds for a mask that may vanish.
        // Overwritten masks are evicted too: between the publish below and
        // the re-index after it, a query must fall back to verification by
        // loading — stale bounds over the new pixels could accept or prune
        // without ever loading the mask.
        for &mask_id in &deleted_ids {
            self.chi.remove(mask_id);
            self.tiles.remove(mask_id);
        }
        for &mask_id in &overwritten {
            self.chi.remove(mask_id);
            self.tiles.remove(mask_id);
        }

        // Commit point: the WAL append (+ optional fsync).
        let commit_start = std::time::Instant::now();
        let wal_bytes = self
            .wal
            .lock()
            .append_txn(txn_id, &pages, self.config.fsync)?;
        obs_counters::incr(&obs_counters::WAL_COMMITS);
        obs_counters::add(
            &obs_counters::WAL_COMMIT_US,
            commit_start.elapsed().as_micros() as u64,
        );

        // Publish the batch atomically with respect to readers.
        {
            let mut state = self.state.write();
            for (page_no, image) in pages {
                state.pager.write_page(page_no, image);
            }
            state.dir = dir;
            state.free = free;
            state.page_count = page_count;
            state.next_txn = txn_id + 1;
            state.dir_start = dir_start;
            state.dir_pages = dir_pages;
            // Tile grids publish atomically with the pixels they summarise:
            // still under the state write lock, so a reader's state read
            // guard pins a consistent (pixels, grid) pair.
            for (mask_id, grid) in grids {
                self.tiles.insert(mask_id, grid);
            }
        }

        // Inserted masks enter the index only now that they are durable.
        for (record, mask) in inserts {
            self.chi.index_mask(record.mask_id, mask);
        }

        self.io.record_write(
            blob_bytes,
            self.config
                .profile
                .write_cost(blob_bytes, inserts.len() as u64),
        );
        self.ingest
            .record_commit(inserts.len() as u64, deleted_ids.len() as u64, wal_bytes);

        if self.config.checkpoint_wal_bytes > 0
            && self.wal.lock().len() >= self.config.checkpoint_wal_bytes
        {
            // The transaction above is already durable and published; a
            // checkpoint failure here must not make the commit look failed.
            // It is deferred for the caller to observe (and the next
            // threshold crossing or explicit checkpoint retries anyway).
            if let Err(e) = self.checkpoint_locked() {
                *self.checkpoint_error.lock() = Some(e);
            }
        }
        Ok(())
    }

    /// Applies one committed transaction shipped from another database's
    /// WAL — the apply half of primary → replica replication (the tailing
    /// half lives in `masksearch-cluster`). Returns the ids of every mask
    /// the transaction inserted, overwrote, or deleted, so the serving
    /// layer can invalidate caches.
    ///
    /// The transaction is first appended to the replica's *own* WAL, so a
    /// replica crash-recovers exactly like a primary. Applying relies on
    /// the commit protocol's invariant that every transaction rewrites the
    /// entire directory extent plus the meta page: the after-images in the
    /// transaction fully describe the new catalog state, and any mask whose
    /// entry changed has its complete new extent among the transaction's
    /// pages. Re-applying a transaction the replica already holds is
    /// idempotent (same images to the same pages, same directory).
    pub fn apply_replicated(&self, txn: &CommittedTxn) -> StorageResult<Vec<MaskId>> {
        let _writer = self.writer.lock();

        let page_size = self.config.page_size as usize;
        let meta_image = txn
            .pages
            .iter()
            .rev()
            .find(|(page_no, _)| *page_no == 0)
            .map(|(_, image)| image)
            .ok_or_else(|| {
                StorageError::corrupt("replicated transaction has no meta page".to_string())
            })?;
        let meta = Meta::decode_page(meta_image, self.config.page_size)?;
        let mut dir_blob = Vec::with_capacity(meta.dir_pages as usize * page_size);
        for page_no in meta.dir_start..meta.dir_start + meta.dir_pages as u64 {
            let image = txn
                .pages
                .iter()
                .rev()
                .find(|(p, _)| *p == page_no)
                .map(|(_, image)| image)
                .ok_or_else(|| {
                    StorageError::corrupt(format!(
                        "replicated transaction misses directory page {page_no}"
                    ))
                })?;
            dir_blob.extend_from_slice(image);
        }
        if (dir_blob.len() as u64) < meta.dir_bytes {
            return Err(StorageError::corrupt(
                "replicated directory extent is shorter than its meta page claims",
            ));
        }
        dir_blob.truncate(meta.dir_bytes as usize);
        let dir = Directory::decode(&dir_blob)?;
        let free = derive_free_set(&meta, &dir)?;

        // Which masks does this transaction touch? An entry present only on
        // one side was inserted/deleted; an entry on both sides changed iff
        // any of its pages is among the after-images (live extents are never
        // reallocated to anything else, so intersection means rewrite).
        let txn_pages: BTreeSet<PageNo> = txn.pages.iter().map(|(p, _)| *p).collect();
        let old_entries = {
            let state = self.state.read();
            state.dir.entries.clone()
        };
        let mut removed: Vec<MaskId> = Vec::new();
        let mut reindex: Vec<MaskId> = Vec::new();
        for (mask_id, old) in &old_entries {
            match dir.entries.get(mask_id) {
                None => removed.push(*mask_id),
                Some(new) => {
                    let rewritten = new != old
                        || (new.start..new.start + new.pages as u64)
                            .any(|p| txn_pages.contains(&p));
                    if rewritten {
                        reindex.push(*mask_id);
                    }
                }
            }
        }
        for (mask_id, entry) in &dir.entries {
            if !old_entries.contains_key(mask_id) {
                debug_assert!(
                    (entry.start..entry.start + entry.pages as u64).all(|p| txn_pages.contains(&p)),
                    "inserted mask extent must be in its transaction"
                );
                reindex.push(*mask_id);
            }
        }

        // Durability first (the replica's own log), then eviction before
        // publish, then the atomic swap — the same order as a local commit.
        let wal_bytes = self
            .wal
            .lock()
            .append_txn(txn.txn_id, &txn.pages, self.config.fsync)?;
        for &mask_id in removed.iter().chain(reindex.iter()) {
            self.chi.remove(mask_id);
            self.tiles.remove(mask_id);
        }
        let mut masks: Vec<(MaskId, Mask)> = Vec::with_capacity(reindex.len());
        {
            let mut state = self.state.write();
            for (page_no, image) in &txn.pages {
                state.pager.write_page(*page_no, image.clone());
            }
            state.dir = dir;
            state.free = free;
            state.page_count = meta.page_count;
            state.next_txn = meta.next_txn_id;
            state.dir_start = meta.dir_start;
            state.dir_pages = meta.dir_pages;
            // Rebuild tile grids under the same write guard that published
            // the pixels (the primary does this too); decode each touched
            // mask once and reuse it for the CHI below.
            for &mask_id in &reindex {
                let entry = state.dir.entries.get(&mask_id).ok_or_else(|| {
                    StorageError::corrupt(format!("reindexed mask {mask_id} vanished"))
                })?;
                let blob = state
                    .pager
                    .read_extent(entry.start, entry.pages, entry.bytes)?;
                let (_, mask) = format::decode_mask(&blob)?;
                self.tiles.insert(mask_id, Arc::new(TileGrid::build(&mask)));
                masks.push((mask_id, mask));
            }
        }
        for (mask_id, mask) in &masks {
            self.chi.index_mask(*mask_id, mask);
        }
        self.ingest
            .record_commit(reindex.len() as u64, removed.len() as u64, wal_bytes);

        if self.config.checkpoint_wal_bytes > 0
            && self.wal.lock().len() >= self.config.checkpoint_wal_bytes
        {
            // Checkpointing here only touches the replica's own files.
            if let Err(e) = self.checkpoint_locked() {
                *self.checkpoint_error.lock() = Some(e);
            }
        }
        let mut changed = removed;
        changed.extend(reindex);
        changed.sort_unstable();
        changed.dedup();
        Ok(changed)
    }

    /// Snapshots every defined secondary index to its `masks.idx.<col>` file
    /// and removes the files of dropped definitions. Caller holds the writer
    /// mutex (directly or via a checkpoint).
    fn persist_meta_indexes_locked(&self) -> StorageResult<()> {
        let catalog = self.catalog();
        for column in MetaColumn::ALL {
            let path = self.db_dir.join(meta_index_file(column));
            match self.meta_indexes.on(column) {
                Some(def) => write_atomic(
                    &path,
                    &meta_index::snapshot_bytes(&def, &catalog),
                    "metadata index snapshot",
                )?,
                None => {
                    if path.exists() {
                        fs::remove_file(&path).map_err(|e| {
                            StorageError::io(
                                format!("removing dropped metadata index {}", path.display()),
                                e,
                            )
                        })?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads mask `mask_id` and, when `with_grid` is set, its tile grid.
    /// The blob read and the grid lookup happen under one state read guard:
    /// commits publish pages and grids under the state write lock, and
    /// evictions (which precede any republish) only ever *remove* grids, so
    /// a grid observed here summarises exactly the pixels read here.
    fn load(
        &self,
        mask_id: MaskId,
        with_grid: bool,
    ) -> StorageResult<(Mask, Option<Arc<TileGrid>>)> {
        let (blob, grid) = {
            let state = self.state.read();
            let entry = state
                .dir
                .entries
                .get(&mask_id)
                .ok_or(StorageError::MaskNotFound(mask_id))?;
            let blob = state
                .pager
                .read_extent(entry.start, entry.pages, entry.bytes)?;
            (blob, with_grid.then(|| self.tiles.get(mask_id)).flatten())
        };
        let bytes = blob.len() as u64;
        self.io
            .record_read(bytes, self.config.profile.read_cost(bytes, 1));
        self.io.record_mask_loaded();
        let (_, mask) = format::decode_mask(&blob)?;
        Ok((mask, grid))
    }
}

impl MaskStore for DurableMaskStore {
    fn put(&self, mask_id: MaskId, mask: &Mask) -> StorageResult<()> {
        // Preserve an existing record's metadata on overwrite; synthesise a
        // minimal record otherwise. Metadata-rich inserts go through
        // `insert_batch` / `insert_masks`.
        let record = {
            let state = self.state.read();
            match state.dir.entries.get(&mask_id) {
                Some(entry)
                    if entry.record.width == mask.width()
                        && entry.record.height == mask.height() =>
                {
                    entry.record.clone()
                }
                _ => MaskRecord::builder(mask_id)
                    .shape(mask.width(), mask.height())
                    .build(),
            }
        };
        self.commit(&[(record, mask.clone())], &[])
    }

    fn delete(&self, mask_id: MaskId) -> StorageResult<()> {
        self.delete_masks(&[mask_id])
    }

    fn insert_batch(&self, batch: &[(MaskRecord, Mask)]) -> StorageResult<()> {
        self.insert_masks(batch)
    }

    fn delete_batch(&self, mask_ids: &[MaskId]) -> StorageResult<()> {
        self.delete_masks(mask_ids)
    }

    fn apply_batch(&self, inserts: &[(MaskRecord, Mask)], deletes: &[MaskId]) -> StorageResult<()> {
        // One WAL commit frame for the whole batch: a transaction spanning
        // inserts, updates (overwrites), and deletes is all-or-nothing at
        // every crash point, unlike the default delete-then-insert split.
        self.commit(inserts, deletes)
    }

    fn meta_indexes(&self) -> Option<Arc<MetaIndexRegistry>> {
        Some(Arc::clone(&self.meta_indexes))
    }

    fn persist_meta_indexes(&self) -> StorageResult<()> {
        let _writer = self.writer.lock();
        self.persist_meta_indexes_locked()
    }

    fn ingest_stats(&self) -> Option<IngestSnapshot> {
        Some(self.ingest.snapshot())
    }

    fn shape_stats(&self) -> Option<Arc<ShapeStatsRegistry>> {
        Some(Arc::clone(&self.shape_stats))
    }

    fn get(&self, mask_id: MaskId) -> StorageResult<Mask> {
        Ok(self.load(mask_id, false)?.0)
    }

    fn get_tiled(&self, mask_id: MaskId) -> StorageResult<TiledMask> {
        let (mask, grid) = self.load(mask_id, true)?;
        let mask = Arc::new(mask);
        Ok(match grid {
            Some(grid) => TiledMask::with_grid(mask, grid),
            None => TiledMask::new(mask),
        })
    }

    fn contains(&self, mask_id: MaskId) -> bool {
        self.state.read().dir.entries.contains_key(&mask_id)
    }

    fn ids(&self) -> Vec<MaskId> {
        self.state.read().dir.entries.keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.state.read().dir.entries.len()
    }

    fn stored_bytes(&self, mask_id: MaskId) -> StorageResult<u64> {
        self.state
            .read()
            .dir
            .entries
            .get(&mask_id)
            .map(|e| e.bytes)
            .ok_or(StorageError::MaskNotFound(mask_id))
    }

    fn total_bytes(&self) -> u64 {
        self.state.read().dir.total_bytes()
    }

    fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }

    fn disk_profile(&self) -> DiskProfile {
        self.config.profile
    }
}

/// Atomically replaces `path` with `bytes` via a temp file + rename, so a
/// crash leaves either the old file or the new one, never a torn mix.
fn write_atomic(path: &Path, bytes: &[u8], what: &str) -> StorageResult<()> {
    // `masks.chi` -> `masks.chi.tmp` (keep the original extension so two
    // different index files never share a temp name).
    let tmp = match path.extension() {
        Some(ext) => path.with_extension(format!("{}.tmp", ext.to_string_lossy())),
        None => path.with_extension("tmp"),
    };
    fs::write(&tmp, bytes).map_err(|e| StorageError::io(format!("writing {what} file"), e))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        StorageError::io(format!("renaming {what} file"), e)
    })?;
    Ok(())
}

/// Zero-pads a partial page image up to the page size.
fn pad_page(mut bytes: Vec<u8>, page_size: u32) -> Vec<u8> {
    bytes.resize(page_size as usize, 0);
    bytes
}

/// Returns an extent's pages to the free set.
fn free_extent(free: &mut BTreeSet<PageNo>, start: PageNo, pages: u32) {
    for page_no in start..start + pages as u64 {
        free.insert(page_no);
    }
}

/// Takes `n` contiguous pages from the free set, extending the database by
/// fresh pages when no free run is long enough.
fn alloc_run(free: &mut BTreeSet<PageNo>, page_count: &mut u64, n: u32) -> PageNo {
    let n = n as u64;
    let mut run_start: PageNo = 0;
    let mut run_len: u64 = 0;
    let mut found: Option<PageNo> = None;
    for &page_no in free.iter() {
        if run_len > 0 && page_no == run_start + run_len {
            run_len += 1;
        } else {
            run_start = page_no;
            run_len = 1;
        }
        if run_len == n {
            found = Some(run_start);
            break;
        }
    }
    match found {
        Some(start) => {
            for page_no in start..start + n {
                free.remove(&page_no);
            }
            start
        }
        None => {
            let start = *page_count;
            *page_count += n;
            start
        }
    }
}

/// Builds the free-page set from the meta page and directory, validating
/// that no extent escapes the database or overlaps another.
fn derive_free_set(meta: &Meta, dir: &Directory) -> StorageResult<BTreeSet<PageNo>> {
    let mut used: BTreeSet<PageNo> = BTreeSet::new();
    used.insert(0);
    let mut claim = |start: PageNo, pages: u32| -> StorageResult<()> {
        for page_no in start..start + pages as u64 {
            if page_no == 0 || page_no >= meta.page_count {
                return Err(StorageError::corrupt(format!(
                    "extent page {page_no} escapes the database ({} pages)",
                    meta.page_count
                )));
            }
            if !used.insert(page_no) {
                return Err(StorageError::corrupt(format!(
                    "page {page_no} is claimed by two extents"
                )));
            }
        }
        Ok(())
    };
    claim(meta.dir_start, meta.dir_pages)?;
    for entry in dir.entries.values() {
        claim(entry.start, entry.pages)?;
    }
    Ok((0..meta.page_count).filter(|p| !used.contains(p)).collect())
}

/// Loads the persisted CHI and tile-summary files (if any) and reconciles
/// them with the recovered directory:
///
/// * entries for masks missing from the directory are dropped;
/// * entries for masks whose extent was rewritten by WAL replay
///   (`touched_by_replay`) are dropped too — the persisted files date from
///   the last checkpoint, so they may describe *pre-overwrite* pixels, and a
///   stale index over new pixels could mis-prune or mis-accept;
/// * masks left without an entry are re-indexed from their recovered pixels
///   (decoded once, shared by both indexes).
fn reconcile_indexes(
    chi_path: &Path,
    tiles_path: &Path,
    config: &DbConfig,
    dir: &Directory,
    pager: &Pager,
    touched_by_replay: impl Fn(&BlobEntry) -> bool,
) -> StorageResult<(ChiStore, TileStore)> {
    let chi = match ChiStore::load(chi_path) {
        Ok(store) if *store.config() == config.chi_config => store,
        // Missing, corrupt, or differently-configured index files are
        // discarded; the directory is the source of truth.
        _ => ChiStore::new(config.chi_config),
    };
    let tiles = match TileStore::load(tiles_path) {
        Ok(store) if store.tile() == masksearch_core::DEFAULT_TILE_SIZE => store,
        _ => TileStore::default(),
    };
    for mask_id in chi.ids() {
        match dir.entries.get(&mask_id) {
            Some(entry) if !touched_by_replay(entry) => {}
            _ => {
                chi.remove(mask_id);
            }
        }
    }
    for mask_id in tiles.ids() {
        match dir.entries.get(&mask_id) {
            Some(entry) if !touched_by_replay(entry) => {}
            _ => {
                tiles.remove(mask_id);
            }
        }
    }
    for (mask_id, entry) in &dir.entries {
        let need_chi = !chi.contains(*mask_id);
        let need_tiles = !tiles.contains(*mask_id);
        if !need_chi && !need_tiles {
            continue;
        }
        let blob = pager.read_extent(entry.start, entry.pages, entry.bytes)?;
        let (_, mask) = format::decode_mask(&blob)?;
        if need_chi {
            chi.index_mask(*mask_id, &mask);
        }
        if need_tiles {
            tiles.index_mask(*mask_id, &mask);
        }
    }
    Ok((chi, tiles))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "masksearch-db-store-test-{}-{}",
            name,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> DbConfig {
        DbConfig::default()
            .page_size(256)
            .chi_config(ChiConfig::new(4, 4, 4).unwrap())
            .checkpoint_wal_bytes(0)
    }

    fn mask(seed: u32) -> Mask {
        Mask::from_fn(8, 8, move |x, y| ((x + y * 3 + seed) % 7) as f32 / 7.0)
    }

    fn record(id: u64) -> MaskRecord {
        MaskRecord::builder(MaskId::new(id))
            .image_id(masksearch_core::ImageId::new(id / 2))
            .shape(8, 8)
            .build()
    }

    fn batch(ids: std::ops::Range<u64>) -> Vec<(MaskRecord, Mask)> {
        ids.map(|i| (record(i), mask(i as u32))).collect()
    }

    #[test]
    fn insert_get_delete_round_trip() {
        let dir = temp_dir("crud");
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        assert!(store.is_empty());
        store.insert_masks(&batch(0..5)).unwrap();
        assert_eq!(store.len(), 5);
        assert_eq!(store.get(MaskId::new(3)).unwrap(), mask(3));
        assert_eq!(store.chi_store().len(), 5);
        assert!(store.stored_bytes(MaskId::new(0)).unwrap() > 0);

        store
            .delete_masks(&[MaskId::new(1), MaskId::new(3)])
            .unwrap();
        assert_eq!(store.len(), 3);
        assert!(!store.contains(MaskId::new(3)));
        assert_eq!(store.chi_store().len(), 3);
        assert!(matches!(
            store.get(MaskId::new(3)),
            Err(StorageError::MaskNotFound(_))
        ));
        // Deleting an unknown id fails without side effects.
        assert!(store
            .delete_masks(&[MaskId::new(0), MaskId::new(99)])
            .is_err());
        assert_eq!(store.len(), 3);
        // A duplicated id in one batch is a single delete, not an error.
        store
            .delete_masks(&[MaskId::new(0), MaskId::new(0)])
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.ingest_stats().unwrap().masks_deleted, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_masks_records_and_chi_without_checkpoint() {
        let dir = temp_dir("reopen");
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            store.insert_masks(&batch(0..4)).unwrap();
            store.delete_masks(&[MaskId::new(2)]).unwrap();
            // No checkpoint: everything lives in the WAL.
        }
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        assert_eq!(
            store.ids(),
            vec![MaskId::new(0), MaskId::new(1), MaskId::new(3)]
        );
        assert_eq!(store.get(MaskId::new(3)).unwrap(), mask(3));
        assert_eq!(store.chi_store().len(), 3);
        let catalog = store.catalog();
        assert_eq!(catalog.len(), 3);
        assert_eq!(
            catalog.get(MaskId::new(3)).unwrap().image_id,
            masksearch_core::ImageId::new(1)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_persists_chi() {
        let dir = temp_dir("checkpoint");
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            store.insert_masks(&batch(0..3)).unwrap();
            let wal_before = store.wal_bytes();
            store.checkpoint().unwrap();
            assert!(store.wal_bytes() < wal_before);
            assert_eq!(store.ingest_stats().unwrap().checkpoints, 1);
        }
        assert!(dir.join(CHI_FILE).exists());
        let chi = ChiStore::load(dir.join(CHI_FILE)).unwrap();
        assert_eq!(chi.len(), 3);
        // Reopening after a checkpoint reads pages from the db file.
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(MaskId::new(1)).unwrap(), mask(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overwrites_free_and_reuse_pages() {
        let dir = temp_dir("reuse");
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        store.insert_masks(&batch(0..4)).unwrap();
        let pages_after_first = store.state.read().page_count;
        // Overwrite the same ids many times; the file must not grow without
        // bound because freed extents are reused.
        for round in 0..20u32 {
            let rewrite: Vec<(MaskRecord, Mask)> = (0..4)
                .map(|i| (record(i), mask(i as u32 + round)))
                .collect();
            store.insert_masks(&rewrite).unwrap();
        }
        let pages_after_rewrites = store.state.read().page_count;
        assert!(
            pages_after_rewrites <= pages_after_first + 8,
            "pages grew from {pages_after_first} to {pages_after_rewrites}"
        );
        assert_eq!(store.get(MaskId::new(2)).unwrap(), mask(2 + 19));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_checkpoint_fires_on_wal_threshold() {
        let dir = temp_dir("auto-ckpt");
        let store =
            DurableMaskStore::open(&dir, small_config().checkpoint_wal_bytes(4096)).unwrap();
        for i in 0..40u64 {
            store.insert_masks(&batch(i..i + 1)).unwrap();
        }
        assert!(store.ingest_stats().unwrap().checkpoints > 0);
        assert!(store.wal_bytes() < 4096 + 4096);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_preserves_existing_record_metadata() {
        let dir = temp_dir("put-record");
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        let rich = MaskRecord::builder(MaskId::new(1))
            .image_id(masksearch_core::ImageId::new(42))
            .shape(8, 8)
            .build();
        store.insert_masks(&[(rich, mask(1))]).unwrap();
        store.put(MaskId::new(1), &mask(9)).unwrap();
        let catalog = store.catalog();
        assert_eq!(
            catalog.get(MaskId::new(1)).unwrap().image_id,
            masksearch_core::ImageId::new(42)
        );
        assert_eq!(store.get(MaskId::new(1)).unwrap(), mask(9));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shape_mismatched_record_is_rejected() {
        let dir = temp_dir("shape");
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        let wrong = MaskRecord::builder(MaskId::new(1)).shape(16, 16).build();
        assert!(store.insert_masks(&[(wrong, mask(1))]).is_err());
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_index_definitions_survive_reopen_and_torn_files_are_discarded() {
        let dir = temp_dir("meta-idx");
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            store.insert_masks(&batch(0..6)).unwrap();
            let registry = store.meta_indexes().unwrap();
            registry
                .create("by_image", MetaColumn::ImageId, false)
                .unwrap();
            registry
                .create("by_model", MetaColumn::ModelId, false)
                .unwrap();
            store.persist_meta_indexes().unwrap();
            registry.drop_index("by_model", false).unwrap();
            store.persist_meta_indexes().unwrap();
        }
        assert!(dir.join(meta_index_file(MetaColumn::ImageId)).exists());
        assert!(!dir.join(meta_index_file(MetaColumn::ModelId)).exists());
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            let registry = store.meta_indexes().unwrap();
            assert_eq!(
                registry.by_name("by_image").unwrap().column,
                MetaColumn::ImageId
            );
            assert!(registry.by_name("by_model").is_none());
            // Mutate without re-persisting: the snapshot goes stale, and the
            // next open must rebuild it from the recovered catalog.
            store.delete_masks(&[MaskId::new(0)]).unwrap();
        }
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            let registry = store.meta_indexes().unwrap();
            assert_eq!(registry.len(), 1);
            let bytes = fs::read(dir.join(meta_index_file(MetaColumn::ImageId))).unwrap();
            let (_, map) = meta_index::decode_snapshot(&bytes).unwrap();
            assert_eq!(
                map,
                meta_index::postings(&store.catalog(), MetaColumn::ImageId)
            );
        }
        // A torn snapshot (external damage — writes go through temp+rename)
        // is discarded on open; the definition it held is gone, loudly absent.
        let idx_path = dir.join(meta_index_file(MetaColumn::ImageId));
        let full = fs::read(&idx_path).unwrap();
        fs::write(&idx_path, &full[..full.len() / 2]).unwrap();
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            assert!(store.meta_indexes().unwrap().is_empty());
        }
        assert!(!idx_path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apply_batch_commits_inserts_and_deletes_in_one_frame() {
        let dir = temp_dir("apply-batch");
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        store.insert_masks(&batch(0..4)).unwrap();
        let commits_before = store.ingest_stats().unwrap().commits;
        store
            .apply_batch(&batch(4..6), &[MaskId::new(0), MaskId::new(1)])
            .unwrap();
        assert_eq!(store.ingest_stats().unwrap().commits, commits_before + 1);
        assert_eq!(store.len(), 4);
        assert!(!store.contains(MaskId::new(0)));
        assert_eq!(store.get(MaskId::new(5)).unwrap(), mask(5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alloc_run_prefers_free_runs_and_extends_otherwise() {
        let mut free: BTreeSet<PageNo> = [1, 2, 4, 5, 6].into_iter().collect();
        let mut page_count = 7u64;
        assert_eq!(alloc_run(&mut free, &mut page_count, 3), 4);
        assert_eq!(free, [1, 2].into_iter().collect());
        assert_eq!(alloc_run(&mut free, &mut page_count, 2), 1);
        assert!(free.is_empty());
        assert_eq!(alloc_run(&mut free, &mut page_count, 2), 7);
        assert_eq!(page_count, 9);
    }
}
