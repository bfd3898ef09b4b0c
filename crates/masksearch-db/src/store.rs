//! The durable mask store: atomic multi-page commits over the pager + WAL,
//! with live CHI maintenance.
//!
//! ## Commit protocol
//!
//! A write transaction (a batch of inserts and/or deletes) costs what it
//! writes. It is validated, then planned off to the side — new blob extents
//! from the free-space map and a [`DirDelta`] naming the directory entries
//! it removes and upserts — then:
//!
//! 1. the extents' page after-images, the delta and a commit record are
//!    appended to the WAL (fsynced when [`DbConfig::fsync`] is set): *this*
//!    is the commit point. Until it succeeds nothing a reader or a later
//!    commit can see has changed: a validation error touches nothing, and a
//!    failed append gives the planned extents back;
//! 2. the extents enter the pager's dirty table and the delta is applied to
//!    the in-memory directory in place, **under the state write lock**, so
//!    readers see either none or all of the batch;
//! 3. the CHI store publishes its next version: the batch's deleted and
//!    overwritten ids evicted and its inserted masks indexed, in one swap
//!    (see `masksearch_index::store`), so no index entry ever refers to a
//!    mask that was not durably present when it was published.
//!
//! The CHI of every inserted mask is built before any of this, outside
//! every lock, by one pass over its pixels; a batch that fails validation
//! or its append just drops them. The CHI store's new
//! version copies only the map leaves and chunks the batch touches, and a
//! reader holds a version rather than a lock: no reader ever waits for a
//! commit's CHI maintenance, and no commit waits for a reader.
//!
//! Each inserted mask's blob is encoded once, into a buffer padded to whole
//! pages. The WAL append gathers its page frames straight from that buffer,
//! and the buffer itself then becomes the pager's dirty extent: no page is
//! copied on the way. The pager drops any dirty extent a new one overlaps,
//! which is sound because the free-space map hands out only pages no live
//! extent holds (asserted in debug builds).
//!
//! ## Stamps
//!
//! Every mask's pixels carry the [`Stamp`] of the commit that installed
//! them: its transaction id, or, for a mask recovered at open,
//! [`RECOVERED`] (0, the bootstrap's id: no commit of masks has it). The
//! stamp is kept in memory beside the directory — in step 2, under the
//! state write lock — and the CHI the same commit installs carries the same
//! stamp (step 3); the CHIs recovered at open carry [`RECOVERED`]. So a
//! reader holding an index can tell whether it summarises exactly the
//! pixels it read.
//!
//! ## Reads
//!
//! A load resolves the mask's directory entry and stamp and reads its
//! extent under one state read guard, so it sees exactly one committed
//! version. Two reads share that rule: the whole blob
//! ([`MaskStore::get_stamped`]: one positioned read, decoded), and bands of
//! rows ([`MaskStore::read_rows`]: the 32-byte header is read and
//! validated, then each band `y0..y1` of a raw blob — one contiguous byte
//! range of the extent — goes into the caller's reused buffer, undecoded).
//! The second is what in-place verification reads; compressed blobs
//! decline it and are loaded whole. With no band it reads nothing and
//! answers the shape and stamp from the directory.
//!
//! ## Checkpoint protocol
//!
//! The page file's own directory extent is as of the last checkpoint; the
//! WAL's deltas lead from it to the present. A checkpoint, in this order:
//!
//! 1. serialises the directory into a freshly allocated extent and logs it
//!    with the meta page that points at it as an ordinary page-image
//!    transaction, fsyncing the log — the log-ahead rule: every commit (and
//!    this directory) is durable in the WAL before any of its pages can
//!    touch the database file, or a crash mid-flush could leave a page mix
//!    that no committed prefix explains;
//! 2. writes all dirty pages to the database file and fsyncs it;
//! 3. brings `masks.chi` up to date durably (see `snapshot.rs`): an
//!    automatic checkpoint appends one segment of the entries indexed
//!    since the previous one, an explicit [`DurableMaskStore::checkpoint`]
//!    rewrites the file as a single segment with no dead entry, and the
//!    `masks.tiles` file older builds kept is removed. This precedes step 4
//!    because recovery treats masks touched by replayed WAL transactions as
//!    possibly stale in the file: as long as the WAL still names every
//!    commit since it was written, an old file is safe; dropping the log
//!    first would open a window where it is stale and nothing says for
//!    which masks;
//! 4. drops the WAL's transactions. An automatic checkpoint *recycles* the
//!    log (see the `wal` module): it zeroes the first frame's header and
//!    syncs, and the next commits overwrite the blocks the file already
//!    owns, so their fsyncs allocate nothing; the previous generation's
//!    frames left past the live tail are never replayed, because the
//!    transaction ids of a log only increase. An explicit checkpoint
//!    truncates the log to its header, leaving the directory at its
//!    smallest.
//!
//! Secondary-index definitions (`masks.idx.<col>`) are not part of a
//! checkpoint: `CREATE INDEX` and `DROP INDEX` write or remove their file
//! durably when they run.
//!
//! ## Recovery
//!
//! One rule: replay the WAL's committed transactions in order (a torn tail
//! is discarded, see the `wal` module). Page images go to their pages; a
//! transaction carrying page 0 replaces the directory with the one it
//! encodes; a delta applies on top. Deltas are idempotent over any later
//! state of their own history, so replaying a log over a page file that a
//! crashed checkpoint had already flushed ends in the same state. Free space
//! is derived from the final directory. Persisted index entries are dropped
//! for masks the directory no longer holds and for masks whose pages the
//! replay rewrote (their checkpointed summaries may predate the replayed
//! commits), and rebuilt from pixels. A `masks.tiles` file is ignored.

use crate::alloc::FreeRuns;
use crate::atomic::{remove_file, replace_file};
use crate::dir::{BlobEntry, DirDelta, Directory};
use crate::page::{Meta, PageNo, META_PAGE, MIN_PAGE_SIZE};
use crate::pager::Pager;
use crate::snapshot::SnapshotFile;
use crate::stats::IngestStats;
use crate::wal::Wal;
use masksearch_core::{Mask, MaskId, MaskRecord};
use masksearch_index::store::outdated_format;
use masksearch_index::{Chi, ChiConfig, ChiStore};
use masksearch_obs::counters as obs_counters;
use masksearch_storage::format;
use masksearch_storage::meta_index::{self, MetaColumn, MetaIndexRegistry};
use masksearch_storage::store::IngestSnapshot;
use masksearch_storage::{
    DiskProfile, IoStats, MaskEncoding, MaskStore, RowsRead, Stamp, StorageError, StorageResult,
    RECOVERED,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the page file inside a database directory.
pub const DB_FILE: &str = "masks.db";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "masks.wal";
/// File name of the persisted CHI store.
pub const CHI_FILE: &str = "masks.chi";

/// File name of the tile-summary store older builds persisted. Nothing
/// reads it; the next checkpoint removes it.
pub const TILES_FILE: &str = "masks.tiles";
/// File-name prefix of persisted secondary metadata index definitions; the
/// full name is `masks.idx.<column>` (e.g. `masks.idx.model_id`).
pub const META_INDEX_FILE_PREFIX: &str = "masks.idx.";
/// Per-query-shape statistics written by older builds. Nothing reads them;
/// open removes the file.
const RETIRED_SHAPE_STATS_FILE: &str = "masks.stats";

/// The definition file name of a secondary index over `column`.
pub fn meta_index_file(column: MetaColumn) -> String {
    format!("{}{}", META_INDEX_FILE_PREFIX, column.name())
}

/// Makes the `masks.idx.<col>` files of `dir` hold exactly the definitions
/// of `registry`: a file that does not already hold its column's definition
/// is rewritten, and the file of a column without one is removed, each
/// durably.
fn sync_meta_index_files(dir: &Path, registry: &MetaIndexRegistry) -> StorageResult<()> {
    for column in MetaColumn::ALL {
        let path = dir.join(meta_index_file(column));
        match registry.on(column) {
            Some(def) => {
                let bytes = meta_index::definition_bytes(&def);
                if fs::read(&path).ok().as_deref() != Some(&bytes[..]) {
                    replace_file(&path, &bytes, "metadata index", true)?;
                }
            }
            None if path.exists() => remove_file(&path, "metadata index")?,
            None => {}
        }
    }
    Ok(())
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

/// What readers see, guarded by one `RwLock`: they resolve a mask's location
/// and stamp and read its pages under a single read guard, so a concurrent
/// commit (which applies under the write guard) can never tear a read.
/// Readers share the pager; only a commit's `write_extent` needs it
/// exclusively.
struct State {
    pager: Pager,
    dir: Directory,
    /// The stamps of the masks committed since open (see the module docs);
    /// every other mask's is [`RECOVERED`].
    stamps: HashMap<MaskId, Stamp>,
}

impl State {
    /// The directory entry of `mask_id` and the stamp of its pixels.
    fn entry(&self, mask_id: MaskId) -> StorageResult<(&BlobEntry, Stamp)> {
        let entry = self
            .dir
            .entries
            .get(&mask_id)
            .ok_or(StorageError::MaskNotFound(mask_id))?;
        let stamp = self.stamps.get(&mask_id).copied();
        Ok((entry, stamp.unwrap_or(RECOVERED)))
    }
}

/// What only writers use, guarded by the writer mutex that serialises
/// commits and checkpoints; reads never take it.
struct Writer {
    free: FreeRuns,
    page_count: u64,
    next_txn: u64,
    /// The directory extent the last checkpoint (or the bootstrap) wrote.
    /// It stays allocated until the next checkpoint writes another.
    dir_start: PageNo,
    dir_pages: u32,
    /// Masks (re)indexed since the index files were last brought up to
    /// date: what the next checkpoint's segments must hold.
    unsnapshotted: BTreeSet<MaskId>,
    chi_file: SnapshotFile,
}

impl Writer {
    /// Undoes a plan whose WAL append failed: gives back `extents` (every
    /// extent allocated since the database spanned `page_count` pages, in
    /// allocation order), leaving the free space exactly as it was.
    fn unallocate(&mut self, page_count: u64, extents: &[(PageNo, u32)]) {
        // Extents at or past the old end came from extending the database.
        for &(start, pages) in extents
            .iter()
            .rev()
            .filter(|(start, _)| *start < page_count)
        {
            self.free.release(start, pages);
        }
        self.page_count = page_count;
    }
}

/// A durable, mutable mask store over a pager, WAL, and maintained CHI.
pub struct DurableMaskStore {
    config: DbConfig,
    state: RwLock<State>,
    wal: Mutex<Wal>,
    writer: Mutex<Writer>,
    chi: Arc<ChiStore>,
    /// Secondary metadata index definitions, shared with query sessions via
    /// [`MaskStore::meta_indexes`] and persisted as one `masks.idx.<col>`
    /// file per definition, written when DDL runs. Posting lists live in the
    /// catalog's secondary maps, maintained inside every commit.
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

        let mut pager = Pager::open(&db_path, config.page_size)?;
        let (mut wal, committed) = Wal::open(&wal_path, config.page_size)?;
        let fresh = pager.file_pages() == 0 && committed.is_empty();
        // Pages rewritten by WAL replay: any mask whose extent intersects
        // this set got its current content from a post-checkpoint commit, so
        // index entries for it in the persisted CHI file (written at the
        // last checkpoint) may be stale and must be rebuilt from pixels.
        let mut replayed_pages: BTreeSet<PageNo> = BTreeSet::new();
        // The deltas that follow the last transaction carrying the whole
        // directory (page 0 and the extent it points at); see below.
        let since_directory = committed
            .iter()
            .rposition(|txn| txn.pages.iter().any(|(page_no, _)| *page_no == META_PAGE))
            .map_or(0, |at| at + 1);
        let mut deltas: Vec<(u64, DirDelta)> = Vec::new();
        for (at, txn) in committed.into_iter().enumerate() {
            for (page_no, image) in txn.pages {
                replayed_pages.insert(page_no);
                pager.write_page(page_no, image);
            }
            if at >= since_directory {
                deltas.extend(txn.delta.map(|delta| (txn.txn_id, delta)));
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
            let pages: Vec<(PageNo, Vec<u8>)> = std::iter::once((META_PAGE, meta.encode_page()))
                .chain(page_images(&dir_blob, meta.dir_start, config.page_size))
                .collect();
            wal.append_txn(0, &pages, None, config.fsync)?;
            for (page_no, image) in pages {
                pager.write_page(page_no, image);
            }
            (meta, directory)
        } else {
            // With every page image replayed, page 0 and the extent it
            // points at are those of the last transaction that carried the
            // whole directory (or the page file's, if the log has none: no
            // commit can allocate the current directory extent). The deltas
            // after that transaction lead from there to the present.
            let meta_page = pager.read_extent(META_PAGE, 1, config.page_size as u64)?;
            let mut meta = Meta::decode_page(&meta_page, config.page_size)?;
            let dir_blob = pager.read_extent(meta.dir_start, meta.dir_pages, meta.dir_bytes)?;
            let mut directory = Directory::decode(&dir_blob)?;
            for (txn_id, delta) in deltas {
                meta.page_count = delta.page_count;
                meta.next_txn_id = txn_id + 1;
                directory.apply(delta);
            }
            (meta, directory)
        };

        let free = FreeRuns::derive(
            meta.page_count,
            std::iter::once((meta.dir_start, meta.dir_pages))
                .chain(directory.entries.values().map(|e| (e.start, e.pages))),
        )?;
        let indexes = reconcile_indexes(&chi_path, &config, &directory, &pager, {
            |entry: &BlobEntry| {
                (entry.start..entry.start + entry.pages as u64).any(|p| replayed_pages.contains(&p))
            }
        })?;

        let _ = fs::remove_file(dir.join(RETIRED_SHAPE_STATS_FILE));
        // Recover secondary index definitions from their files, then rewrite
        // version 1 files in the current format and delete torn or foreign
        // ones (writes go through temp + rename, so that means external
        // damage), dropping their definition.
        let meta_indexes = Arc::new(MetaIndexRegistry::new());
        for column in MetaColumn::ALL {
            let Ok(bytes) = fs::read(dir.join(meta_index_file(column))) else {
                continue;
            };
            if let Ok(def) = meta_index::decode_definition(&bytes) {
                if def.column == column {
                    let _ = meta_indexes.create(&def.name, column, true);
                }
            }
        }
        sync_meta_index_files(dir, &meta_indexes)?;

        Ok(Self {
            chi: Arc::new(indexes.chi),
            meta_indexes,
            db_dir: dir.to_path_buf(),
            config,
            state: RwLock::new(State {
                pager,
                dir: directory,
                stamps: HashMap::new(),
            }),
            wal: Mutex::new(wal),
            writer: Mutex::new(Writer {
                free,
                page_count: meta.page_count,
                next_txn: meta.next_txn_id,
                dir_start: meta.dir_start,
                dir_pages: meta.dir_pages,
                unsnapshotted: indexes.unsnapshotted,
                chi_file: SnapshotFile::new(chi_path, "chi index", indexes.chi_len),
            }),
            ingest: IngestStats::new(),
            io: IoStats::new_shared(),
            checkpoint_error: Mutex::new(None),
        })
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

    /// Invariant check used by the ingest-path and crash-recovery tests:
    /// every durably-present mask has a CHI equal to one freshly built from
    /// its stored pixels, stamped with its pixels' stamp, and no other mask
    /// has one. Returns the number of masks checked.
    pub fn verify_indexes(&self) -> StorageResult<usize> {
        let ids = self.ids();
        let chi = self.chi.reader();
        for &mask_id in &ids {
            let (mask, stamp) = self.get_stamped(mask_id)?;
            let corrupt = |what: &str| StorageError::corrupt(format!("mask {mask_id}: {what}"));
            let (index, installed) = chi.get_stamped(mask_id).ok_or_else(|| corrupt("no CHI"))?;
            if index.to_chi() != Chi::build(&mask, &self.config.chi_config) {
                return Err(corrupt("its CHI does not match its pixels"));
            }
            if installed != stamp {
                return Err(corrupt("its CHI's stamp is not its pixels'"));
            }
        }
        if chi.len() != ids.len() {
            return Err(StorageError::corrupt(format!(
                "{} CHIs for {} masks",
                chi.len(),
                ids.len()
            )));
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
        masksearch_storage::Catalog::from_records(
            state.dir.entries.values().map(|entry| entry.record.clone()),
        )
    }

    /// Atomically inserts (or overwrites) a batch of masks with their
    /// records: after this returns, either every mask in the batch is
    /// durable or (on error / crash) none of them are visible.
    pub fn insert_masks(&self, batch: &[(MaskRecord, Mask)]) -> StorageResult<()> {
        self.commit(batch, &[]).map(drop)
    }

    /// Atomically deletes a batch of masks. Fails without side effects if
    /// any of the ids is unknown.
    pub fn delete_masks(&self, mask_ids: &[MaskId]) -> StorageResult<()> {
        self.commit(&[], mask_ids).map(drop)
    }

    /// Writes all committed pages (and the directory) to the database file,
    /// fsyncs it, rewrites the CHI file without dead entries, and truncates
    /// the WAL to its header.
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.checkpoint_locked(&mut self.writer.lock(), true)
    }

    /// The checkpoint protocol of the module docs. `compact` asks for index
    /// files of exactly one segment each; otherwise they are appended to
    /// while that is cheaper.
    fn checkpoint_locked(&self, writer: &mut Writer, compact: bool) -> StorageResult<()> {
        let checkpoint_start = std::time::Instant::now();
        let page_size = self.config.page_size as usize;
        // Nothing logged since the last checkpoint: the page file is
        // current, directory included.
        if !self.wal.lock().is_empty() {
            let dir_blob = self.state.read().dir.encode();
            let dir_pages = dir_blob.len().div_ceil(page_size).max(1) as u32;
            let page_count = writer.page_count;
            let dir_start = writer.free.allocate(&mut writer.page_count, dir_pages);
            debug_assert!(
                holds_no_live_page(&self.state.read().dir, writer, dir_start, dir_pages),
                "allocated the directory extent over a live page"
            );
            let mut pages: Vec<(PageNo, Vec<u8>)> =
                page_images(&dir_blob, dir_start, self.config.page_size).collect();
            let meta = Meta {
                page_size: self.config.page_size,
                page_count: writer.page_count,
                next_txn_id: writer.next_txn + 1,
                dir_start,
                dir_pages,
                dir_bytes: dir_blob.len() as u64,
            };
            pages.push((META_PAGE, meta.encode_page()));
            // Always fsynced, whatever `DbConfig::fsync` says: the flush
            // below must not outrun the log.
            let logged = self
                .wal
                .lock()
                .append_txn(writer.next_txn, &pages, None, true);
            let wal_bytes = match logged {
                Ok(bytes) => bytes,
                Err(e) => {
                    writer.unallocate(page_count, &[(dir_start, dir_pages)]);
                    return Err(e);
                }
            };
            self.ingest.record_wal_bytes(wal_bytes);
            writer.free.release(writer.dir_start, writer.dir_pages);
            (writer.dir_start, writer.dir_pages) = (dir_start, dir_pages);
            writer.next_txn += 1;
            let mut state = self.state.write();
            for (page_no, image) in pages {
                state.pager.write_page(page_no, image);
            }
            drop(state);
            self.state.read().pager.flush()?;
        }
        let changed = || writer.unsnapshotted.iter().copied();
        writer.chi_file.persist(
            self.chi.segment_bytes(changed()),
            self.chi.encoded_len(),
            compact,
            || self.chi.to_bytes(),
        )?;
        writer.unsnapshotted.clear();
        let tiles = self.db_dir.join(TILES_FILE);
        if tiles.exists() {
            remove_file(&tiles, "tile summary")?;
        }
        // The database and index files are durable; the log can be dropped.
        // An explicit checkpoint leaves the directory at its smallest; an
        // automatic one keeps the log's blocks for the commits to come.
        if compact {
            self.wal.lock().reset()?;
        } else {
            self.wal.lock().recycle()?;
        }
        self.ingest.record_checkpoint();
        obs_counters::incr(&obs_counters::DB_CHECKPOINTS);
        obs_counters::add(
            &obs_counters::DB_CHECKPOINT_US,
            checkpoint_start.elapsed().as_micros() as u64,
        );
        Ok(())
    }

    /// Checkpoints if the WAL has outgrown [`DbConfig::checkpoint_wal_bytes`].
    /// The commit that got it there is already durable and published; a
    /// checkpoint failure must not make it look failed, so the error is
    /// parked for the caller to observe (and the next threshold crossing or
    /// explicit checkpoint retries anyway).
    fn checkpoint_if_due(&self, writer: &mut Writer) {
        if self.config.checkpoint_wal_bytes > 0
            && self.wal.lock().len() >= self.config.checkpoint_wal_bytes
        {
            if let Err(e) = self.checkpoint_locked(writer, false) {
                *self.checkpoint_error.lock() = Some(e);
            }
        }
    }

    /// Commits `inserts` and `deletes` as one transaction and returns its
    /// stamp; see the module docs. The CHIs of `inserts` are built before
    /// the writer mutex is taken: the O(pixels) work holds no lock, and a
    /// commit that fails just drops it.
    fn commit(&self, inserts: &[(MaskRecord, Mask)], deletes: &[MaskId]) -> StorageResult<Stamp> {
        let chis: Vec<(MaskId, Chi)> = inserts
            .iter()
            .map(|(record, mask)| (record.mask_id, Chi::build(mask, &self.config.chi_config)))
            .collect();
        let mut writer = self.writer.lock();
        let writer = &mut *writer;
        if inserts.is_empty() && deletes.is_empty() {
            return Ok(RECOVERED);
        }

        // Validate the whole batch, and find the extents it frees, before
        // anything changes. The writer mutex guarantees nobody else mutates
        // the directory meanwhile.
        let mut delta = DirDelta::default();
        let mut released: Vec<(PageNo, u32)> = Vec::new();
        let mut overwritten: Vec<MaskId> = Vec::new();
        {
            let state = self.state.read();
            // Ids whose current extent is already counted as freed.
            let mut freed: BTreeSet<MaskId> = BTreeSet::new();
            for &mask_id in deletes {
                let entry = state
                    .dir
                    .entries
                    .get(&mask_id)
                    .ok_or(StorageError::MaskNotFound(mask_id))?;
                // A duplicate id in one batch is one delete, not an error.
                if freed.insert(mask_id) {
                    released.push((entry.start, entry.pages));
                    delta.removed.push(mask_id);
                }
            }
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
                if let Some(old) = state.dir.entries.get(&record.mask_id) {
                    if freed.insert(record.mask_id) {
                        released.push((old.start, old.pages));
                        overwritten.push(record.mask_id);
                    }
                }
            }
        }

        // Plan the new extents. Extents this batch frees are not reused by
        // it: they return to the free space only once it has committed.
        // Each blob is encoded once, into the page-padded buffer the WAL
        // frames and the pager then keeps.
        let page_size = self.config.page_size as usize;
        let page_count = writer.page_count;
        let mut extents: Vec<(PageNo, Vec<u8>)> = Vec::with_capacity(inserts.len());
        let mut blob_bytes = 0u64;
        // By id, so that the last of several inserts of one id wins.
        let mut upserts: BTreeMap<MaskId, BlobEntry> = BTreeMap::new();
        for (record, mask) in inserts {
            let (blob, len) =
                format::encode_mask_padded(record.mask_id, mask, self.config.encoding, page_size);
            let extent_pages = (blob.len() / page_size) as u32;
            let start = writer.free.allocate(&mut writer.page_count, extent_pages);
            extents.push((start, blob));
            blob_bytes += len as u64;
            let entry = BlobEntry {
                start,
                pages: extent_pages,
                bytes: len as u64,
                record: record.clone(),
            };
            if let Some(earlier) = upserts.insert(record.mask_id, entry) {
                released.push((earlier.start, earlier.pages));
            }
        }
        delta.upserts = upserts.into_values().collect();
        delta.page_count = writer.page_count;

        // Deleted and overwritten masks' CHIs go in the same version that
        // installs the batch's new ones, after the commit point.
        let evicted: Vec<MaskId> = delta.removed.iter().chain(&overwritten).copied().collect();

        // Commit point: the WAL append (+ optional fsync).
        let commit_start = std::time::Instant::now();
        let framed: Vec<(PageNo, &[u8])> = extents
            .iter()
            .map(|(start, blob)| (*start, blob.as_slice()))
            .collect();
        let logged = self.wal.lock().append_extents(
            writer.next_txn,
            &framed,
            Some(&delta),
            self.config.fsync,
        );
        let wal_bytes = match logged {
            Ok(bytes) => bytes,
            Err(e) => {
                let planned: Vec<(PageNo, u32)> = framed
                    .iter()
                    .map(|(start, blob)| (*start, (blob.len() / page_size) as u32))
                    .collect();
                writer.unallocate(page_count, &planned);
                return Err(e);
            }
        };
        obs_counters::incr(&obs_counters::WAL_COMMITS);
        obs_counters::add(
            &obs_counters::WAL_COMMIT_US,
            commit_start.elapsed().as_micros() as u64,
        );
        let stamp = writer.next_txn;
        writer.next_txn += 1;
        for (start, extent_pages) in released {
            writer.free.release(start, extent_pages);
        }
        writer
            .unsnapshotted
            .extend(delta.upserts.iter().map(|e| e.record.mask_id));
        let deleted = delta.removed.len() as u64;

        // Publish the batch atomically with respect to readers.
        {
            let mut state = self.state.write();
            debug_assert!(
                extents.iter().all(|(start, blob)| {
                    let pages = (blob.len() / page_size) as u32;
                    holds_no_live_page(&state.dir, writer, *start, pages)
                }),
                "allocated an extent over a live page"
            );
            for (start, blob) in extents {
                state.pager.write_extent(start, blob);
            }
            // Stamps publish with the pixels: a reader's state read guard
            // pins a consistent (pixels, stamp) pair.
            for id in &delta.removed {
                state.stamps.remove(id);
            }
            for entry in &delta.upserts {
                state.stamps.insert(entry.record.mask_id, stamp);
            }
            state.dir.apply(delta);
        }

        // The batch's CHIs change only now that it is durable, as one
        // version: evictions and installs together, stamped like the pixels.
        self.chi.apply(&evicted, chis, stamp);

        self.io.record_write(
            blob_bytes,
            self.config
                .profile
                .write_cost(blob_bytes, inserts.len() as u64),
        );
        self.ingest
            .record_commit(inserts.len() as u64, deleted, wal_bytes);
        self.checkpoint_if_due(writer);
        Ok(stamp)
    }
}

impl MaskStore for DurableMaskStore {
    fn apply_batch(
        &self,
        inserts: &[(MaskRecord, Mask)],
        deletes: &[MaskId],
    ) -> StorageResult<Stamp> {
        // One WAL commit frame for the whole batch: a transaction spanning
        // inserts, updates (overwrites), and deletes is all-or-nothing at
        // every crash point.
        self.commit(inserts, deletes)
    }

    fn meta_indexes(&self) -> Option<Arc<MetaIndexRegistry>> {
        Some(Arc::clone(&self.meta_indexes))
    }

    /// The writer mutex serialises DDL from every session sharing this
    /// store.
    fn persist_meta_indexes(&self) -> StorageResult<()> {
        let _writer = self.writer.lock();
        sync_meta_index_files(&self.db_dir, &self.meta_indexes)
    }

    fn ingest_stats(&self) -> Option<IngestSnapshot> {
        Some(self.ingest.snapshot())
    }

    /// The mask and the stamp of its pixels, both read under one state read
    /// guard.
    fn get_stamped(&self, mask_id: MaskId) -> StorageResult<(Mask, Stamp)> {
        let (blob, stamp) = {
            let state = self.state.read();
            let (entry, stamp) = state.entry(mask_id)?;
            let blob = state
                .pager
                .read_extent(entry.start, entry.pages, entry.bytes)?;
            (blob, stamp)
        };
        let bytes = blob.len() as u64;
        self.io
            .record_read(bytes, self.config.profile.read_cost(bytes, 1));
        self.io.record_mask_loaded();
        let (_, mask) = format::decode_mask(&blob)?;
        Ok((mask, stamp))
    }

    /// Positioned reads under the state read guard a whole load takes —
    /// the 32-byte blob header, then each band — so the bands and their
    /// stamp are of exactly one committed version, dirty pages included.
    fn read_rows(
        &self,
        mask_id: MaskId,
        bands: &[Range<u32>],
        out: &mut Vec<u8>,
    ) -> StorageResult<Option<RowsRead>> {
        let mut header = [0u8; format::MASK_HEADER_LEN];
        let (header, stamp) = {
            let state = self.state.read();
            let (entry, stamp) = state.entry(mask_id)?;
            if bands.is_empty() {
                return Ok(Some(RowsRead {
                    width: entry.record.width,
                    height: entry.record.height,
                    stamp,
                }));
            }
            state
                .pager
                .read_extent_at(entry.start, entry.pages, 0, &mut header)?;
            let header = format::decode_header(&header)?;
            if header.encoding != MaskEncoding::Raw {
                return Ok(None);
            }
            let row_bytes = header.width as u64 * 4;
            if header.payload_len != row_bytes * header.height as u64
                || header.file_len() != entry.bytes
            {
                return Err(StorageError::corrupt(format!(
                    "mask {mask_id}: a {}x{} header over a {}-byte raw payload in a {}-byte blob",
                    header.width, header.height, header.payload_len, entry.bytes
                )));
            }
            if bands
                .iter()
                .any(|rows| rows.is_empty() || rows.end > header.height)
            {
                return Ok(None);
            }
            // Inside the extent `entry.bytes` was just checked against, so
            // the length is bounded by a blob this store wrote.
            let rows: u64 = bands.iter().map(|rows| rows.len() as u64).sum();
            out.resize((rows * row_bytes) as usize, 0);
            let mut at = 0;
            for rows in bands {
                let len = (rows.len() as u64 * row_bytes) as usize;
                let offset = format::MASK_HEADER_LEN as u64 + rows.start as u64 * row_bytes;
                state.pager.read_extent_at(
                    entry.start,
                    entry.pages,
                    offset,
                    &mut out[at..at + len],
                )?;
                at += len;
            }
            (header, stamp)
        };
        let bytes = (format::MASK_HEADER_LEN + out.len()) as u64;
        self.io.record_read(
            bytes,
            self.config.profile.read_cost(bytes, bands.len() as u64),
        );
        self.io.record_mask_loaded();
        Ok(Some(RowsRead {
            width: header.width,
            height: header.height,
            stamp,
        }))
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

    fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }
}

/// Whether the `pages`-page extent at `start` is clear of every live page:
/// the meta page, the directory extent and each mask's extent in `dir`. The
/// allocator must hand out nothing else — the pager drops every dirty extent
/// a new one overlaps, as dead.
fn holds_no_live_page(dir: &Directory, writer: &Writer, start: PageNo, pages: u32) -> bool {
    let overlaps = |at: PageNo, n: u32| at < start + pages as u64 && start < at + n as u64;
    !overlaps(META_PAGE, 1)
        && !overlaps(writer.dir_start, writer.dir_pages)
        && !dir.entries.values().any(|e| overlaps(e.start, e.pages))
}

/// The page images of an extent at `start` holding `blob` (the last one
/// zero-padded up to the page size): the directory's and the bootstrap's.
fn page_images(
    blob: &[u8],
    start: PageNo,
    page_size: u32,
) -> impl Iterator<Item = (PageNo, Vec<u8>)> + '_ {
    blob.chunks(page_size as usize)
        .zip(start..)
        .map(move |(chunk, page_no)| {
            let mut image = chunk.to_vec();
            image.resize(page_size as usize, 0);
            (page_no, image)
        })
}

/// The in-memory index recovered at open, and how it relates to its file.
struct RecoveredIndexes {
    chi: ChiStore,
    /// Valid length of the file: where its next segment goes.
    chi_len: u64,
    /// Masks whose entries the file does not hold (or may hold stale).
    unsnapshotted: BTreeSet<MaskId>,
}

/// Loads the persisted CHI file (if any) and reconciles it with the
/// recovered directory:
///
/// * entries for masks missing from the directory are dropped;
/// * entries for masks whose extent was rewritten by WAL replay
///   (`touched_by_replay`) are dropped too — the persisted files date from
///   the last checkpoint, so they may describe *pre-overwrite* pixels, and a
///   stale index over new pixels could mis-prune or mis-accept;
/// * masks left without an entry are re-indexed from their recovered pixels
///   and noted as not in the file.
fn reconcile_indexes(
    chi_path: &Path,
    config: &DbConfig,
    dir: &Directory,
    pager: &Pager,
    touched_by_replay: impl Fn(&BlobEntry) -> bool,
) -> StorageResult<RecoveredIndexes> {
    // Missing, corrupt, or differently-configured index files are discarded;
    // the directory is the source of truth.
    // A CHI file of an older format (32-bit cells for every shape) loads,
    // but is not appended to: like a pre-segment image, it is rewritten as
    // a whole by the next checkpoint, so no build that refuses the current
    // format is left reading its stale entries beside newer ones it skips.
    let (chi, chi_len) = fs::read(chi_path)
        .ok()
        .and_then(|bytes| {
            let (store, len) = ChiStore::from_segments(&bytes).ok()?;
            Some((store, if outdated_format(&bytes) { 0 } else { len }))
        })
        .filter(|(store, _)| *store.config() == config.chi_config)
        .unwrap_or_else(|| (ChiStore::new(config.chi_config), 0));
    let current = |mask_id: &MaskId| {
        dir.entries
            .get(mask_id)
            .is_some_and(|entry| !touched_by_replay(entry))
    };
    let stale: Vec<MaskId> = chi.ids().into_iter().filter(|id| !current(id)).collect();
    chi.remove_many(&stale);
    // Nothing can be appended after a pre-segment image or an older format
    // (length 0): its entries must be written again, as the file's first
    // segment.
    let mut unsnapshotted = BTreeSet::new();
    if chi_len == 0 {
        unsnapshotted.extend(chi.ids());
    }
    let indexed = chi.reader();
    let mut rebuilt = Vec::new();
    for (mask_id, entry) in &dir.entries {
        if indexed.contains(*mask_id) {
            continue;
        }
        let blob = pager.read_extent(entry.start, entry.pages, entry.bytes)?;
        let (_, mask) = format::decode_mask(&blob)?;
        rebuilt.push((*mask_id, Chi::build(&mask, &config.chi_config)));
        unsnapshotted.insert(*mask_id);
    }
    drop(indexed);
    chi.apply(&[], rebuilt, RECOVERED);
    Ok(RecoveredIndexes {
        chi,
        chi_len: chi_len as u64,
        unsnapshotted,
    })
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

    /// One band, as `read_rows` takes bands.
    fn band(rows: Range<u32>) -> [Range<u32>; 1] {
        [rows]
    }

    /// A ranged read returns exactly the stored bytes of the bands asked
    /// for — from the dirty table before a checkpoint and from the file
    /// after — into a reused buffer, with the stamp of the commit that wrote
    /// them, counts as one mask loaded, and declines (`None`) what it cannot
    /// serve: rows past the mask, an empty band, a compressed blob. With no
    /// band it reads nothing and answers the shape and stamp alone.
    #[test]
    fn ranged_row_reads_return_the_stored_bytes_or_decline() {
        let dir = temp_dir("read-rows");
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        store.insert_masks(&batch(0..4)).unwrap();
        let id = MaskId::new(2);
        let blob = format::encode_mask(id, &mask(2), MaskEncoding::Raw);
        let stored_rows = |rows: Range<u32>| {
            &blob[format::MASK_HEADER_LEN + rows.start as usize * 32..][..rows.len() * 32]
        };
        let mut out = vec![0xAA; 7];
        let read = |stamp| {
            Some(RowsRead {
                width: 8,
                height: 8,
                stamp,
            })
        };
        let stamp = store.get_stamped(id).unwrap().1;
        for checkpointed in [false, true] {
            if checkpointed {
                store.checkpoint().unwrap();
            }
            for rows in [0..8, 0..1, 7..8, 2..5] {
                let before = store.io_stats().snapshot();
                assert_eq!(
                    store
                        .read_rows(id, std::slice::from_ref(&rows), &mut out)
                        .unwrap(),
                    read(stamp)
                );
                assert_eq!(out, stored_rows(rows.clone()), "rows {rows:?}");
                let io = store.io_stats().snapshot().delta_since(&before);
                assert_eq!(io.masks_loaded, 1);
                assert_eq!(io.bytes_read, (format::MASK_HEADER_LEN + out.len()) as u64);
            }
            // Several bands: one after another, one mask loaded.
            let before = store.io_stats().snapshot();
            assert_eq!(
                store.read_rows(id, &[0..2, 5..6], &mut out).unwrap(),
                read(stamp)
            );
            assert_eq!(out, [stored_rows(0..2), stored_rows(5..6)].concat());
            assert_eq!(
                store
                    .io_stats()
                    .snapshot()
                    .delta_since(&before)
                    .masks_loaded,
                1
            );
            let before = store.io_stats().snapshot();
            assert_eq!(store.read_rows(id, &band(3..9), &mut out).unwrap(), None);
            assert_eq!(store.read_rows(id, &band(4..4), &mut out).unwrap(), None);
            assert_eq!(store.read_rows(id, &[0..1, 4..4], &mut out).unwrap(), None);
            assert_eq!(store.read_rows(id, &[], &mut out).unwrap(), read(stamp));
            let io = store.io_stats().snapshot().delta_since(&before);
            assert_eq!((io.masks_loaded, io.bytes_read), (0, 0));
            assert!(matches!(
                store.read_rows(MaskId::new(99), &band(0..1), &mut out),
                Err(StorageError::MaskNotFound(_))
            ));
        }
        drop(store);

        // The same database opened to write compressed blobs: old (raw)
        // masks still serve rows, new ones decline.
        let store = DurableMaskStore::open(&dir, small_config().encoding(MaskEncoding::Compressed))
            .unwrap();
        store.insert_masks(&batch(10..11)).unwrap();
        // Reopened: the mask carries the stamp of the pixels recovered.
        let recovered = store.get_stamped(id).unwrap().1;
        assert_eq!(recovered, RECOVERED);
        assert_eq!(
            store.read_rows(id, &band(2..5), &mut out).unwrap(),
            read(recovered)
        );
        assert_eq!(out, stored_rows(2..5));
        assert_eq!(
            store
                .read_rows(MaskId::new(10), &band(2..5), &mut out)
                .unwrap(),
            None
        );
        assert_eq!(store.get(MaskId::new(10)).unwrap(), mask(10));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A mask's pixels and the CHI its commit installs carry that commit's
    /// stamp; an overwrite restamps both, other masks keep theirs, and
    /// masks recovered at open carry [`RECOVERED`], which no commit has.
    #[test]
    fn stamps_follow_the_commit_that_installed_the_pixels() {
        let dir = temp_dir("stamps");
        let stamp_of = |store: &DurableMaskStore, id| {
            let id = MaskId::new(id);
            let pixels = store.get_stamped(id).unwrap().1;
            let index = store.chi_store().reader().get_stamped(id).unwrap().1;
            assert_eq!(pixels, index, "mask {id}");
            pixels
        };
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        let first = store.apply_batch(&batch(0..3), &[]).unwrap();
        assert_ne!(first, RECOVERED);
        assert_eq!(stamp_of(&store, 1), first);
        let second = store.apply_batch(&batch(1..2), &[MaskId::new(2)]).unwrap();
        assert!(second > first);
        assert_eq!((stamp_of(&store, 0), stamp_of(&store, 1)), (first, second));
        drop(store);
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        assert_eq!(stamp_of(&store, 0), RECOVERED);
        let third = store.apply_batch(&batch(0..1), &[]).unwrap();
        assert_ne!(third, RECOVERED);
        assert_eq!(
            (stamp_of(&store, 0), stamp_of(&store, 1)),
            (third, RECOVERED)
        );
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
        let pages_after_first = store.writer.lock().page_count;
        // Overwrite the same ids many times; the file must not grow without
        // bound because freed extents are reused.
        for round in 0..20u32 {
            let rewrite: Vec<(MaskRecord, Mask)> = (0..4)
                .map(|i| (record(i), mask(i as u32 + round)))
                .collect();
            store.insert_masks(&rewrite).unwrap();
        }
        let pages_after_rewrites = store.writer.lock().page_count;
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
    fn shape_mismatched_record_is_rejected() {
        let dir = temp_dir("shape");
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        let wrong = MaskRecord::builder(MaskId::new(1)).shape(16, 16).build();
        assert!(store.insert_masks(&[(wrong, mask(1))]).is_err());
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_commits_leave_directory_and_free_space_exactly_as_they_were() {
        let dir = temp_dir("failed-commit");
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        store.insert_masks(&batch(0..8)).unwrap();
        // Holes of several sizes, so allocation has runs to choose from.
        store
            .delete_masks(&[MaskId::new(1), MaskId::new(2), MaskId::new(5)])
            .unwrap();
        let snapshot = |store: &DurableMaskStore| {
            let writer = store.writer.lock();
            (
                writer.free.clone(),
                writer.page_count,
                writer.next_txn,
                store.state.read().dir.clone(),
            )
        };
        let before = snapshot(&store);

        // Validation errors, found after valid parts of the same batch.
        let wrong_shape = MaskRecord::builder(MaskId::new(21)).shape(16, 16).build();
        let mut bad = batch(20..21);
        bad.push((wrong_shape, mask(1)));
        assert!(store.apply_batch(&bad, &[MaskId::new(0)]).is_err());
        assert!(matches!(
            store.apply_batch(&batch(20..22), &[MaskId::new(0), MaskId::new(99)]),
            Err(StorageError::MaskNotFound(_))
        ));
        assert!(snapshot(&store) == before);

        // A failed WAL append: the batch was planned (extents from two free
        // runs and from extending the file, an id inserted twice), then the
        // disk was full.
        let healthy = std::mem::replace(
            &mut *store.wal.lock(),
            Wal::on_full_disk(store.config.page_size),
        );
        let mut planned = batch(20..26);
        planned.push((record(20), mask(77)));
        let failed = store.apply_batch(&planned, &[MaskId::new(0), MaskId::new(4)]);
        assert!(matches!(failed, Err(StorageError::Io { .. })), "{failed:?}");
        assert!(snapshot(&store) == before);
        assert_eq!(store.ids().len(), 5);
        assert_eq!(store.get(MaskId::new(4)).unwrap(), mask(4));

        // With the disk back, the same batch commits into the same extents
        // it would have had the failure never happened.
        *store.wal.lock() = healthy;
        store
            .apply_batch(&planned, &[MaskId::new(0), MaskId::new(4)])
            .unwrap();
        assert_eq!(store.get(MaskId::new(20)).unwrap(), mask(77));
        let after_retry = snapshot(&store);
        drop(store);
        let twin_dir = temp_dir("failed-commit-twin");
        let twin = DurableMaskStore::open(&twin_dir, small_config()).unwrap();
        twin.insert_masks(&batch(0..8)).unwrap();
        twin.delete_masks(&[MaskId::new(1), MaskId::new(2), MaskId::new(5)])
            .unwrap();
        twin.apply_batch(&planned, &[MaskId::new(0), MaskId::new(4)])
            .unwrap();
        assert!(snapshot(&twin) == after_retry);
        drop(twin);
        // And the log holds no trace of the failed attempts.
        let reopened = DurableMaskStore::open(&dir, small_config()).unwrap();
        assert!(snapshot(&reopened) == after_retry);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&twin_dir).unwrap();
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
        let idx_path = dir.join(meta_index_file(MetaColumn::ImageId));
        assert!(idx_path.exists());
        assert!(!dir.join(meta_index_file(MetaColumn::ModelId)).exists());
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            let registry = store.meta_indexes().unwrap();
            assert_eq!(registry.len(), 1);
            assert_eq!(
                registry.by_name("by_image").unwrap().column,
                MetaColumn::ImageId
            );
            assert!(registry.by_name("by_model").is_none());
        }
        // A torn file (external damage — writes go through temp+rename) is
        // discarded on open; the definition it held is gone, loudly absent.
        let full = fs::read(&idx_path).unwrap();
        fs::write(&idx_path, &full[..full.len() / 2]).unwrap();
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            assert!(store.meta_indexes().unwrap().is_empty());
        }
        assert!(!idx_path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `DROP INDEX` removes the definition file itself, with no checkpoint,
    /// and a reopen finds no definition.
    #[test]
    fn drop_index_removes_the_file() {
        let dir = temp_dir("meta-idx-drop");
        let idx_path = dir.join(meta_index_file(MetaColumn::ModelId));
        {
            let store = DurableMaskStore::open(&dir, small_config()).unwrap();
            store.insert_masks(&batch(0..4)).unwrap();
            let registry = store.meta_indexes().unwrap();
            registry
                .create("by_model", MetaColumn::ModelId, false)
                .unwrap();
            store.persist_meta_indexes().unwrap();
            assert!(idx_path.exists());
            registry.drop_index("by_model", false).unwrap();
            store.persist_meta_indexes().unwrap();
            assert!(!idx_path.exists());
            store.insert_masks(&batch(4..6)).unwrap();
        }
        let store = DurableMaskStore::open(&dir, small_config()).unwrap();
        assert!(store.meta_indexes().unwrap().is_empty());
        assert_eq!(store.len(), 6);
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
        // Pages 1, 2 and 4..=6 of a 7-page database are free.
        let mut free = FreeRuns::derive(7, [(3, 1)].into_iter()).unwrap();
        let mut page_count = 7u64;
        assert_eq!(free.allocate(&mut page_count, 3), 4);
        assert_eq!(free, FreeRuns::derive(7, [(3, 4)].into_iter()).unwrap());
        assert_eq!(free.allocate(&mut page_count, 2), 1);
        assert_eq!(free, FreeRuns::default());
        assert_eq!(free.allocate(&mut page_count, 2), 7);
        assert_eq!(page_count, 9);
    }
}
