//! Sessions: the long-lived object that owns the mask store, catalog, buffer
//! cache, and CHI store, and executes queries.
//!
//! A [`Session`] corresponds to the paper's "MaskSearch session" (§3.2,
//! §3.6): the CHI of each mask is held in memory for the lifetime of the
//! session, may be built eagerly up front (the *MS* configuration of the
//! evaluation), incrementally as masks are first touched by queries
//! (*MS-II*), or not at all (which makes the session behave like the NumPy
//! baseline — useful for cost comparisons inside one API).
//!
//! Sessions are also *writable*: [`Session::insert_masks`],
//! [`Session::update_masks`], [`Session::delete_masks`] and
//! [`Session::apply_transaction`] push batches through the store (durably,
//! when the store supports it), keep the CHI store and mask cache
//! consistent, and then publish a new [`ReadVersion`].
//!
//! ## What a statement sees
//!
//! A [`ReadVersion`] is the catalog plus the CHI store's indexes as of one
//! write batch, immutable once published. A statement pins the current one
//! when it starts (one `Arc` clone) and reads nothing else of either:
//! candidate resolution, grouping, every record and every CHI bound come
//! from that version, through cursors over its maps and without a lock, so
//! a statement sees each write batch whole or not at all, however long it
//! runs. Pixels are not versioned: a mask a statement loads is read as the
//! store holds it then (read-committed per mask), so a mask overwritten
//! after the statement pinned its version is bounded by its old index and,
//! if it still needs a load, counted on its new pixels; one deleted since
//! fails the statement with a load error.
//!
//! Writers never wait for readers. A write builds the next version off to
//! the side — the catalog and the CHI store copy only the map leaves and
//! chunks its batch touches (see `masksearch_storage::cow_map` and
//! `masksearch_index::store`) — and swaps it in; the version a reader still
//! holds is freed when its last reader lets go. Writers are serialised
//! among themselves.

use crate::error::{QueryError, QueryResult};
use crate::exec;
use crate::explain::{self, PlanNode};
use crate::merge;
use crate::mutation::{MaskUpdate, Mutation, MutationOutcome};
use crate::planner::{self, ExecPlan};
use crate::query::{MaskJoin, Query, QueryKind, Selection};
use crate::result::{QueryOutput, QueryStats};
use crate::spec::CpTerm;
use crate::verify::Verifier;
use masksearch_core::{ImageId, Mask, MaskAgg, MaskId, MaskRecord};
use masksearch_index::{
    build_chi_store, BuildOptions, Chi, ChiConfig, ChiReader, ChiStore, ChiVersion,
};
use masksearch_obs::counters as obs_counters;
use masksearch_storage::{
    CachedMask, Catalog, MaskCache, MaskStore, MetaColumn, MetaIndexRegistry, RECOVERED,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

/// When CHIs are built relative to query execution (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexingMode {
    /// Build the CHI of every catalogued mask when the session starts
    /// (the paper's vanilla "MS" configuration).
    Eager,
    /// Build the CHI of a mask the first time a query loads it
    /// (the paper's "MS-II" configuration).
    Incremental,
    /// Never build or use indexes; every query loads every targeted mask.
    Disabled,
}

/// Session configuration.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// CHI configuration (cell size and bin count).
    pub chi_config: ChiConfig,
    /// Indexing mode.
    pub indexing_mode: IndexingMode,
    /// Worker threads used by the filter/verification stages and bulk index
    /// builds.
    pub threads: usize,
    /// Byte budget of the decoded-mask buffer cache (0 disables caching,
    /// reproducing the paper's cold-cache setting). Explicit loads are
    /// always admitted; a verification miss only on the mask's second
    /// recent miss (see `masksearch_storage::cache`).
    pub cache_bytes: u64,
    /// When a query uses `roi = object` but a mask has no recorded object
    /// box: fall back to the full mask (`true`) or fail the query (`false`).
    pub object_box_fallback: bool,
}

impl SessionConfig {
    /// Creates a configuration with the given CHI parameters and defaults:
    /// incremental indexing, all available threads, no mask cache.
    pub fn new(chi_config: ChiConfig) -> Self {
        Self {
            chi_config,
            indexing_mode: IndexingMode::Incremental,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_bytes: 0,
            object_box_fallback: true,
        }
    }

    /// Sets the indexing mode.
    pub fn indexing_mode(mut self, mode: IndexingMode) -> Self {
        self.indexing_mode = mode;
        self
    }

    /// Sets the number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the buffer-cache byte budget.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Sets the missing-object-box policy.
    pub fn object_box_fallback(mut self, fallback: bool) -> Self {
        self.object_box_fallback = fallback;
        self
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self::new(ChiConfig::default())
    }
}

/// What a statement reads: the catalog and the CHI store's indexes as of one
/// write batch (see the module docs). Pinned with
/// [`Session::read_version`]; nothing a later write does changes it.
#[derive(Debug)]
pub struct ReadVersion {
    catalog: Catalog,
    /// `None` when indexing is disabled.
    chi: Option<ChiReader>,
    /// Write batches published before this version.
    writes: u64,
}

impl ReadVersion {
    /// The catalog as of this version.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The per-mask indexes as of this version; `None` when indexing is
    /// disabled.
    pub fn chi(&self) -> Option<&ChiVersion> {
        self.chi.as_deref()
    }

    /// How many write batches the session had published when this version
    /// was: the committed prefix it reflects.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The catalog record of a mask, or an error if this version has none.
    pub fn record(&self, mask_id: MaskId) -> QueryResult<&MaskRecord> {
        self.catalog
            .get(mask_id)
            .ok_or(QueryError::UnknownMask(mask_id))
    }
}

/// A MaskSearch session: storage + catalog + indexes + query execution +
/// write path.
pub struct Session {
    store: Arc<dyn MaskStore>,
    /// The published read version. Its lock is held only to clone or swap
    /// the pointer.
    version: RwLock<Arc<ReadVersion>>,
    config: SessionConfig,
    chi: Arc<ChiStore>,
    /// When the store maintains `chi` itself on commit (the durable mask
    /// database does), the session skips its own index maintenance on writes
    /// instead of rebuilding the same CHIs a second time.
    chi_maintained_by_store: bool,
    cache: MaskCache,
    /// Indexes over *aggregated* masks (one per `MASK_AGG` signature), keyed
    /// inside each store by the image id (§3.4).
    agg_indexes: RwLock<HashMap<String, Arc<ChiStore>>>,
    /// Serialises whole write operations. Without it, two concurrent writes
    /// to the same mask id could commit to the store in one order and
    /// publish their catalog records in the other, leaving a record that
    /// describes a different write's pixels. Readers never take it.
    writes: Mutex<()>,
    /// Secondary metadata index definitions. Shared with the store when the
    /// store persists them across restarts (the durable mask database);
    /// otherwise private to this session's lifetime.
    meta_indexes: Arc<MetaIndexRegistry>,
}

/// How one candidate resolution answered a metadata selection: through a
/// secondary index (probes + pre-verification row count) or a catalog scan.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolveTrace {
    /// Secondary-index point probes issued (one per probed value).
    pub index_probes: u64,
    /// Mask ids the probes returned before re-verification.
    pub index_rows: u64,
    /// Name of the index used, `None` on the scan path.
    pub index_name: Option<String>,
    /// `true` when the selection constrained at least one indexable
    /// metadata column — the gate for the planner's index-on/off counters.
    pub constrained: bool,
}

impl ResolveTrace {
    /// Folds this resolution into a query's statistics.
    pub fn apply(&self, stats: &mut QueryStats) {
        stats.index_probes += self.index_probes;
        stats.index_rows += self.index_rows;
        if self.constrained {
            if self.index_name.is_some() {
                stats.planner_index_on += 1;
            } else {
                stats.planner_index_off += 1;
            }
        }
    }
}

/// A resolved index-selection decision: which index to probe with which
/// key values.
struct IndexChoice {
    name: String,
    column: MetaColumn,
    values: Vec<u64>,
}

/// The equality key values `selection` constrains `column` to, as the raw
/// `u64` keys the catalog's secondary maps are probed with. `None` when the
/// selection leaves the column unconstrained.
fn selection_values(selection: &Selection, column: MetaColumn) -> Option<Vec<u64>> {
    let mut values = match column {
        MetaColumn::ImageId => selection
            .image_ids
            .as_ref()
            .map(|ids| ids.iter().map(|i| i.raw()).collect::<Vec<u64>>())?,
        MetaColumn::ModelId => vec![selection.model_id?.raw()],
        MetaColumn::MaskType => selection
            .mask_types
            .as_ref()
            .map(|types| types.iter().map(|t| t.to_code() as u64).collect())?,
        MetaColumn::PredictedLabel => selection
            .predicted_labels
            .as_ref()
            .map(|labels| labels.iter().map(|l| l.raw()).collect())?,
    };
    values.sort_unstable();
    values.dedup();
    Some(values)
}

/// Whether the selection constrains any indexable metadata column.
fn has_meta_constraint(selection: &Selection) -> bool {
    MetaColumn::ALL
        .into_iter()
        .any(|c| selection_values(selection, c).is_some())
}

impl Session {
    /// Creates a session. In [`IndexingMode::Eager`] this builds the CHI of
    /// every catalogued mask up front (charging the store's cost model, as
    /// the paper attributes up-front indexing cost to the 0-th query).
    pub fn new(
        store: Arc<dyn MaskStore>,
        catalog: Catalog,
        config: SessionConfig,
    ) -> QueryResult<Self> {
        let chi = match config.indexing_mode {
            IndexingMode::Eager => {
                let ids = catalog.mask_ids();
                build_chi_store(
                    store.as_ref(),
                    &ids,
                    config.chi_config,
                    BuildOptions {
                        threads: config.threads,
                    },
                )?
            }
            _ => ChiStore::new(config.chi_config),
        };
        Ok(Self::assemble(store, catalog, config, Arc::new(chi), false))
    }

    fn assemble(
        store: Arc<dyn MaskStore>,
        catalog: Catalog,
        config: SessionConfig,
        chi: Arc<ChiStore>,
        chi_maintained_by_store: bool,
    ) -> Self {
        let version = ReadVersion {
            catalog,
            chi: (config.indexing_mode != IndexingMode::Disabled).then(|| chi.reader()),
            writes: 0,
        };
        Self {
            cache: MaskCache::new(config.cache_bytes),
            meta_indexes: store.meta_indexes().unwrap_or_default(),
            store,
            version: RwLock::new(Arc::new(version)),
            config,
            chi,
            chi_maintained_by_store,
            agg_indexes: RwLock::new(HashMap::new()),
            writes: Mutex::new(()),
        }
    }

    /// Creates a session around an existing CHI store (e.g. loaded from a
    /// previous session's persisted index file). Its indexes bound the
    /// filter stage; verification counts by CHI cell only where an index's
    /// stamp is that of the pixels counted, so one read from a file
    /// (stamped `RECOVERED`) never counts pixels a commit installed.
    pub fn with_index(
        store: Arc<dyn MaskStore>,
        catalog: Catalog,
        config: SessionConfig,
        chi: ChiStore,
    ) -> Self {
        Self::assemble(store, catalog, config, Arc::new(chi), false)
    }

    /// Creates a session over a store that maintains the shared CHI store
    /// itself on every commit (the durable mask database of `masksearch-db`).
    /// The session then uses `chi` for filtering but leaves index
    /// maintenance on writes to the store, avoiding duplicate CHI builds.
    pub fn with_store_maintained_index(
        store: Arc<dyn MaskStore>,
        catalog: Catalog,
        config: SessionConfig,
        chi: Arc<ChiStore>,
    ) -> Self {
        Self::assemble(store, catalog, config, chi, true)
    }

    /// Pins the current read version (see the module docs): one `Arc`
    /// clone under a lock held only that long by readers and only for a
    /// pointer swap by a writer. Any wait is charged to the catalog
    /// lock-contention counters.
    pub fn read_version(&self) -> Arc<ReadVersion> {
        obs_counters::timed_acquire(
            &obs_counters::CATALOG_READ_WAIT_US,
            &obs_counters::CATALOG_LOCK_ACQUIRES,
            || self.version.try_read(),
            || self.version.read(),
        )
        .clone()
    }

    /// Publishes `catalog`, with the CHI store's current indexes, as the
    /// next read version. The superseded one is freed by its last reader.
    fn publish(&self, catalog: Catalog, writes: u64) {
        let next = Arc::new(ReadVersion {
            catalog,
            chi: (self.config.indexing_mode != IndexingMode::Disabled).then(|| self.chi.reader()),
            writes,
        });
        let superseded = {
            let mut slot = obs_counters::timed_acquire(
                &obs_counters::CATALOG_WRITE_WAIT_US,
                &obs_counters::CATALOG_LOCK_ACQUIRES,
                || self.version.try_write(),
                || self.version.write(),
            );
            std::mem::replace(&mut *slot, next)
        };
        drop(superseded);
    }

    /// A point-in-time copy of the session's catalog.
    pub fn catalog(&self) -> Catalog {
        self.read_version().catalog.clone()
    }

    /// Number of catalogued masks.
    pub fn catalog_len(&self) -> usize {
        self.read_version().catalog.len()
    }

    /// The session's mask store.
    pub fn store(&self) -> &Arc<dyn MaskStore> {
        &self.store
    }

    /// Caps the filter/verification worker threads (floor 1).
    ///
    /// Embedding layers that multiplex several concurrent queries over one
    /// session — e.g. a service engine with several execution slots — use this
    /// to divide the machine's cores among those queries instead of letting
    /// each query claim all of them.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The per-mask CHI store.
    pub fn chi_store(&self) -> &ChiStore {
        &self.chi
    }

    /// The decoded-mask buffer cache.
    pub fn cache(&self) -> &MaskCache {
        &self.cache
    }

    /// Number of masks currently indexed.
    pub fn indexed_masks(&self) -> usize {
        self.chi.len()
    }

    /// Total bytes of all in-memory indexes (per-mask plus aggregated).
    pub fn index_bytes(&self) -> u64 {
        let agg: u64 = self
            .agg_indexes
            .read()
            .values()
            .map(|s| s.total_bytes())
            .sum();
        self.chi.total_bytes() + agg
    }

    /// Persists the per-mask index to a file ("when a MaskSearch session
    /// ends, the CHI for all the masks in the session is persisted to disk",
    /// §3.6).
    pub fn persist_index(&self, path: impl AsRef<Path>) -> QueryResult<()> {
        self.chi.save(path).map_err(QueryError::from)
    }

    /// Loads a per-mask index file produced by [`Session::persist_index`].
    pub fn load_index_file(path: impl AsRef<Path>) -> QueryResult<ChiStore> {
        ChiStore::load(path).map_err(QueryError::from)
    }

    /// The current catalog record of a mask, or an error if unknown.
    /// Executors borrow records from the version their statement pinned.
    pub fn record(&self, mask_id: MaskId) -> QueryResult<MaskRecord> {
        self.read_version().record(mask_id).cloned()
    }

    /// A copy of the CHI of a mask, if one exists and indexing is enabled.
    /// Executors bound candidates through their pinned version's cursors,
    /// which copy nothing.
    pub fn chi_for(&self, mask_id: MaskId) -> Option<Arc<Chi>> {
        if self.config.indexing_mode == IndexingMode::Disabled {
            return None;
        }
        self.chi.get(mask_id)
    }

    /// Loads a mask through the buffer cache.
    pub fn load_mask(&self, mask_id: MaskId) -> QueryResult<Arc<Mask>> {
        Ok(self.load_stamped(mask_id)?.mask)
    }

    /// Loads a mask through the buffer cache with the stamp of its pixels.
    fn load_stamped(&self, mask_id: MaskId) -> QueryResult<CachedMask> {
        self.cache
            .get_or_load(mask_id, || self.store.get_stamped(mask_id))
            .map_err(QueryError::from)
    }

    /// The verification step of a single-mask statement: exact values of
    /// `terms` mask by mask, counted on the resident copy, in place off the
    /// stored rows, or on the mask loaded whole (see [`crate::verify`]).
    pub(crate) fn verifier<'a>(
        &'a self,
        version: &'a ReadVersion,
        terms: Vec<&'a CpTerm>,
    ) -> Verifier<'a> {
        Verifier::new(self, version, terms)
    }

    /// Loads a mask and, in incremental mode, builds and retains its CHI
    /// (§3.6), stamped like the pixels it was built from. Returns the mask
    /// with its stamp and whether an index was built.
    pub fn load_and_index(&self, mask_id: MaskId) -> QueryResult<(CachedMask, bool)> {
        // Snapshot the CHI removal generation before loading: if a write
        // evicts this mask's index while we hold pre-write pixels, the
        // guarded install below refuses to put stale bounds in the index.
        let chi_generation = self.chi.removal_generation();
        let mask = self.load_stamped(mask_id)?;
        let built = self.config.indexing_mode == IndexingMode::Incremental
            && !self.chi.contains(mask_id)
            && self
                .chi
                .index_mask_if_current(mask_id, &mask.mask, mask.stamp, chi_generation);
        if built {
            self.republish_indexes();
        }
        Ok((mask, built))
    }

    /// Publishes the current catalog with the CHI store's latest indexes,
    /// so the next statement bounds what this one indexed. Skipped while a
    /// write is in progress: its own publication carries them.
    fn republish_indexes(&self) {
        let Some(_writes) = self.writes.try_lock() else {
            return;
        };
        let current = self.read_version();
        self.publish(current.catalog.clone(), current.writes);
    }

    /// Commits a write batch — upserts and deletes, disjoint — to the
    /// store in one commit, then refreshes the mask cache, installs the
    /// batch's indexes stamped like the commit when the session maintains
    /// them (one CHI version: evictions and installs together), and
    /// publishes the next read version. The caller holds the write lock;
    /// `current` is the version the batch was planned on.
    fn commit_batch(
        &self,
        current: &ReadVersion,
        upserts: &[(MaskRecord, Mask)],
        deletes: &[MaskId],
    ) -> QueryResult<()> {
        // Indexes are built before the commit, outside every lock.
        let built: Vec<(MaskId, Chi)> = if !self.chi_maintained_by_store
            && self.config.indexing_mode != IndexingMode::Disabled
        {
            upserts
                .iter()
                .map(|(record, mask)| (record.mask_id, Chi::build(mask, &self.config.chi_config)))
                .collect()
        } else {
            Vec::new()
        };
        let stamp = self.store.apply_batch(upserts, deletes)?;
        for &id in deletes {
            self.cache.invalidate(id);
        }
        for (record, mask) in upserts {
            self.cache.refresh(record.mask_id, mask, stamp);
        }
        if !self.chi_maintained_by_store {
            // Overwritten ids are evicted with the deleted ones: the
            // generation bump keeps an incremental build from pixels loaded
            // before this commit out of the index.
            let evicted: Vec<MaskId> = upserts
                .iter()
                .map(|(record, _)| record.mask_id)
                .chain(deletes.iter().copied())
                .collect();
            self.chi.apply(&evicted, built, stamp);
        }
        let mut catalog = current.catalog.clone();
        for &id in deletes {
            catalog.remove(id);
        }
        for (record, _) in upserts {
            catalog.insert(record.clone());
        }
        self.publish(catalog, current.writes + 1);
        // Aggregated-mask indexes are built over group contents; any write
        // can invalidate them, so they are dropped and rebuilt on demand.
        self.agg_indexes.write().clear();
        Ok(())
    }

    /// Inserts (or overwrites) a batch of masks with their catalog records.
    ///
    /// The store commit happens first (atomically, and durably when the
    /// store is durable), then the CHI store and mask cache are brought up to
    /// date, and finally the next read version is published — so a
    /// statement sees either none or all of the batch (see the module
    /// docs).
    pub fn insert_masks(&self, batch: &[(MaskRecord, Mask)]) -> QueryResult<usize> {
        if batch.is_empty() {
            return Ok(0);
        }
        let _writes = self.writes.lock();
        self.commit_batch(&self.read_version(), batch, &[])?;
        Ok(batch.len())
    }

    /// The post-image of one update applied to the mask's current state —
    /// `current` when the mask was already rewritten earlier in the same
    /// statement or transaction, the committed catalog + store state
    /// otherwise. Fails with [`QueryError::UnknownMask`] before any side
    /// effect when the target does not exist. The old pixels are read only
    /// when the update keeps them: new pixels replace every one.
    fn updated_entry(
        &self,
        current: Option<&(MaskRecord, Mask)>,
        catalog: &Catalog,
        update: &MaskUpdate,
    ) -> QueryResult<(MaskRecord, Mask)> {
        let mut record = match current {
            Some((record, _)) => record.clone(),
            None => catalog
                .get(update.mask_id)
                .cloned()
                .ok_or(QueryError::UnknownMask(update.mask_id))?,
        };
        let mask = if let Some(pixels) = &update.pixels {
            let (width, height) = update.shape.unwrap_or((record.width, record.height));
            if (width as usize) * (height as usize) != pixels.len() {
                return Err(QueryError::invalid(format!(
                    "UPDATE of mask {} sets {} pixels but the mask shape is {}x{}",
                    update.mask_id,
                    pixels.len(),
                    width,
                    height
                )));
            }
            if (width, height) != (record.width, record.height) {
                // A reshape can leave the recorded object box outside the
                // new mask; drop it rather than let ROI resolution read
                // out of bounds.
                if let Some(roi) = record.object_box {
                    if roi.x1() > width || roi.y1() > height {
                        record.object_box = None;
                    }
                }
            }
            record.width = width;
            record.height = height;
            Mask::new(width, height, pixels.clone())?
        } else if update.shape.is_some() {
            return Err(QueryError::invalid(
                "UPDATE cannot change a mask's shape without new pixels",
            ));
        } else {
            match current {
                Some((_, mask)) => mask.clone(),
                None => self.store.get(update.mask_id)?,
            }
        };
        if let Some(model_id) = update.model_id {
            record.model_id = model_id;
        }
        if let Some(mask_type) = update.mask_type {
            record.mask_type = mask_type;
        }
        if let Some(label) = update.predicted_label {
            record.predicted_label = Some(label);
        }
        if let Some(label) = update.true_label {
            record.true_label = Some(label);
        }
        Ok((record, mask))
    }

    /// Updates masks in place: re-masked pixels and/or new metadata ride the
    /// insert path (store commit → cache refresh → CHI and catalog published
    /// as one version), so the CHI and the catalog's secondary maps stay
    /// atomic with the pixels. Unknown targets fail before any side effect;
    /// repeated updates of one mask within the slice compose in order.
    pub fn update_masks(&self, updates: &[MaskUpdate]) -> QueryResult<usize> {
        if updates.is_empty() {
            return Ok(0);
        }
        let _writes = self.writes.lock();
        let current = self.read_version();
        let batch: Vec<(MaskRecord, Mask)> = {
            let mut pending: BTreeMap<MaskId, (MaskRecord, Mask)> = BTreeMap::new();
            for update in updates {
                let entry =
                    self.updated_entry(pending.get(&update.mask_id), &current.catalog, update)?;
                pending.insert(update.mask_id, entry);
            }
            pending.into_values().collect()
        };
        self.commit_batch(&current, &batch, &[])?;
        Ok(updates.len())
    }

    /// Defines a secondary metadata index. Returns `true` when a new
    /// definition was created (`false` when `IF NOT EXISTS` swallowed a
    /// duplicate); persisted immediately when the store keeps index files,
    /// and undone if that fails.
    pub fn create_index(
        &self,
        name: &str,
        column: MetaColumn,
        if_not_exists: bool,
    ) -> QueryResult<bool> {
        let _writes = self.writes.lock();
        let created = self
            .meta_indexes
            .create(name, column, if_not_exists)
            .map_err(QueryError::invalid)?;
        if created {
            if let Err(e) = self.store.persist_meta_indexes() {
                let _ = self.meta_indexes.drop_index(name, true);
                return Err(e.into());
            }
        }
        Ok(created)
    }

    /// Drops a secondary metadata index by name. Returns `true` when a
    /// definition was removed (`false` when `IF EXISTS` swallowed a miss);
    /// the drop is undone if persisting it fails.
    pub fn drop_index(&self, name: &str, if_exists: bool) -> QueryResult<bool> {
        let _writes = self.writes.lock();
        let def = self.meta_indexes.by_name(name);
        let dropped = self
            .meta_indexes
            .drop_index(name, if_exists)
            .map_err(QueryError::invalid)?;
        if let (true, Some(def)) = (dropped, def) {
            if let Err(e) = self.store.persist_meta_indexes() {
                let _ = self.meta_indexes.create(&def.name, def.column, true);
                return Err(e.into());
            }
        }
        Ok(dropped)
    }

    /// The session's secondary metadata index registry.
    pub fn meta_indexes(&self) -> &Arc<MetaIndexRegistry> {
        &self.meta_indexes
    }

    /// Deletes a batch of masks.
    ///
    /// The ids are deduplicated and validated against the catalog first
    /// (failing with [`QueryError::UnknownMask`] before any side effect).
    /// Then the store delete commits, and only then is a version without
    /// the masks (records and indexes) published — so a store failure
    /// changes nothing a reader sees.
    ///
    /// Isolation note: a statement that pinned a version *before* the
    /// delete may still try to load a deleted mask and fail with a storage
    /// not-found error. That is deliberate — failing loudly and letting the
    /// caller retry beats silently returning a result that mixes pre- and
    /// post-delete state.
    pub fn delete_masks(&self, mask_ids: &[MaskId]) -> QueryResult<usize> {
        if mask_ids.is_empty() {
            return Ok(0);
        }
        let _writes = self.writes.lock();
        // Deduplicate: `DELETE ... WHERE mask_id IN (5, 5)` means one
        // delete, and a duplicate must not make the store's batch fail
        // halfway.
        let ids: Vec<MaskId> = {
            let mut seen = std::collections::BTreeSet::new();
            mask_ids
                .iter()
                .copied()
                .filter(|id| seen.insert(*id))
                .collect()
        };
        let current = self.read_version();
        for &id in &ids {
            current.record(id)?;
        }
        // Store first, version second: if the store delete fails, readers
        // still see what the store holds. Publishing first would leave
        // permanently orphaned pixels on a store error.
        self.commit_batch(&current, &[], &ids)?;
        Ok(ids.len())
    }

    /// Applies a lowered write statement.
    pub fn apply(&self, mutation: &Mutation) -> QueryResult<MutationOutcome> {
        match mutation {
            Mutation::Insert(batch) => Ok(MutationOutcome {
                inserted: self.insert_masks(batch)?,
                ..Default::default()
            }),
            Mutation::Delete(ids) => Ok(MutationOutcome {
                deleted: self.delete_masks(ids)?,
                ..Default::default()
            }),
            Mutation::Update(updates) => Ok(MutationOutcome {
                updated: self.update_masks(updates)?,
                ..Default::default()
            }),
            Mutation::CreateIndex {
                name,
                column,
                if_not_exists,
            } => {
                self.create_index(name, *column, *if_not_exists)?;
                Ok(MutationOutcome::default())
            }
            Mutation::DropIndex { name, if_exists } => {
                self.drop_index(name, *if_exists)?;
                Ok(MutationOutcome::default())
            }
        }
    }

    /// Applies a `BEGIN ... COMMIT` block of write statements atomically.
    ///
    /// The statements are first *simulated* against the committed state
    /// under the write lock — later statements observe earlier ones, and
    /// any validation error (unknown mask, malformed update, DDL inside the
    /// block) rejects the whole transaction before a single side effect.
    /// The surviving net effect — one batch of upserts plus one batch of
    /// deletes, disjoint by construction — is then applied through
    /// [`MaskStore::apply_batch`], which durable stores publish in a single
    /// commit frame: a crash at any byte recovers all of the transaction or
    /// none of it.
    pub fn apply_transaction(&self, mutations: &[Mutation]) -> QueryResult<MutationOutcome> {
        if mutations.is_empty() {
            return Ok(MutationOutcome::default());
        }
        let _writes = self.writes.lock();
        let current = self.read_version();
        let mut outcome = MutationOutcome::default();
        let mut upserts: BTreeMap<MaskId, (MaskRecord, Mask)> = BTreeMap::new();
        let mut deletes: BTreeSet<MaskId> = BTreeSet::new();
        {
            let catalog = &current.catalog;
            for mutation in mutations {
                match mutation {
                    Mutation::Insert(batch) => {
                        for (record, mask) in batch {
                            deletes.remove(&record.mask_id);
                            upserts.insert(record.mask_id, (record.clone(), mask.clone()));
                        }
                        outcome.inserted += batch.len();
                    }
                    Mutation::Delete(ids) => {
                        let mut seen = BTreeSet::new();
                        for &id in ids {
                            if !seen.insert(id) {
                                continue;
                            }
                            let was_pending = upserts.remove(&id).is_some();
                            let in_catalog = !deletes.contains(&id) && catalog.get(id).is_some();
                            if !was_pending && !in_catalog {
                                return Err(QueryError::UnknownMask(id));
                            }
                            // Only masks the committed state knows need a
                            // store delete; a pending insert that never
                            // committed just evaporates.
                            if catalog.get(id).is_some() {
                                deletes.insert(id);
                            }
                            outcome.deleted += 1;
                        }
                    }
                    Mutation::Update(updates) => {
                        for update in updates {
                            if deletes.contains(&update.mask_id)
                                && !upserts.contains_key(&update.mask_id)
                            {
                                return Err(QueryError::UnknownMask(update.mask_id));
                            }
                            let entry =
                                self.updated_entry(upserts.get(&update.mask_id), catalog, update)?;
                            upserts.insert(update.mask_id, entry);
                        }
                        outcome.updated += updates.len();
                    }
                    Mutation::CreateIndex { .. } | Mutation::DropIndex { .. } => {
                        return Err(QueryError::invalid(
                            "index DDL is not allowed inside a transaction",
                        ));
                    }
                }
            }
        }
        let inserts: Vec<(MaskRecord, Mask)> = upserts.into_values().collect();
        let delete_ids: Vec<MaskId> = deletes.into_iter().collect();
        if inserts.is_empty() && delete_ids.is_empty() {
            return Ok(outcome);
        }
        self.commit_batch(&current, &inserts, &delete_ids)?;
        Ok(outcome)
    }

    /// Picks the cheapest applicable secondary index for a conjunction of
    /// selections, or `None` when no defined index covers a constrained
    /// column — or when the catalog's own posting-list lengths estimate the
    /// probe no better than half a scan (a near-unselective probe still
    /// pays the sort/dedup/re-verify tax on top of touching most records).
    fn choose_index(&self, catalog: &Catalog, selections: &[&Selection]) -> Option<IndexChoice> {
        if self.meta_indexes.is_empty() {
            return None;
        }
        let mut best: Option<(IndexChoice, usize)> = None;
        for def in self.meta_indexes.list() {
            let Some(values) = selections
                .iter()
                .find_map(|s| selection_values(s, def.column))
            else {
                continue;
            };
            let est: usize = values
                .iter()
                .map(|&v| def.column.estimate(catalog, v))
                .sum();
            if est * 2 > catalog.len() {
                continue;
            }
            if best.as_ref().is_none_or(|(_, b)| est < *b) {
                best = Some((
                    IndexChoice {
                        name: def.name,
                        column: def.column,
                        values,
                    },
                    est,
                ));
            }
        }
        best.map(|(choice, _)| choice)
    }

    /// The index (by name) the planner would probe for a conjunction of
    /// selections — the `EXPLAIN` face of [`Session::choose_index`], so the
    /// displayed access path and the executed one come from one decision.
    pub(crate) fn index_access_for(&self, selections: &[&Selection]) -> Option<String> {
        if self.meta_indexes.is_empty() {
            return None;
        }
        self.choose_index(&self.read_version().catalog, selections)
            .map(|c| c.name)
    }

    /// Resolves a conjunction of selections to the ascending list of
    /// matching mask ids, probing a secondary index when one applies.
    ///
    /// The probe path is byte-identical to the scan: posting lists are
    /// ascending per value, so their merged sort/dedup matches
    /// [`Catalog::filter`]'s BTreeMap order, and every probed id is
    /// re-verified against the *full* conjunction (the index only covers
    /// one column). The differential oracle in `tests/` holds this equality
    /// across every query shape.
    fn resolve_conjunction(
        &self,
        catalog: &Catalog,
        selections: &[&Selection],
    ) -> (Vec<MaskId>, ResolveTrace) {
        let constrained = selections.iter().any(|s| has_meta_constraint(s));
        let matches = |r: &MaskRecord| selections.iter().all(|s| s.matches(r));
        if let Some(choice) = self.choose_index(catalog, selections) {
            let mut ids: Vec<MaskId> = Vec::new();
            for &value in &choice.values {
                ids.extend(choice.column.probe(catalog, value));
            }
            ids.sort_unstable();
            ids.dedup();
            let index_rows = ids.len() as u64;
            ids.retain(|&id| catalog.get(id).is_some_and(matches));
            obs_counters::add(&obs_counters::META_INDEX_PROBES, choice.values.len() as u64);
            (
                ids,
                ResolveTrace {
                    index_probes: choice.values.len() as u64,
                    index_rows,
                    index_name: Some(choice.name),
                    constrained,
                },
            )
        } else {
            obs_counters::incr(&obs_counters::CATALOG_SCANS);
            (
                catalog.filter(|r| matches(r)),
                ResolveTrace {
                    constrained,
                    ..Default::default()
                },
            )
        }
    }

    /// Resolves a selection into the sorted list of targeted mask ids, on
    /// the current read version: concurrent write batches are observed
    /// entirely or not at all.
    pub fn resolve_selection(&self, selection: &Selection) -> Vec<MaskId> {
        self.resolve_selection_at(&self.read_version(), selection).0
    }

    /// [`Session::resolve_selection`] on a pinned version, plus how the
    /// resolution was answered (index probe vs catalog scan), for the
    /// query's statistics.
    pub(crate) fn resolve_selection_at(
        &self,
        version: &ReadVersion,
        selection: &Selection,
    ) -> (Vec<MaskId>, ResolveTrace) {
        self.resolve_conjunction(&version.catalog, &[selection])
    }

    /// Groups targeted masks by image id, on the current read version.
    pub fn group_by_image(&self, mask_ids: &[MaskId]) -> Vec<(ImageId, Vec<MaskId>)> {
        self.read_version().catalog.group_by_image(mask_ids)
    }

    /// Resolves a pair query's candidates: for each image, the smallest mask
    /// id matching `selection ∧ join.left` and the smallest matching
    /// `selection ∧ join.right`; images where either side fails to bind are
    /// skipped. Ascending by image id, on the current read version (the
    /// candidate set reflects whole write batches only).
    pub fn resolve_pairs(
        &self,
        selection: &Selection,
        join: &MaskJoin,
    ) -> Vec<(ImageId, MaskId, MaskId)> {
        self.resolve_pairs_at(&self.read_version(), selection, join)
            .0
    }

    /// [`Session::resolve_pairs`] on a pinned version, plus how each side's
    /// resolution was answered (index probe vs catalog scan), for the
    /// query's statistics.
    pub(crate) fn resolve_pairs_at(
        &self,
        version: &ReadVersion,
        selection: &Selection,
        join: &MaskJoin,
    ) -> (Vec<(ImageId, MaskId, MaskId)>, ResolveTrace, ResolveTrace) {
        let catalog = &version.catalog;
        // Each side resolves `selection ∧ join.side`; the lists come back
        // ascending by mask id (from the scan or the re-verified probe), so
        // the first id seen per image is the smallest — the deterministic
        // binding rule.
        let (left_ids, left_trace) = self.resolve_conjunction(catalog, &[selection, &join.left]);
        let (right_ids, right_trace) = self.resolve_conjunction(catalog, &[selection, &join.right]);
        let mut left: BTreeMap<ImageId, MaskId> = BTreeMap::new();
        let mut right: BTreeMap<ImageId, MaskId> = BTreeMap::new();
        for id in left_ids {
            if let Some(r) = catalog.get(id) {
                left.entry(r.image_id).or_insert(id);
            }
        }
        for id in right_ids {
            if let Some(r) = catalog.get(id) {
                right.entry(r.image_id).or_insert(id);
            }
        }
        let pairs = left
            .into_iter()
            .filter_map(|(image, l)| right.get(&image).map(|&r| (image, l, r)))
            .collect();
        (pairs, left_trace, right_trace)
    }

    /// Signature string identifying an aggregated-mask index: the aggregation
    /// function plus the selection whose groups it was built over.
    pub(crate) fn aggregate_signature(agg: &MaskAgg, selection: &Selection) -> String {
        format!("{agg:?}|{selection:?}")
    }

    /// Pre-builds the CHI of every aggregated mask for a `MASK_AGG` query
    /// shape (§3.4: "the index for the aggregated masks is either built ahead
    /// of time or incrementally built"). The inner store is keyed by image
    /// id (as a raw [`MaskId`]).
    pub fn build_aggregate_index(&self, agg: &MaskAgg, selection: &Selection) -> QueryResult<()> {
        let version = self.read_version();
        let ids = self.resolve_selection_at(&version, selection).0;
        let groups = version.catalog.group_by_image(&ids);
        let agg_store = ChiStore::new(self.config.chi_config);
        for (image_id, member_ids) in groups {
            let mut masks = Vec::with_capacity(member_ids.len());
            for id in &member_ids {
                masks.push(self.load_mask(*id)?);
            }
            let refs: Vec<&Mask> = masks.iter().map(|m| m.as_ref()).collect();
            let aggregated = agg.apply(&refs)?;
            agg_store.index_mask(MaskId::new(image_id.raw()), &aggregated);
        }
        self.agg_indexes.write().insert(
            Self::aggregate_signature(agg, selection),
            Arc::new(agg_store),
        );
        Ok(())
    }

    /// Looks up an aggregated-mask index by signature.
    pub(crate) fn aggregate_index(&self, signature: &str) -> Option<Arc<ChiStore>> {
        if self.config.indexing_mode == IndexingMode::Disabled {
            return None;
        }
        self.agg_indexes.read().get(signature).cloned()
    }

    /// Adds aggregated-mask indexes (keyed by image id) to the index of a
    /// signature, creating it if needed: the incremental build of §3.4,
    /// installed as one version per statement.
    pub(crate) fn insert_aggregate_chis(&self, signature: &str, chis: Vec<(ImageId, Chi)>) {
        if chis.is_empty() {
            return;
        }
        let mut indexes = self.agg_indexes.write();
        let store = indexes
            .entry(signature.to_string())
            .or_insert_with(|| Arc::new(ChiStore::new(self.config.chi_config)));
        // Aggregated masks are no commit's pixels: their indexes only bound.
        store.apply(
            &[],
            chis.into_iter()
                .map(|(image_id, chi)| (MaskId::new(image_id.raw()), chi)),
            RECOVERED,
        );
    }

    /// Executes a query on the current read version, dispatching on its
    /// kind.
    pub fn execute(&self, query: &Query) -> QueryResult<QueryOutput> {
        self.execute_at(&self.read_version(), query)
    }

    /// Executes a query on a pinned read version (see
    /// [`Session::read_version`]): its candidates, records and bounds are
    /// that version's whatever has been written since.
    pub fn execute_at(&self, version: &ReadVersion, query: &Query) -> QueryResult<QueryOutput> {
        // Pair queries resolve their own image-keyed candidate set; don't
        // pay a full catalog scan for a mask-id list they never read.
        if matches!(
            query.kind,
            QueryKind::PairFilter { .. } | QueryKind::PairTopK { .. }
        ) {
            return self.execute_resolved(version, query, &[]);
        }
        let resolve_start = std::time::Instant::now();
        let (candidates, trace) = {
            let _resolve = masksearch_obs::span("resolve");
            self.resolve_selection_at(version, &query.selection)
        };
        let resolve_wall = resolve_start.elapsed();
        let mut output = self.execute_resolved(version, query, &candidates)?;
        trace.apply(&mut output.stats);
        // Resolution runs before the executor starts its clock; charge it
        // so `total_wall` (and the modelled query time) covers the stage a
        // metadata index exists to shrink.
        output.stats.resolve_wall = resolve_wall;
        output.stats.total_wall += resolve_wall;
        Ok(output)
    }

    /// Plans a query without executing it: the access path the candidate
    /// resolution takes. Nothing is resolved or sampled; resolution makes
    /// the same decision.
    pub fn plan_query(&self, query: &Query) -> ExecPlan {
        planner::plan_query(self, query)
    }

    /// The compact strategy signature of a query's plan (`index=...`) —
    /// what the slow-query log records.
    pub fn plan_signature(&self, query: &Query) -> String {
        self.plan_query(query).signature()
    }

    /// The query's plan under this session's configuration (`EXPLAIN`): the
    /// stage tree the executor will walk, before anything runs, including
    /// the access path of its candidate resolution.
    pub fn explain(&self, query: &Query) -> PlanNode {
        explain::plan_with(query, &self.config, &self.plan_query(query))
    }

    /// Executes the query and returns its plan annotated with the measured
    /// statistics (`EXPLAIN ANALYZE`), together with the output itself. The
    /// annotated counters are copied verbatim from the output's
    /// [`QueryStats`], so the two never disagree.
    pub fn explain_analyze(&self, query: &Query) -> QueryResult<(PlanNode, QueryOutput)> {
        // Planned up front for display; resolution makes the same decision.
        let exec_plan = self.plan_query(query);
        let output = self.execute(query)?;
        let plan = explain::annotate(
            explain::plan_with(query, &self.config, &exec_plan),
            &output.stats,
            output.rows.len() as u64,
        );
        Ok((plan, output))
    }

    /// Executes a ranked query in *partial* (cluster-shard) mode: the query's
    /// `k` is optionally overridden, and alongside the local top-k the method
    /// reports the k-th value as a bound on everything it did **not** return
    /// (Eq. 15's pruning threshold, exported): any unreturned candidate that
    /// passes `HAVING` — pruned by its CHI bounds or verified and rejected —
    /// ranks no better than the bound, and on a tie carries a larger key. A
    /// distributed top-k coordinator re-queries a shard only while its bound
    /// could still beat the merged k-th row (see
    /// [`merge::partial_may_improve`]).
    ///
    /// The bound is `None` when nothing is hidden: the partition returned
    /// *every* candidate it holds, or fewer rows than its `k` (then every
    /// candidate passing `HAVING` was returned). Non-ranked queries execute
    /// normally and also carry no bound.
    pub fn execute_topk_partial(
        &self,
        query: &Query,
        k_override: Option<usize>,
    ) -> QueryResult<merge::RankedPartial> {
        let mut query = query.clone();
        let k = match &mut query.kind {
            QueryKind::TopK { k, .. }
            | QueryKind::Aggregate {
                top_k: Some((k, _)),
                ..
            }
            | QueryKind::MaskAggregate {
                top_k: Some((k, _)),
                ..
            }
            | QueryKind::PairTopK { k, .. } => {
                if let Some(n) = k_override {
                    *k = n;
                }
                Some(*k)
            }
            _ => None,
        };
        // Something is hidden only behind a full top-k: with fewer rows
        // than `k`, every item that qualifies (passes `HAVING`) was returned.
        let bound_of = |output: &QueryOutput, total: usize| {
            let hidden = Some(output.rows.len()) == k && output.rows.len() < total;
            hidden
                .then(|| output.rows.last().and_then(|r| r.value))
                .flatten()
        };
        let version = self.read_version();
        // Pair top-k resolves its own (image-keyed) candidate set; resolve
        // once and count from the same snapshot the executor uses.
        if let QueryKind::PairTopK {
            join,
            expr,
            k,
            order,
        } = &query.kind
        {
            let (pairs, left_trace, right_trace) =
                self.resolve_pairs_at(&version, &query.selection, join);
            let total = pairs.len();
            let mut output = exec::pair::execute_topk(self, &version, &pairs, expr, *k, *order)?;
            left_trace.apply(&mut output.stats);
            right_trace.apply(&mut output.stats);
            let bound = bound_of(&output, total);
            return Ok(merge::RankedPartial { output, bound });
        }
        if matches!(query.kind, QueryKind::PairFilter { .. }) {
            // Non-ranked pair statement: no bound, and no mask-id
            // candidate scan either (see `execute`).
            return Ok(merge::RankedPartial {
                output: self.execute_resolved(&version, &query, &[])?,
                bound: None,
            });
        }
        let (candidates, trace) = self.resolve_selection_at(&version, &query.selection);
        if k.is_none() {
            let mut output = self.execute_resolved(&version, &query, &candidates)?;
            trace.apply(&mut output.stats);
            return Ok(merge::RankedPartial {
                output,
                bound: None,
            });
        }
        // Count ranked items from the same candidate snapshot the executor
        // receives, so "did we return everything" cannot race a write.
        let total = if query.is_grouped() {
            version
                .catalog
                .by_image(&candidates)
                .chunk_by(|a, b| a.0 == b.0)
                .count()
        } else {
            candidates.len()
        };
        let mut output = self.execute_resolved(&version, &query, &candidates)?;
        trace.apply(&mut output.stats);
        let bound = bound_of(&output, total);
        Ok(merge::RankedPartial { output, bound })
    }

    /// Executes a query against an already resolved candidate set,
    /// dispatching on its kind.
    fn execute_resolved(
        &self,
        version: &ReadVersion,
        query: &Query,
        candidates: &[MaskId],
    ) -> QueryResult<QueryOutput> {
        match &query.kind {
            QueryKind::Filter { predicate } => {
                exec::filter::execute(self, version, candidates, predicate)
            }
            QueryKind::TopK { expr, k, order } => {
                exec::topk::execute(self, version, candidates, expr, *k, *order)
            }
            QueryKind::Aggregate {
                expr,
                agg,
                having,
                top_k,
            } => exec::aggregate::execute(self, version, candidates, expr, *agg, *having, *top_k),
            QueryKind::MaskAggregate {
                agg,
                term,
                having,
                top_k,
            } => exec::mask_agg::execute(
                self,
                version,
                &query.selection,
                candidates,
                agg,
                term,
                *having,
                *top_k,
            ),
            // Pair queries resolve their own image-keyed candidate set from
            // the join's two selections (the mask-id candidates do not
            // apply).
            QueryKind::PairFilter { join, predicate } => {
                let (pairs, left_trace, right_trace) =
                    self.resolve_pairs_at(version, &query.selection, join);
                let mut output = exec::pair::execute_filter(self, version, &pairs, predicate)?;
                left_trace.apply(&mut output.stats);
                right_trace.apply(&mut output.stats);
                Ok(output)
            }
            QueryKind::PairTopK {
                join,
                expr,
                k,
                order,
            } => {
                let (pairs, left_trace, right_trace) =
                    self.resolve_pairs_at(version, &query.selection, join);
                let mut output = exec::pair::execute_topk(self, version, &pairs, expr, *k, *order)?;
                left_trace.apply(&mut output.stats);
                right_trace.apply(&mut output.stats);
                Ok(output)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{PixelRange, Roi};
    use masksearch_index::ChiConfig;
    use masksearch_storage::MemoryMaskStore;

    fn small_db(n: u64) -> (Arc<dyn MaskStore>, Catalog) {
        let store = MemoryMaskStore::for_tests();
        let mut catalog = Catalog::new();
        for i in 0..n {
            let mask = Mask::from_fn(16, 16, move |x, y| ((x + y + i as u32) % 10) as f32 / 10.0);
            store.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(
                MaskRecord::builder(MaskId::new(i))
                    .image_id(ImageId::new(i / 2))
                    .shape(16, 16)
                    .object_box(Roi::new(2, 2, 10, 10).unwrap())
                    .build(),
            );
        }
        (Arc::new(store), catalog)
    }

    fn config() -> SessionConfig {
        SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap()).threads(2)
    }

    #[test]
    fn eager_session_indexes_everything_up_front() {
        let (store, catalog) = small_db(6);
        let session =
            Session::new(store, catalog, config().indexing_mode(IndexingMode::Eager)).unwrap();
        assert_eq!(session.indexed_masks(), 6);
        assert!(session.index_bytes() > 0);
    }

    #[test]
    fn incremental_session_starts_empty_and_indexes_on_load() {
        let (store, catalog) = small_db(4);
        let session = Session::new(
            store,
            catalog,
            config().indexing_mode(IndexingMode::Incremental),
        )
        .unwrap();
        assert_eq!(session.indexed_masks(), 0);
        let (_, built) = session.load_and_index(MaskId::new(2)).unwrap();
        assert!(built);
        assert_eq!(session.indexed_masks(), 1);
        let (_, built_again) = session.load_and_index(MaskId::new(2)).unwrap();
        assert!(!built_again);
    }

    #[test]
    fn disabled_session_never_exposes_indexes() {
        let (store, catalog) = small_db(4);
        let session = Session::new(
            store,
            catalog,
            config().indexing_mode(IndexingMode::Disabled),
        )
        .unwrap();
        let (_, built) = session.load_and_index(MaskId::new(1)).unwrap();
        assert!(!built);
        assert!(session.chi_for(MaskId::new(1)).is_none());
    }

    #[test]
    fn selection_resolution_and_grouping() {
        let (store, catalog) = small_db(6);
        let session = Session::new(store, catalog, config()).unwrap();
        let all = session.resolve_selection(&Selection::all());
        assert_eq!(all.len(), 6);
        let subset =
            session.resolve_selection(&Selection::all().with_image_ids(vec![ImageId::new(1)]));
        assert_eq!(subset, vec![MaskId::new(2), MaskId::new(3)]);
        let groups = session.group_by_image(&all);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].1.len(), 2);
    }

    #[test]
    fn unknown_mask_is_an_error() {
        let (store, catalog) = small_db(2);
        let session = Session::new(store, catalog, config()).unwrap();
        assert!(matches!(
            session.record(MaskId::new(99)),
            Err(QueryError::UnknownMask(_))
        ));
    }

    #[test]
    fn index_persistence_round_trip() {
        let (store, catalog) = small_db(3);
        let session = Session::new(
            Arc::clone(&store),
            catalog.clone(),
            config().indexing_mode(IndexingMode::Eager),
        )
        .unwrap();
        let path = std::env::temp_dir().join(format!(
            "masksearch-session-index-{}.idx",
            std::process::id()
        ));
        session.persist_index(&path).unwrap();
        let chi = Session::load_index_file(&path).unwrap();
        assert_eq!(chi.len(), 3);
        let restored = Session::with_index(store, catalog, config(), chi);
        assert_eq!(restored.indexed_masks(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aggregate_index_build() {
        let (store, catalog) = small_db(6);
        let session =
            Session::new(store, catalog, config().indexing_mode(IndexingMode::Eager)).unwrap();
        let agg = MaskAgg::IntersectThreshold { threshold: 0.5 };
        let selection = Selection::all();
        session.build_aggregate_index(&agg, &selection).unwrap();
        let signature = Session::aggregate_signature(&agg, &selection);
        let index = session.aggregate_index(&signature).unwrap();
        assert_eq!(index.len(), 3); // one aggregated mask per image
    }

    #[test]
    fn insert_masks_are_immediately_queryable_and_indexed() {
        let (store, catalog) = small_db(4);
        let session =
            Session::new(store, catalog, config().indexing_mode(IndexingMode::Eager)).unwrap();
        assert_eq!(session.indexed_masks(), 4);

        let new_mask = Mask::from_fn(16, 16, |_, _| 0.9);
        let record = MaskRecord::builder(MaskId::new(100))
            .image_id(ImageId::new(50))
            .shape(16, 16)
            .build();
        let inserted = session.insert_masks(&[(record, new_mask)]).unwrap();
        assert_eq!(inserted, 1);
        assert_eq!(session.catalog_len(), 5);
        assert_eq!(session.indexed_masks(), 5);

        // The new all-0.9 mask matches a high-threshold query alone.
        let query = Query::filter_cp_gt(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.85, 1.0).unwrap(),
            200.0,
        );
        let out = session.execute(&query).unwrap();
        assert_eq!(out.mask_ids(), vec![MaskId::new(100)]);
    }

    #[test]
    fn delete_masks_vanish_from_results_index_and_cache() {
        let (store, catalog) = small_db(6);
        let session = Session::new(
            store,
            catalog,
            config()
                .indexing_mode(IndexingMode::Eager)
                .cache_bytes(1 << 20),
        )
        .unwrap();
        // Warm the cache.
        session.load_mask(MaskId::new(2)).unwrap();
        assert!(session.cache().peek(MaskId::new(2)).is_some());

        let deleted = session
            .delete_masks(&[MaskId::new(2), MaskId::new(3)])
            .unwrap();
        assert_eq!(deleted, 2);
        assert_eq!(session.catalog_len(), 4);
        assert_eq!(session.indexed_masks(), 4);
        assert!(session.chi_for(MaskId::new(2)).is_none());
        assert!(session.cache().peek(MaskId::new(2)).is_none());
        assert!(!session.store().contains(MaskId::new(2)));

        let query = Query::filter_cp_gt(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.0, 1.0).unwrap(),
            0.0,
        );
        let out = session.execute(&query).unwrap();
        assert_eq!(
            out.mask_ids(),
            vec![
                MaskId::new(0),
                MaskId::new(1),
                MaskId::new(4),
                MaskId::new(5)
            ]
        );
        // Unknown ids fail up front without side effects.
        assert!(matches!(
            session.delete_masks(&[MaskId::new(0), MaskId::new(77)]),
            Err(QueryError::UnknownMask(_))
        ));
        assert_eq!(session.catalog_len(), 4);
        // Duplicated ids collapse to one delete.
        let deleted = session
            .delete_masks(&[MaskId::new(0), MaskId::new(0)])
            .unwrap();
        assert_eq!(deleted, 1);
        assert_eq!(session.catalog_len(), 3);
    }

    #[test]
    fn overwriting_insert_refreshes_chi_and_cache() {
        let (store, catalog) = small_db(3);
        let session = Session::new(
            store,
            catalog,
            config()
                .indexing_mode(IndexingMode::Eager)
                .cache_bytes(1 << 20),
        )
        .unwrap();
        session.load_mask(MaskId::new(1)).unwrap();

        // Overwrite mask 1 with an all-high mask; stale CHI or cache would
        // make the query below miss it or mis-prune.
        let bright = Mask::from_fn(16, 16, |_, _| 0.95);
        let record = MaskRecord::builder(MaskId::new(1))
            .image_id(ImageId::new(0))
            .shape(16, 16)
            .build();
        let loaded = || session.store().io_stats().snapshot().masks_loaded;
        let loaded_before = loaded();
        session
            .insert_masks(&[(record.clone(), bright.clone())])
            .unwrap();
        assert_eq!(session.catalog_len(), 3);
        // Nobody was reading the cached copy: it took the new pixels in
        // place, so this is a hit, not a reload.
        let held = session.load_mask(MaskId::new(1)).unwrap();
        assert_eq!(*held, bright);
        assert_eq!(loaded(), loaded_before);
        // A copy that is being read must keep its pixels: the overwrite
        // drops the entry instead and the next lookup loads the new ones.
        let dim = Mask::from_fn(16, 16, |_, _| 0.05);
        session
            .insert_masks(&[(record.clone(), dim.clone())])
            .unwrap();
        assert_eq!(*held, bright);
        assert_eq!(*session.load_mask(MaskId::new(1)).unwrap(), dim);
        assert_eq!(loaded(), loaded_before + 1);
        drop(held);
        session.insert_masks(&[(record, bright.clone())]).unwrap();

        let query = Query::filter_cp_gt(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.9, 1.0).unwrap(),
            200.0,
        );
        let out = session.execute(&query).unwrap();
        assert_eq!(out.mask_ids(), vec![MaskId::new(1)]);
    }

    #[test]
    fn mutations_clear_aggregate_indexes() {
        let (store, catalog) = small_db(6);
        let session =
            Session::new(store, catalog, config().indexing_mode(IndexingMode::Eager)).unwrap();
        let agg = MaskAgg::IntersectThreshold { threshold: 0.5 };
        let selection = Selection::all();
        session.build_aggregate_index(&agg, &selection).unwrap();
        let signature = Session::aggregate_signature(&agg, &selection);
        assert!(session.aggregate_index(&signature).is_some());

        session.delete_masks(&[MaskId::new(5)]).unwrap();
        assert!(session.aggregate_index(&signature).is_none());
    }

    /// A memory store that counts the masks it loads.
    struct CountingStore {
        inner: MemoryMaskStore,
        gets: std::sync::atomic::AtomicUsize,
    }

    impl MaskStore for CountingStore {
        fn apply_batch(
            &self,
            inserts: &[(MaskRecord, Mask)],
            deletes: &[MaskId],
        ) -> masksearch_storage::StorageResult<masksearch_storage::Stamp> {
            self.inner.apply_batch(inserts, deletes)
        }
        fn get_stamped(
            &self,
            mask_id: MaskId,
        ) -> masksearch_storage::StorageResult<(Mask, masksearch_storage::Stamp)> {
            self.gets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.get_stamped(mask_id)
        }
        fn contains(&self, mask_id: MaskId) -> bool {
            self.inner.contains(mask_id)
        }
        fn ids(&self) -> Vec<MaskId> {
            self.inner.ids()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn io_stats(&self) -> Arc<masksearch_storage::IoStats> {
            self.inner.io_stats()
        }
    }

    /// UPDATE reads the old pixels only when it keeps them, and ends in the
    /// state the same records and masks inserted outright give.
    #[test]
    fn pixel_updates_do_not_read_the_old_mask() {
        let (plain, catalog) = small_db(6);
        let inner = MemoryMaskStore::for_tests();
        for id in plain.ids() {
            inner.put(id, &plain.get(id).unwrap()).unwrap();
        }
        let store = Arc::new(CountingStore {
            inner,
            gets: Default::default(),
        });
        let session = Session::new(
            Arc::clone(&store) as Arc<dyn MaskStore>,
            catalog.clone(),
            config(),
        )
        .unwrap();
        let gets = || store.gets.load(std::sync::atomic::Ordering::Relaxed);
        let pixels = |v: f32, n: usize| vec![v; n];

        let mut repaint = MaskUpdate::of(MaskId::new(1));
        repaint.pixels = Some(pixels(0.9, 256));
        repaint.model_id = Some(masksearch_core::ModelId::new(7));
        let mut reshape = MaskUpdate::of(MaskId::new(4));
        reshape.pixels = Some(pixels(0.3, 8 * 32));
        reshape.shape = Some((8, 32));
        let before = gets();
        session.update_masks(&[repaint, reshape]).unwrap();
        assert_eq!(gets() - before, 0, "pixel updates read no mask");

        let mut relabel = MaskUpdate::of(MaskId::new(2));
        relabel.model_id = Some(masksearch_core::ModelId::new(9));
        relabel.predicted_label = Some(masksearch_core::Label::new(3));
        let before = gets();
        session.update_masks(&[relabel]).unwrap();
        assert_eq!(gets() - before, 1, "a metadata-only update reads its mask");

        // A repaint then a relabel of one mask in one statement: the second
        // starts from the first's pixels, so nothing is read.
        let mut repaint = MaskUpdate::of(MaskId::new(3));
        repaint.pixels = Some(pixels(0.6, 256));
        let mut relabel = MaskUpdate::of(MaskId::new(3));
        relabel.true_label = Some(masksearch_core::Label::new(5));
        let before = gets();
        session.update_masks(&[repaint, relabel]).unwrap();
        assert_eq!(gets() - before, 0);

        // The same end state, inserted outright.
        let (reference_store, _) = small_db(6);
        let reference = Session::new(reference_store, catalog.clone(), config()).unwrap();
        let mut expected = Vec::new();
        let mut record = catalog.get(MaskId::new(1)).unwrap().clone();
        record.model_id = masksearch_core::ModelId::new(7);
        expected.push((record, Mask::new(16, 16, pixels(0.9, 256)).unwrap()));
        let mut record = catalog.get(MaskId::new(4)).unwrap().clone();
        (record.width, record.height, record.object_box) = (8, 32, None);
        expected.push((record, Mask::new(8, 32, pixels(0.3, 256)).unwrap()));
        let mut record = catalog.get(MaskId::new(2)).unwrap().clone();
        record.model_id = masksearch_core::ModelId::new(9);
        record.predicted_label = Some(masksearch_core::Label::new(3));
        expected.push((record, plain.get(MaskId::new(2)).unwrap()));
        let mut record = catalog.get(MaskId::new(3)).unwrap().clone();
        record.true_label = Some(masksearch_core::Label::new(5));
        expected.push((record, Mask::new(16, 16, pixels(0.6, 256)).unwrap()));
        reference.insert_masks(&expected).unwrap();

        for id in (0..6).map(MaskId::new) {
            assert_eq!(session.record(id).unwrap(), reference.record(id).unwrap());
            assert_eq!(
                session.load_mask(id).unwrap(),
                reference.load_mask(id).unwrap()
            );
        }
        let full = Roi::new(0, 0, 16, 32).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        // Image 2 now groups an 8x32 mask with a 16x16 one: the mask
        // aggregate fails there on both sides, alike.
        for query in [
            Query::filter_cp_gt(full, range, 10.0),
            Query::top_k_cp(full, range, 4, crate::Order::Desc),
            Query::aggregate(crate::Expr::cp(full, range), crate::ScalarAgg::Avg),
            Query::mask_aggregate(
                MaskAgg::IntersectThreshold { threshold: 0.5 },
                crate::CpTerm::constant_roi(full, range),
            ),
        ] {
            let rows = |session: &Session| format!("{:?}", session.execute(&query).map(|o| o.rows));
            assert_eq!(rows(&session), rows(&reference), "{query:?}");
        }
    }

    /// A memory store whose index persistence fails while `fail` is set.
    struct FailingPersistStore {
        inner: MemoryMaskStore,
        fail: std::sync::atomic::AtomicBool,
    }

    impl MaskStore for FailingPersistStore {
        fn apply_batch(
            &self,
            inserts: &[(MaskRecord, Mask)],
            deletes: &[MaskId],
        ) -> masksearch_storage::StorageResult<masksearch_storage::Stamp> {
            self.inner.apply_batch(inserts, deletes)
        }
        fn persist_meta_indexes(&self) -> masksearch_storage::StorageResult<()> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(masksearch_storage::StorageError::corrupt("disk full"));
            }
            Ok(())
        }
        fn get_stamped(
            &self,
            mask_id: MaskId,
        ) -> masksearch_storage::StorageResult<(Mask, masksearch_storage::Stamp)> {
            self.inner.get_stamped(mask_id)
        }
        fn contains(&self, mask_id: MaskId) -> bool {
            self.inner.contains(mask_id)
        }
        fn ids(&self) -> Vec<MaskId> {
            self.inner.ids()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn io_stats(&self) -> Arc<masksearch_storage::IoStats> {
            self.inner.io_stats()
        }
    }

    /// `CREATE INDEX` and `DROP INDEX` whose persistence fails leave the
    /// registry as it was: no probe through the failed index, a retry under
    /// the same name succeeds, and a failed drop keeps the index.
    #[test]
    fn index_ddl_whose_persist_fails_changes_nothing() {
        let (_, catalog) = small_db(4);
        let store = Arc::new(FailingPersistStore {
            inner: MemoryMaskStore::for_tests(),
            fail: Default::default(),
        });
        let fail = |on: bool| store.fail.store(on, std::sync::atomic::Ordering::Relaxed);
        let session = Session::new(
            Arc::clone(&store) as Arc<dyn MaskStore>,
            catalog,
            config().indexing_mode(IndexingMode::Disabled),
        )
        .unwrap();
        let indexes = || {
            session
                .meta_indexes()
                .list()
                .into_iter()
                .map(|def| def.name)
                .collect::<Vec<_>>()
        };
        assert!(session
            .create_index("by_model", MetaColumn::ModelId, false)
            .unwrap());

        fail(true);
        assert!(session
            .create_index("by_image", MetaColumn::ImageId, false)
            .is_err());
        assert!(session.meta_indexes().on(MetaColumn::ImageId).is_none());
        assert!(session.drop_index("by_model", false).is_err());
        assert_eq!(indexes(), ["by_model"]);

        fail(false);
        assert!(session
            .create_index("by_image", MetaColumn::ImageId, false)
            .unwrap());
        assert!(session.drop_index("by_model", false).unwrap());
        assert_eq!(indexes(), ["by_image"]);
    }

    #[test]
    fn apply_dispatches_mutations() {
        let (store, catalog) = small_db(2);
        let session = Session::new(store, catalog, config()).unwrap();
        let mask = Mask::from_fn(16, 16, |_, _| 0.5);
        let record = MaskRecord::builder(MaskId::new(9)).shape(16, 16).build();
        let outcome = session
            .apply(&crate::Mutation::Insert(vec![(record, mask)]))
            .unwrap();
        assert_eq!(
            outcome,
            crate::MutationOutcome {
                inserted: 1,
                ..Default::default()
            }
        );
        let outcome = session
            .apply(&crate::Mutation::Delete(vec![MaskId::new(9)]))
            .unwrap();
        assert_eq!(
            outcome,
            crate::MutationOutcome {
                deleted: 1,
                ..Default::default()
            }
        );
        assert_eq!(session.catalog_len(), 2);
    }

    #[test]
    fn partial_topk_reports_the_kth_bound() {
        let (store, catalog) = small_db(6);
        let session =
            Session::new(store, catalog, config().indexing_mode(IndexingMode::Eager)).unwrap();
        let query = Query::top_k_cp(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.0, 1.0).unwrap(),
            4,
            crate::Order::Desc,
        );
        let partial = session.execute_topk_partial(&query, None).unwrap();
        assert_eq!(partial.output.len(), 4);
        // Two candidates were not returned, so the 4th value bounds them.
        assert_eq!(partial.bound, partial.output.rows.last().unwrap().value);

        // Overriding k to cover every candidate removes the bound.
        let all = session.execute_topk_partial(&query, Some(6)).unwrap();
        assert_eq!(all.output.len(), 6);
        assert_eq!(all.bound, None);

        // The k-override changes nothing else: prefix agreement.
        assert_eq!(&all.output.rows[..4], &partial.output.rows[..]);

        // Non-ranked queries pass through without a bound.
        let filter = Query::filter_cp_gt(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.0, 1.0).unwrap(),
            0.0,
        );
        let partial = session.execute_topk_partial(&filter, Some(2)).unwrap();
        assert_eq!(partial.output.len(), 6);
        assert_eq!(partial.bound, None);
    }

    #[test]
    fn simple_end_to_end_filter_query() {
        let (store, catalog) = small_db(6);
        let session =
            Session::new(store, catalog, config().indexing_mode(IndexingMode::Eager)).unwrap();
        let query = Query::filter_cp_gt(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.0, 1.0).unwrap(),
            0.0,
        );
        let out = session.execute(&query).unwrap();
        // Every mask has 256 pixels in [0,1) > 0, so all qualify.
        assert_eq!(out.len(), 6);
        assert_eq!(out.stats.candidates, 6);
    }
}
