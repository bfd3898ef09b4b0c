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
//! Sessions are also *writable*: [`Session::insert_masks`] and
//! [`Session::delete_masks`] push batches through the store (durably, when
//! the store supports it), keep the CHI store and mask cache consistent, and
//! publish the batch's catalog records atomically. Candidate resolution
//! happens under one catalog guard, so a query's *candidate set* reflects
//! whole batches only — never half of one. Per-mask record lookups during
//! verification are read-committed: a query racing a batch that overwrites
//! its candidates' metadata may see some records from before and some from
//! after that batch.

use crate::error::{QueryError, QueryResult};
use crate::eval;
use crate::exec;
use crate::explain::{self, PlanNode};
use crate::merge;
use crate::mutation::{MaskUpdate, Mutation, MutationOutcome};
use crate::planner::{self, ExecPlan};
use crate::query::{MaskJoin, Query, QueryKind, Selection};
use crate::result::{QueryOutput, QueryStats};
use crate::spec::CpTerm;
use crate::verify::Verifier;
use masksearch_core::{ImageId, Mask, MaskAgg, MaskId, MaskRecord, TiledMask};
use masksearch_index::{
    build_chi_store, BuildOptions, Chi, ChiConfig, ChiReader, ChiStore, ChiView,
};
use masksearch_obs::counters as obs_counters;
use masksearch_obs::{ShapeObservation, ShapeStatsRegistry};
use masksearch_plan::KernelMode;
use masksearch_storage::{Catalog, MaskCache, MaskStore, MetaColumn, MetaIndexRegistry};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
    /// How verification-stage `CP` terms are routed: through the tiled
    /// kernel (per-tile min/max + histogram summaries; see
    /// `masksearch-core`), the reference batched scan, or — the default —
    /// the kernel exactly for masks that already carry their tile grid.
    /// Counts are byte-identical under every mode; forcing exists for
    /// benchmarking and conformance tests, and pins the whole
    /// load-then-count pipeline: only the default mode verifies cache
    /// misses in place (see `crate::verify`).
    pub kernel_mode: KernelMode,
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
            kernel_mode: KernelMode::Auto,
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

    /// Sets the verification-kernel policy: [`KernelMode::ForceOn`] or
    /// [`KernelMode::ForceOff`] pin a fixed pipeline; the default
    /// [`KernelMode::Auto`] takes the kernel exactly for masks that already
    /// carry their tile grid.
    pub fn kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self::new(ChiConfig::default())
    }
}

/// A MaskSearch session: storage + catalog + indexes + query execution +
/// write path.
pub struct Session {
    store: Arc<dyn MaskStore>,
    /// The catalog lives behind a lock so writes publish whole batches
    /// atomically; every accessor copies out what it needs, so no lock guard
    /// ever escapes.
    catalog: RwLock<Catalog>,
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
    /// describes a different write's pixels.
    writes: Mutex<()>,
    /// Per-query-shape aggregate statistics. Shared with the store when the
    /// store persists one across restarts (the durable mask database);
    /// otherwise private to this session's lifetime.
    shape_stats: Arc<ShapeStatsRegistry>,
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
        Ok(Self {
            cache: MaskCache::new(config.cache_bytes),
            shape_stats: store.shape_stats().unwrap_or_default(),
            meta_indexes: store.meta_indexes().unwrap_or_default(),
            store,
            catalog: RwLock::new(catalog),
            config,
            chi: Arc::new(chi),
            chi_maintained_by_store: false,
            agg_indexes: RwLock::new(HashMap::new()),
            writes: Mutex::new(()),
        })
    }

    /// Creates a session around an existing CHI store (e.g. loaded from a
    /// previous session's persisted index file).
    pub fn with_index(
        store: Arc<dyn MaskStore>,
        catalog: Catalog,
        config: SessionConfig,
        chi: ChiStore,
    ) -> Self {
        Self {
            cache: MaskCache::new(config.cache_bytes),
            shape_stats: store.shape_stats().unwrap_or_default(),
            meta_indexes: store.meta_indexes().unwrap_or_default(),
            store,
            catalog: RwLock::new(catalog),
            config,
            chi: Arc::new(chi),
            chi_maintained_by_store: false,
            agg_indexes: RwLock::new(HashMap::new()),
            writes: Mutex::new(()),
        }
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
        Self {
            cache: MaskCache::new(config.cache_bytes),
            shape_stats: store.shape_stats().unwrap_or_default(),
            meta_indexes: store.meta_indexes().unwrap_or_default(),
            store,
            catalog: RwLock::new(catalog),
            config,
            chi,
            chi_maintained_by_store: true,
            agg_indexes: RwLock::new(HashMap::new()),
            writes: Mutex::new(()),
        }
    }

    /// Acquires the catalog lock for reading, charging the wait to the
    /// global lock-contention counters so serving-layer profiles can see
    /// catalog contention directly (the suspected shape of multi-worker
    /// scaling plateaus).
    pub(crate) fn catalog_read(&self) -> RwLockReadGuard<'_, Catalog> {
        obs_counters::timed_acquire(
            &obs_counters::CATALOG_READ_WAIT_US,
            &obs_counters::CATALOG_LOCK_ACQUIRES,
            || self.catalog.try_read(),
            || self.catalog.read(),
        )
    }

    /// One read guard over the per-mask CHI store for a batch of lookups —
    /// the filter stage's hot loop. `None` when indexing is disabled (every
    /// candidate then goes to verification, as in [`Session::chi_for`]).
    pub(crate) fn chi_reader(&self) -> Option<ChiReader<'_>> {
        (self.config.indexing_mode != IndexingMode::Disabled).then(|| self.chi.reader())
    }

    /// Acquires the catalog lock for writing (see [`Session::catalog_read`]).
    fn catalog_write(&self) -> RwLockWriteGuard<'_, Catalog> {
        obs_counters::timed_acquire(
            &obs_counters::CATALOG_WRITE_WAIT_US,
            &obs_counters::CATALOG_LOCK_ACQUIRES,
            || self.catalog.try_write(),
            || self.catalog.write(),
        )
    }

    /// A point-in-time copy of the session's catalog.
    pub fn catalog(&self) -> Catalog {
        self.catalog_read().clone()
    }

    /// Number of catalogued masks.
    pub fn catalog_len(&self) -> usize {
        self.catalog_read().len()
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

    /// The catalog record of a mask, or an error if unknown.
    pub fn record(&self, mask_id: MaskId) -> QueryResult<MaskRecord> {
        self.catalog_read()
            .get(mask_id)
            .cloned()
            .ok_or(QueryError::UnknownMask(mask_id))
    }

    /// `bounds(record, chi)` of one mask, its record and its CHI's cells
    /// borrowed under their guards — no record clone, nothing copied.
    /// `None` when the mask has no CHI or indexing is disabled.
    pub fn bounds_of_one<B>(
        &self,
        mask_id: MaskId,
        bounds: impl FnOnce(&MaskRecord, ChiView<'_>) -> QueryResult<B>,
    ) -> QueryResult<Option<B>> {
        let catalog = self.catalog_read();
        let record = catalog
            .get(mask_id)
            .ok_or(QueryError::UnknownMask(mask_id))?;
        let chi_reader = self.chi_reader();
        let chi = chi_reader.as_ref().and_then(|reader| reader.get(mask_id));
        chi.map(|chi| bounds(record, chi)).transpose()
    }

    /// The filter pass of the ranked executors: [`Session::bounds_of_one`]
    /// of every id, before anything is loaded. The guards are taken per
    /// candidate on purpose: held across a block of candidates (256 were
    /// tried: ≈0.13 ms) they park a committing writer behind the reader,
    /// and on a busy host the wake-up cost `ingest_mixed` ≈1 ms per commit
    /// (`commit_p50_ms` +25%); held for one candidate's arithmetic, the
    /// writer gets in while it still spins. An uncontended guard is one
    /// compare-and-swap (see `obs::counters::timed_acquire`), so what a
    /// candidate pays is two of those, two map lookups and its bounds.
    pub fn bounds_of<B>(
        &self,
        mask_ids: &[MaskId],
        mut bounds: impl FnMut(&MaskRecord, ChiView<'_>) -> QueryResult<B>,
    ) -> QueryResult<Vec<Option<B>>> {
        mask_ids
            .iter()
            .map(|&mask_id| self.bounds_of_one(mask_id, &mut bounds))
            .collect()
    }

    /// A copy of the CHI of a mask, if one exists and indexing is enabled.
    /// Executors bound candidates through [`Session::bounds_of`] or a reader
    /// over the store, which copy nothing.
    pub fn chi_for(&self, mask_id: MaskId) -> Option<Arc<Chi>> {
        if self.config.indexing_mode == IndexingMode::Disabled {
            return None;
        }
        self.chi.get(mask_id)
    }

    /// Loads a mask through the buffer cache.
    pub fn load_mask(&self, mask_id: MaskId) -> QueryResult<Arc<Mask>> {
        Ok(self.load_tiled(mask_id)?.mask_arc())
    }

    /// Loads a mask in tiled form through the buffer cache. Stores that
    /// maintain tile summaries (the durable mask database) seed the grid;
    /// otherwise it is built lazily on first kernel use.
    pub fn load_tiled(&self, mask_id: MaskId) -> QueryResult<Arc<TiledMask>> {
        self.cache
            .get_or_load_tiled(mask_id, || self.store.get_tiled(mask_id))
            .map_err(QueryError::from)
    }

    /// Evaluation options for the verification stage with an explicit
    /// kernel decision (see [`ExecPlan::kernel_on_for`]).
    pub fn verify_options_with(&self, use_tiled_kernel: bool) -> eval::VerifyOptions {
        eval::VerifyOptions {
            object_box_fallback: self.config.object_box_fallback,
            use_tiled_kernel,
        }
    }

    /// The verification step of a single-mask statement: exact values of
    /// `terms` mask by mask, counted on the resident copy, in place off the
    /// stored rows, or on the mask loaded whole (see [`crate::verify`]).
    pub(crate) fn verifier<'a>(
        &'a self,
        plan: &'a ExecPlan,
        terms: Vec<&'a CpTerm>,
    ) -> Verifier<'a> {
        Verifier::new(self, plan, terms)
    }

    /// Loads a mask and, in incremental mode, builds and retains its CHI
    /// (§3.6). Returns the tiled mask and whether an index was built.
    pub fn load_and_index(&self, mask_id: MaskId) -> QueryResult<(Arc<TiledMask>, bool)> {
        // Snapshot the CHI removal generation before loading: if a write
        // evicts this mask's index while we hold pre-write pixels, the
        // guarded install below refuses to put stale bounds in the index.
        let chi_generation = self.chi.removal_generation();
        let mask = self.load_tiled(mask_id)?;
        let built = if self.config.indexing_mode == IndexingMode::Incremental
            && !self.chi.contains(mask_id)
        {
            self.chi
                .index_mask_if_current(mask_id, mask.mask(), chi_generation)
        } else {
            false
        };
        Ok((mask, built))
    }

    /// Inserts (or overwrites) a batch of masks with their catalog records.
    ///
    /// The store commit happens first (atomically and durably when the store
    /// supports it), then the CHI store and mask cache are brought up to
    /// date, and finally the records are published to the catalog under one
    /// write guard — so a concurrent query's *candidate set* includes either
    /// none or all of the batch (per-mask record lookups afterwards are
    /// read-committed; see the module docs).
    pub fn insert_masks(&self, batch: &[(MaskRecord, Mask)]) -> QueryResult<usize> {
        if batch.is_empty() {
            return Ok(0);
        }
        let _writes = self.writes.lock();
        self.insert_batch_locked(batch)?;
        Ok(batch.len())
    }

    /// The body of [`Session::insert_masks`], assuming the caller already
    /// holds the write lock (shared with the UPDATE path, which rides the
    /// same evict-then-publish sequence).
    fn insert_batch_locked(&self, batch: &[(MaskRecord, Mask)]) -> QueryResult<()> {
        if !self.chi_maintained_by_store {
            // Evict the CHIs of overwritten ids before the new pixels can
            // become visible: stale bounds over new pixels could accept or
            // prune a mask without verification. Until the re-index below,
            // queries fall back to loading the mask.
            for (record, _) in batch {
                self.chi.remove(record.mask_id);
            }
        }
        self.store.insert_batch(batch)?;
        for (record, mask) in batch {
            self.cache.refresh(record.mask_id, mask);
            if !self.chi_maintained_by_store && self.config.indexing_mode != IndexingMode::Disabled
            {
                self.chi.index_mask(record.mask_id, mask);
            }
        }
        {
            let mut catalog = self.catalog_write();
            for (record, _) in batch {
                catalog.insert(record.clone());
            }
        }
        // Aggregated-mask indexes are built over group contents; any write
        // can invalidate them, so they are dropped and rebuilt on demand.
        self.agg_indexes.write().clear();
        Ok(())
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
    /// insert path (CHI evict → store commit → cache invalidate → catalog
    /// publish), so tiles, CHI, stats, and secondary indexes stay atomic
    /// with the pixels. Unknown targets fail before any side effect;
    /// repeated updates of one mask within the slice compose in order.
    pub fn update_masks(&self, updates: &[MaskUpdate]) -> QueryResult<usize> {
        if updates.is_empty() {
            return Ok(0);
        }
        let _writes = self.writes.lock();
        let batch: Vec<(MaskRecord, Mask)> = {
            let catalog = self.catalog_read();
            let mut pending: BTreeMap<MaskId, (MaskRecord, Mask)> = BTreeMap::new();
            for update in updates {
                let entry = self.updated_entry(pending.get(&update.mask_id), &catalog, update)?;
                pending.insert(update.mask_id, entry);
            }
            pending.into_values().collect()
        };
        self.insert_batch_locked(&batch)?;
        Ok(updates.len())
    }

    /// Defines a secondary metadata index. Returns `true` when a new
    /// definition was created (`false` when `IF NOT EXISTS` swallowed a
    /// duplicate); persisted immediately when the store keeps index files.
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
            self.store.persist_meta_indexes()?;
        }
        Ok(created)
    }

    /// Drops a secondary metadata index by name. Returns `true` when a
    /// definition was removed (`false` when `IF EXISTS` swallowed a miss).
    pub fn drop_index(&self, name: &str, if_exists: bool) -> QueryResult<bool> {
        let _writes = self.writes.lock();
        let dropped = self
            .meta_indexes
            .drop_index(name, if_exists)
            .map_err(QueryError::invalid)?;
        if dropped {
            self.store.persist_meta_indexes()?;
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
    /// Then: CHI entries are evicted (the filter stage must never hold
    /// bounds for a mask that is about to vanish), the store delete commits,
    /// and only then are the catalog records removed — so a store failure
    /// leaves catalog and store consistent, at the cost of a short window
    /// where a new query can still resolve a deleted id and fail on load.
    ///
    /// Isolation note: a query that resolved its candidates *before* the
    /// delete may still try to load a deleted mask and fail with
    /// [`QueryError::UnknownMask`] or a storage not-found error. That is
    /// deliberate — failing loudly and letting the caller retry beats
    /// silently returning a result that mixes pre- and post-delete state.
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
        {
            let catalog = self.catalog_read();
            for &id in &ids {
                if catalog.get(id).is_none() {
                    return Err(QueryError::UnknownMask(id));
                }
            }
        }
        if !self.chi_maintained_by_store {
            for &id in &ids {
                self.chi.remove(id);
            }
        }
        // Store first, catalog second: if the store delete fails, the
        // catalog still matches the store (the evicted CHI entries merely
        // cost a re-index). Removing catalog records first would leave
        // permanently orphaned pixels on a store error.
        self.store.delete_batch(&ids)?;
        {
            let mut catalog = self.catalog_write();
            for &id in &ids {
                catalog.remove(id);
            }
        }
        for &id in &ids {
            self.cache.invalidate(id);
        }
        self.agg_indexes.write().clear();
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
        let mut outcome = MutationOutcome::default();
        let mut upserts: BTreeMap<MaskId, (MaskRecord, Mask)> = BTreeMap::new();
        let mut deletes: BTreeSet<MaskId> = BTreeSet::new();
        {
            let catalog = self.catalog_read();
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
                                self.updated_entry(upserts.get(&update.mask_id), &catalog, update)?;
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
        if !self.chi_maintained_by_store {
            for (record, _) in &inserts {
                self.chi.remove(record.mask_id);
            }
            for &id in &delete_ids {
                self.chi.remove(id);
            }
        }
        self.store.apply_batch(&inserts, &delete_ids)?;
        for &id in &delete_ids {
            self.cache.invalidate(id);
        }
        for (record, mask) in &inserts {
            self.cache.refresh(record.mask_id, mask);
            if !self.chi_maintained_by_store && self.config.indexing_mode != IndexingMode::Disabled
            {
                self.chi.index_mask(record.mask_id, mask);
            }
        }
        {
            let mut catalog = self.catalog_write();
            for &id in &delete_ids {
                catalog.remove(id);
            }
            for (record, _) in &inserts {
                catalog.insert(record.clone());
            }
        }
        self.agg_indexes.write().clear();
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
        let catalog = self.catalog_read();
        self.choose_index(&catalog, selections).map(|c| c.name)
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

    /// Resolves a selection into the sorted list of targeted mask ids.
    ///
    /// The whole resolution happens under one catalog read guard, so the
    /// candidate set reflects a single committed state — concurrent write
    /// batches are observed entirely or not at all.
    pub fn resolve_selection(&self, selection: &Selection) -> Vec<MaskId> {
        self.resolve_selection_traced(selection).0
    }

    /// [`Session::resolve_selection`] plus how the resolution was answered
    /// (index probe vs catalog scan), for the query's statistics.
    pub(crate) fn resolve_selection_traced(
        &self,
        selection: &Selection,
    ) -> (Vec<MaskId>, ResolveTrace) {
        let catalog = self.catalog_read();
        self.resolve_conjunction(&catalog, &[selection])
    }

    /// Groups targeted masks by image id.
    pub fn group_by_image(&self, mask_ids: &[MaskId]) -> Vec<(ImageId, Vec<MaskId>)> {
        self.catalog_read().group_by_image(mask_ids)
    }

    /// Resolves a pair query's candidates: for each image, the smallest mask
    /// id matching `selection ∧ join.left` and the smallest matching
    /// `selection ∧ join.right`; images where either side fails to bind are
    /// skipped. Ascending by image id, under one catalog read guard (the
    /// candidate set reflects whole write batches only).
    pub fn resolve_pairs(
        &self,
        selection: &Selection,
        join: &MaskJoin,
    ) -> Vec<(ImageId, MaskId, MaskId)> {
        self.resolve_pairs_traced(selection, join).0
    }

    /// [`Session::resolve_pairs`] plus how each side's resolution was
    /// answered (index probe vs catalog scan), for the query's statistics.
    pub(crate) fn resolve_pairs_traced(
        &self,
        selection: &Selection,
        join: &MaskJoin,
    ) -> (Vec<(ImageId, MaskId, MaskId)>, ResolveTrace, ResolveTrace) {
        let catalog = self.catalog_read();
        // Each side resolves `selection ∧ join.side`; the lists come back
        // ascending by mask id (from the scan or the re-verified probe), so
        // the first id seen per image is the smallest — the deterministic
        // binding rule.
        let (left_ids, left_trace) = self.resolve_conjunction(&catalog, &[selection, &join.left]);
        let (right_ids, right_trace) =
            self.resolve_conjunction(&catalog, &[selection, &join.right]);
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
        let ids = self.resolve_selection(selection);
        let groups = self.group_by_image(&ids);
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

    /// Registers (or replaces) an aggregated-mask index under a signature.
    pub(crate) fn insert_aggregate_chi(&self, signature: &str, image_id: ImageId, chi: Chi) {
        if self.config.indexing_mode != IndexingMode::Incremental {
            return;
        }
        let mut indexes = self.agg_indexes.write();
        let store = indexes
            .entry(signature.to_string())
            .or_insert_with(|| Arc::new(ChiStore::new(self.config.chi_config)));
        store.insert(MaskId::new(image_id.raw()), chi);
    }

    /// Executes a query, dispatching on its kind.
    pub fn execute(&self, query: &Query) -> QueryResult<QueryOutput> {
        // Pair queries resolve their own image-keyed candidate set; don't
        // pay a full catalog scan for a mask-id list they never read.
        if matches!(
            query.kind,
            QueryKind::PairFilter { .. } | QueryKind::PairTopK { .. }
        ) {
            return self.execute_resolved(query, &[]);
        }
        let resolve_start = std::time::Instant::now();
        let (candidates, trace) = {
            let _resolve = masksearch_obs::span("resolve");
            self.resolve_selection_traced(&query.selection)
        };
        let resolve_wall = resolve_start.elapsed();
        let mut output = self.execute_resolved(query, &candidates)?;
        trace.apply(&mut output.stats);
        // Resolution runs before the executor starts its clock; charge it
        // so `total_wall` (and the modelled query time) covers the stage a
        // metadata index exists to shrink.
        output.stats.resolve_wall = resolve_wall;
        output.stats.total_wall += resolve_wall;
        Ok(output)
    }

    /// Plans a query without executing it: the session's kernel policy and
    /// the access path the candidate resolution would take. Nothing is
    /// resolved or sampled; execution builds the same plan.
    pub fn plan_query(&self, query: &Query) -> ExecPlan {
        planner::plan_query(self, query)
    }

    /// The compact strategy signature of a query's plan
    /// (`kernel=... index=...`) — what the slow-query log records.
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
        // Plan once up front for display; execution builds the same plan.
        let exec_plan = self.plan_query(query);
        let output = self.execute(query)?;
        let plan = explain::annotate(
            explain::plan_with(query, &self.config, &exec_plan),
            &output.stats,
            output.rows.len() as u64,
        );
        Ok((plan, output))
    }

    /// The per-query-shape statistics registry this session records into.
    /// Shared with the store when the store persists shapes across restarts.
    pub fn shape_stats(&self) -> &Arc<ShapeStatsRegistry> {
        &self.shape_stats
    }

    /// Folds one finished query into the aggregate statistics of its shape.
    fn record_query(&self, query: &Query, output: &QueryOutput) {
        let s = &output.stats;
        self.shape_stats.record(
            &explain::shape_key(query, &self.config),
            &ShapeObservation {
                candidates: s.candidates,
                rows: output.rows.len() as u64,
                pruned: s.pruned,
                accepted: s.accepted_without_load,
                verified: s.verified,
                masks_loaded: s.masks_loaded,
                tiles_pruned: s.tiles_pruned,
                tiles_hist: s.tiles_hist,
                tiles_scanned: s.tiles_scanned,
                filter_wall_us: s.filter_wall.as_micros() as u64,
                verify_wall_us: s.verify_wall.as_micros() as u64,
            },
        );
    }

    /// Executes a ranked query in *partial* (cluster-shard) mode: the query's
    /// `k` is optionally overridden, and alongside the local top-k the method
    /// reports the k-th value as a bound on everything it did **not** return
    /// (Eq. 15's pruning threshold, exported): any unreturned candidate —
    /// pruned by its CHI bounds or verified and rejected — ranks no better
    /// than the bound. A distributed top-k coordinator re-queries a shard
    /// only while its bound could still beat the merged k-th row (see
    /// [`merge::partial_may_improve`]).
    ///
    /// The bound is `None` when the partition returned *every* candidate it
    /// holds (nothing is hidden). Non-ranked queries execute normally and
    /// also carry no bound.
    pub fn execute_topk_partial(
        &self,
        query: &Query,
        k_override: Option<usize>,
    ) -> QueryResult<merge::RankedPartial> {
        let mut query = query.clone();
        let ranked = match &mut query.kind {
            QueryKind::TopK { k, .. } => {
                if let Some(n) = k_override {
                    *k = n;
                }
                true
            }
            QueryKind::Aggregate {
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
                true
            }
            _ => false,
        };
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
                self.resolve_pairs_traced(&query.selection, join);
            let total = pairs.len();
            let plan = planner::plan_query(self, &query);
            let mut output = exec::pair::execute_topk(self, &pairs, expr, *k, *order, &plan)?;
            self.record_query(&query, &output);
            left_trace.apply(&mut output.stats);
            right_trace.apply(&mut output.stats);
            let bound = if output.rows.len() < total {
                output.rows.last().and_then(|r| r.value)
            } else {
                None
            };
            return Ok(merge::RankedPartial { output, bound });
        }
        if matches!(query.kind, QueryKind::PairFilter { .. }) {
            // Non-ranked pair statement: no bound, and no mask-id
            // candidate scan either (see `execute`).
            return Ok(merge::RankedPartial {
                output: self.execute_resolved(&query, &[])?,
                bound: None,
            });
        }
        let (candidates, trace) = self.resolve_selection_traced(&query.selection);
        if !ranked {
            let mut output = self.execute_resolved(&query, &candidates)?;
            trace.apply(&mut output.stats);
            return Ok(merge::RankedPartial {
                output,
                bound: None,
            });
        }
        // Count ranked items from the same candidate snapshot the executor
        // receives, so "did we return everything" cannot race a write.
        let total = if query.is_grouped() {
            self.group_by_image(&candidates).len()
        } else {
            candidates.len()
        };
        let mut output = self.execute_resolved(&query, &candidates)?;
        trace.apply(&mut output.stats);
        let bound = if output.rows.len() < total {
            output.rows.last().and_then(|r| r.value)
        } else {
            None
        };
        Ok(merge::RankedPartial { output, bound })
    }

    /// Executes a query against an already resolved candidate set:
    /// plan, dispatch, record.
    fn execute_resolved(&self, query: &Query, candidates: &[MaskId]) -> QueryResult<QueryOutput> {
        let plan = {
            let _plan = masksearch_obs::span("plan");
            planner::plan_query(self, query)
        };
        let output = self.dispatch(query, candidates, &plan)?;
        self.record_query(query, &output);
        Ok(output)
    }

    /// Dispatches on the query kind.
    fn dispatch(
        &self,
        query: &Query,
        candidates: &[MaskId],
        plan: &ExecPlan,
    ) -> QueryResult<QueryOutput> {
        match &query.kind {
            QueryKind::Filter { predicate } => {
                exec::filter::execute(self, candidates, predicate, plan)
            }
            QueryKind::TopK { expr, k, order } => {
                exec::topk::execute(self, candidates, expr, *k, *order, plan)
            }
            QueryKind::Aggregate {
                expr,
                agg,
                having,
                top_k,
            } => exec::aggregate::execute(self, candidates, expr, *agg, *having, *top_k, plan),
            QueryKind::MaskAggregate {
                agg,
                term,
                having,
                top_k,
            } => exec::mask_agg::execute(
                self,
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
                    self.resolve_pairs_traced(&query.selection, join);
                let mut output = exec::pair::execute_filter(self, &pairs, predicate, plan)?;
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
                    self.resolve_pairs_traced(&query.selection, join);
                let mut output = exec::pair::execute_topk(self, &pairs, expr, *k, *order, plan)?;
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

    /// A memory store that counts the masks read through `get`.
    struct CountingStore {
        inner: MemoryMaskStore,
        gets: std::sync::atomic::AtomicUsize,
    }

    impl MaskStore for CountingStore {
        fn put(&self, mask_id: MaskId, mask: &Mask) -> masksearch_storage::StorageResult<()> {
            self.inner.put(mask_id, mask)
        }
        fn delete(&self, mask_id: MaskId) -> masksearch_storage::StorageResult<()> {
            self.inner.delete(mask_id)
        }
        fn get(&self, mask_id: MaskId) -> masksearch_storage::StorageResult<Mask> {
            self.gets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.get(mask_id)
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
        fn stored_bytes(&self, mask_id: MaskId) -> masksearch_storage::StorageResult<u64> {
            self.inner.stored_bytes(mask_id)
        }
        fn total_bytes(&self) -> u64 {
            self.inner.total_bytes()
        }
        fn io_stats(&self) -> Arc<masksearch_storage::IoStats> {
            self.inner.io_stats()
        }
        fn disk_profile(&self) -> masksearch_storage::DiskProfile {
            self.inner.disk_profile()
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
