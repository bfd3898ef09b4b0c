//! The verification step of the single-mask executors: the exact `CP`
//! counts of one statement's terms, mask after mask.
//!
//! A [`Verifier`] is what filter, top-k and grouped-aggregate execution
//! share (one per statement, or per worker thread of one). Per mask it
//! decides where the pixels are counted:
//!
//! * **resident** in the mask cache — the tiled kernel if the cached mask
//!   carries its tile grid, the reference scan if not (under
//!   [`KernelMode::Auto`]; see [`ExecPlan::kernel_on_for`]);
//! * **in place** — on a cache miss that is not due for admission, the store
//!   is asked for just the rows the terms' ROIs span
//!   ([`MaskStore::read_rows`]) and the terms are counted straight off those
//!   bytes ([`cp_many_le_rows`]): no decode, no allocation, no cache churn.
//!   Counts, and the error for a stored pixel outside `[0, 1)`, are those of
//!   the whole-mask path over the rows it reads;
//! * **loaded whole** through the cache ([`Session::load_and_index`]) — the
//!   one fallback: a miss the cache wants to admit, a store or encoding
//!   that cannot serve rows, a CHI still to be built from the pixels
//!   (incremental indexing), or a configuration that forces a kernel
//!   ([`KernelMode::ForceOn`] / [`KernelMode::ForceOff`] pin the whole
//!   load-then-count pipeline, which is what benchmarks and conformance
//!   tests force them for).

use crate::error::{QueryError, QueryResult};
use crate::eval;
use crate::planner::ExecPlan;
use crate::result::QueryStats;
use crate::session::{IndexingMode, Session};
use crate::spec::CpTerm;
use masksearch_core::{
    cp_many_le_rows, cp_row_band, MaskRecord, PixelRange, Roi, TileStats, TiledMask,
};
use masksearch_obs::counters as obs_counters;
use masksearch_obs::keys as obs_keys;
use masksearch_plan::KernelMode;
use masksearch_storage::{StorageError, VerifyLookup};

/// What a [`Verifier`]'s verifications did, for the statement's statistics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VerifyStats {
    /// CHIs built from masks loaded whole (incremental indexing).
    pub indexes_built: u64,
    /// Masks counted in place.
    pub in_place: u64,
    /// Loaded masks the plan routed through the tiled kernel / to the scan.
    pub kernel_on: u64,
    pub kernel_off: u64,
    /// Tile classifications of the tiled kernel.
    pub tiles: TileStats,
}

impl VerifyStats {
    /// Adds another worker's share.
    pub fn merge(&mut self, other: &VerifyStats) {
        self.indexes_built += other.indexes_built;
        self.in_place += other.in_place;
        self.kernel_on += other.kernel_on;
        self.kernel_off += other.kernel_off;
        self.tiles.merge(&other.tiles);
    }

    /// Writes the verification fields of `stats` and emits the matching
    /// span and global counters.
    pub fn record(&self, stats: &mut QueryStats) {
        stats.indexes_built = self.indexes_built;
        stats.verified_in_place = self.in_place;
        stats.planner_kernel_on = self.kernel_on;
        stats.planner_kernel_off = self.kernel_off;
        stats.tiles_pruned = self.tiles.tiles_pruned;
        stats.tiles_hist = self.tiles.tiles_hist;
        stats.tiles_scanned = self.tiles.tiles_scanned;
        masksearch_obs::add_counter(obs_keys::INDEXES_BUILT, self.indexes_built);
        masksearch_obs::add_counter(obs_keys::PLANNER_KERNEL_ON, self.kernel_on);
        masksearch_obs::add_counter(obs_keys::PLANNER_KERNEL_OFF, self.kernel_off);
        obs_counters::add(&obs_counters::VERIFY_IN_PLACE, self.in_place);
    }
}

/// Exact evaluation of one statement's `CP` terms on the masks the filter
/// stage could not decide. Created by [`Session::verifier`].
pub(crate) struct Verifier<'a> {
    session: &'a Session,
    plan: &'a ExecPlan,
    terms: Vec<&'a CpTerm>,
    // Per-mask scratch, reused for the whole statement.
    resolved: Vec<(Roi, PixelRange)>,
    band: Vec<u8>,
    values: Vec<f64>,
    /// What the verifications so far did.
    pub stats: VerifyStats,
}

impl<'a> Verifier<'a> {
    pub(crate) fn new(session: &'a Session, plan: &'a ExecPlan, terms: Vec<&'a CpTerm>) -> Self {
        Self {
            session,
            plan,
            terms,
            resolved: Vec::new(),
            band: Vec::new(),
            values: Vec::new(),
            stats: VerifyStats::default(),
        }
    }

    /// The exact value of every term, in term order, on the mask `record`
    /// describes.
    pub fn counts(&mut self, record: &MaskRecord) -> QueryResult<&[f64]> {
        let session = self.session;
        eval::resolve_terms(
            &self.terms,
            record,
            session.config().object_box_fallback,
            &mut self.resolved,
        )?;
        let counts = match self.count_in_place(record)? {
            Some(counts) => counts,
            None => {
                let (mask, built) = session.load_and_index(record.mask_id)?;
                self.stats.indexes_built += built as u64;
                self.count_loaded(&mask)
            }
        };
        self.values.clear();
        self.values.extend(counts.into_iter().map(|c| c as f64));
        Ok(&self.values)
    }

    /// Counts on a loaded mask, routed as the plan decides for it: no grid
    /// is built under `Auto`.
    fn count_loaded(&mut self, mask: &TiledMask) -> Vec<u64> {
        let kernel_on = self.plan.kernel_on_for(mask);
        if kernel_on {
            self.stats.kernel_on += 1;
        } else {
            self.stats.kernel_off += 1;
        }
        eval::count_tiled(&self.resolved, mask, kernel_on, &mut self.stats.tiles)
    }

    /// Counts without loading the mask whole, when that is possible: on the
    /// resident copy, or off the stored rows. `None` sends the caller to the
    /// whole-mask load.
    fn count_in_place(&mut self, record: &MaskRecord) -> QueryResult<Option<Vec<u64>>> {
        let session = self.session;
        let config = session.config();
        let mask_id = record.mask_id;
        // A forced kernel pins the load-then-count pipeline and a CHI still
        // to be built needs the whole mask; terms that clip to nothing need
        // no row at all, and the whole-mask path already answers them.
        if config.kernel_mode != KernelMode::Auto
            || (config.indexing_mode == IndexingMode::Incremental
                && !session.chi_store().contains(mask_id))
        {
            return Ok(None);
        }
        let Some(rows) = cp_row_band(record.width, record.height, &self.resolved) else {
            return Ok(None);
        };
        let pixel_bytes = record.width as u64 * record.height as u64 * 4;
        match session.cache().lookup_for_verify(mask_id, pixel_bytes) {
            VerifyLookup::Hit(mask) => return Ok(Some(self.count_loaded(&mask))),
            VerifyLookup::Admit => return Ok(None),
            VerifyLookup::Bypass => {}
        }
        let stored = session
            .store()
            .read_rows(mask_id, rows.clone(), &mut self.band)?;
        // A store that cannot serve rows, or a mask reshaped since the
        // record was read: the whole-mask path handles both as it always did.
        if stored != Some((record.width, record.height)) {
            return Ok(None);
        }
        let counts = cp_many_le_rows(
            &self.band,
            record.width,
            record.height,
            rows.start,
            &self.resolved,
        )
        .map_err(|source| {
            QueryError::from(StorageError::InvalidMask {
                mask_id: Some(mask_id),
                source,
            })
        })?;
        self.stats.in_place += 1;
        Ok(Some(counts))
    }
}
