//! The verification step of the single-mask executors: the exact `CP`
//! counts of one statement's terms, mask after mask.
//!
//! A [`Verifier`] is what filter, top-k and grouped-aggregate execution
//! share (one per statement, or per worker thread of one). Per mask it
//! decides how the pixels are counted and where they are read:
//!
//! * **by CHI cell** when the statement's pinned CHI of the mask carries
//!   the stamp of the pixels counted: the cell kernel
//!   ([`TermBounds::cell_count`]) decides every cell it can from the index,
//!   and only the ROI pixels of the cells it leaves undecided are scanned;
//! * **by the reference scan** ([`cp_many`] / [`cp_many_le_rows`]) over
//!   every ROI pixel otherwise: a mask with no pinned CHI (indexing off, or
//!   not indexed yet), one whose store does not stamp its pixels, or one
//!   rewritten since the statement pinned its version (the stamps differ:
//!   the index summarises pixels that are gone).
//!
//! The pixels are read
//!
//! * **resident** in the mask cache, which keeps the stamp each mask was
//!   loaded with;
//! * **in place** — on a cache miss that is not due for admission, the store
//!   is asked for just the rows to scan ([`MaskStore::read_rows`]: the row
//!   bands of the undecided cells, or the rows the ROIs span for the
//!   reference scan), and the terms are counted straight off those bytes:
//!   no decode, no allocation, no cache churn. A read whose stamp is not the
//!   index's reads the ROIs' rows again for the reference scan. Counts, and
//!   the error for a stored pixel outside `[0, 1)`, are those of the
//!   whole-mask path over the rows it reads;
//! * **loaded whole** through the cache ([`Session::load_and_index`]) — the
//!   one fallback: a miss the cache wants to admit, a store or encoding
//!   that cannot serve rows, or a CHI still to be built from the pixels
//!   (incremental indexing).
//!
//! What a verifier reads from the store is counted on the thread that reads
//! it ([`Reads`]), so a statement reports its own loads and bytes, not those
//! of the statements running beside it.
//!
//! [`MaskStore::read_rows`]: masksearch_storage::MaskStore::read_rows

use crate::error::{QueryError, QueryResult};
use crate::eval;
use crate::result::QueryStats;
use crate::session::{IndexingMode, ReadVersion, Session};
use crate::spec::CpTerm;
use masksearch_core::{cp_many, cp_many_le_rows, cp_row_band, Mask, MaskRecord, PixelRange, Roi};
use masksearch_index::{ChiView, TermBounds};
use masksearch_obs::counters as obs_counters;
use masksearch_obs::keys as obs_keys;
use masksearch_storage::disk::{thread_reads, Reads};
use masksearch_storage::{Stamp, StorageError, VerifyLookup};
use std::ops::Range;

/// Row bands closer than this many bytes are read as one: a positioned
/// read costs more than a few kilobytes of copying.
const MERGE_GAP_BYTES: u64 = 4096;

/// What a [`Verifier`]'s verifications did, for the statement's statistics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VerifyStats {
    /// CHIs built from masks loaded whole (incremental indexing).
    pub indexes_built: u64,
    /// Masks counted in place.
    pub in_place: u64,
    /// Masks counted by the cell kernel / by the reference scan.
    pub kernel_on: u64,
    pub kernel_off: u64,
    /// Cells the cell kernel decided whole (all-out or all-in), took
    /// exactly from the histogram, and scanned.
    pub cells_decided: u64,
    pub cells_exact: u64,
    pub cells_scanned: u64,
    /// What the verifications read from the store.
    pub reads: Reads,
}

impl VerifyStats {
    /// Adds another worker's share.
    pub fn merge(&mut self, other: &VerifyStats) {
        self.indexes_built += other.indexes_built;
        self.in_place += other.in_place;
        self.kernel_on += other.kernel_on;
        self.kernel_off += other.kernel_off;
        self.cells_decided += other.cells_decided;
        self.cells_exact += other.cells_exact;
        self.cells_scanned += other.cells_scanned;
        self.reads.add(&other.reads);
    }

    /// Writes the verification fields of `stats`, its reads included, and
    /// emits the matching span and global counters.
    pub fn record(&self, stats: &mut QueryStats) {
        crate::exec::apply_reads(stats, &self.reads);
        stats.indexes_built = self.indexes_built;
        stats.verified_in_place = self.in_place;
        stats.planner_kernel_on = self.kernel_on;
        stats.planner_kernel_off = self.kernel_off;
        stats.tiles_pruned = self.cells_decided;
        stats.tiles_hist = self.cells_exact;
        stats.tiles_scanned = self.cells_scanned;
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
    version: &'a ReadVersion,
    terms: Vec<&'a CpTerm>,
    /// The cell kernel of each term, keeping its geometry across masks.
    cells: Vec<TermBounds>,
    // Per-mask scratch, reused for the whole statement.
    resolved: Vec<(Roi, PixelRange)>,
    /// The cell kernel's counts of each term, and what it left to scan:
    /// rectangles with their term's range, and the term each belongs to.
    counts: Vec<u64>,
    scan: Vec<Roi>,
    pending: Vec<(Roi, PixelRange)>,
    owners: Vec<usize>,
    /// The row bands a cold verify reads, the pending rectangles in row
    /// order, and those of one band with their terms.
    bands: Vec<Range<u32>>,
    order: Vec<usize>,
    inside: Vec<(Roi, PixelRange)>,
    inside_owners: Vec<usize>,
    band: Vec<u8>,
    values: Vec<f64>,
    /// What the verifications so far did.
    pub stats: VerifyStats,
}

impl<'a> Verifier<'a> {
    pub(crate) fn new(
        session: &'a Session,
        version: &'a ReadVersion,
        terms: Vec<&'a CpTerm>,
    ) -> Self {
        Self {
            session,
            version,
            cells: terms
                .iter()
                .map(|term| TermBounds::new(term.range))
                .collect(),
            terms,
            resolved: Vec::new(),
            counts: Vec::new(),
            scan: Vec::new(),
            pending: Vec::new(),
            owners: Vec::new(),
            bands: Vec::new(),
            order: Vec::new(),
            inside: Vec::new(),
            inside_owners: Vec::new(),
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
        let before = thread_reads();
        let counted = self.count(record);
        self.stats.reads.add(&thread_reads().since(&before));
        counted?;
        self.values.clear();
        self.values.extend(self.counts.iter().map(|&c| c as f64));
        Ok(&self.values)
    }

    /// Counts the resolved terms into `counts`: in place when possible, on
    /// the mask loaded whole otherwise.
    fn count(&mut self, record: &MaskRecord) -> QueryResult<()> {
        if self.count_in_place(record)? {
            return Ok(());
        }
        let (cached, built) = self.session.load_and_index(record.mask_id)?;
        self.stats.indexes_built += built as u64;
        self.count_loaded(record, &cached.mask, cached.stamp);
        Ok(())
    }

    /// The statement's CHI of the mask, when it summarises the pixels whose
    /// stamp is `stamp` — or any stamped pixels, for `None`.
    fn index(&self, record: &MaskRecord, stamp: Option<Stamp>) -> Option<(ChiView<'a>, Stamp)> {
        let (chi, installed) = self.version.chi()?.get_stamped(record.mask_id)?;
        let installed = installed?;
        let shape = (chi.mask_width(), chi.mask_height()) == (record.width, record.height);
        (shape && stamp.is_none_or(|stamp| stamp == installed)).then_some((chi, installed))
    }

    /// Runs the cell kernel of every resolved term on `chi`: `counts` gets
    /// what it decided, `pending` / `owners` what it left to scan.
    fn plan_cells(&mut self, chi: ChiView<'_>) {
        self.counts.clear();
        self.pending.clear();
        self.owners.clear();
        for (term, ((roi, range), cells)) in self.resolved.iter().zip(&mut self.cells).enumerate() {
            self.scan.clear();
            let count = cells.cell_count(chi, roi, &mut self.scan);
            self.counts.push(count.decided);
            self.stats.cells_decided += count.decided_cells;
            self.stats.cells_exact += count.exact_cells;
            self.stats.cells_scanned += count.scanned_cells;
            self.pending
                .extend(self.scan.iter().map(|rect| (*rect, *range)));
            self.owners
                .extend(std::iter::repeat_n(term, self.scan.len()));
        }
        obs_counters::add(&obs_counters::KERNEL_CALLS, self.resolved.len() as u64);
    }

    /// Counts on a loaded mask whose pixels carry `stamp`: by CHI cell when
    /// the statement's index summarises them, by the reference scan
    /// otherwise.
    fn count_loaded(&mut self, record: &MaskRecord, mask: &Mask, stamp: Option<Stamp>) {
        match stamp.and_then(|stamp| self.index(record, Some(stamp))) {
            Some((chi, _)) => {
                self.stats.kernel_on += 1;
                self.plan_cells(chi);
                for ((rect, range), owner) in self.pending.iter().zip(&self.owners) {
                    self.counts[*owner] += mask.count_pixels(rect, range);
                }
            }
            None => {
                self.stats.kernel_off += 1;
                self.counts = cp_many(mask, &self.resolved);
            }
        }
    }

    /// Fills `bands` with the row bands of the rectangles left to scan,
    /// ascending, bands closer than [`MERGE_GAP_BYTES`] read as one.
    fn pending_bands(&mut self, width: u32) {
        let gap_rows = (MERGE_GAP_BYTES / (u64::from(width) * 4).max(1)) as u32;
        self.bands.clear();
        self.bands
            .extend(self.pending.iter().map(|(rect, _)| rect.y0()..rect.y1()));
        self.bands.sort_unstable_by_key(|band| band.start);
        let mut merged = 0;
        for at in 1..self.bands.len() {
            let next = self.bands[at].clone();
            let last = &mut self.bands[merged];
            if next.start <= last.end.saturating_add(gap_rows) {
                last.end = last.end.max(next.end);
            } else {
                merged += 1;
                self.bands[merged] = next;
            }
        }
        self.bands
            .truncate(merged + usize::from(!self.bands.is_empty()));
    }

    /// Counts without loading the mask whole, when that is possible: on the
    /// resident copy, or off the stored rows. `false` sends the caller to
    /// the whole-mask load.
    fn count_in_place(&mut self, record: &MaskRecord) -> QueryResult<bool> {
        let session = self.session;
        let config = session.config();
        let mask_id = record.mask_id;
        // A CHI still to be built needs the whole mask; terms that clip to
        // nothing need no row at all, and the whole-mask path already
        // answers them.
        if config.indexing_mode == IndexingMode::Incremental
            && !self.version.chi().is_some_and(|chi| chi.contains(mask_id))
            && !session.chi_store().contains(mask_id)
        {
            return Ok(false);
        }
        let Some(rows) = cp_row_band(record.width, record.height, &self.resolved) else {
            return Ok(false);
        };
        let pixel_bytes = record.width as u64 * record.height as u64 * 4;
        match session.cache().lookup_for_verify(mask_id, pixel_bytes) {
            VerifyLookup::Hit(cached) => {
                self.count_loaded(record, &cached.mask, cached.stamp);
                return Ok(true);
            }
            VerifyLookup::Admit => return Ok(false),
            VerifyLookup::Bypass => {}
        }
        let shape = (record.width, record.height);
        if let Some((chi, installed)) = self.index(record, None) {
            self.plan_cells(chi);
            self.pending_bands(record.width);
            if self.bands.is_empty() {
                // Every cell decided: the index of committed pixels is the
                // count, and nothing is read.
                self.stats.kernel_on += 1;
                return Ok(true);
            }
            let read = session
                .store()
                .read_rows(mask_id, &self.bands, &mut self.band)?;
            match read {
                Some(read) if (read.width, read.height) != shape => return Ok(false),
                Some(read) if read.stamp == Some(installed) => {
                    self.count_bands(record)?;
                    self.stats.kernel_on += 1;
                    self.stats.in_place += 1;
                    return Ok(true);
                }
                // Rewritten since the statement pinned its index: the
                // reference scan below counts the pixels there are now.
                Some(_) => {}
                None => return Ok(false),
            }
        }
        let read =
            session
                .store()
                .read_rows(mask_id, std::slice::from_ref(&rows), &mut self.band)?;
        // A store that cannot serve rows, or a mask reshaped since the
        // record was read: the whole-mask path handles both as it always did.
        if read.map(|read| (read.width, read.height)) != Some(shape) {
            return Ok(false);
        }
        self.counts = self.count_band(record, 0..self.band.len(), rows.start, &self.resolved)?;
        self.stats.kernel_off += 1;
        self.stats.in_place += 1;
        Ok(true)
    }

    /// Adds the pending rectangles' counts off `band`, which holds `bands`
    /// one after another.
    fn count_bands(&mut self, record: &MaskRecord) -> QueryResult<()> {
        let row_bytes = record.width as usize * 4;
        let mut at = 0;
        self.order.clear();
        self.order.extend(0..self.pending.len());
        self.order.sort_unstable_by_key(|&i| self.pending[i].0.y0());
        let mut next = 0;
        for band in &self.bands {
            let bytes = at..at + band.len() * row_bytes;
            at = bytes.end;
            self.inside.clear();
            self.inside_owners.clear();
            while next < self.order.len() && self.pending[self.order[next]].0.y1() <= band.end {
                self.inside.push(self.pending[self.order[next]]);
                self.inside_owners.push(self.owners[self.order[next]]);
                next += 1;
            }
            let scanned = self.count_band(record, bytes, band.start, &self.inside)?;
            for (&owner, scanned) in self.inside_owners.iter().zip(scanned) {
                self.counts[owner] += scanned;
            }
        }
        Ok(())
    }

    /// `terms` counted off `band[bytes]`, rows from `first_row` on.
    fn count_band(
        &self,
        record: &MaskRecord,
        bytes: Range<usize>,
        first_row: u32,
        terms: &[(Roi, PixelRange)],
    ) -> QueryResult<Vec<u64>> {
        cp_many_le_rows(
            &self.band[bytes],
            record.width,
            record.height,
            first_row,
            terms,
        )
        .map_err(|source| {
            QueryError::from(StorageError::InvalidMask {
                mask_id: Some(record.mask_id),
                source,
            })
        })
    }
}
