//! Query outputs: result rows and per-query execution statistics.

use masksearch_core::{ImageId, MaskId};
use std::time::Duration;

/// The key of a result row: a mask for mask-level queries, an image for
/// grouped (aggregation) queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RowKey {
    /// A mask id.
    Mask(MaskId),
    /// An image id (grouped queries).
    Image(ImageId),
}

/// One row of a query result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultRow {
    /// The mask or image the row refers to.
    pub key: RowKey,
    /// The computed expression / aggregate value, when the executor had to
    /// compute it exactly. Rows accepted purely from index bounds carry
    /// `None` (the paper's filter queries return ids, not values).
    pub value: Option<f64>,
}

impl ResultRow {
    /// A row keyed by mask id.
    pub fn mask(mask_id: MaskId, value: Option<f64>) -> Self {
        Self {
            key: RowKey::Mask(mask_id),
            value,
        }
    }

    /// A row keyed by image id.
    pub fn image(image_id: ImageId, value: Option<f64>) -> Self {
        Self {
            key: RowKey::Image(image_id),
            value,
        }
    }
}

/// Execution statistics for one query — the quantities the paper's
/// evaluation reports (number of masks loaded, FML, stage breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Number of masks targeted by the query after the relational selection.
    pub candidates: u64,
    /// Masks pruned by the filter stage (guaranteed to fail). For a ranked
    /// statement: the items (masks, groups or pairs) never verified — those
    /// whose bounds fail `HAVING`, those whose per-cell bounds fell below
    /// the k-th value, and the unvisited tail after the first bound that
    /// cannot enter the top-k. A per-cell refinement is counted as neither
    /// pruned nor verified.
    pub pruned: u64,
    /// Masks accepted by the filter stage without loading (guaranteed to
    /// satisfy).
    pub accepted_without_load: u64,
    /// Masks sent to the verification stage. For a ranked statement: the
    /// items whose exact value was computed (`pruned + verified` is the
    /// item count).
    pub verified: u64,
    /// Masks actually loaded from storage during the query (the paper's
    /// "number of masks loaded", Table 2).
    pub masks_loaded: u64,
    /// Of `masks_loaded`, masks verified in place: only the rows of the
    /// query's ROIs were read, and counted where the store holds them,
    /// without decoding or caching the mask.
    pub verified_in_place: u64,
    /// Bytes read from storage during the query.
    pub bytes_read: u64,
    /// CHIs built during the query (incremental indexing, §3.6).
    pub indexes_built: u64,
    /// CHI cells the cell kernel of verification decided whole (all of
    /// their pixels out of range, or all in) without touching pixels.
    pub tiles_pruned: u64,
    /// CHI cells the ROI covers whose count the cell kernel took exactly
    /// from the histogram.
    pub tiles_hist: u64,
    /// CHI cells whose ROI pixels the cell kernel scanned.
    pub tiles_scanned: u64,
    /// Pair (multi-mask) queries: images where both mask bindings resolved
    /// and the pair entered the candidate set.
    pub pairs_bound: u64,
    /// Masks verification counted by CHI cell.
    pub planner_kernel_on: u64,
    /// Masks verification counted by the reference scan.
    pub planner_kernel_off: u64,
    /// Secondary-index point probes issued during candidate resolution.
    pub index_probes: u64,
    /// Mask ids returned by secondary-index probes before re-verification
    /// against the full selection.
    pub index_rows: u64,
    /// Metadata-constrained resolutions answered through a secondary index.
    pub planner_index_on: u64,
    /// Metadata-constrained resolutions answered by a catalog scan.
    pub planner_index_off: u64,
    /// Wall-clock time spent resolving the relational selection into the
    /// candidate set (catalog scan or secondary-index probe). This is the
    /// stage a metadata index accelerates, so it is reported separately
    /// from the filter/verify stages that follow it.
    pub resolve_wall: Duration,
    /// Wall-clock time spent in the filter stage.
    pub filter_wall: Duration,
    /// Wall-clock time spent in the verification stage (including index
    /// building in incremental mode).
    pub verify_wall: Duration,
    /// Total wall-clock time of the query, including candidate resolution.
    pub total_wall: Duration,
    /// Virtual I/O time charged by the disk cost model during the query.
    pub io_virtual: Duration,
}

/// The stage counters a statement feeds into the windowed time series.
impl From<&QueryStats> for masksearch_obs::StageCounts {
    fn from(stats: &QueryStats) -> Self {
        Self {
            candidates: stats.candidates,
            pruned: stats.pruned,
            verified: stats.verified,
            loaded: stats.masks_loaded,
        }
    }
}

impl QueryStats {
    /// Fraction of targeted masks that were loaded from storage (the paper's
    /// FML, §4.4). Zero when there were no candidates.
    pub fn fml(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.masks_loaded as f64 / self.candidates as f64
        }
    }

    /// Modelled end-to-end time: CPU wall time plus the virtual I/O charge.
    ///
    /// This is the quantity the experiment harness reports as "query time":
    /// on the paper's hardware the I/O would overlap poorly with compute
    /// because the disk is the bottleneck, so the sum is the right
    /// first-order model.
    pub fn modeled_total(&self) -> Duration {
        self.total_wall + self.io_virtual
    }
}

/// The complete output of one query: rows plus statistics.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Result rows. For filter queries the order is ascending by key; for
    /// ranked queries the order follows the requested ordering.
    pub rows: Vec<ResultRow>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl QueryOutput {
    /// Mask ids of all mask-keyed rows, in row order.
    pub fn mask_ids(&self) -> Vec<MaskId> {
        self.rows
            .iter()
            .filter_map(|r| match r.key {
                RowKey::Mask(id) => Some(id),
                RowKey::Image(_) => None,
            })
            .collect()
    }

    /// Image ids of all image-keyed rows, in row order.
    pub fn image_ids(&self) -> Vec<ImageId> {
        self.rows
            .iter()
            .filter_map(|r| match r.key {
                RowKey::Image(id) => Some(id),
                RowKey::Mask(_) => None,
            })
            .collect()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the query returned no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_constructors_and_accessors() {
        let out = QueryOutput {
            rows: vec![
                ResultRow::mask(MaskId::new(3), Some(12.0)),
                ResultRow::mask(MaskId::new(5), None),
                ResultRow::image(ImageId::new(9), Some(1.5)),
            ],
            stats: QueryStats::default(),
        };
        assert_eq!(out.len(), 3);
        assert!(!out.is_empty());
        assert_eq!(out.mask_ids(), vec![MaskId::new(3), MaskId::new(5)]);
        assert_eq!(out.image_ids(), vec![ImageId::new(9)]);
    }

    #[test]
    fn fml_and_modeled_total() {
        let stats = QueryStats {
            candidates: 1000,
            masks_loaded: 37,
            total_wall: Duration::from_millis(20),
            io_virtual: Duration::from_millis(380),
            ..Default::default()
        };
        assert!((stats.fml() - 0.037).abs() < 1e-12);
        assert_eq!(stats.modeled_total(), Duration::from_millis(400));
        assert_eq!(QueryStats::default().fml(), 0.0);
    }
}
