//! Filter-query execution: the two-stage filter–verification framework of
//! §3.2 applied to `WHERE <predicate on CP(...)>` queries.

use crate::error::QueryResult;
use crate::eval;
use crate::exec::{apply_io_delta, chunks_for_threads, elapsed};
use crate::planner::ExecPlan;
use crate::predicate::{Predicate, Truth};
use crate::result::{QueryOutput, QueryStats, ResultRow};
use crate::session::Session;
use masksearch_core::{MaskId, TileStats};
use masksearch_obs::keys as obs_keys;
use parking_lot::Mutex;
use std::time::Instant;

/// Per-mask outcome of the filter stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FilterOutcome {
    /// Guaranteed to satisfy the predicate: goes straight to the result set.
    Accept,
    /// Guaranteed to fail the predicate: pruned.
    Prune,
    /// Undecided: must be verified by loading the mask.
    Verify,
}

/// Executes a filter query over `candidates`, following `plan`'s term
/// order and per-mask kernel routing (both byte-identical to the fixed
/// strategies; see `masksearch-plan`).
pub fn execute(
    session: &Session,
    candidates: &[MaskId],
    predicate: &Predicate,
    plan: &ExecPlan,
) -> QueryResult<QueryOutput> {
    let total_start = Instant::now();
    let io_before = session.store().io_stats().snapshot();
    let fallback = session.config().object_box_fallback;
    let threads = session.config().threads;

    // ---- Filter stage -----------------------------------------------------
    let filter_span = masksearch_obs::span("filter");
    let filter_start = Instant::now();
    let chunks = chunks_for_threads(candidates, threads);
    // The stage is pure CPU (nothing is loaded), so one catalog guard and
    // one CHI-store guard cover all of it: per-candidate lock round-trips,
    // record clones, and `Arc` bumps used to dominate bounds-decided
    // classification. Both guards drop at the end of this block, before
    // verification starts loading masks.
    let outcomes: Vec<(MaskId, FilterOutcome)> = {
        let catalog = session.catalog_read();
        let chi_reader = session.chi_reader();
        let classify_chunk = |chunk: &[MaskId]| -> QueryResult<Vec<(MaskId, FilterOutcome)>> {
            let mut classifier = eval::BoundsClassifier::new(predicate, plan.term_order());
            let mut local = Vec::with_capacity(chunk.len());
            for &mask_id in chunk {
                let record = catalog
                    .get(mask_id)
                    .ok_or(crate::error::QueryError::UnknownMask(mask_id))?;
                let outcome = match chi_reader.as_ref().and_then(|r| r.get(mask_id)) {
                    // No index: incremental and disabled modes verify by
                    // loading.
                    None => FilterOutcome::Verify,
                    Some(chi) => match classifier.classify(record, chi, fallback)? {
                        Truth::True => FilterOutcome::Accept,
                        Truth::False => FilterOutcome::Prune,
                        Truth::Unknown => FilterOutcome::Verify,
                    },
                };
                local.push((mask_id, outcome));
            }
            Ok(local)
        };
        if chunks.len() <= 1 {
            // One chunk (single-threaded session or small input): classify
            // inline — spawning a worker costs more than the work it does.
            match chunks.first() {
                Some(chunk) => classify_chunk(chunk)?,
                None => Vec::new(),
            }
        } else {
            let results: Mutex<Vec<(MaskId, FilterOutcome)>> =
                Mutex::new(Vec::with_capacity(candidates.len()));
            let first_error: Mutex<Option<crate::error::QueryError>> = Mutex::new(None);
            std::thread::scope(|scope| {
                for chunk in &chunks {
                    scope.spawn(|| match classify_chunk(chunk) {
                        Ok(local) => results.lock().extend(local),
                        Err(e) => {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                        }
                    });
                }
            });
            if let Some(err) = first_error.into_inner() {
                return Err(err);
            }
            results.into_inner()
        }
    };
    let filter_wall = elapsed(filter_start);

    let mut accepted: Vec<MaskId> = Vec::new();
    let mut to_verify: Vec<MaskId> = Vec::new();
    let mut pruned = 0u64;
    for (id, outcome) in outcomes {
        match outcome {
            FilterOutcome::Accept => accepted.push(id),
            FilterOutcome::Prune => pruned += 1,
            FilterOutcome::Verify => to_verify.push(id),
        }
    }
    to_verify.sort_unstable();
    masksearch_obs::add_counter(obs_keys::CANDIDATES, candidates.len() as u64);
    masksearch_obs::add_counter(obs_keys::PRUNED, pruned);
    masksearch_obs::add_counter(obs_keys::VERIFIED, to_verify.len() as u64);
    drop(filter_span);

    // ---- Verification stage ----------------------------------------------
    let verify_span = masksearch_obs::span("verify");
    let verify_start = Instant::now();
    let verify_chunks = chunks_for_threads(&to_verify, threads);
    #[derive(Default)]
    struct ChunkVerify {
        hits: Vec<MaskId>,
        built: u64,
        tiles: TileStats,
        kernel: (u64, u64),
    }
    let verify_chunk = |chunk: &[MaskId]| -> QueryResult<ChunkVerify> {
        let mut out = ChunkVerify::default();
        for &mask_id in chunk {
            let record = session.record(mask_id)?;
            let (mask, built) = session.load_and_index(mask_id)?;
            let kernel_on = plan.kernel_on_for(&mask);
            if kernel_on {
                out.kernel.0 += 1;
            } else {
                out.kernel.1 += 1;
            }
            let satisfied = eval::predicate_exact_tiled(
                predicate,
                &record,
                &mask,
                &session.verify_options_with(kernel_on),
                &mut out.tiles,
            )?;
            if satisfied {
                out.hits.push(mask_id);
            }
            if built {
                out.built += 1;
            }
        }
        Ok(out)
    };
    let verified = if verify_chunks.len() <= 1 {
        // Same single-chunk shortcut as the filter stage.
        match verify_chunks.first() {
            Some(chunk) => verify_chunk(chunk)?,
            None => ChunkVerify::default(),
        }
    } else {
        let merged: Mutex<ChunkVerify> = Mutex::new(ChunkVerify::default());
        let first_error: Mutex<Option<crate::error::QueryError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for chunk in &verify_chunks {
                scope.spawn(|| match verify_chunk(chunk) {
                    Ok(out) => {
                        let mut m = merged.lock();
                        m.hits.extend(out.hits);
                        m.built += out.built;
                        m.tiles.merge(&out.tiles);
                        m.kernel.0 += out.kernel.0;
                        m.kernel.1 += out.kernel.1;
                    }
                    Err(e) => {
                        let mut slot = first_error.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                    }
                });
            }
        });
        if let Some(err) = first_error.into_inner() {
            return Err(err);
        }
        merged.into_inner()
    };
    let verify_wall = elapsed(verify_start);
    let (kernel_on_count, kernel_off_count) = verified.kernel;
    masksearch_obs::add_counter(obs_keys::INDEXES_BUILT, verified.built);
    masksearch_obs::add_counter(obs_keys::PLANNER_KERNEL_ON, kernel_on_count);
    masksearch_obs::add_counter(obs_keys::PLANNER_KERNEL_OFF, kernel_off_count);
    drop(verify_span);

    accepted.extend(verified.hits);
    accepted.sort_unstable();

    let io_delta = session
        .store()
        .io_stats()
        .snapshot()
        .delta_since(&io_before);
    let tiles = verified.tiles;
    let mut stats = QueryStats {
        candidates: candidates.len() as u64,
        pruned,
        // Masks admitted purely from bounds.
        accepted_without_load: (candidates.len() as u64)
            .saturating_sub(pruned)
            .saturating_sub(to_verify.len() as u64),
        verified: to_verify.len() as u64,
        indexes_built: verified.built,
        tiles_pruned: tiles.tiles_pruned,
        tiles_hist: tiles.tiles_hist,
        tiles_scanned: tiles.tiles_scanned,
        planner_kernel_on: kernel_on_count,
        planner_kernel_off: kernel_off_count,
        planner_reorders: plan.plan.reordered() as u64,
        filter_wall,
        verify_wall,
        total_wall: elapsed(total_start),
        ..Default::default()
    };
    apply_io_delta(&mut stats, &io_delta);

    Ok(QueryOutput {
        rows: accepted
            .into_iter()
            .map(|id| ResultRow::mask(id, None))
            .collect(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{Query, Selection};
    use crate::session::{IndexingMode, SessionConfig};
    use masksearch_core::{cp, ImageId, Mask, MaskRecord, PixelRange, Roi};
    use masksearch_index::ChiConfig;
    use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
    use std::sync::Arc;

    /// A database of blob masks with varying salient-pixel counts.
    fn blob_db(n: u64) -> (Arc<MemoryMaskStore>, Catalog, Vec<Mask>) {
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        let mut masks = Vec::new();
        for i in 0..n {
            let radius = 2.0 + (i as f32) * 0.7;
            let mask = Mask::from_fn(48, 48, move |x, y| {
                let dx = x as f32 - 24.0;
                let dy = y as f32 - 24.0;
                if (dx * dx + dy * dy).sqrt() < radius {
                    0.9
                } else {
                    0.05
                }
            });
            store.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(
                MaskRecord::builder(MaskId::new(i))
                    .image_id(ImageId::new(i))
                    .shape(48, 48)
                    .object_box(Roi::new(12, 12, 36, 36).unwrap())
                    .build(),
            );
            masks.push(mask);
        }
        (store, catalog, masks)
    }

    fn brute_force(masks: &[Mask], roi: &Roi, range: &PixelRange, t: f64) -> Vec<MaskId> {
        masks
            .iter()
            .enumerate()
            .filter(|(_, m)| (cp(m, roi, range) as f64) > t)
            .map(|(i, _)| MaskId::new(i as u64))
            .collect()
    }

    fn run(mode: IndexingMode) {
        let (store, catalog, masks) = blob_db(24);
        let config = SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap())
            .threads(3)
            .indexing_mode(mode);
        let session = Session::new(store.clone() as Arc<dyn MaskStore>, catalog, config).unwrap();
        let roi = Roi::new(10, 10, 40, 40).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        for t in [0.0, 50.0, 200.0, 800.0, 3000.0] {
            let query = Query::filter_cp_gt(roi, range, t);
            let out = session.execute(&query).unwrap();
            assert_eq!(
                out.mask_ids(),
                brute_force(&masks, &roi, &range, t),
                "threshold {t} mode {mode:?}"
            );
            assert_eq!(out.stats.candidates, 24);
            assert_eq!(
                out.stats.pruned + out.stats.accepted_without_load + out.stats.verified,
                24
            );
        }
    }

    #[test]
    fn filter_results_match_brute_force_in_eager_mode() {
        run(IndexingMode::Eager);
    }

    #[test]
    fn filter_results_match_brute_force_in_incremental_mode() {
        run(IndexingMode::Incremental);
    }

    #[test]
    fn filter_results_match_brute_force_with_indexing_disabled() {
        run(IndexingMode::Disabled);
    }

    #[test]
    fn eager_mode_loads_fewer_masks_than_disabled() {
        let (store, catalog, _) = blob_db(32);
        let roi = Roi::new(16, 16, 32, 32).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let query = Query::filter_cp_gt(roi, range, 60.0);

        let eager_session = Session::new(
            store.clone() as Arc<dyn MaskStore>,
            catalog.clone(),
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap()).indexing_mode(IndexingMode::Eager),
        )
        .unwrap();
        // Reset stats so the eager build is not counted against the query.
        store.io_stats().reset();
        let eager_out = eager_session.execute(&query).unwrap();

        let disabled_session = Session::new(
            store.clone() as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap())
                .indexing_mode(IndexingMode::Disabled),
        )
        .unwrap();
        store.io_stats().reset();
        let disabled_out = disabled_session.execute(&query).unwrap();

        assert_eq!(eager_out.mask_ids(), disabled_out.mask_ids());
        assert!(eager_out.stats.masks_loaded < disabled_out.stats.masks_loaded);
        assert_eq!(disabled_out.stats.masks_loaded, 32);
        assert!(eager_out.stats.fml() < 1.0);
        assert!((disabled_out.stats.fml() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_mode_builds_indexes_as_a_side_effect() {
        let (store, catalog, _) = blob_db(10);
        let session = Session::new(
            store as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap())
                .indexing_mode(IndexingMode::Incremental),
        )
        .unwrap();
        let roi = Roi::new(10, 10, 40, 40).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let query = Query::filter_cp_gt(roi, range, 100.0);

        let first = session.execute(&query).unwrap();
        assert_eq!(first.stats.masks_loaded, 10);
        assert_eq!(first.stats.indexes_built, 10);
        assert_eq!(session.indexed_masks(), 10);

        // The second execution benefits from the indexes built by the first.
        let second = session.execute(&query).unwrap();
        assert_eq!(second.mask_ids(), first.mask_ids());
        assert!(second.stats.masks_loaded < 10);
        assert_eq!(second.stats.indexes_built, 0);
    }

    #[test]
    fn selection_restricts_candidates() {
        let (store, catalog, _) = blob_db(12);
        let session = Session::new(
            store as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap()).indexing_mode(IndexingMode::Eager),
        )
        .unwrap();
        let roi = Roi::new(0, 0, 48, 48).unwrap();
        let query = Query::filter_cp_gt(roi, PixelRange::full(), 0.0).with_selection(
            Selection::all().with_image_ids(vec![ImageId::new(3), ImageId::new(5)]),
        );
        let out = session.execute(&query).unwrap();
        assert_eq!(out.stats.candidates, 2);
        assert_eq!(out.mask_ids(), vec![MaskId::new(3), MaskId::new(5)]);
    }

    #[test]
    fn compound_predicates_and_object_rois() {
        let (store, catalog, masks) = blob_db(20);
        let session = Session::new(
            store as Arc<dyn MaskStore>,
            catalog.clone(),
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap()).indexing_mode(IndexingMode::Eager),
        )
        .unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        // Salient pixels inside the object box > 100 AND salient pixels in
        // the whole mask < 600 (an annulus-style query).
        let pred = Predicate::gt(Expr::cp_object(range), 100.0)
            .and(Predicate::lt(Expr::cp_full(range), 600.0));
        let out = session.execute(&Query::filter(pred)).unwrap();
        let object_box = Roi::new(12, 12, 36, 36).unwrap();
        let expected: Vec<MaskId> = masks
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                let inside = cp(m, &object_box, &range) as f64;
                let total = cp(m, &m.full_roi(), &range) as f64;
                inside > 100.0 && total < 600.0
            })
            .map(|(i, _)| MaskId::new(i as u64))
            .collect();
        assert_eq!(out.mask_ids(), expected);
    }
}
