//! Filter-query execution: the two-stage filter–verification framework of
//! §3.2 applied to `WHERE <predicate on CP(...)>` queries.

use crate::error::{QueryError, QueryResult};
use crate::eval;
use crate::exec::{apply_io_delta, chunks_for_threads, elapsed};
use crate::planner::ExecPlan;
use crate::predicate::{Predicate, Truth};
use crate::result::{QueryOutput, QueryStats, ResultRow};
use crate::session::Session;
use crate::verify::VerifyStats;
use masksearch_core::{MaskId, MaskRecord};
use masksearch_obs::keys as obs_keys;
use parking_lot::Mutex;
use std::time::Instant;

/// Runs `work` over each chunk — inline for a single chunk (spawning a
/// worker costs more than a small input's work), on scoped threads
/// otherwise — and folds the chunks' outputs with `merge`. The first error
/// wins.
fn for_chunks<T, O: Default + Send>(
    chunks: &[&[T]],
    work: impl Fn(&[T]) -> QueryResult<O> + Sync,
    merge: impl Fn(&mut O, O) + Sync,
) -> QueryResult<O>
where
    T: Sync,
{
    match chunks {
        [] => Ok(O::default()),
        [chunk] => work(chunk),
        _ => {
            let merged: Mutex<QueryResult<O>> = Mutex::new(Ok(O::default()));
            std::thread::scope(|scope| {
                for chunk in chunks {
                    scope.spawn(|| {
                        let out = work(chunk);
                        let mut merged = merged.lock();
                        match (&mut *merged, out) {
                            (Ok(all), Ok(out)) => merge(all, out),
                            (Ok(_), Err(e)) => *merged = Err(e),
                            (Err(_), _) => {}
                        }
                    });
                }
            });
            merged.into_inner()
        }
    }
}

/// The filter stage's verdicts over one chunk of candidates.
#[derive(Default)]
struct Filtered {
    /// Guaranteed to satisfy the predicate: straight to the result set.
    accepted: Vec<MaskId>,
    /// Guaranteed to fail it.
    pruned: u64,
    /// Undecided: must be verified against the pixels. The records ride
    /// along so verification takes no catalog lock per mask.
    to_verify: Vec<MaskRecord>,
}

/// Executes a filter query over `candidates`, bounding its comparisons in
/// written order and routing each verified mask as `plan` decides for it.
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
    // The stage is pure CPU (nothing is loaded), so one catalog guard and
    // one CHI-store guard cover all of it, and under them a cursor over
    // each map follows the ascending candidate list: per-candidate lock
    // round-trips, record clones and two tree descents used to dominate
    // bounds-decided classification. Both guards drop at the end of this
    // block, before verification starts loading masks.
    let Filtered {
        mut accepted,
        pruned,
        mut to_verify,
    } = {
        let catalog = session.catalog_read();
        let chi_reader = session.chi_reader();
        let classify_chunk = |chunk: &[MaskId]| -> QueryResult<Filtered> {
            let mut bounds = eval::CompiledBounds::predicate(predicate, &[], fallback);
            let mut records = catalog.cursor();
            let mut chis = chi_reader.as_ref().map(|reader| reader.cursor());
            let mut out = Filtered::default();
            for &mask_id in chunk {
                let record = records
                    .seek(mask_id)
                    .ok_or(QueryError::UnknownMask(mask_id))?;
                // No index (incremental and disabled modes): verify.
                let truth = match chis.as_mut().and_then(|chis| chis.seek(mask_id)) {
                    None => Truth::Unknown,
                    Some(chi) => bounds.classify(record, chi)?,
                };
                match truth {
                    Truth::True => out.accepted.push(mask_id),
                    Truth::False => out.pruned += 1,
                    Truth::Unknown => out.to_verify.push(record.clone()),
                }
            }
            Ok(out)
        };
        for_chunks(
            &chunks_for_threads(candidates, threads),
            classify_chunk,
            |all, out| {
                all.accepted.extend(out.accepted);
                all.pruned += out.pruned;
                all.to_verify.extend(out.to_verify);
            },
        )?
    };
    let filter_wall = elapsed(filter_start);
    to_verify.sort_unstable_by_key(|record| record.mask_id);
    let accepted_without_load = accepted.len() as u64;
    masksearch_obs::add_counter(obs_keys::CANDIDATES, candidates.len() as u64);
    masksearch_obs::add_counter(obs_keys::PRUNED, pruned);
    masksearch_obs::add_counter(obs_keys::VERIFIED, to_verify.len() as u64);
    drop(filter_span);

    // ---- Verification stage ----------------------------------------------
    let verify_span = masksearch_obs::span("verify");
    let verify_start = Instant::now();
    let verify_chunk = |chunk: &[MaskRecord]| -> QueryResult<(Vec<MaskId>, VerifyStats)> {
        let mut verifier = session.verifier(plan, eval::predicate_terms(predicate));
        let mut hits = Vec::new();
        for record in chunk {
            if eval::predicate_from_term_values(predicate, verifier.counts(record)?) {
                hits.push(record.mask_id);
            }
        }
        Ok((hits, verifier.stats))
    };
    let (hits, verified) = for_chunks(
        &chunks_for_threads(&to_verify, threads),
        verify_chunk,
        |all, (hits, stats)| {
            all.0.extend(hits);
            all.1.merge(&stats);
        },
    )?;
    let verify_wall = elapsed(verify_start);

    accepted.extend(hits);
    accepted.sort_unstable();

    let mut stats = QueryStats {
        candidates: candidates.len() as u64,
        pruned,
        accepted_without_load,
        verified: to_verify.len() as u64,
        filter_wall,
        verify_wall,
        ..Default::default()
    };
    verified.record(&mut stats);
    drop(verify_span);
    let io_delta = session
        .store()
        .io_stats()
        .snapshot()
        .delta_since(&io_before);
    apply_io_delta(&mut stats, &io_delta);
    stats.total_wall = elapsed(total_start);

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
