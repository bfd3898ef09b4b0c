//! Top-k execution with bound-based pruning (§3.5).
//!
//! Every candidate's CHI region bounds are computed first, in one walk of
//! the statement's version with the filter stage's cursors. The shared
//! ranked pass (`exec::top_k`) then visits the masks best optimistic bound
//! first — the *upper* bound for a descending query, the *lower* bound for
//! an ascending one — and stops at the first mask whose bound cannot beat
//! the k-th value (Eq. 15): every mask after it is pruned without a load.
//! A mask reached on its region bound is bounded again per border cell
//! (`CompiledBounds::cell_interval`) and goes back under the tighter
//! bound; a mask is loaded, and updates the top-k, only when it is reached
//! on that (or has none).

use crate::error::{QueryError, QueryResult};
use crate::eval;
use crate::exec::{elapsed, top_k, TopK};
use crate::expr::{Expr, Interval};
use crate::result::{QueryOutput, QueryStats, ResultRow};
use crate::session::{ReadVersion, Session};
use crate::spec::Order;
use masksearch_core::{MaskId, MaskRecord};
use masksearch_obs::keys as obs_keys;
use std::time::Instant;

/// Executes a top-k query over `candidates`, verifying in the ranked
/// pass's order.
pub fn execute(
    session: &Session,
    version: &ReadVersion,
    candidates: &[MaskId],
    expr: &Expr,
    k: usize,
    order: Order,
) -> QueryResult<QueryOutput> {
    let total_start = Instant::now();
    let fallback = session.config().object_box_fallback;

    if k == 0 {
        return Ok(QueryOutput::default());
    }

    let rank_span = masksearch_obs::span("rank");
    // Filter pass: a mask's bounds depend on nothing the ranked pass
    // changes, so all of them are computed up front.
    let filter_start = Instant::now();
    let mut compiled = eval::CompiledBounds::expr(expr, fallback);
    let chis = version.chi();
    let mut records: Vec<&MaskRecord> = Vec::with_capacity(candidates.len());
    let items = {
        let mut record_cursor = version.catalog().cursor();
        let mut chi_cursor = chis.map(|chi| chi.cursor());
        candidates
            .iter()
            .map(|&mask_id| {
                let record = record_cursor
                    .seek(mask_id)
                    .ok_or(QueryError::UnknownMask(mask_id))?;
                records.push(record);
                let chi = chi_cursor.as_mut().and_then(|chis| chis.seek(mask_id));
                let bounds = chi.map(|chi| compiled.interval(record, chi)).transpose()?;
                Ok((mask_id, bounds))
            })
            .collect::<QueryResult<Vec<(MaskId, Option<Interval>)>>>()?
    };
    let filter_wall = elapsed(filter_start);

    // Ranked pass: best bound first, verifying until a bound cannot enter.
    let verify_start = Instant::now();
    let mut verifier = session.verifier(version, expr.terms());
    let refine = |i: usize| {
        chis.and_then(|chis| chis.get(candidates[i]))
            .map(|chi| compiled.cell_interval(records[i], chi))
            .transpose()
    };
    let verify = |i: usize| Ok(expr.evaluate_exact(verifier.counts(records[i])?));
    let TopK {
        rows,
        verified,
        pruned,
    } = top_k(&items, k, order, None, refine, verify)?;
    let verify_wall = elapsed(verify_start);

    let mut stats = QueryStats {
        candidates: candidates.len() as u64,
        pruned,
        verified,
        filter_wall,
        verify_wall,
        ..Default::default()
    };
    masksearch_obs::add_counter(obs_keys::CANDIDATES, candidates.len() as u64);
    masksearch_obs::add_counter(obs_keys::PRUNED, pruned);
    masksearch_obs::add_counter(obs_keys::VERIFIED, verified);
    verifier.stats.record(&mut stats);
    drop(rank_span);
    stats.total_wall = elapsed(total_start);

    Ok(QueryOutput {
        rows: rows
            .into_iter()
            .map(|(value, id)| ResultRow::mask(id, Some(value)))
            .collect(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sort_ranked;
    use crate::query::Query;
    use crate::session::{IndexingMode, SessionConfig};
    use masksearch_core::{cp, ImageId, Mask, MaskRecord, PixelRange, Roi};
    use masksearch_index::ChiConfig;
    use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
    use std::sync::Arc;

    fn blob_db(n: u64) -> (Arc<MemoryMaskStore>, Catalog, Vec<Mask>) {
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        let mut masks = Vec::new();
        for i in 0..n {
            // Blob radius varies non-monotonically with the id so ranking is
            // not trivially the id order.
            let radius = 2.0 + ((i * 7) % 13) as f32;
            let mask = Mask::from_fn(48, 48, move |x, y| {
                let dx = x as f32 - 20.0;
                let dy = y as f32 - 28.0;
                if (dx * dx + dy * dy).sqrt() < radius {
                    0.92
                } else {
                    0.03
                }
            });
            store.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(
                MaskRecord::builder(MaskId::new(i))
                    .image_id(ImageId::new(i))
                    .shape(48, 48)
                    .object_box(Roi::new(8, 16, 34, 42).unwrap())
                    .build(),
            );
            masks.push(mask);
        }
        (store, catalog, masks)
    }

    fn brute_force_topk(
        masks: &[Mask],
        roi: &Roi,
        range: &PixelRange,
        k: usize,
        order: Order,
    ) -> Vec<(f64, MaskId)> {
        let mut rows: Vec<(f64, MaskId)> = masks
            .iter()
            .enumerate()
            .map(|(i, m)| (cp(m, roi, range) as f64, MaskId::new(i as u64)))
            .collect();
        sort_ranked(&mut rows, order, k);
        rows
    }

    fn session(store: Arc<MemoryMaskStore>, catalog: Catalog, mode: IndexingMode) -> Session {
        Session::new(
            store as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap()).indexing_mode(mode),
        )
        .unwrap()
    }

    #[test]
    fn topk_matches_brute_force_desc_and_asc() {
        let (store, catalog, masks) = blob_db(30);
        let s = session(store, catalog, IndexingMode::Eager);
        let roi = Roi::new(5, 5, 43, 43).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        for order in [Order::Desc, Order::Asc] {
            let out = s.execute(&Query::top_k_cp(roi, range, 7, order)).unwrap();
            let expected = brute_force_topk(&masks, &roi, &range, 7, order);
            let got: Vec<(f64, MaskId)> = out
                .rows
                .iter()
                .map(|r| {
                    let id = match r.key {
                        crate::result::RowKey::Mask(id) => id,
                        _ => panic!("mask rows expected"),
                    };
                    (r.value.unwrap(), id)
                })
                .collect();
            assert_eq!(got, expected, "{order:?}");
        }
    }

    #[test]
    fn pruning_avoids_loading_most_masks() {
        let (store, catalog, _) = blob_db(60);
        let s = session(store.clone(), catalog, IndexingMode::Eager);
        store.io_stats().reset();
        let roi = Roi::new(5, 5, 43, 43).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let out = s
            .execute(&Query::top_k_cp(roi, range, 5, Order::Desc))
            .unwrap();
        assert_eq!(out.len(), 5);
        assert!(
            out.stats.masks_loaded < 60,
            "expected pruning, loaded {}",
            out.stats.masks_loaded
        );
        assert!(out.stats.pruned > 0);
    }

    #[test]
    fn k_larger_than_candidates_returns_everything_ranked() {
        let (store, catalog, masks) = blob_db(6);
        let s = session(store, catalog, IndexingMode::Eager);
        let roi = Roi::new(0, 0, 48, 48).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let out = s
            .execute(&Query::top_k_cp(roi, range, 100, Order::Desc))
            .unwrap();
        assert_eq!(out.len(), 6);
        let expected = brute_force_topk(&masks, &roi, &range, 100, Order::Desc);
        assert_eq!(out.rows[0].value.unwrap(), expected[0].0);
    }

    #[test]
    fn k_zero_returns_empty() {
        let (store, catalog, _) = blob_db(4);
        let s = session(store, catalog, IndexingMode::Eager);
        let out = s
            .execute(&Query::top_k_cp(
                Roi::new(0, 0, 48, 48).unwrap(),
                PixelRange::full(),
                0,
                Order::Desc,
            ))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn ratio_ranking_matches_brute_force() {
        // Example 1 from the paper: rank by the ratio of salient pixels in an
        // ROI to salient pixels in the whole mask, ascending.
        let (store, catalog, masks) = blob_db(25);
        let s = session(store, catalog, IndexingMode::Eager);
        let roi = Roi::new(0, 0, 24, 48).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let expr = Expr::cp(roi, range).div(Expr::cp_full(range));
        let out = s.execute(&Query::top_k(expr, 5, Order::Asc)).unwrap();
        let mut expected: Vec<(f64, MaskId)> = masks
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let num = cp(m, &roi, &range) as f64;
                let den = cp(m, &m.full_roi(), &range) as f64;
                (num / den, MaskId::new(i as u64))
            })
            .collect();
        sort_ranked(&mut expected, Order::Asc, 5);
        let got_ids: Vec<MaskId> = out.mask_ids();
        assert_eq!(
            got_ids,
            expected.iter().map(|(_, id)| *id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn incremental_mode_still_returns_correct_topk() {
        let (store, catalog, masks) = blob_db(20);
        let s = session(store, catalog, IndexingMode::Incremental);
        let roi = Roi::new(5, 5, 43, 43).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let out = s
            .execute(&Query::top_k_cp(roi, range, 4, Order::Desc))
            .unwrap();
        let expected = brute_force_topk(&masks, &roi, &range, 4, Order::Desc);
        assert_eq!(
            out.mask_ids(),
            expected.iter().map(|(_, id)| *id).collect::<Vec<_>>()
        );
        // First query in incremental mode loads everything (and indexes it).
        assert_eq!(out.stats.masks_loaded, 20);
        assert_eq!(s.indexed_masks(), 20);
        // A repeat of the query now prunes using the freshly built indexes.
        let again = s
            .execute(&Query::top_k_cp(roi, range, 4, Order::Desc))
            .unwrap();
        assert_eq!(again.mask_ids(), out.mask_ids());
        assert!(again.stats.masks_loaded < 20);
    }
}
