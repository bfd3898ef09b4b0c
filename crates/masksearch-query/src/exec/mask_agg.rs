//! Mask-aggregation execution (§3.4, paper Q5 / Example 2): group masks by
//! image, combine the group's masks with a `MASK_AGG` function (e.g.
//! intersection after thresholding), evaluate a `CP` term on the aggregated
//! mask, then filter and/or rank the groups.
//!
//! If the session holds a pre-built index over the aggregated masks
//! ([`Session::build_aggregate_index`]), the filter stage bounds the `CP`
//! value from that index and most groups are never materialised; otherwise
//! every group is verified by loading its member masks (and, in incremental
//! mode, the aggregated mask's CHI is built and retained as a side effect).
//!
//! The planner deliberately leaves this executor on its reference scan: the
//! aggregated mask is materialised fresh for each group, so a tile-summary
//! grid built over it could never amortise across queries the way per-mask
//! grids do.

use crate::error::QueryResult;
use crate::exec::{apply_io_delta, elapsed, sort_ranked, worst_index, worst_value};
use crate::expr::Interval;
use crate::predicate::{CmpOp, Comparison, Truth};
use crate::query::Selection;
use crate::result::{QueryOutput, QueryStats, ResultRow};
use crate::session::Session;
use crate::spec::{CpTerm, Order, RoiSpec};
use masksearch_core::{cp, ImageId, Mask, MaskAgg, MaskId, PixelRange, Roi};
use masksearch_index::Chi;
use std::time::Instant;

/// Executes a mask-aggregation query over `candidates`.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    session: &Session,
    selection: &Selection,
    candidates: &[MaskId],
    agg: &MaskAgg,
    term: &CpTerm,
    having: Option<(CmpOp, f64)>,
    top_k: Option<(usize, Order)>,
) -> QueryResult<QueryOutput> {
    let total_start = Instant::now();
    let io_before = session.store().io_stats().snapshot();

    let groups = session.group_by_image(candidates);
    let signature = Session::aggregate_signature(agg, selection);
    let agg_index = session.aggregate_index(&signature);

    let mut pruned_groups = 0u64;
    let mut accepted_without_load = 0u64;
    let mut verified_groups = 0u64;
    let mut indexes_built = 0u64;
    let mut filter_wall = std::time::Duration::ZERO;
    let mut verify_wall = std::time::Duration::ZERO;

    let mut accepted_rows: Vec<ResultRow> = Vec::new();
    let (k, order) = match top_k {
        Some((k, order)) => (k, Some(order)),
        None => (0, None),
    };
    let mut top: Vec<(f64, ImageId)> = Vec::new();

    for (image_id, member_ids) in &groups {
        // Resolve the term's ROI for this group. Object boxes are shared by
        // the group's masks (they annotate the same image), so the first
        // record's box is used.
        let roi = group_roi(session, term, member_ids)?;

        // ---- Filter step using the aggregated-mask index, if present. -----
        let filter_start = Instant::now();
        let group_bounds: Option<Interval> = agg_index.as_ref().and_then(|index| {
            let b = index
                .reader()
                .get(MaskId::new(image_id.raw()))?
                .cp_bounds(&roi, &term.range);
            Some(Interval::new(b.lower as f64, b.upper as f64))
        });
        filter_wall += elapsed(filter_start);

        if let Some(bounds) = &group_bounds {
            if let Some(order) = order {
                if top.len() == k && k > 0 {
                    let threshold = worst_value(&top, order);
                    let cannot_enter = match order {
                        Order::Desc => bounds.hi <= threshold,
                        Order::Asc => bounds.lo >= threshold,
                    };
                    if cannot_enter {
                        pruned_groups += 1;
                        continue;
                    }
                }
            } else if let Some((op, threshold)) = having {
                let cmp = Comparison::new(crate::expr::Expr::Const(0.0), op, threshold);
                match cmp.eval_bounds(bounds) {
                    Truth::False => {
                        pruned_groups += 1;
                        continue;
                    }
                    Truth::True => {
                        accepted_without_load += 1;
                        accepted_rows.push(ResultRow::image(*image_id, None));
                        continue;
                    }
                    Truth::Unknown => {}
                }
            }
        }

        // ---- Verification: load the group, aggregate, evaluate exactly. ---
        let verify_start = Instant::now();
        verified_groups += 1;
        let mut loaded = Vec::with_capacity(member_ids.len());
        for &mask_id in member_ids {
            let (mask, built) = session.load_and_index(mask_id)?;
            if built {
                indexes_built += 1;
            }
            loaded.push(mask);
        }
        let refs: Vec<&Mask> = loaded.iter().map(|m| m.mask()).collect();
        let aggregated = agg.apply(&refs)?;
        // The aggregated mask is freshly materialised and evaluated exactly
        // once, so the tiled kernel's summary build (a full extra pixel
        // pass) can never amortise here — the reference ROI scan is
        // strictly cheaper. The kernel covers the per-mask CP terms of the
        // other executors, where cached masks reuse their summaries.
        let value = cp(&aggregated, &roi, &term.range) as f64;
        // Incremental indexing of the aggregated mask (§3.4): retain its CHI
        // so later queries with the same aggregation shape can prune.
        if agg_index.is_none()
            || !agg_index
                .as_ref()
                .unwrap()
                .contains(MaskId::new(image_id.raw()))
        {
            let chi = Chi::build(&aggregated, &session.config().chi_config);
            session.insert_aggregate_chi(&signature, *image_id, chi);
        }
        verify_wall += elapsed(verify_start);

        if let Some(order) = order {
            if k == 0 {
                continue;
            }
            if top.len() < k {
                top.push((value, *image_id));
            } else {
                let threshold = worst_value(&top, order);
                if order.better(value, threshold) {
                    let idx = worst_index(&top, order);
                    top[idx] = (value, *image_id);
                }
            }
        } else if let Some((op, threshold)) = having {
            if op.eval(value, threshold) {
                accepted_rows.push(ResultRow::image(*image_id, Some(value)));
            } else {
                pruned_groups += 1;
            }
        } else {
            accepted_rows.push(ResultRow::image(*image_id, Some(value)));
        }
    }

    let rows = if let Some(order) = order {
        let mut ranked = top;
        sort_ranked(&mut ranked, order, k);
        ranked
            .into_iter()
            .map(|(value, image)| ResultRow::image(image, Some(value)))
            .collect()
    } else {
        accepted_rows.sort_by_key(|r| r.key);
        accepted_rows
    };

    let io_delta = session
        .store()
        .io_stats()
        .snapshot()
        .delta_since(&io_before);
    let mut stats = QueryStats {
        candidates: candidates.len() as u64,
        pruned: pruned_groups,
        accepted_without_load,
        verified: verified_groups,
        indexes_built,
        filter_wall,
        verify_wall,
        total_wall: elapsed(total_start),
        ..Default::default()
    };
    apply_io_delta(&mut stats, &io_delta);

    Ok(QueryOutput { rows, stats })
}

/// Resolves the query term's ROI for a group of masks.
fn group_roi(session: &Session, term: &CpTerm, member_ids: &[MaskId]) -> QueryResult<Roi> {
    let fallback = session.config().object_box_fallback;
    let first = member_ids
        .first()
        .ok_or_else(|| crate::error::QueryError::invalid("empty group"))?;
    let record = session.record(*first)?;
    match term.roi {
        RoiSpec::Constant(roi) => Ok(roi),
        RoiSpec::FullMask | RoiSpec::ObjectBox => crate::eval::resolve_roi(term, &record, fallback),
    }
}

/// Brute-force reference used by tests and the baseline engines: aggregate
/// each group's masks and evaluate the `CP` term exactly.
pub fn brute_force_group_value(
    masks: &[&Mask],
    agg: &MaskAgg,
    roi: &Roi,
    range: &PixelRange,
) -> QueryResult<f64> {
    let aggregated = agg.apply(masks)?;
    Ok(cp(&aggregated, roi, range) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::session::{IndexingMode, SessionConfig};
    use masksearch_core::{MaskRecord, ModelId};
    use masksearch_index::ChiConfig;
    use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn db(images: u64) -> (Arc<MemoryMaskStore>, Catalog, BTreeMap<u64, Vec<Mask>>) {
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        let mut by_image = BTreeMap::new();
        let mut mask_id = 0u64;
        for img in 0..images {
            let mut group = Vec::new();
            for model in 0..2u64 {
                // Two overlapping blobs whose intersection size varies by image.
                let offset = ((img * 3 + model * 5) % 9) as f32;
                let mask = Mask::from_fn(40, 40, move |x, y| {
                    let dx = x as f32 - (16.0 + offset);
                    let dy = y as f32 - 20.0;
                    if (dx * dx + dy * dy).sqrt() < 8.0 {
                        0.9
                    } else {
                        0.1
                    }
                });
                store.put(MaskId::new(mask_id), &mask).unwrap();
                catalog.insert(
                    MaskRecord::builder(MaskId::new(mask_id))
                        .image_id(ImageId::new(img))
                        .model_id(ModelId::new(model + 1))
                        .shape(40, 40)
                        .object_box(Roi::new(8, 8, 32, 32).unwrap())
                        .build(),
                );
                group.push(mask);
                mask_id += 1;
            }
            by_image.insert(img, group);
        }
        (store, catalog, by_image)
    }

    fn brute_force_topk(
        by_image: &BTreeMap<u64, Vec<Mask>>,
        agg: &MaskAgg,
        roi: &Roi,
        range: &PixelRange,
        k: usize,
    ) -> Vec<ImageId> {
        let mut rows: Vec<(f64, ImageId)> = by_image
            .iter()
            .map(|(img, masks)| {
                let refs: Vec<&Mask> = masks.iter().collect();
                (
                    brute_force_group_value(&refs, agg, roi, range).unwrap(),
                    ImageId::new(*img),
                )
            })
            .collect();
        sort_ranked(&mut rows, Order::Desc, k);
        rows.into_iter().map(|(_, id)| id).collect()
    }

    fn make_session(store: Arc<MemoryMaskStore>, catalog: Catalog, mode: IndexingMode) -> Session {
        Session::new(
            store as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap()).indexing_mode(mode),
        )
        .unwrap()
    }

    #[test]
    fn q5_style_query_matches_brute_force() {
        // Paper Q5: top-k images by CP(intersect(masks > 0.7), roi, (0.7, 1.0)).
        let (store, catalog, by_image) = db(18);
        let session = make_session(store, catalog, IndexingMode::Eager);
        let agg = MaskAgg::IntersectThreshold { threshold: 0.7 };
        let range = PixelRange::new(0.7, 1.0).unwrap();
        let term = CpTerm::object_roi(range);
        let query = Query::mask_aggregate(agg.clone(), term).with_group_top_k(5, Order::Desc);
        let out = session.execute(&query).unwrap();
        let expected =
            brute_force_topk(&by_image, &agg, &Roi::new(8, 8, 32, 32).unwrap(), &range, 5);
        assert_eq!(out.image_ids(), expected);
    }

    #[test]
    fn prebuilt_aggregate_index_reduces_group_loads() {
        let (store, catalog, by_image) = db(24);
        let session = make_session(store.clone(), catalog, IndexingMode::Eager);
        let agg = MaskAgg::IntersectThreshold { threshold: 0.7 };
        let range = PixelRange::new(0.7, 1.0).unwrap();
        let term = CpTerm::object_roi(range);
        let selection = Selection::all();
        session.build_aggregate_index(&agg, &selection).unwrap();
        store.io_stats().reset();

        let query = Query::mask_aggregate(agg.clone(), term)
            .with_selection(selection)
            .with_group_top_k(4, Order::Desc);
        let out = session.execute(&query).unwrap();
        let expected =
            brute_force_topk(&by_image, &agg, &Roi::new(8, 8, 32, 32).unwrap(), &range, 4);
        assert_eq!(out.image_ids(), expected);
        // With the aggregate index, most groups are pruned without loading.
        assert!(out.stats.masks_loaded < 48);
        assert!(out.stats.pruned > 0);
    }

    #[test]
    fn having_filter_on_aggregated_masks() {
        let (store, catalog, by_image) = db(10);
        let session = make_session(store, catalog, IndexingMode::Eager);
        let agg = MaskAgg::UnionThreshold { threshold: 0.7 };
        let range = PixelRange::new(0.7, 1.0).unwrap();
        let roi = Roi::new(0, 0, 40, 40).unwrap();
        let term = CpTerm::constant_roi(roi, range);
        let threshold = 260.0;
        let query = Query::mask_aggregate(agg.clone(), term).with_having(CmpOp::Gt, threshold);
        let out = session.execute(&query).unwrap();
        let expected: Vec<ImageId> = by_image
            .iter()
            .filter(|(_, masks)| {
                let refs: Vec<&Mask> = masks.iter().collect();
                brute_force_group_value(&refs, &agg, &roi, &range).unwrap() > threshold
            })
            .map(|(img, _)| ImageId::new(*img))
            .collect();
        assert_eq!(out.image_ids(), expected);
    }

    #[test]
    fn incremental_mode_builds_aggregate_indexes_across_queries() {
        let (store, catalog, _) = db(8);
        let session = make_session(store, catalog, IndexingMode::Incremental);
        let agg = MaskAgg::IntersectThreshold { threshold: 0.7 };
        let range = PixelRange::new(0.7, 1.0).unwrap();
        let term = CpTerm::object_roi(range);
        let query = Query::mask_aggregate(agg, term).with_group_top_k(3, Order::Desc);
        let first = session.execute(&query).unwrap();
        assert_eq!(first.stats.masks_loaded, 16);
        let second = session.execute(&query).unwrap();
        assert_eq!(second.image_ids(), first.image_ids());
        // The aggregated-mask CHIs built during the first query prune groups
        // in the second.
        assert!(second.stats.masks_loaded < 16);
    }

    #[test]
    fn plain_mask_aggregation_returns_all_groups() {
        let (store, catalog, by_image) = db(6);
        let session = make_session(store, catalog, IndexingMode::Eager);
        let agg = MaskAgg::Mean;
        let range = PixelRange::new(0.4, 1.0).unwrap();
        let roi = Roi::new(0, 0, 40, 40).unwrap();
        let query = Query::mask_aggregate(agg.clone(), CpTerm::constant_roi(roi, range));
        let out = session.execute(&query).unwrap();
        assert_eq!(out.len(), 6);
        for row in &out.rows {
            let img = match row.key {
                crate::result::RowKey::Image(id) => id.raw(),
                _ => panic!("image rows expected"),
            };
            let refs: Vec<&Mask> = by_image[&img].iter().collect();
            let expected = brute_force_group_value(&refs, &agg, &roi, &range).unwrap();
            assert_eq!(row.value.unwrap(), expected);
        }
    }
}
