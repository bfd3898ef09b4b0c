//! Mask-aggregation execution (§3.4, paper Q5 / Example 2): group masks by
//! image, combine the group's masks with a `MASK_AGG` function (e.g.
//! intersection after thresholding), evaluate a `CP` term on the aggregated
//! mask, then filter and/or rank the groups.
//!
//! An up-front pass groups the candidates by image with one sort, resolves
//! every group's ROI from the statement's version and, if the session holds
//! a pre-built index over the aggregated masks
//! ([`Session::build_aggregate_index`]), bounds the `CP` value from that
//! index through one reader and one `TermBounds`, so most groups are never
//! materialised: the groups then go through
//! `exec::grouped`, best bound first under `ORDER BY … LIMIT`.
//! A group without bounds is verified by loading its member masks (and, in
//! incremental mode, the aggregated mask's CHI is built and retained as a
//! side effect).
//!
//! The aggregated mask is counted by the reference scan: it is materialised
//! fresh for each group, and no index of the statement summarises it.

use crate::error::QueryResult;
use crate::exec::{self, apply_reads, elapsed};
use crate::expr::Interval;
use crate::predicate::CmpOp;
use crate::query::Selection;
use crate::result::QueryOutput;
use crate::session::{IndexingMode, ReadVersion, Session};
use crate::spec::{CpTerm, Order, RoiSpec};
use masksearch_core::{cp, ImageId, Mask, MaskAgg, MaskId, PixelRange, Roi};
use masksearch_index::{Chi, TermBounds};
use masksearch_storage::disk::Reads;
use std::time::Instant;

/// Executes a mask-aggregation query over `candidates`.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    session: &Session,
    version: &ReadVersion,
    selection: &Selection,
    candidates: &[MaskId],
    agg: &MaskAgg,
    term: &CpTerm,
    having: Option<(CmpOp, f64)>,
    top_k: Option<(usize, Order)>,
) -> QueryResult<QueryOutput> {
    let total_start = Instant::now();

    // One sort of the candidates by image: a group is a run of the list.
    let keyed = version.catalog().by_image(candidates);
    let groups: Vec<&[(ImageId, MaskId)]> = keyed.chunk_by(|a, b| a.0 == b.0).collect();
    let signature = Session::aggregate_signature(agg, selection);
    let agg_index = session.aggregate_index(&signature);

    // Filter pass: every group's ROI (object boxes are shared by a group's
    // masks, so the first record's is used; a missing one fails the
    // statement here) and, where the aggregated-mask index holds the group,
    // its bounds.
    let filter_start = Instant::now();
    let agg_chis = agg_index.as_ref().map(|index| index.reader());
    let mut term_bounds = TermBounds::new(term.range);
    let mut rois = Vec::with_capacity(groups.len());
    let mut items: Vec<(ImageId, Option<Interval>)> = Vec::with_capacity(groups.len());
    for group in &groups {
        let image_id = group[0].0;
        let roi = group_roi(session, version, term, group[0].1)?;
        let bounds = agg_chis.as_ref().and_then(|chis| {
            let b = term_bounds.cp_bounds(chis.get(MaskId::new(image_id.raw()))?, &roi);
            Some(Interval::new(b.lower as f64, b.upper as f64))
        });
        rois.push(roi);
        items.push((image_id, bounds));
    }
    let filter_wall = elapsed(filter_start);

    // Verification: load the group, aggregate, evaluate exactly.
    let verify_start = Instant::now();
    let mut indexes_built = 0u64;
    let mut reads = Reads::default();
    let incremental = session.config().indexing_mode == IndexingMode::Incremental;
    let mut aggregated_chis: Vec<(ImageId, Chi)> = Vec::new();
    let verify = |i: usize| -> QueryResult<f64> {
        let image_id = groups[i][0].0;
        let mut loaded = Vec::with_capacity(groups[i].len());
        for &(_, mask_id) in groups[i] {
            let (mask, built) = reads.count(|| session.load_and_index(mask_id))?;
            indexes_built += u64::from(built);
            loaded.push(mask);
        }
        let refs: Vec<&Mask> = loaded.iter().map(|m| &*m.mask).collect();
        let aggregated = agg.apply(&refs)?;
        let value = cp(&aggregated, &rois[i], &term.range) as f64;
        // Incremental indexing of the aggregated mask (§3.4): retain its CHI
        // so later queries with the same aggregation shape can prune.
        if incremental
            && !agg_chis
                .as_ref()
                .is_some_and(|chis| chis.contains(MaskId::new(image_id.raw())))
        {
            let chi = Chi::build(&aggregated, &session.config().chi_config);
            aggregated_chis.push((image_id, chi));
        }
        Ok(value)
    };
    // Aggregate-index bounds have no per-cell refinement.
    let (rows, mut stats) = exec::grouped(&items, having, top_k, |_| Ok(None), verify)?;
    session.insert_aggregate_chis(&signature, aggregated_chis);
    stats.verify_wall = elapsed(verify_start);

    stats.candidates = candidates.len() as u64;
    stats.indexes_built = indexes_built;
    stats.filter_wall = filter_wall;
    stats.total_wall = elapsed(total_start);
    apply_reads(&mut stats, &reads);

    Ok(QueryOutput { rows, stats })
}

/// Resolves the query term's ROI for a group of masks.
fn group_roi(
    session: &Session,
    version: &ReadVersion,
    term: &CpTerm,
    first: MaskId,
) -> QueryResult<Roi> {
    let fallback = session.config().object_box_fallback;
    let record = version.record(first)?;
    match term.roi {
        RoiSpec::Constant(roi) => Ok(roi),
        RoiSpec::FullMask | RoiSpec::ObjectBox => crate::eval::resolve_roi(term, record, fallback),
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
    use crate::exec::sort_ranked;
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
