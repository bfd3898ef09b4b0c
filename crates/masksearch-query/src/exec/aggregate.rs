//! Scalar-aggregation execution (§3.4): group masks by image, aggregate the
//! per-mask expression values with a monotone scalar aggregate, then filter
//! (`HAVING`) and/or rank (top-k) the groups.
//!
//! Because SUM/AVG/MIN/MAX are monotone in each member value, bounds on the
//! members propagate to bounds on the aggregate: the executor can prune or
//! accept an entire group — and skip loading every one of its masks — from
//! index information alone. Every member's bounds are computed before any
//! load, in one walk of the statement's version with the filter stage's
//! cursors, and one sort groups them; the groups then go through
//! `exec::grouped` — the shared ranked pass (best bound first, `HAVING`
//! applied) under `ORDER BY … LIMIT`, otherwise a `HAVING` filter in image
//! order. Before a group costs a load, its members are bounded again per
//! border cell and the aggregate of those tighter bounds is tried first.

use crate::error::{QueryError, QueryResult};
use crate::eval;
use crate::exec::{self, elapsed};
use crate::expr::{Expr, Interval};
use crate::predicate::CmpOp;
use crate::result::QueryOutput;
use crate::session::{ReadVersion, Session};
use crate::spec::{Order, ScalarAgg};
use masksearch_core::{ImageId, MaskId, MaskRecord};
use std::time::Instant;

/// Bounds on a scalar aggregate from bounds on its member values.
fn aggregate_interval(agg: ScalarAgg, members: &[Interval]) -> Interval {
    if members.is_empty() {
        return Interval::point(0.0);
    }
    match agg {
        ScalarAgg::Sum => Interval::new(
            members.iter().map(|i| i.lo).sum(),
            members.iter().map(|i| i.hi).sum(),
        ),
        ScalarAgg::Avg => {
            let n = members.len() as f64;
            Interval::new(
                members.iter().map(|i| i.lo).sum::<f64>() / n,
                members.iter().map(|i| i.hi).sum::<f64>() / n,
            )
        }
        ScalarAgg::Min => Interval::new(
            members.iter().map(|i| i.lo).fold(f64::INFINITY, f64::min),
            members.iter().map(|i| i.hi).fold(f64::INFINITY, f64::min),
        ),
        ScalarAgg::Max => Interval::new(
            members
                .iter()
                .map(|i| i.lo)
                .fold(f64::NEG_INFINITY, f64::max),
            members
                .iter()
                .map(|i| i.hi)
                .fold(f64::NEG_INFINITY, f64::max),
        ),
    }
}

/// Executes an aggregation query over `candidates`.
pub fn execute(
    session: &Session,
    version: &ReadVersion,
    candidates: &[MaskId],
    expr: &Expr,
    agg: ScalarAgg,
    having: Option<(CmpOp, f64)>,
    top_k: Option<(usize, Order)>,
) -> QueryResult<QueryOutput> {
    let total_start = Instant::now();
    let fallback = session.config().object_box_fallback;

    // Filter pass: every candidate's record and CHI bounds in one walk of
    // the statement's version with the filter stage's cursors, before
    // anything is loaded; then the candidates grouped by image with one
    // sort, and the aggregate's bounds of every group whose members all
    // have an index.
    let filter_start = Instant::now();
    let mut compiled = eval::CompiledBounds::expr(expr, fallback);
    let chis = version.chi();
    let mut members: Vec<(&MaskRecord, Option<Interval>)> = Vec::with_capacity(candidates.len());
    {
        let mut record_cursor = version.catalog().cursor();
        let mut chi_cursor = chis.map(|chi| chi.cursor());
        for &mask_id in candidates {
            let record = record_cursor
                .seek(mask_id)
                .ok_or(QueryError::UnknownMask(mask_id))?;
            let chi = chi_cursor.as_mut().and_then(|chis| chis.seek(mask_id));
            let bounds = chi.map(|chi| compiled.interval(record, chi)).transpose()?;
            members.push((record, bounds));
        }
    }
    // Candidate positions by (image, position): a group is a run of them,
    // its members ascending by mask id.
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_unstable_by_key(|&i| (members[i].0.image_id, i));
    let groups: Vec<&[usize]> = order
        .chunk_by(|&a, &b| members[a].0.image_id == members[b].0.image_id)
        .collect();
    let mut indexed: Vec<Interval> = Vec::new();
    let items: Vec<(ImageId, Option<Interval>)> = groups
        .iter()
        .map(|group| {
            indexed.clear();
            indexed.extend(group.iter().map_while(|&i| members[i].1));
            let full = indexed.len() == group.len();
            let image_id = members[group[0]].0.image_id;
            (image_id, full.then(|| aggregate_interval(agg, &indexed)))
        })
        .collect();
    let filter_wall = elapsed(filter_start);

    // Verification: every member's exact value, aggregated.
    let verify_start = Instant::now();
    let mut verifier = session.verifier(version, expr.terms());
    let mut verify = |g: usize| -> QueryResult<f64> {
        let mut values = Vec::with_capacity(groups[g].len());
        for &i in groups[g] {
            values.push(expr.evaluate_exact(verifier.counts(members[i].0)?));
        }
        Ok(agg.apply(&values))
    };

    // Per-cell bounds on every member, aggregated; none if a member has
    // no index.
    let refine = |g: usize| -> QueryResult<Option<Interval>> {
        indexed.clear();
        for &i in groups[g] {
            let record = members[i].0;
            match chis.and_then(|chis| chis.get(record.mask_id)) {
                Some(chi) => indexed.push(compiled.cell_interval(record, chi)?),
                None => return Ok(None),
            }
        }
        Ok(Some(aggregate_interval(agg, &indexed)))
    };
    let (rows, mut stats) = exec::grouped(&items, having, top_k, refine, &mut verify)?;
    let verify_wall = elapsed(verify_start);

    stats.candidates = candidates.len() as u64;
    stats.filter_wall = filter_wall;
    stats.verify_wall = verify_wall;
    verifier.stats.record(&mut stats);
    stats.total_wall = elapsed(total_start);

    Ok(QueryOutput { rows, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sort_ranked;
    use crate::query::Query;
    use crate::session::{IndexingMode, SessionConfig};
    use masksearch_core::{cp, Mask, MaskRecord, ModelId, PixelRange, Roi};
    use masksearch_index::ChiConfig;
    use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Two masks (two "models") per image, varying blob sizes.
    fn two_model_db(images: u64) -> (Arc<MemoryMaskStore>, Catalog, BTreeMap<u64, Vec<Mask>>) {
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        let mut by_image = BTreeMap::new();
        let mut mask_id = 0u64;
        for img in 0..images {
            let mut group = Vec::new();
            for model in 0..2u64 {
                let radius = 1.5 + ((img * 5 + model * 3) % 11) as f32;
                let mask = Mask::from_fn(40, 40, move |x, y| {
                    let dx = x as f32 - 20.0;
                    let dy = y as f32 - 20.0;
                    if (dx * dx + dy * dy).sqrt() < radius {
                        0.9
                    } else {
                        0.05
                    }
                });
                store.put(MaskId::new(mask_id), &mask).unwrap();
                catalog.insert(
                    MaskRecord::builder(MaskId::new(mask_id))
                        .image_id(ImageId::new(img))
                        .model_id(ModelId::new(model + 1))
                        .shape(40, 40)
                        .object_box(Roi::new(10, 10, 30, 30).unwrap())
                        .build(),
                );
                group.push(mask);
                mask_id += 1;
            }
            by_image.insert(img, group);
        }
        (store, catalog, by_image)
    }

    fn object_box() -> Roi {
        Roi::new(10, 10, 30, 30).unwrap()
    }

    fn brute_force_mean(
        by_image: &BTreeMap<u64, Vec<Mask>>,
        range: &PixelRange,
    ) -> BTreeMap<u64, f64> {
        by_image
            .iter()
            .map(|(img, masks)| {
                let mean = masks
                    .iter()
                    .map(|m| cp(m, &object_box(), range) as f64)
                    .sum::<f64>()
                    / masks.len() as f64;
                (*img, mean)
            })
            .collect()
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
    fn aggregate_interval_propagation() {
        let members = vec![Interval::new(1.0, 3.0), Interval::new(2.0, 4.0)];
        assert_eq!(
            aggregate_interval(ScalarAgg::Sum, &members),
            Interval::new(3.0, 7.0)
        );
        assert_eq!(
            aggregate_interval(ScalarAgg::Avg, &members),
            Interval::new(1.5, 3.5)
        );
        assert_eq!(
            aggregate_interval(ScalarAgg::Min, &members),
            Interval::new(1.0, 3.0)
        );
        assert_eq!(
            aggregate_interval(ScalarAgg::Max, &members),
            Interval::new(2.0, 4.0)
        );
        assert_eq!(
            aggregate_interval(ScalarAgg::Sum, &[]),
            Interval::point(0.0)
        );
    }

    #[test]
    fn top_k_by_mean_cp_matches_brute_force() {
        // Paper Q4: top-k images by mean CP over the two models' masks.
        let (store, catalog, by_image) = two_model_db(20);
        let s = session(store, catalog, IndexingMode::Eager);
        let range = PixelRange::new(0.8, 1.0).unwrap();
        let query = Query::aggregate(Expr::cp_object(range), ScalarAgg::Avg)
            .with_group_top_k(5, Order::Desc);
        let out = s.execute(&query).unwrap();
        assert_eq!(out.len(), 5);

        let exact = brute_force_mean(&by_image, &range);
        let mut expected: Vec<(f64, ImageId)> = exact
            .iter()
            .map(|(img, v)| (*v, ImageId::new(*img)))
            .collect();
        sort_ranked(&mut expected, Order::Desc, 5);
        assert_eq!(
            out.image_ids(),
            expected.iter().map(|(_, id)| *id).collect::<Vec<_>>()
        );
        for (row, (value, _)) in out.rows.iter().zip(&expected) {
            assert!((row.value.unwrap() - value).abs() < 1e-9);
        }
    }

    #[test]
    fn group_pruning_avoids_loading_all_masks() {
        let (store, catalog, _) = two_model_db(30);
        let s = session(store.clone(), catalog, IndexingMode::Eager);
        store.io_stats().reset();
        let range = PixelRange::new(0.8, 1.0).unwrap();
        let query = Query::aggregate(Expr::cp_object(range), ScalarAgg::Avg)
            .with_group_top_k(3, Order::Desc);
        let out = s.execute(&query).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.stats.masks_loaded < 60);
        assert!(out.stats.pruned > 0);
    }

    #[test]
    fn having_filter_matches_brute_force() {
        let (store, catalog, by_image) = two_model_db(16);
        let s = session(store, catalog, IndexingMode::Eager);
        let range = PixelRange::new(0.8, 1.0).unwrap();
        let threshold = 60.0;
        let query = Query::aggregate(Expr::cp_object(range), ScalarAgg::Sum)
            .with_having(CmpOp::Gt, threshold);
        let out = s.execute(&query).unwrap();
        let expected: Vec<ImageId> = by_image
            .iter()
            .filter(|(_, masks)| {
                masks
                    .iter()
                    .map(|m| cp(m, &object_box(), &range) as f64)
                    .sum::<f64>()
                    > threshold
            })
            .map(|(img, _)| ImageId::new(*img))
            .collect();
        assert_eq!(out.image_ids(), expected);
    }

    #[test]
    fn plain_aggregation_returns_every_group_with_its_value() {
        let (store, catalog, by_image) = two_model_db(8);
        let s = session(store, catalog, IndexingMode::Eager);
        let range = PixelRange::new(0.8, 1.0).unwrap();
        let query = Query::aggregate(Expr::cp_object(range), ScalarAgg::Max);
        let out = s.execute(&query).unwrap();
        assert_eq!(out.len(), 8);
        for row in &out.rows {
            let img = match row.key {
                crate::result::RowKey::Image(id) => id.raw(),
                _ => panic!("image rows expected"),
            };
            let expected = by_image[&img]
                .iter()
                .map(|m| cp(m, &object_box(), &range) as f64)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((row.value.unwrap() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_mode_matches_eager_results() {
        let (store, catalog, _) = two_model_db(12);
        let range = PixelRange::new(0.8, 1.0).unwrap();
        let query = Query::aggregate(Expr::cp_object(range), ScalarAgg::Avg)
            .with_group_top_k(4, Order::Asc);
        let eager = session(store.clone(), catalog.clone(), IndexingMode::Eager)
            .execute(&query)
            .unwrap();
        let incremental = session(store, catalog, IndexingMode::Incremental)
            .execute(&query)
            .unwrap();
        assert_eq!(eager.image_ids(), incremental.image_ids());
    }
}
