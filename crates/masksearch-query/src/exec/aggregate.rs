//! Scalar-aggregation execution (§3.4): group masks by image, aggregate the
//! per-mask expression values with a monotone scalar aggregate, then filter
//! (`HAVING`) and/or rank (top-k) the groups.
//!
//! Because SUM/AVG/MIN/MAX are monotone in each member value, bounds on the
//! members propagate to bounds on the aggregate: the executor can prune or
//! accept an entire group — and skip loading every one of its masks — from
//! index information alone.

use crate::error::QueryResult;
use crate::eval;
use crate::exec::{apply_io_delta, elapsed, sort_ranked, worst_index, worst_value};
use crate::expr::{Expr, Interval};
use crate::planner::ExecPlan;
use crate::predicate::{CmpOp, Comparison, Truth};
use crate::result::{QueryOutput, QueryStats, ResultRow};
use crate::session::Session;
use crate::spec::{Order, ScalarAgg};
use masksearch_core::{ImageId, MaskId};
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
    candidates: &[MaskId],
    expr: &Expr,
    agg: ScalarAgg,
    having: Option<(CmpOp, f64)>,
    top_k: Option<(usize, Order)>,
    plan: &ExecPlan,
) -> QueryResult<QueryOutput> {
    let total_start = Instant::now();
    let io_before = session.store().io_stats().snapshot();
    let fallback = session.config().object_box_fallback;

    let groups = session.group_by_image(candidates);
    let mut pruned_groups = 0u64;
    let mut accepted_without_load = 0u64;
    let mut verified_groups = 0u64;

    // Filter pass: every member's CHI bounds, group after group, before
    // anything is loaded (a mask's bounds depend on nothing the loop below
    // changes).
    let filter_start = Instant::now();
    let members: Vec<MaskId> = groups
        .iter()
        .flat_map(|(_, members)| members.iter().copied())
        .collect();
    let mut compiled = eval::CompiledBounds::expr(expr, fallback);
    let bounds = session.bounds_of(&members, |record, chi| compiled.interval(record, chi))?;
    let filter_wall = elapsed(filter_start);

    // For HAVING-only queries: accepted rows (value optional).
    let mut accepted_rows: Vec<ResultRow> = Vec::new();
    // For top-k queries: the running top-k of (value, image).
    let (k, order) = match top_k {
        Some((k, order)) => (k, Some(order)),
        None => (0, None),
    };
    let mut top: Vec<(f64, ImageId)> = Vec::new();

    let verify_start = Instant::now();
    let mut verifier = session.verifier(plan, expr.terms());
    let mut bounds = bounds.as_slice();
    let mut indexed: Vec<Interval> = Vec::new();
    for (image_id, member_ids) in &groups {
        let (member_bounds, rest) = bounds.split_at(member_ids.len());
        bounds = rest;
        // ---- Filter step: the aggregate's bounds, when every member has
        // an index. ------------------------------------------------------
        indexed.clear();
        indexed.extend(member_bounds.iter().map_while(|bounds| *bounds));
        let group_bounds =
            (indexed.len() == member_bounds.len()).then(|| aggregate_interval(agg, &indexed));

        // Decide whether the group can be pruned or accepted without loading.
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
                let cmp = Comparison::new(Expr::Const(0.0), op, threshold);
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

        // ---- Verification step: every member's exact value. --------------
        verified_groups += 1;
        let mut values = Vec::with_capacity(member_ids.len());
        for &mask_id in member_ids {
            let record = session.record(mask_id)?;
            values.push(expr.evaluate_exact(verifier.counts(&record)?));
        }
        let value = agg.apply(&values);

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
            // Plain aggregation: every group is returned with its value.
            accepted_rows.push(ResultRow::image(*image_id, Some(value)));
        }
    }
    let verify_wall = elapsed(verify_start);

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

    let mut stats = QueryStats {
        candidates: candidates.len() as u64,
        pruned: pruned_groups,
        accepted_without_load,
        verified: verified_groups,
        filter_wall,
        verify_wall,
        ..Default::default()
    };
    verifier.stats.record(&mut stats);
    let io_delta = session
        .store()
        .io_stats()
        .snapshot()
        .delta_since(&io_before);
    apply_io_delta(&mut stats, &io_delta);
    stats.total_wall = elapsed(total_start);

    Ok(QueryOutput { rows, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
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
