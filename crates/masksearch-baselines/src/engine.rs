//! The [`QueryEngine`] trait shared by every evaluated system, plus the
//! streaming brute-force evaluator the baselines are built on.

use masksearch_core::{cp, ImageId, Mask, MaskId, MaskRecord};
use masksearch_query::{eval, Query, QueryError, QueryKind, QueryOutput, QueryStats, ResultRow};
use masksearch_storage::Catalog;
use std::collections::BTreeMap;
use std::time::Duration;

/// A system under evaluation: takes a [`Query`], returns rows and statistics.
pub trait QueryEngine {
    /// Short system name used in experiment output ("MaskSearch",
    /// "PostgreSQL", "TileDB", "NumPy").
    fn name(&self) -> &str;

    /// Executes a query and reports its result and cost.
    fn execute(&self, query: &Query) -> Result<EngineReport, QueryError>;
}

/// The result of running one query on one engine.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Result rows (same shape as MaskSearch's [`QueryOutput`]).
    pub output: QueryOutput,
    /// Additional modelled CPU overhead not captured by wall-clock time
    /// (e.g. the PostgreSQL per-tuple UDF cost).
    pub extra_cpu: Duration,
}

impl EngineReport {
    /// Modelled end-to-end time: wall clock + virtual I/O + modelled CPU.
    pub fn modeled_total(&self) -> Duration {
        self.output.stats.modeled_total() + self.extra_cpu
    }

    /// Convenience accessor for the statistics block.
    pub fn stats(&self) -> &QueryStats {
        &self.output.stats
    }
}

/// A streaming brute-force evaluator: feed it `(mask_id, mask)` pairs in any
/// order (only candidates are consumed) and it produces the exact query
/// answer. This is both the execution engine of the baselines and the
/// reference oracle used by integration tests.
pub struct BruteForce<'a> {
    catalog: &'a Catalog,
    query: &'a Query,
    object_box_fallback: bool,
    filter_hits: Vec<MaskId>,
    ranked: Vec<(f64, MaskId)>,
    group_values: BTreeMap<ImageId, Vec<f64>>,
    group_masks: BTreeMap<ImageId, Vec<Mask>>,
    /// Pair queries: every consumed mask per image, keyed for binding.
    pair_masks: BTreeMap<ImageId, Vec<(MaskId, Mask)>>,
    consumed: u64,
}

impl<'a> BruteForce<'a> {
    /// Creates an evaluator for one query.
    pub fn new(catalog: &'a Catalog, query: &'a Query) -> Self {
        Self {
            catalog,
            query,
            object_box_fallback: true,
            filter_hits: Vec::new(),
            ranked: Vec::new(),
            group_values: BTreeMap::new(),
            group_masks: BTreeMap::new(),
            pair_masks: BTreeMap::new(),
            consumed: 0,
        }
    }

    /// Returns `true` if the mask is targeted by the query's selection (for
    /// pair queries: by the outer selection and either join side).
    pub fn is_candidate(&self, mask_id: MaskId) -> bool {
        let Some(record) = self.catalog.get(mask_id) else {
            return false;
        };
        if !self.query.selection.matches(record) {
            return false;
        }
        match &self.query.kind {
            QueryKind::PairFilter { join, .. } | QueryKind::PairTopK { join, .. } => {
                join.left.matches(record) || join.right.matches(record)
            }
            _ => true,
        }
    }

    /// Number of candidate masks consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Consumes one mask. Non-candidates are ignored.
    pub fn consume(&mut self, mask_id: MaskId, mask: &Mask) -> Result<(), QueryError> {
        if !self.is_candidate(mask_id) {
            return Ok(());
        }
        let record = self
            .catalog
            .get(mask_id)
            .ok_or(QueryError::UnknownMask(mask_id))?;
        self.consumed += 1;
        match &self.query.kind {
            QueryKind::Filter { predicate } => {
                if eval::predicate_exact(predicate, record, mask, self.object_box_fallback)? {
                    self.filter_hits.push(mask_id);
                }
            }
            QueryKind::TopK { expr, .. } => {
                let value = eval::expr_exact(expr, record, mask, self.object_box_fallback)?;
                self.ranked.push((value, mask_id));
            }
            QueryKind::Aggregate { expr, .. } => {
                let value = eval::expr_exact(expr, record, mask, self.object_box_fallback)?;
                self.group_values
                    .entry(record.image_id)
                    .or_default()
                    .push(value);
            }
            QueryKind::MaskAggregate { .. } => {
                self.group_masks
                    .entry(record.image_id)
                    .or_default()
                    .push(mask.clone());
            }
            QueryKind::PairFilter { .. } | QueryKind::PairTopK { .. } => {
                self.pair_masks
                    .entry(record.image_id)
                    .or_default()
                    .push((mask_id, mask.clone()));
            }
        }
        Ok(())
    }

    /// Resolves pair bindings from the consumed masks and evaluates `f` on
    /// each bound pair (the load-everything reference for pair queries).
    fn each_pair(
        &self,
        join: &masksearch_query::MaskJoin,
        mut f: impl FnMut(ImageId, &MaskRecord, &MaskRecord, &Mask, &Mask) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        for (image, members) in &self.pair_masks {
            let bind = |side: &masksearch_query::Selection| -> Option<(&MaskId, &Mask)> {
                members
                    .iter()
                    .filter(|(id, _)| {
                        self.catalog
                            .get(*id)
                            .is_some_and(|r| self.query.selection.matches(r) && side.matches(r))
                    })
                    .min_by_key(|(id, _)| *id)
                    .map(|(id, mask)| (id, mask))
            };
            let (Some((left_id, left)), Some((right_id, right))) =
                (bind(&join.left), bind(&join.right))
            else {
                continue;
            };
            let left_rec = self
                .catalog
                .get(*left_id)
                .ok_or(QueryError::UnknownMask(*left_id))?;
            let right_rec = self
                .catalog
                .get(*right_id)
                .ok_or(QueryError::UnknownMask(*right_id))?;
            f(*image, left_rec, right_rec, left, right)?;
        }
        Ok(())
    }

    /// Finishes evaluation and produces the result rows.
    pub fn finish(mut self) -> Result<Vec<ResultRow>, QueryError> {
        match &self.query.kind {
            QueryKind::Filter { .. } => {
                self.filter_hits.sort_unstable();
                Ok(self
                    .filter_hits
                    .into_iter()
                    .map(|id| ResultRow::mask(id, None))
                    .collect())
            }
            QueryKind::TopK { k, order, .. } => {
                for (value, _) in &mut self.ranked {
                    *value = ranked_value(*value, *order);
                }
                sort_ranked(&mut self.ranked, *order, *k);
                Ok(self
                    .ranked
                    .into_iter()
                    .map(|(v, id)| ResultRow::mask(id, Some(v)))
                    .collect())
            }
            QueryKind::Aggregate {
                agg, having, top_k, ..
            } => {
                let mut rows: Vec<(f64, ImageId)> = self
                    .group_values
                    .iter()
                    .map(|(image, values)| (agg.apply(values), *image))
                    .collect();
                Ok(finish_grouped(&mut rows, *having, *top_k))
            }
            QueryKind::MaskAggregate {
                agg,
                term,
                having,
                top_k,
            } => {
                let mut rows: Vec<(f64, ImageId)> = Vec::new();
                for (image, masks) in &self.group_masks {
                    let refs: Vec<&Mask> = masks.iter().collect();
                    let aggregated = agg.apply(&refs)?;
                    let first_id = self
                        .catalog
                        .masks_of_image(*image)
                        .into_iter()
                        .next()
                        .ok_or_else(|| QueryError::invalid("empty image group"))?;
                    let record = self
                        .catalog
                        .get(first_id)
                        .ok_or(QueryError::UnknownMask(first_id))?;
                    let roi = eval::resolve_roi(term, record, self.object_box_fallback)?;
                    let value = cp(&aggregated, &roi, &term.range) as f64;
                    rows.push((value, *image));
                }
                Ok(finish_grouped(&mut rows, *having, *top_k))
            }
            QueryKind::PairFilter { join, predicate } => {
                let mut hits: Vec<ImageId> = Vec::new();
                self.each_pair(join, |image, left_rec, right_rec, left, right| {
                    let records = eval::PairRecords {
                        left: left_rec,
                        right: right_rec,
                    };
                    if eval::pair_predicate_exact(
                        predicate,
                        &records,
                        left,
                        right,
                        self.object_box_fallback,
                    )? {
                        hits.push(image);
                    }
                    Ok(())
                })?;
                hits.sort_unstable();
                Ok(hits
                    .into_iter()
                    .map(|id| ResultRow::image(id, None))
                    .collect())
            }
            QueryKind::PairTopK {
                join,
                expr,
                k,
                order,
            } => {
                let mut rows: Vec<(f64, ImageId)> = Vec::new();
                self.each_pair(join, |image, left_rec, right_rec, left, right| {
                    let records = eval::PairRecords {
                        left: left_rec,
                        right: right_rec,
                    };
                    let value = eval::pair_expr_exact(
                        expr,
                        &records,
                        left,
                        right,
                        self.object_box_fallback,
                    )?;
                    rows.push((ranked_value(value, *order), image));
                    Ok(())
                })?;
                sort_ranked(&mut rows, *order, *k);
                Ok(rows
                    .into_iter()
                    .map(|(v, id)| ResultRow::image(id, Some(v)))
                    .collect())
            }
        }
    }
}

fn finish_grouped(
    rows: &mut Vec<(f64, ImageId)>,
    having: Option<(masksearch_query::CmpOp, f64)>,
    top_k: Option<(usize, masksearch_query::Order)>,
) -> Vec<ResultRow> {
    if let Some((op, threshold)) = having {
        rows.retain(|(v, _)| op.eval(*v, threshold));
    }
    if let Some((k, order)) = top_k {
        for (value, _) in rows.iter_mut() {
            *value = ranked_value(*value, order);
        }
        sort_ranked(rows, order, k);
        rows.iter()
            .map(|(v, id)| ResultRow::image(*id, Some(*v)))
            .collect()
    } else {
        rows.sort_by_key(|(_, id)| *id);
        rows.iter()
            .map(|(v, id)| ResultRow::image(*id, Some(*v)))
            .collect()
    }
}

/// A ranked row's value: NaN (e.g. a 0/0 ratio) ranks worst under either
/// order, as the worst infinity.
fn ranked_value(value: f64, order: masksearch_query::Order) -> f64 {
    if !value.is_nan() {
        return value;
    }
    match order {
        masksearch_query::Order::Desc => f64::NEG_INFINITY,
        masksearch_query::Order::Asc => f64::INFINITY,
    }
}

/// Sorts `(value, key)` pairs under `order` with an ascending key tie-break
/// and truncates to `k`. Values compare by `f64::total_cmp` with `-0.0`
/// folded into `0.0` (zeros tie, as under `==`), a total order even over NaN.
pub fn sort_ranked<K: Ord + Copy>(
    rows: &mut Vec<(f64, K)>,
    order: masksearch_query::Order,
    k: usize,
) {
    rows.sort_by(|a, b| {
        let (a0, b0) = (a.0 + 0.0, b.0 + 0.0);
        let cmp = match order {
            masksearch_query::Order::Desc => b0.total_cmp(&a0),
            masksearch_query::Order::Asc => a0.total_cmp(&b0),
        };
        cmp.then_with(|| a.1.cmp(&b.1))
    });
    rows.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{MaskRecord, PixelRange, Roi};
    use masksearch_query::Order;

    fn catalog_and_masks(n: u64) -> (Catalog, Vec<(MaskId, Mask)>) {
        let mut catalog = Catalog::new();
        let mut masks = Vec::new();
        for i in 0..n {
            let mask = Mask::from_fn(16, 16, move |x, y| {
                if x < (i as u32 % 16) && y < 8 {
                    0.9
                } else {
                    0.1
                }
            });
            catalog.insert(
                MaskRecord::builder(MaskId::new(i))
                    .image_id(ImageId::new(i / 2))
                    .shape(16, 16)
                    .object_box(Roi::new(0, 0, 8, 8).unwrap())
                    .build(),
            );
            masks.push((MaskId::new(i), mask));
        }
        (catalog, masks)
    }

    #[test]
    fn brute_force_filter_counts_candidates_only() {
        let (catalog, masks) = catalog_and_masks(10);
        let query = Query::filter_cp_gt(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.5, 1.0).unwrap(),
            20.0,
        )
        .with_selection(
            masksearch_query::Selection::all().with_mask_ids((0..5).map(MaskId::new).collect()),
        );
        let mut bf = BruteForce::new(&catalog, &query);
        for (id, mask) in &masks {
            bf.consume(*id, mask).unwrap();
        }
        assert_eq!(bf.consumed(), 5);
        let rows = bf.finish().unwrap();
        // Masks 0..5 have (i%16)*8 high pixels: > 20 needs i >= 3.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn brute_force_topk_and_aggregate() {
        let (catalog, masks) = catalog_and_masks(8);
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let roi = Roi::new(0, 0, 16, 16).unwrap();

        let query = Query::top_k_cp(roi, range, 3, Order::Desc);
        let mut bf = BruteForce::new(&catalog, &query);
        for (id, mask) in &masks {
            bf.consume(*id, mask).unwrap();
        }
        let rows = bf.finish().unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].value.unwrap() >= rows[1].value.unwrap());

        let query = masksearch_query::Query::aggregate(
            masksearch_query::Expr::cp(roi, range),
            masksearch_query::ScalarAgg::Sum,
        );
        let mut bf = BruteForce::new(&catalog, &query);
        for (id, mask) in &masks {
            bf.consume(*id, mask).unwrap();
        }
        let rows = bf.finish().unwrap();
        assert_eq!(rows.len(), 4); // 8 masks, 2 per image
    }

    #[test]
    fn unknown_masks_are_ignored() {
        let (catalog, _) = catalog_and_masks(2);
        let query = Query::filter_cp_gt(Roi::new(0, 0, 16, 16).unwrap(), PixelRange::full(), 0.0);
        let mut bf = BruteForce::new(&catalog, &query);
        assert!(!bf.is_candidate(MaskId::new(99)));
        bf.consume(MaskId::new(99), &Mask::zeros(16, 16)).unwrap();
        assert_eq!(bf.consumed(), 0);
    }
}
