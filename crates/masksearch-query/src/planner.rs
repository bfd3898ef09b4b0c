//! Plan-time feature extraction: the glue between a [`Session`] and the
//! pure cost model of `masksearch-plan`.
//!
//! Before dispatching a query, the session calls `plan_query`, which
//! samples a handful of candidate CHIs (bounds classification + bound-gap
//! fractions), checks the query's ranges for tile-bin alignment, looks up
//! the shape's observed aggregates, and asks the cost model for a
//! [`QueryPlan`]. The resulting [`ExecPlan`] travels into the executors,
//! which resolve the per-mask kernel decision against each verified mask's
//! own tile summaries.
//!
//! Planning is *advisory*: any feature-extraction error (an unknown mask, a
//! missing object box) is swallowed here and the affected candidate simply
//! contributes no evidence — the same error will surface from the executor
//! itself, on the same candidate, exactly as it does under a fixed plan.

use crate::eval;
use crate::expr::Expr;
use crate::predicate::Predicate;
use crate::query::{Query, QueryKind};
use crate::session::Session;
use masksearch_core::{MaskId, PixelRange, TiledMask};
use masksearch_plan::{
    choose_kernel, choose_load_first, order_terms, range_is_bin_aligned, QueryPlan, TermStats,
    SAMPLE_TARGET,
};

/// An executable plan: the cost model's choices plus the query features the
/// executors need to resolve per-mask decisions.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// The chosen strategies and the estimates that picked them.
    pub plan: QueryPlan,
    /// `true` when the estimates were derived from sampled candidates (as
    /// opposed to the no-evidence defaults) — the gate for folding the
    /// estimated-vs-actual selectivity error into the catalog statistics.
    pub sampled: bool,
    /// Name of the secondary index the candidate resolution probes for the
    /// query's selection, `None` on the catalog-scan path. Comes from the
    /// same decision the executor makes, so `EXPLAIN` cannot disagree with
    /// execution.
    pub index_access: Option<String>,
    /// Pair queries: the index access of the left and right binding's
    /// resolution (`selection ∧ join.side`), in that order.
    pub pair_index_access: [Option<String>; 2],
    /// Distinct `CP` ranges of the query, for per-mask kernel resolution.
    ranges: Vec<PixelRange>,
}

impl ExecPlan {
    /// A plan reproducing a fixed pre-planner pipeline: written term order,
    /// forced kernel, bounds-first. Used by the differential tests as the
    /// baseline every planned execution must match byte-for-byte.
    pub fn fixed(kernel_on: bool) -> Self {
        Self {
            plan: QueryPlan::fixed(kernel_on),
            sampled: false,
            index_access: None,
            pair_index_access: [None, None],
            ranges: Vec::new(),
        }
    }

    /// Cost order over the predicate's comparisons (empty = written order).
    pub fn term_order(&self) -> &[usize] {
        &self.plan.term_order
    }

    /// Pair queries: skip the composed-bounds pass and load every pair.
    pub fn load_first(&self) -> bool {
        self.plan.load_first
    }

    /// Compact strategy signature (`kernel=... bounds=... order=...`) for
    /// the slow-query log and `EXPLAIN`.
    pub fn signature(&self) -> String {
        self.plan.signature()
    }

    /// Resolves the kernel decision for one verified mask. Forced and
    /// aligned-range plans decide statically; otherwise the mask's own tile
    /// summaries (when already built or seeded by the store) estimate the
    /// fraction of tiles the kernel would have to pixel-scan anyway.
    pub fn kernel_on_for(&self, tiled: &TiledMask) -> bool {
        if let Some(on) = self.plan.kernel.static_decision() {
            return on;
        }
        self.plan
            .kernel
            .decide(mask_gap_fraction(tiled, &self.ranges))
    }
}

/// The fraction of the mask's tiles whose min/max summary cannot decide
/// membership for the *hardest* of the query's ranges — the tiles the kernel
/// would boundary-scan. `None` when there is no cheap evidence (no grid
/// built yet, or no ranges): building a grid just to decide whether to use
/// it would defeat the point.
fn mask_gap_fraction(tiled: &TiledMask, ranges: &[PixelRange]) -> Option<f64> {
    if ranges.is_empty() || !tiled.has_grid() {
        return None;
    }
    let summaries = tiled.grid().summaries();
    if summaries.is_empty() {
        return None;
    }
    let mut worst = 0.0f64;
    for range in ranges {
        let (lo, hi) = (range.lo(), range.hi());
        let undecided = summaries
            .iter()
            .filter(|s| {
                let all_out = s.max() < lo || s.min() >= hi;
                let all_in = s.uncountable() == 0 && s.min() >= lo && s.max() < hi;
                !(all_out || all_in)
            })
            .count();
        worst = worst.max(undecided as f64 / summaries.len() as f64);
    }
    Some(worst)
}

/// Stride-samples up to [`SAMPLE_TARGET`] ids covering the candidate list.
fn sample_ids(candidates: &[MaskId]) -> impl Iterator<Item = MaskId> + '_ {
    let stride = (candidates.len() / SAMPLE_TARGET.max(1)).max(1);
    candidates
        .iter()
        .step_by(stride)
        .take(SAMPLE_TARGET)
        .copied()
}

/// Per-comparison and whole-predicate statistics from the candidate sample.
struct PredicateSample {
    per_comparison: Vec<TermStats>,
    predicate: TermStats,
}

/// Samples candidate CHIs against a filter predicate: per comparison, how
/// the bound interval classified each sampled candidate and how wide the
/// bounds were relative to the ROI area. A candidate without a CHI or a
/// record, or one of whose terms cannot be bounded from a single CHI (no
/// object box, a pair-sourced term — the executor rejects the query
/// itself), is skipped.
fn sample_predicate(
    session: &Session,
    predicate: &Predicate,
    candidates: &[MaskId],
) -> PredicateSample {
    let comparisons = predicate.comparisons();
    let mut bounds =
        eval::CompiledBounds::predicate(predicate, &[], session.config().object_box_fallback);
    let mut per_comparison = vec![TermStats::default(); comparisons.len()];
    let mut pred_stats = TermStats::default();
    for mask_id in sample_ids(candidates) {
        // Errors skip the candidate, whichever kind they are.
        let _ = session.bounds_of_one(mask_id, |record, chi| {
            let (intervals, gaps) = bounds.sample(record, chi)?;
            for (i, cmp) in comparisons.iter().enumerate() {
                tally(
                    &mut per_comparison[i],
                    cmp.eval_bounds(&intervals[i]),
                    gaps[i],
                );
            }
            let mean_gap = if gaps.is_empty() {
                0.0
            } else {
                gaps.iter().sum::<f64>() / gaps.len() as f64
            };
            tally(&mut pred_stats, predicate.eval_bounds(intervals), mean_gap);
            Ok(())
        });
    }
    PredicateSample {
        per_comparison,
        predicate: pred_stats,
    }
}

fn tally(stats: &mut TermStats, truth: crate::predicate::Truth, gap: f64) {
    use crate::predicate::Truth;
    match truth {
        Truth::True => stats.trues += 1,
        Truth::False => stats.falses += 1,
        Truth::Unknown => stats.unknowns += 1,
    }
    stats.gap_sum += gap;
}

/// Samples candidate CHIs against a ranked/aggregate expression, returning
/// the mean bound-gap fraction (the kernel's smoothness feature). `None`
/// when nothing could be sampled.
fn sample_expr_gap(session: &Session, expr: &Expr, candidates: &[MaskId]) -> Option<f64> {
    if expr.uses_pair_terms() {
        return None;
    }
    let mut bounds = eval::CompiledBounds::expr(expr, session.config().object_box_fallback);
    let mut gap_sum = 0.0f64;
    let mut sampled = 0u32;
    for mask_id in sample_ids(candidates) {
        let gap =
            session.bounds_of_one(mask_id, |record, chi| Ok(bounds.sample(record, chi)?.1[0]));
        if let Ok(Some(gap)) = gap {
            gap_sum += gap;
            sampled += 1;
        }
    }
    (sampled > 0).then(|| (gap_sum / sampled as f64).clamp(0.0, 1.0))
}

/// Builds the execution plan for a query: extracts features, consults the
/// cost model, and packages the choices for the executors. Pair kinds pass
/// an empty candidate list (their image-keyed candidates carry no single
/// CHI to sample); their decisions run on alignment and shape feedback.
pub(crate) fn plan_query(session: &Session, query: &Query, candidates: &[MaskId]) -> ExecPlan {
    let config = session.config();
    let shape = crate::explain::shape_key(query, config);
    let feedback = session.shape_stats().get(&shape);
    let terms = crate::explain::cp_terms(query);
    let aligned = !terms.is_empty() && terms.iter().all(|t| range_is_bin_aligned(&t.range));
    let mut ranges: Vec<PixelRange> = Vec::new();
    for term in &terms {
        if !ranges
            .iter()
            .any(|r| r.lo() == term.range.lo() && r.hi() == term.range.hi())
        {
            ranges.push(term.range);
        }
    }

    let is_pair = matches!(
        query.kind,
        QueryKind::PairFilter { .. } | QueryKind::PairTopK { .. }
    );
    let load_first = if is_pair {
        choose_load_first(config.pair_mode, feedback.as_ref())
    } else {
        false
    };

    let (term_order, term_estimates, est_selectivity, sampled, sampled_gap) = match &query.kind {
        QueryKind::Filter { predicate } => {
            let sample = sample_predicate(session, predicate, candidates);
            let estimates: Vec<f64> = sample
                .per_comparison
                .iter()
                .map(|s| s.est_selectivity())
                .collect();
            let sampled = sample.predicate.sampled() > 0;
            let order = if estimates.len() > 1 && sampled {
                order_terms(&estimates)
            } else {
                (0..estimates.len()).collect()
            };
            let gap = sampled.then(|| sample.predicate.mean_gap());
            (
                order,
                estimates,
                sample.predicate.est_selectivity(),
                sampled,
                gap,
            )
        }
        QueryKind::TopK { expr, .. } | QueryKind::Aggregate { expr, .. } => {
            let gap = sample_expr_gap(session, expr, candidates);
            (Vec::new(), Vec::new(), 0.5, false, gap)
        }
        _ => (Vec::new(), Vec::new(), 0.5, false, None),
    };

    let kernel = choose_kernel(config.kernel_mode, aligned, sampled_gap, feedback.as_ref());

    // The access-path face of the plan: which secondary index (if any) the
    // candidate resolution will probe. Pair kinds resolve per side.
    let (index_access, pair_index_access) = match &query.kind {
        QueryKind::PairFilter { join, .. } | QueryKind::PairTopK { join, .. } => (
            None,
            [
                session.index_access_for(&[&query.selection, &join.left]),
                session.index_access_for(&[&query.selection, &join.right]),
            ],
        ),
        _ => (session.index_access_for(&[&query.selection]), [None, None]),
    };

    ExecPlan {
        plan: QueryPlan {
            term_order,
            term_estimates,
            est_selectivity,
            kernel,
            load_first,
        },
        sampled,
        index_access,
        pair_index_access,
        ranges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::session::{IndexingMode, SessionConfig};
    use masksearch_core::{ImageId, Mask, MaskRecord, Roi};
    use masksearch_index::ChiConfig;
    use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
    use std::sync::Arc;

    fn db(n: u64) -> (Arc<dyn MaskStore>, Catalog) {
        let store = MemoryMaskStore::for_tests();
        let mut catalog = Catalog::new();
        for i in 0..n {
            let mask = Mask::from_fn(32, 32, move |x, y| {
                let dx = x as f32 - 16.0;
                let dy = y as f32 - 16.0;
                if (dx * dx + dy * dy).sqrt() < 2.0 + i as f32 {
                    0.9
                } else {
                    0.05
                }
            });
            store.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(
                MaskRecord::builder(MaskId::new(i))
                    .image_id(ImageId::new(i))
                    .shape(32, 32)
                    .build(),
            );
        }
        (Arc::new(store), catalog)
    }

    fn eager_session() -> Session {
        let (store, catalog) = db(16);
        Session::new(
            store,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap()).indexing_mode(IndexingMode::Eager),
        )
        .unwrap()
    }

    #[test]
    fn filter_plans_sample_and_estimate_selectivity() {
        let session = eager_session();
        let roi = Roi::new(0, 0, 32, 32).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        // Threshold 0: every candidate with a salient pixel passes.
        let query = Query::filter_cp_gt(roi, range, 0.0);
        let candidates: Vec<MaskId> = (0..16).map(MaskId::new).collect();
        let plan = plan_query(&session, &query, &candidates);
        assert!(plan.sampled);
        assert_eq!(plan.plan.term_estimates.len(), 1);
        assert!(
            plan.plan.est_selectivity > 0.5,
            "a permissive filter is estimated permissive"
        );
        // Impossible threshold: the bounds prove every sample fails.
        let query = Query::filter_cp_gt(roi, range, 1e9);
        let plan = plan_query(&session, &query, &candidates);
        assert!(plan.plan.est_selectivity < 0.5);
    }

    #[test]
    fn unindexed_candidates_produce_no_evidence() {
        let (store, catalog) = db(8);
        let session = Session::new(
            store,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap())
                .indexing_mode(IndexingMode::Disabled),
        )
        .unwrap();
        let query = Query::filter_cp_gt(
            Roi::new(0, 0, 32, 32).unwrap(),
            PixelRange::new(0.5, 1.0).unwrap(),
            10.0,
        );
        let candidates: Vec<MaskId> = (0..8).map(MaskId::new).collect();
        let plan = plan_query(&session, &query, &candidates);
        assert!(!plan.sampled);
        assert_eq!(plan.plan.est_selectivity, 0.5);
        assert!(!plan.plan.reordered());
    }

    #[test]
    fn aligned_ranges_decide_the_kernel_statically() {
        let session = eager_session();
        let roi = Roi::new(0, 0, 32, 32).unwrap();
        let aligned = Query::filter_cp_gt(roi, PixelRange::new(0.5, 1.0).unwrap(), 10.0);
        let plan = plan_query(&session, &aligned, &[MaskId::new(0)]);
        assert_eq!(plan.plan.kernel.static_decision(), Some(true));
        let unaligned = Query::filter_cp_gt(roi, PixelRange::new(0.3, 0.7).unwrap(), 10.0);
        let plan = plan_query(&session, &unaligned, &[MaskId::new(0)]);
        assert_eq!(plan.plan.kernel.static_decision(), None);
    }

    #[test]
    fn fixed_plans_reproduce_the_forced_pipeline() {
        let fixed = ExecPlan::fixed(false);
        assert!(!fixed.load_first());
        assert!(fixed.term_order().is_empty());
        let mask = masksearch_core::TiledMask::from_mask(Mask::constant(8, 8, 0.4).unwrap());
        assert!(!fixed.kernel_on_for(&mask));
        assert!(ExecPlan::fixed(true).kernel_on_for(&mask));
    }

    #[test]
    fn per_mask_gap_fraction_reads_tile_summaries() {
        // A constant mask decides every tile from min/max; a noise mask
        // straddles the unaligned range everywhere.
        let smooth = TiledMask::from_mask(Mask::constant(64, 64, 0.9).unwrap());
        let noise = TiledMask::from_mask(Mask::from_fn(64, 64, |x, y| {
            ((x * 31 + y * 17) % 97) as f32 / 97.0
        }));
        // Force the grids to exist (the cache normally builds them on use).
        let _ = smooth.grid();
        let _ = noise.grid();
        let range = PixelRange::new(0.3, 0.7).unwrap();
        let smooth_gap = mask_gap_fraction(&smooth, &[range]).unwrap();
        let noise_gap = mask_gap_fraction(&noise, &[range]).unwrap();
        assert!(smooth_gap < 0.05, "constant mask: {smooth_gap}");
        assert!(noise_gap > 0.9, "noise mask: {noise_gap}");
        // No grid yet: no evidence.
        let lazy = TiledMask::from_mask(Mask::constant(8, 8, 0.5).unwrap());
        assert_eq!(mask_gap_fraction(&lazy, &[range]), None);
    }
}
