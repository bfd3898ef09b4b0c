//! Per-mask evaluation of terms, expressions, and predicates — both exactly
//! (from the mask pixels) and as bounds (from the mask's CHI).
//!
//! The filter stage bounds the *same* statement on every candidate, so the
//! single-mask bounds have one entry point, [`CompiledBounds`]: built once
//! per statement (per worker), it keeps everything that no mask changes —
//! the flattened terms, each term's bin indices, and the covering/covered
//! regions of an ROI on masks of one shape — and evaluates a candidate into
//! scratch it owns. What is left per candidate is resolving the ROIs in
//! written order (so the first term that cannot be resolved is the error,
//! whatever the bounding order skips), a few loads from the mask's cells per
//! term, and the interval arithmetic of the expression.

use crate::error::{QueryError, QueryResult};
use crate::expr::{Expr, Interval};
use crate::predicate::{Predicate, Truth};
use crate::spec::{CpTerm, TermSource};
use masksearch_core::{
    cp, cp_composed, cp_many, Mask, MaskRecord, PixelRange, Roi, TileStats, TiledMask,
};
use masksearch_index::{composed_cp_bounds, ChiView, TermBounds};
use std::ops::Range;

/// Options controlling exact (verification-stage) evaluation.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Missing-object-box policy (see [`resolve_roi`]).
    pub object_box_fallback: bool,
    /// Route `CP` terms through the tiled verification kernel (`true`) or
    /// the reference batched scan (`false`). Counts are byte-identical
    /// either way; the flag exists for benchmarking and conformance tests.
    pub use_tiled_kernel: bool,
}

/// Resolves a term's ROI for a record.
///
/// When the term uses the per-mask object box but the record has none, the
/// behaviour depends on `object_box_fallback`: fall back to the full mask
/// (`true`) or report an error (`false`).
pub fn resolve_roi(
    term: &CpTerm,
    record: &MaskRecord,
    object_box_fallback: bool,
) -> QueryResult<Roi> {
    if let Some(roi) = term.roi.resolve(record) {
        return Ok(roi);
    }
    match term.roi {
        crate::spec::RoiSpec::ObjectBox if object_box_fallback => {
            if record.width == 0 || record.height == 0 {
                Err(QueryError::invalid(format!(
                    "mask {} has no recorded shape",
                    record.mask_id
                )))
            } else {
                Ok(Roi::new(0, 0, record.width, record.height).expect("non-zero shape"))
            }
        }
        crate::spec::RoiSpec::ObjectBox => Err(QueryError::MissingObjectBox(record.mask_id)),
        _ => Err(QueryError::invalid(format!(
            "mask {} has no recorded shape",
            record.mask_id
        ))),
    }
}

/// Rejects a pair-sourced term reaching a single-mask evaluation path: the
/// candidate binds only one mask, so silently counting it where the query
/// asked for `a.mask`/`b.mask`/a composition would be a wrong answer, not a
/// degraded one.
fn reject_pair_in_single(term: &CpTerm) -> QueryResult<()> {
    if term.source.is_pair() {
        return Err(QueryError::invalid(
            "CP terms over a.mask / b.mask or a mask composition require a pair (join) query",
        ));
    }
    Ok(())
}

/// Exact value of one term on a loaded mask.
pub fn term_exact(
    term: &CpTerm,
    record: &MaskRecord,
    mask: &Mask,
    object_box_fallback: bool,
) -> QueryResult<f64> {
    reject_pair_in_single(term)?;
    let roi = resolve_roi(term, record, object_box_fallback)?;
    Ok(cp(mask, &roi, &term.range) as f64)
}

/// Resolves a batch of single-mask `CP` terms against one record into
/// `out` (cleared first), in term order — the first term that cannot be
/// resolved is the error, whatever evaluates the batch afterwards.
pub(crate) fn resolve_terms(
    terms: &[&CpTerm],
    record: &MaskRecord,
    object_box_fallback: bool,
    out: &mut Vec<(Roi, PixelRange)>,
) -> QueryResult<()> {
    out.clear();
    for term in terms {
        reject_pair_in_single(term)?;
        out.push((resolve_roi(term, record, object_box_fallback)?, term.range));
    }
    Ok(())
}

/// Counts a batch of resolved terms on a loaded tiled mask, through the
/// tiled kernel (recording tile classifications into `tiles`) or the
/// reference batched scan.
pub(crate) fn count_tiled(
    resolved: &[(Roi, PixelRange)],
    tiled: &TiledMask,
    use_tiled_kernel: bool,
    tiles: &mut TileStats,
) -> Vec<u64> {
    if use_tiled_kernel {
        tiled.cp_many_with_stats(resolved, tiles)
    } else {
        cp_many(tiled.mask(), resolved)
    }
}

/// Resolves and evaluates a batch of `CP` terms on a loaded tiled mask.
fn terms_exact_tiled(
    terms: &[&CpTerm],
    record: &MaskRecord,
    tiled: &TiledMask,
    opts: &VerifyOptions,
    tiles: &mut TileStats,
) -> QueryResult<Vec<f64>> {
    let mut resolved = Vec::with_capacity(terms.len());
    resolve_terms(terms, record, opts.object_box_fallback, &mut resolved)?;
    let counts = count_tiled(&resolved, tiled, opts.use_tiled_kernel, tiles);
    Ok(counts.into_iter().map(|c| c as f64).collect())
}

/// Exact value of one term on a loaded tiled mask.
pub fn term_exact_tiled(
    term: &CpTerm,
    record: &MaskRecord,
    tiled: &TiledMask,
    opts: &VerifyOptions,
    tiles: &mut TileStats,
) -> QueryResult<f64> {
    reject_pair_in_single(term)?;
    let roi = resolve_roi(term, record, opts.object_box_fallback)?;
    let count = if opts.use_tiled_kernel {
        tiled.cp_with_stats(&roi, &term.range, tiles)
    } else {
        cp(tiled.mask(), &roi, &term.range)
    };
    Ok(count as f64)
}

/// The `CP` terms of every comparison of `predicate`, flattened in written
/// order — one kernel batch per mask.
pub(crate) fn predicate_terms(predicate: &Predicate) -> Vec<&CpTerm> {
    predicate
        .comparisons()
        .into_iter()
        .flat_map(|cmp| cmp.expr.terms())
        .collect()
}

/// Exact truth of a predicate from the exact values of its
/// [`predicate_terms`].
pub(crate) fn predicate_from_term_values(predicate: &Predicate, term_values: &[f64]) -> bool {
    let mut offset = 0;
    let values: Vec<f64> = predicate
        .comparisons()
        .into_iter()
        .map(|cmp| {
            let count = cmp.expr.terms().len();
            offset += count;
            cmp.expr
                .evaluate_exact(&term_values[offset - count..offset])
        })
        .collect();
    predicate.eval_exact(&values)
}

/// Exact truth of a predicate on a loaded tiled mask; the `CP` terms of
/// *every* comparison are evaluated in a single kernel batch.
pub fn predicate_exact_tiled(
    predicate: &Predicate,
    record: &MaskRecord,
    tiled: &TiledMask,
    opts: &VerifyOptions,
    tiles: &mut TileStats,
) -> QueryResult<bool> {
    let values = terms_exact_tiled(&predicate_terms(predicate), record, tiled, opts, tiles)?;
    Ok(predicate_from_term_values(predicate, &values))
}

/// Exact value of an expression on a loaded mask.
pub fn expr_exact(
    expr: &Expr,
    record: &MaskRecord,
    mask: &Mask,
    object_box_fallback: bool,
) -> QueryResult<f64> {
    let mut values = Vec::new();
    for term in expr.terms() {
        values.push(term_exact(term, record, mask, object_box_fallback)?);
    }
    Ok(expr.evaluate_exact(&values))
}

/// Exact truth of a predicate on a loaded mask.
pub fn predicate_exact(
    predicate: &Predicate,
    record: &MaskRecord,
    mask: &Mask,
    object_box_fallback: bool,
) -> QueryResult<bool> {
    let mut values = Vec::new();
    for cmp in predicate.comparisons() {
        values.push(expr_exact(&cmp.expr, record, mask, object_box_fallback)?);
    }
    Ok(predicate.eval_exact(&values))
}

/// The single-mask bounds of one statement — a filter predicate, or one
/// ranked expression — compiled once and evaluated candidate after
/// candidate without allocating.
///
/// The bounds are exactly `Chi::cp_bounds` of every term (the same function
/// computes them), combined by [`Expr::evaluate_bounds`] and
/// [`Predicate::eval_bounds`].
pub struct CompiledBounds<'q> {
    object_box_fallback: bool,
    /// Every `CP` term of the statement, in written order, with what its
    /// bounds keep from mask to mask.
    terms: Vec<(&'q CpTerm, TermBounds)>,
    /// The statement's expressions in written order — a predicate's
    /// comparisons, or the one ranked expression — each with its `terms`.
    exprs: Vec<(&'q Expr, Range<usize>)>,
    /// The predicate, and the order its comparisons are bounded in.
    predicate: Option<&'q Predicate>,
    order: Vec<usize>,
    // Per-candidate scratch.
    rois: Vec<Roi>,
    term_intervals: Vec<Interval>,
    intervals: Vec<Interval>,
}

impl<'q> CompiledBounds<'q> {
    fn new(
        exprs: impl IntoIterator<Item = &'q Expr>,
        predicate: Option<&'q Predicate>,
        object_box_fallback: bool,
    ) -> Self {
        let mut terms = Vec::new();
        let exprs: Vec<(&Expr, Range<usize>)> = exprs
            .into_iter()
            .map(|expr| {
                let first = terms.len();
                let kept = |term: &'q CpTerm| (term, TermBounds::new(term.range));
                terms.extend(expr.terms().into_iter().map(kept));
                (expr, first..terms.len())
            })
            .collect();
        Self {
            object_box_fallback,
            order: (0..exprs.len()).collect(),
            terms,
            exprs,
            predicate,
            rois: Vec::new(),
            term_intervals: Vec::new(),
            intervals: Vec::new(),
        }
    }

    /// Compiles a filter predicate whose comparisons are bounded in
    /// `order`. An `order` that is not a permutation of the comparisons
    /// (the filter stage passes none) is replaced by the written order.
    pub fn predicate(predicate: &'q Predicate, order: &[usize], object_box_fallback: bool) -> Self {
        let comparisons = predicate.comparisons();
        let mut compiled = Self::new(
            comparisons.iter().map(|cmp| &cmp.expr),
            Some(predicate),
            object_box_fallback,
        );
        let mut seen = vec![false; comparisons.len()];
        if order.len() == seen.len()
            && order
                .iter()
                .all(|&i| i < seen.len() && !std::mem::replace(&mut seen[i], true))
        {
            compiled.order = order.to_vec();
        }
        compiled
    }

    /// Compiles one ranked or aggregated expression.
    pub fn expr(expr: &'q Expr, object_box_fallback: bool) -> Self {
        Self::new([expr], None, object_box_fallback)
    }

    /// Resolves every term's ROI for `record`, in written order: the first
    /// term that cannot be resolved is the error, whichever comparison the
    /// compiled order would have bounded first or an early exit skipped.
    fn resolve(&mut self, record: &MaskRecord) -> QueryResult<()> {
        self.rois.clear();
        for (term, _) in &self.terms {
            reject_pair_in_single(term)?;
            self.rois
                .push(resolve_roi(term, record, self.object_box_fallback)?);
        }
        Ok(())
    }

    /// Bounds on expression `index` over the resolved ROIs.
    fn expr_interval(&mut self, index: usize, chi: ChiView<'_>) -> Interval {
        let (expr, terms) = self.exprs[index].clone();
        self.term_intervals.clear();
        for term in terms {
            let b = self.terms[term].1.cp_bounds(chi, &self.rois[term]);
            self.term_intervals
                .push(Interval::new(b.lower as f64, b.upper as f64));
        }
        expr.evaluate_bounds(&self.term_intervals)
    }

    /// Three-valued truth of the compiled predicate from one mask's CHI.
    ///
    /// Comparisons are bounded in the compiled order and the rest skipped
    /// once the partly bounded predicate is decided. The result is that of
    /// bounding them all: a skipped comparison contributes the unbounded
    /// interval, which evaluates `Unknown`, and three-valued evaluation is
    /// monotone in the information order — once the partial evaluation
    /// returns `True` or `False`, refining the rest cannot change it.
    ///
    /// # Panics
    /// Panics if the bounds were compiled from an expression.
    pub fn classify(&mut self, record: &MaskRecord, chi: ChiView<'_>) -> QueryResult<Truth> {
        let predicate = self.predicate.expect("compiled from a predicate");
        self.resolve(record)?;
        let unbounded = Interval::new(f64::NEG_INFINITY, f64::INFINITY);
        self.intervals.clear();
        self.intervals.resize(self.exprs.len(), unbounded);
        let mut truth = Truth::Unknown;
        for at in 0..self.order.len() {
            let index = self.order[at];
            self.intervals[index] = self.expr_interval(index, chi);
            truth = predicate.eval_bounds(&self.intervals);
            if truth != Truth::Unknown {
                break;
            }
        }
        Ok(truth)
    }

    /// Bounds on the compiled expression (a predicate's first comparison)
    /// from one mask's CHI.
    pub fn interval(&mut self, record: &MaskRecord, chi: ChiView<'_>) -> QueryResult<Interval> {
        self.resolve(record)?;
        Ok(self.expr_interval(0, chi))
    }
}

// ---------------------------------------------------------------------------
// Pair (multi-mask) evaluation: two masks of the same image bound per
// candidate, terms referencing either side or their pixelwise composition.
// ---------------------------------------------------------------------------

/// One pair candidate's catalog records: the left and right binding.
#[derive(Debug, Clone, Copy)]
pub struct PairRecords<'a> {
    /// Record of the left-bound mask.
    pub left: &'a MaskRecord,
    /// Record of the right-bound mask.
    pub right: &'a MaskRecord,
}

impl PairRecords<'_> {
    /// Resolves a pair term's ROI against the record of the mask it counts
    /// over (composed terms resolve against the left record; the executors
    /// enforce equal shapes before any pixels are counted).
    fn resolve(&self, term: &CpTerm, object_box_fallback: bool) -> QueryResult<Roi> {
        let record = match term.source {
            TermSource::Right => self.right,
            _ => self.left,
        };
        resolve_roi(term, record, object_box_fallback)
    }
}

fn reject_own_term() -> QueryError {
    QueryError::invalid(
        "pair queries require every CP term to name a.mask, b.mask, or a composition",
    )
}

/// Checks that the two bound masks can be composed; pair executors call
/// this once per candidate before any composed term touches pixels.
pub fn check_pair_shapes(records: &PairRecords<'_>, left: &Mask, right: &Mask) -> QueryResult<()> {
    if left.shape() != right.shape() {
        return Err(QueryError::invalid(format!(
            "pair masks {} and {} of image {} have different shapes {}x{} vs {}x{}",
            records.left.mask_id,
            records.right.mask_id,
            records.left.image_id,
            left.width(),
            left.height(),
            right.width(),
            right.height(),
        )));
    }
    Ok(())
}

/// Catalog-record-level shape precheck for composed terms. The filter stage
/// runs this for every candidate of a query that composes masks, so a
/// mismatched pair fails identically in every indexing mode — a decisive
/// CHI bound must not mask (in eager mode) an error that incremental or
/// disabled mode would surface at verification.
pub fn check_pair_record_shapes(records: &PairRecords<'_>) -> QueryResult<()> {
    let (l, r) = (records.left, records.right);
    if (l.width, l.height) != (r.width, r.height) {
        return Err(QueryError::invalid(format!(
            "pair masks {} and {} of image {} have different shapes {}x{} vs {}x{}",
            l.mask_id, r.mask_id, l.image_id, l.width, l.height, r.width, r.height,
        )));
    }
    Ok(())
}

/// Returns `true` if the expression composes the pair's two masks (as
/// opposed to referencing only one side), which is what requires equal
/// shapes.
pub fn expr_composes(expr: &Expr) -> bool {
    expr.terms()
        .iter()
        .any(|t| matches!(t.source, TermSource::Compose(_)))
}

/// Returns `true` if any comparison of the predicate composes the pair.
pub fn predicate_composes(predicate: &Predicate) -> bool {
    predicate
        .comparisons()
        .iter()
        .any(|c| expr_composes(&c.expr))
}

/// Bounds on one pair term from the two masks' CHIs.
pub fn pair_term_bounds(
    term: &CpTerm,
    records: &PairRecords<'_>,
    chi_left: ChiView<'_>,
    chi_right: ChiView<'_>,
    object_box_fallback: bool,
) -> QueryResult<Interval> {
    let roi = records.resolve(term, object_box_fallback)?;
    let b = match term.source {
        TermSource::Own => return Err(reject_own_term()),
        TermSource::Left => chi_left.cp_bounds(&roi, &term.range),
        TermSource::Right => chi_right.cp_bounds(&roi, &term.range),
        TermSource::Compose(op) => composed_cp_bounds(&chi_left, &chi_right, op, &roi, &term.range),
    };
    Ok(Interval::new(b.lower as f64, b.upper as f64))
}

/// Bounds on an expression over pair terms from the two masks' CHIs.
pub fn pair_expr_bounds(
    expr: &Expr,
    records: &PairRecords<'_>,
    chi_left: ChiView<'_>,
    chi_right: ChiView<'_>,
    object_box_fallback: bool,
) -> QueryResult<Interval> {
    let mut intervals = Vec::new();
    for term in expr.terms() {
        intervals.push(pair_term_bounds(
            term,
            records,
            chi_left,
            chi_right,
            object_box_fallback,
        )?);
    }
    Ok(expr.evaluate_bounds(&intervals))
}

/// Three-valued truth of a pair predicate from the two masks' CHIs.
pub fn pair_predicate_bounds(
    predicate: &Predicate,
    records: &PairRecords<'_>,
    chi_left: ChiView<'_>,
    chi_right: ChiView<'_>,
    object_box_fallback: bool,
) -> QueryResult<Truth> {
    let mut intervals = Vec::new();
    for cmp in predicate.comparisons() {
        intervals.push(pair_expr_bounds(
            &cmp.expr,
            records,
            chi_left,
            chi_right,
            object_box_fallback,
        )?);
    }
    Ok(predicate.eval_bounds(&intervals))
}

/// Exact values of a batch of pair terms on the two loaded tiled masks,
/// routing through the (composed) tile kernel or the reference scans.
fn pair_terms_exact_tiled(
    terms: &[&CpTerm],
    records: &PairRecords<'_>,
    left: &TiledMask,
    right: &TiledMask,
    opts: &VerifyOptions,
    tiles: &mut TileStats,
) -> QueryResult<Vec<f64>> {
    // Equal shapes are required only to *compose*; side-only terms
    // (CP(a.mask, …) / CP(b.mask, …)) are fine on differently-shaped pairs.
    if terms
        .iter()
        .any(|t| matches!(t.source, TermSource::Compose(_)))
    {
        check_pair_shapes(records, left.mask(), right.mask())?;
    }
    let mut values = Vec::with_capacity(terms.len());
    for term in terms {
        let roi = records.resolve(term, opts.object_box_fallback)?;
        let count = match term.source {
            TermSource::Own => return Err(reject_own_term()),
            TermSource::Left | TermSource::Right => {
                let side = if term.source == TermSource::Left {
                    left
                } else {
                    right
                };
                if opts.use_tiled_kernel {
                    side.cp_with_stats(&roi, &term.range, tiles)
                } else {
                    cp(side.mask(), &roi, &term.range)
                }
            }
            TermSource::Compose(op) => {
                if opts.use_tiled_kernel {
                    left.cp_composed_with_stats(right, op, &roi, &term.range, tiles)?
                } else {
                    cp_composed(left.mask(), right.mask(), op, &roi, &term.range)?
                }
            }
        };
        values.push(count as f64);
    }
    Ok(values)
}

/// Exact value of an expression over pair terms on the two loaded masks.
pub fn pair_expr_exact_tiled(
    expr: &Expr,
    records: &PairRecords<'_>,
    left: &TiledMask,
    right: &TiledMask,
    opts: &VerifyOptions,
    tiles: &mut TileStats,
) -> QueryResult<f64> {
    let values = pair_terms_exact_tiled(&expr.terms(), records, left, right, opts, tiles)?;
    Ok(expr.evaluate_exact(&values))
}

/// Exact truth of a pair predicate on the two loaded masks.
pub fn pair_predicate_exact_tiled(
    predicate: &Predicate,
    records: &PairRecords<'_>,
    left: &TiledMask,
    right: &TiledMask,
    opts: &VerifyOptions,
    tiles: &mut TileStats,
) -> QueryResult<bool> {
    let comparisons = predicate.comparisons();
    let mut values = Vec::with_capacity(comparisons.len());
    for cmp in &comparisons {
        values.push(pair_expr_exact_tiled(
            &cmp.expr, records, left, right, opts, tiles,
        )?);
    }
    Ok(predicate.eval_exact(&values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RoiSpec;
    use masksearch_core::{MaskId, PixelRange};
    use masksearch_index::{Chi, ChiConfig};

    fn mask() -> Mask {
        Mask::from_fn(32, 32, |x, y| if x < 16 && y < 16 { 0.9 } else { 0.1 })
    }

    fn record(with_box: bool) -> MaskRecord {
        let mut b = MaskRecord::builder(MaskId::new(1)).shape(32, 32);
        if with_box {
            b = b.object_box(Roi::new(0, 0, 16, 16).unwrap());
        }
        b.build()
    }

    #[test]
    fn roi_resolution_and_fallback() {
        let term = CpTerm::object_roi(PixelRange::new(0.8, 1.0).unwrap());
        let with_box = record(true);
        assert_eq!(
            resolve_roi(&term, &with_box, false).unwrap(),
            Roi::new(0, 0, 16, 16).unwrap()
        );
        let without = record(false);
        assert!(matches!(
            resolve_roi(&term, &without, false),
            Err(QueryError::MissingObjectBox(_))
        ));
        assert_eq!(
            resolve_roi(&term, &without, true).unwrap(),
            Roi::new(0, 0, 32, 32).unwrap()
        );
        // A full-mask term on a record with no shape errors out.
        let term = CpTerm::full_mask(PixelRange::full());
        let shapeless = MaskRecord::builder(MaskId::new(2)).build();
        assert!(resolve_roi(&term, &shapeless, true).is_err());
    }

    #[test]
    fn exact_and_bounded_evaluation_agree() {
        let m = mask();
        let rec = record(true);
        let chi = Chi::build(&m, &ChiConfig::new(8, 8, 16).unwrap());
        let range = PixelRange::new(0.8, 1.0).unwrap();
        // Ratio of salient pixels in the object box to salient pixels overall.
        let expr = Expr::cp_object(range).div(Expr::cp_full(range));
        let exact = expr_exact(&expr, &rec, &m, false).unwrap();
        assert!((exact - 1.0).abs() < 1e-12); // all salient pixels are inside the box
        let bounds = CompiledBounds::expr(&expr, false)
            .interval(&rec, chi.view())
            .unwrap();
        assert!(bounds.contains(exact));
    }

    #[test]
    fn predicate_evaluation_paths() {
        let m = mask();
        let rec = record(true);
        let chi = Chi::build(&m, &ChiConfig::new(8, 8, 16).unwrap());
        let range = PixelRange::new(0.8, 1.0).unwrap();
        // 256 salient pixels inside the object box.
        let pred = Predicate::gt(Expr::cp_object(range), 200.0)
            .and(Predicate::lt(Expr::cp_full(range), 300.0));
        assert!(predicate_exact(&pred, &rec, &m, false).unwrap());
        // The object box is cell-aligned and the range bin-aligned, so the
        // bounds are exact and the filter stage can accept outright.
        // An order that is no permutation falls back to the written one.
        for order in [&[1, 0][..], &[0, 1], &[], &[0, 0], &[0, 2]] {
            let mut bounds = CompiledBounds::predicate(&pred, order, false);
            assert_eq!(bounds.classify(&rec, chi.view()).unwrap(), Truth::True);
        }
        let never = Predicate::gt(Expr::cp_object(range), 100_000.0);
        let mut bounds = CompiledBounds::predicate(&never, &[0], false);
        assert_eq!(bounds.classify(&rec, chi.view()).unwrap(), Truth::False);
        assert!(!predicate_exact(&never, &rec, &m, false).unwrap());
    }

    #[test]
    fn term_bounds_error_on_missing_object_box_without_fallback() {
        let m = mask();
        let rec = record(false);
        let chi = Chi::build(&m, &ChiConfig::new(8, 8, 16).unwrap());
        let term = CpTerm {
            source: TermSource::Own,
            roi: RoiSpec::ObjectBox,
            range: PixelRange::full(),
        };
        assert!(CompiledBounds::expr(&Expr::Cp(term), false)
            .interval(&rec, chi.view())
            .is_err());
        assert!(term_exact(&term, &rec, &m, false).is_err());
    }
}
