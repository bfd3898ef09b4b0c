//! Composed `CP` bounds: bound algebra over two masks' CHIs.
//!
//! Multi-mask queries evaluate `CP` over a pixelwise composition
//! `op(a, b)` (`masksearch-core`'s [`MaskOp`]). The filter stage must bound
//! that value **without loading either mask**, from the two per-mask CHIs
//! alone. This module derives sound bounds algebraically.
//!
//! ## Construction
//!
//! Write `G_m(t)` for the *tail count* of mask `m`: the number of ROI pixels
//! with `m ≥ t` (composed pixels with a NaN operand are NaN and never
//! counted). Then `CP(op(a,b), roi, [lo, hi)) = G(lo) − G(hi)` for the
//! composed tail `G`, and the marginal tails compose:
//!
//! * **intersect** (`min`): `min(a,b) ≥ t ⇔ a ≥ t ∧ b ≥ t`, so
//!   `Ga(t) + Gb(t) − |roi| ≤ G∩(t) ≤ min(Ga(t), Gb(t))`.
//! * **union** (`max`): `max(a,b) ≥ t ⇔ a ≥ t ∨ b ≥ t`, so
//!   `max(Ga(t), Gb(t)) ≤ G∪(t) ≤ min(|roi|, Ga(t) + Gb(t))`.
//! * **diff** (`|a−b|`): for in-domain operands `|a−b| ≥ t ⇒ max(a,b) ≥ t`,
//!   so `G△(t) ≤ G∪(t)` for `t > 0`, and `G△(0)` counts every pixel where
//!   both operands are non-NaN.
//!
//! The CHI brackets each marginal tail (`cp_bounds` over `[t, 1)`), and a
//! small *uncountable slack* term — an upper bound on each mask's
//! out-of-domain pixels, derived from the full-range tail — keeps the
//! composition sound even for masks containing NaN/±∞ pixels. For valid
//! masks the slack is exactly zero and costs no pruning power. Interval
//! subtraction of the two composed tails then yields the final
//! [`CpBounds`]; the differential tests prove `lower ≤ exact ≤ upper` on
//! arbitrary masks (including non-finite pixels), ROIs, ranges, and grid
//! configurations.

use crate::bounds::{bin_ranges, CpBounds};
use crate::chi::{with_counts, CellStorage, ChiOver, ChiView, Count};
use masksearch_core::{MaskOp, PixelRange, Roi};

/// Lower/upper bounds on a tail count `G(t)`.
#[derive(Debug, Clone, Copy)]
struct Tail {
    lo: u64,
    hi: u64,
}

/// Brackets the marginal tail `G_m(t)` (= `CP(m, roi, [t, 1))` plus pixels
/// `≥ 1`, which the caller accounts for through the slack term).
fn marginal_tail(chi: ChiView<'_>, roi: &Roi, t: f32, area: u64) -> Tail {
    if t >= 1.0 {
        return Tail { lo: 0, hi: 0 };
    }
    let range = PixelRange::new(t.max(0.0), 1.0).expect("tail threshold below 1");
    let b = chi.cp_bounds(roi, &range);
    Tail {
        lo: b.lower,
        hi: b.upper.min(area),
    }
}

/// Brackets the composed tail `G(t) = |{p ∈ roi : op(a,b)(p) ≥ t}|`.
///
/// `slack_a`/`slack_b` bound each operand's uncountable (NaN or
/// out-of-domain) pixels inside the ROI; both are zero for valid masks.
/// When the two CHIs share one grid configuration the global bracket is
/// refined **per cell** ([`per_cell_tail`]); the tighter of the two wins.
fn composed_tail(
    a: ChiView<'_>,
    b: ChiView<'_>,
    op: MaskOp,
    roi: &Roi,
    t: f32,
    area: u64,
    base: (Tail, Tail),
) -> Tail {
    let (ta0, tb0) = base;
    let slack_a = area - ta0.lo;
    let slack_b = area - tb0.lo;
    if t >= 1.0 {
        // Composed values ≥ 1 require an out-of-domain operand.
        let hi = match op {
            MaskOp::Intersect => slack_a.min(slack_b),
            MaskOp::Union | MaskOp::Diff => (slack_a + slack_b).min(area),
        };
        return Tail { lo: 0, hi };
    }
    let ta = marginal_tail(a, roi, t, area);
    let tb = marginal_tail(b, roi, t, area);
    let global = match op {
        MaskOp::Intersect => {
            // a ∈ [t,1) and b ∈ [t,1) pixels are both non-NaN with min ≥ t.
            let lo = (ta.lo + tb.lo).saturating_sub(area);
            let hi = (ta.hi + slack_a).min(tb.hi + slack_b).min(area);
            Tail { lo: lo.min(hi), hi }
        }
        MaskOp::Union => {
            // A pixel with a ∈ [t,1) is only counted when b is non-NaN, so
            // the lower bound sheds the other operand's possible NaNs.
            let lo = ta
                .lo
                .saturating_sub(slack_b)
                .max(tb.lo.saturating_sub(slack_a));
            let hi = (ta.hi + tb.hi + slack_a + slack_b).min(area);
            Tail { lo: lo.min(hi), hi }
        }
        MaskOp::Diff => {
            if t <= 0.0 {
                // |a−b| ≥ 0 whenever both operands are non-NaN.
                let lo = (ta0.lo + tb0.lo).saturating_sub(area);
                Tail { lo, hi: area }
            } else {
                // In-domain: |a−b| ≥ t ⇒ max(a,b) ≥ t; out-of-domain pixels
                // are covered by the slack terms.
                let hi = (ta.hi + tb.hi + slack_a + slack_b).min(area);
                Tail { lo: 0, hi }
            }
        }
    };
    let refined = with_counts!(a.cells(), counts_a => with_counts!(b.cells(), counts_b => {
        per_cell_tail((a, counts_a), (b, counts_b), op, roi, t)
    }));
    match refined {
        Some(refined) => {
            let hi = global.hi.min(refined.hi);
            Tail {
                lo: global.lo.max(refined.lo).min(hi),
                hi,
            }
        }
        None => global,
    }
}

/// Per-cell refinement of the composed tail: the same set-algebra
/// inequalities applied **cell by cell** and summed, over each CHI and its
/// cumulative counts.
///
/// Whole-ROI composition loses all spatial information — `min(ΣA, ΣB)` is a
/// hopeless upper bound for `Σ min(A_c, B_c)` when two masks are salient in
/// *different places* (the defining situation of a disagreement audit).
/// Summing the per-cell bound instead:
///
/// * **upper** (over the cells of the ROI's covering region — every counted
///   composed pixel lies in one of them): `Σ min(ua, ub)` for intersect,
///   `Σ min(cell, ua + ub)` for union/diff, where `ua`/`ub` are the cell's
///   outer-bin tail counts, plus the global uncountable slack;
/// * **lower** (over the covered region's cells, which lie fully inside the
///   ROI): `Σ max(0, la + lb − cell)` for intersect and
///   `Σ max(la, lb) − slack` for union, from inner-bin tail counts.
///
/// Returns `None` when the grids are incompatible or `t` is outside `(0, 1)`
/// (the global path already handles those exactly enough).
fn per_cell_tail<A: Count, B: Count>(
    a: (ChiView<'_>, &[A]),
    b: (ChiView<'_>, &[B]),
    op: MaskOp,
    roi: &Roi,
    t: f32,
) -> Option<Tail> {
    let ((a, counts_a), (b, counts_b)) = (a, b);
    if a.config() != b.config() || t <= 0.0 || t >= 1.0 {
        return None;
    }
    // The per-cell slack below subsumes the global uncountable terms.
    let bins = a.config().bins();
    let range = PixelRange::new(t, 1.0).ok()?;
    let (outer_lo, _, inner_lo, _) = bin_ranges(&range, bins);
    let (cx0, cy0, cx1, cy1) = a.covering_region(roi)?;
    let covered = a.covered_region(roi);
    let mut upper = 0u64;
    let mut lower = 0u64;
    for cy in cy0..cy1 {
        for cx in cx0..cx1 {
            let cell_w = u64::from(a.x_boundary(cx + 1) - a.x_boundary(cx));
            let cell_h = u64::from(a.y_boundary(cy + 1) - a.y_boundary(cy));
            let cell = cell_w * cell_h;
            // Per-cell uncountable slack: cell pixels the CHI did not bin
            // (NaN / ±∞ / out-of-domain — bin 0 counts the binned ones).
            let sa = cell - cell_bin_count(a, counts_a, cx, cy, 0).min(cell);
            let sb = cell - cell_bin_count(b, counts_b, cx, cy, 0).min(cell);
            let (ua, ub) = (
                cell_bin_count(a, counts_a, cx, cy, outer_lo),
                cell_bin_count(b, counts_b, cx, cy, outer_lo),
            );
            upper += match op {
                // A counted pixel has `a ≥ t` (in the outer tail or
                // out-of-domain-high, ≤ the cell's slack) and likewise `b`.
                MaskOp::Intersect => (ua + sa).min(ub + sb).min(cell),
                MaskOp::Union | MaskOp::Diff => (ua + ub + sa + sb).min(cell),
            };
            // Lower contributions only from cells fully inside the ROI.
            let inside = covered
                .is_some_and(|(bx0, by0, bx1, by1)| cx >= bx0 && cx < bx1 && cy >= by0 && cy < by1);
            if inside {
                let (la, lb) = (
                    cell_bin_count(a, counts_a, cx, cy, inner_lo),
                    cell_bin_count(b, counts_b, cx, cy, inner_lo),
                );
                lower += match op {
                    MaskOp::Intersect => (la + lb).saturating_sub(cell),
                    // A one-sided tail pixel is composed-countable unless
                    // the other operand is NaN (≤ the other side's slack).
                    MaskOp::Union => la.saturating_sub(sb).max(lb.saturating_sub(sa)),
                    MaskOp::Diff => 0,
                };
            }
        }
    }
    Some(Tail {
        lo: lower.min(upper),
        hi: upper,
    })
}

/// Reverse-cumulative count of the *single cell* `(cx, cy)` at `bin`, read
/// straight off the CHI's 2-D-prefix-summed `counts` by four-corner
/// inclusion–exclusion — no histogram materialisation. `bin ≥ bins` counts
/// zero (the tail above the domain).
#[inline]
fn cell_bin_count<T: Count>(chi: ChiView<'_>, counts: &[T], cx: u32, cy: u32, bin: u32) -> u64 {
    let bins = chi.config().bins();
    if bin >= bins {
        return 0;
    }
    let bins = bins as usize;
    let cells_x = chi.cells_x() as usize;
    let at = |x: u32, y: u32| -> u64 {
        counts[(y as usize * cells_x + x as usize) * bins + bin as usize].into()
    };
    let d = at(cx, cy);
    let b = if cx > 0 { at(cx - 1, cy) } else { 0 };
    let c = if cy > 0 { at(cx, cy - 1) } else { 0 };
    let a = if cx > 0 && cy > 0 {
        at(cx - 1, cy - 1)
    } else {
        0
    };
    // Prefix sums of non-negative data: d + a ≥ b + c always.
    (d + a) - b - c
}

/// Bounds on `CP(op(a, b), roi, range)` computed purely from the two masks'
/// CHIs — the multi-mask counterpart of [`ChiOver::cp_bounds`].
///
/// The two CHIs must describe masks of identical shape (pair executors
/// enforce this before ever consulting bounds); mismatched shapes fall back
/// to the trivial `[0, |roi|]` bracket, which is sound and simply prunes
/// nothing.
pub fn composed_cp_bounds<A: CellStorage, B: CellStorage>(
    a: &ChiOver<A>,
    b: &ChiOver<B>,
    op: MaskOp,
    roi: &Roi,
    range: &PixelRange,
) -> CpBounds {
    let (a, b) = (a.view(), b.view());
    let Some(clip) = roi.clamp_to(a.mask_width(), a.mask_height()) else {
        return CpBounds::empty();
    };
    let area = clip.area();
    if a.mask_width() != b.mask_width() || a.mask_height() != b.mask_height() {
        return CpBounds {
            lower: 0,
            upper: area,
            roi_area: area,
        };
    }
    // Full-range tails bound each operand's countable pixels; their slack
    // (area − lower) bounds the uncountable ones.
    let base = (
        marginal_tail(a, roi, 0.0, area),
        marginal_tail(b, roi, 0.0, area),
    );
    let g_lo = composed_tail(a, b, op, roi, range.lo(), area, base);
    let g_hi = composed_tail(a, b, op, roi, range.hi(), area, base);
    // CP = G(lo) − G(hi) with interval subtraction, clamped to [0, |roi|].
    let upper = g_lo.hi.saturating_sub(g_hi.lo).min(area);
    let lower = g_lo.lo.saturating_sub(g_hi.hi).min(upper);
    CpBounds {
        lower,
        upper,
        roi_area: area,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi::{Chi, ChiConfig};
    use masksearch_core::{cp_composed, Mask};

    fn check(a: &Mask, b: &Mask, config: &ChiConfig, roi: &Roi, range: &PixelRange, op: MaskOp) {
        let chi_a = Chi::build(a, config);
        let chi_b = Chi::build(b, config);
        let bounds = composed_cp_bounds(&chi_a, &chi_b, op, roi, range);
        let exact = cp_composed(a, b, op, roi, range).unwrap();
        assert!(
            bounds.lower <= exact && exact <= bounds.upper,
            "{op}: exact {exact} outside [{}, {}] for roi {roi} range {range}",
            bounds.lower,
            bounds.upper
        );
        assert!(bounds.upper <= bounds.roi_area);
    }

    fn blob(w: u32, h: u32, cx: f32, cy: f32) -> Mask {
        Mask::from_fn(w, h, move |x, y| {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            (0.95 * (-(dx * dx + dy * dy) / 60.0).exp()).min(0.999)
        })
    }

    #[test]
    fn composed_bounds_bracket_the_exact_count() {
        let a = blob(48, 48, 16.0, 16.0);
        let b = blob(48, 48, 30.0, 26.0);
        let configs = [
            ChiConfig::new(8, 8, 16).unwrap(),
            ChiConfig::new(5, 7, 4).unwrap(),
            ChiConfig::new(64, 64, 16).unwrap(),
        ];
        let rois = [
            Roi::new(0, 0, 48, 48).unwrap(),
            Roi::new(3, 5, 17, 29).unwrap(),
            Roi::new(40, 40, 100, 100).unwrap(),
        ];
        let ranges = [
            PixelRange::new(0.5, 1.0).unwrap(),
            PixelRange::new(0.25, 0.75).unwrap(),
            PixelRange::new(0.4, 0.45).unwrap(),
            PixelRange::full(),
        ];
        for config in &configs {
            for roi in &rois {
                for range in &ranges {
                    for op in [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff] {
                        check(&a, &b, config, roi, range, op);
                    }
                }
            }
        }
    }

    #[test]
    fn intersect_union_are_tight_on_aligned_queries() {
        // Cell-aligned ROI + bin-aligned range: marginal tails are exact, so
        // the composed brackets collapse to the set-algebra inequalities.
        let a = blob(32, 32, 10.0, 10.0);
        let b = blob(32, 32, 20.0, 24.0);
        let config = ChiConfig::new(8, 8, 16).unwrap();
        let chi_a = Chi::build(&a, &config);
        let chi_b = Chi::build(&b, &config);
        let roi = Roi::new(8, 8, 24, 24).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let inter = composed_cp_bounds(&chi_a, &chi_b, MaskOp::Intersect, &roi, &range);
        let union = composed_cp_bounds(&chi_a, &chi_b, MaskOp::Union, &roi, &range);
        let exact_i = cp_composed(&a, &b, MaskOp::Intersect, &roi, &range).unwrap();
        let exact_u = cp_composed(&a, &b, MaskOp::Union, &roi, &range).unwrap();
        assert!(inter.lower <= exact_i && exact_i <= inter.upper);
        assert!(union.lower <= exact_u && exact_u <= union.upper);
        // With exact marginals the composed brackets must be at least as
        // tight as the whole-ROI set-algebra inequalities — and the
        // per-cell refinement usually much tighter (two blobs in different
        // cells have near-zero per-cell intersection bounds).
        let ca = chi_a.cp_bounds(&roi, &range);
        let cb = chi_b.cp_bounds(&roi, &range);
        assert!(ca.is_exact() && cb.is_exact());
        assert!(inter.upper <= ca.upper.min(cb.upper));
        assert!(union.lower >= ca.lower.max(cb.lower));
    }

    #[test]
    fn bounds_stay_sound_on_nan_and_inf_pixels() {
        let mut da = vec![0.6f32; 24 * 24];
        let mut db = vec![0.3f32; 24 * 24];
        da[3] = f32::NAN;
        da[100] = f32::INFINITY;
        db[7] = f32::NEG_INFINITY;
        db[200] = f32::NAN;
        db[301] = 1.25;
        let a = Mask::from_data_unchecked(24, 24, da).unwrap();
        let b = Mask::from_data_unchecked(24, 24, db).unwrap();
        let config = ChiConfig::new(6, 6, 8).unwrap();
        for roi in [
            Roi::new(0, 0, 24, 24).unwrap(),
            Roi::new(2, 2, 13, 19).unwrap(),
        ] {
            for range in [
                PixelRange::full(),
                PixelRange::new(0.25, 0.5).unwrap(),
                PixelRange::new(0.29, 0.31).unwrap(),
            ] {
                for op in [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff] {
                    check(&a, &b, &config, &roi, &range, op);
                }
            }
        }
    }

    #[test]
    fn disjoint_roi_and_mismatched_shapes_are_conservative() {
        let a = blob(16, 16, 8.0, 8.0);
        let b = blob(16, 16, 4.0, 4.0);
        let config = ChiConfig::default();
        let chi_a = Chi::build(&a, &config);
        let chi_b = Chi::build(&b, &config);
        let far = Roi::new(100, 100, 120, 120).unwrap();
        assert_eq!(
            composed_cp_bounds(&chi_a, &chi_b, MaskOp::Diff, &far, &PixelRange::full()),
            CpBounds::empty()
        );
        let small = Chi::build(&blob(8, 8, 4.0, 4.0), &config);
        let roi = Roi::new(0, 0, 16, 16).unwrap();
        let bounds = composed_cp_bounds(&chi_a, &small, MaskOp::Union, &roi, &PixelRange::full());
        assert_eq!((bounds.lower, bounds.upper), (0, 256));
    }

    #[test]
    fn selective_diff_on_agreeing_masks_prunes() {
        // Two identical masks: |a−b| = 0 everywhere, and the composed upper
        // bound for a selective range must reach 0 so the filter stage can
        // prune a "disagreement > T" predicate without loading pixels.
        let a = blob(64, 64, 32.0, 32.0);
        let config = ChiConfig::new(8, 8, 16).unwrap();
        let chi = Chi::build(&a, &config);
        let roi = a.full_roi();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let bounds = composed_cp_bounds(&chi, &chi, MaskOp::Diff, &roi, &range);
        // G△(0.5) ≤ G∪(0.5) ≤ Ga(0.5) + Ga(0.5): small for a concentrated
        // blob; in particular far below the full area.
        assert!(bounds.upper < roi.area() / 4, "upper {}", bounds.upper);
    }
}
