//! Arithmetic expressions over `CP` terms, with interval (bound) evaluation.
//!
//! Queries frequently combine several `CP` terms arithmetically — the paper's
//! Example 1 ranks X-rays by the *ratio* of salient pixels inside the lung
//! ROI to salient pixels in the whole image, and §3.3 generalises the filter
//! framework to any expression that is monotone in each `CP` term (`+`, `−`,
//! `×`; we also support `/` with conservative interval handling).
//!
//! An [`Expr`] can be evaluated two ways:
//!
//! * **exactly**, given the exact value of every `CP` term (verification
//!   stage), and
//! * **as an interval**, given lower/upper bounds on every term (filter
//!   stage) — standard interval arithmetic, so the resulting interval is
//!   guaranteed to contain the exact value.

use crate::spec::{CpTerm, RoiSpec, TermSource};
use masksearch_core::{MaskOp, PixelRange, Roi};
use std::fmt;

/// A closed interval `[lo, hi]` used for bound propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower end of the interval.
    pub lo: f64,
    /// Upper end of the interval.
    pub hi: f64,
}

impl Interval {
    /// Creates an interval, normalising an inverted pair.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// A degenerate interval containing a single value.
    pub fn point(v: f64) -> Self {
        Self { lo: v, hi: v }
    }

    /// Returns `true` if the interval contains `v`.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Interval addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Interval subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(&self, other: &Interval) -> Interval {
        Interval::new(self.lo - other.hi, self.hi - other.lo)
    }

    /// Interval multiplication.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(&self, other: &Interval) -> Interval {
        let candidates = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        let lo = candidates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = candidates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval { lo, hi }
    }

    /// Interval division. If the divisor interval contains zero the result is
    /// unbounded in the corresponding direction (conservative but sound).
    #[allow(clippy::should_implement_trait)]
    pub fn div(&self, other: &Interval) -> Interval {
        if other.lo <= 0.0 && other.hi >= 0.0 {
            // Division by an interval straddling (or touching) zero.
            return Interval {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            };
        }
        let candidates = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ];
        let lo = candidates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = candidates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval { lo, hi }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// An arithmetic expression over `CP` terms and constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A `CP(mask, roi, range)` term.
    Cp(CpTerm),
    /// A numeric constant.
    Const(f64),
    /// Sum of two sub-expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two sub-expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two sub-expressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient of two sub-expressions.
    Div(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor: a single `CP` term with a constant ROI.
    pub fn cp(roi: Roi, range: PixelRange) -> Self {
        Expr::Cp(CpTerm::constant_roi(roi, range))
    }

    /// Convenience constructor: a single `CP` term over the mask-specific
    /// object bounding box.
    pub fn cp_object(range: PixelRange) -> Self {
        Expr::Cp(CpTerm::object_roi(range))
    }

    /// Convenience constructor: a single `CP` term over the full mask.
    pub fn cp_full(range: PixelRange) -> Self {
        Expr::Cp(CpTerm::full_mask(range))
    }

    /// Convenience constructor: a `CP` term over the pixelwise composition
    /// of a pair's masks (pair queries only).
    pub fn cp_composed(op: MaskOp, roi: RoiSpec, range: PixelRange) -> Self {
        Expr::Cp(CpTerm::composed(op, roi, range))
    }

    /// Convenience constructor: a `CP` term over one side of a pair.
    pub fn cp_side(source: TermSource, roi: RoiSpec, range: PixelRange) -> Self {
        Expr::Cp(CpTerm { source, roi, range })
    }

    /// The `IOU(a.mask, b.mask, roi, θ)` metric of a pair: the masks are
    /// binarised at the range's lower bound (`range` is `[θ, 1)`), and the
    /// metric is `CP∩ / CP∪` — which lowers to a plain ratio expression, so
    /// the whole filter/top-k bound machinery (interval division included)
    /// applies unchanged. Two empty binarisations yield `0 / 0 = NaN`,
    /// which never satisfies a comparison and ranks last under either
    /// order.
    pub fn iou(roi: RoiSpec, range: PixelRange) -> Self {
        Expr::cp_composed(MaskOp::Intersect, roi, range).div(Expr::cp_composed(
            MaskOp::Union,
            roi,
            range,
        ))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Self {
        Expr::Add(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Self {
        Expr::Sub(Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Self {
        Expr::Mul(Box::new(self), Box::new(other))
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Self {
        Expr::Div(Box::new(self), Box::new(other))
    }

    /// Collects every `CP` term in the expression, left to right.
    pub fn terms(&self) -> Vec<&CpTerm> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a CpTerm>) {
        match self {
            Expr::Cp(term) => out.push(term),
            Expr::Const(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_terms(out);
                b.collect_terms(out);
            }
        }
    }

    /// Returns `true` if any `CP` term uses a mask-specific ROI.
    pub fn uses_mask_specific_roi(&self) -> bool {
        self.terms().iter().any(|t| t.roi.is_mask_specific())
    }

    /// Evaluates the expression given exact values for the `CP` terms, in the
    /// order produced by [`Expr::terms`].
    ///
    /// # Panics
    /// Panics if `values` has fewer entries than the expression has terms;
    /// the executor always sizes it from [`Expr::terms`].
    pub fn evaluate_exact(&self, values: &[f64]) -> f64 {
        let mut cursor = 0usize;
        self.eval_exact_inner(values, &mut cursor)
    }

    fn eval_exact_inner(&self, values: &[f64], cursor: &mut usize) -> f64 {
        match self {
            Expr::Cp(_) => {
                let v = values[*cursor];
                *cursor += 1;
                v
            }
            Expr::Const(c) => *c,
            Expr::Add(a, b) => {
                a.eval_exact_inner(values, cursor) + b.eval_exact_inner(values, cursor)
            }
            Expr::Sub(a, b) => {
                a.eval_exact_inner(values, cursor) - b.eval_exact_inner(values, cursor)
            }
            Expr::Mul(a, b) => {
                a.eval_exact_inner(values, cursor) * b.eval_exact_inner(values, cursor)
            }
            Expr::Div(a, b) => {
                let num = a.eval_exact_inner(values, cursor);
                let den = b.eval_exact_inner(values, cursor);
                num / den
            }
        }
    }

    /// Evaluates the expression over intervals for the `CP` terms (same order
    /// as [`Expr::terms`]), producing an interval guaranteed to contain the
    /// exact value.
    pub fn evaluate_bounds(&self, intervals: &[Interval]) -> Interval {
        let mut cursor = 0usize;
        self.eval_bounds_inner(intervals, &mut cursor)
    }

    fn eval_bounds_inner(&self, intervals: &[Interval], cursor: &mut usize) -> Interval {
        match self {
            Expr::Cp(_) => {
                let v = intervals[*cursor];
                *cursor += 1;
                v
            }
            Expr::Const(c) => Interval::point(*c),
            Expr::Add(a, b) => {
                let x = a.eval_bounds_inner(intervals, cursor);
                let y = b.eval_bounds_inner(intervals, cursor);
                x.add(&y)
            }
            Expr::Sub(a, b) => {
                let x = a.eval_bounds_inner(intervals, cursor);
                let y = b.eval_bounds_inner(intervals, cursor);
                x.sub(&y)
            }
            Expr::Mul(a, b) => {
                let x = a.eval_bounds_inner(intervals, cursor);
                let y = b.eval_bounds_inner(intervals, cursor);
                x.mul(&y)
            }
            Expr::Div(a, b) => {
                let x = a.eval_bounds_inner(intervals, cursor);
                let y = b.eval_bounds_inner(intervals, cursor);
                x.div(&y)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(lo: f32, hi: f32) -> PixelRange {
        PixelRange::new(lo, hi).unwrap()
    }

    #[test]
    fn interval_arithmetic_is_sound() {
        let a = Interval::new(2.0, 5.0);
        let b = Interval::new(-1.0, 3.0);
        assert_eq!(a.add(&b), Interval::new(1.0, 8.0));
        assert_eq!(a.sub(&b), Interval::new(-1.0, 6.0));
        assert_eq!(a.mul(&b), Interval::new(-5.0, 15.0));
        // Division by an interval containing zero is unbounded.
        let d = a.div(&b);
        assert_eq!(d.lo, f64::NEG_INFINITY);
        assert_eq!(d.hi, f64::INFINITY);
        // Division by a strictly positive interval is finite.
        let c = Interval::new(1.0, 2.0);
        assert_eq!(a.div(&c), Interval::new(1.0, 5.0));
        // Inverted constructor arguments are normalised.
        assert_eq!(Interval::new(4.0, 1.0), Interval::new(1.0, 4.0));
        assert!(Interval::point(3.0).contains(3.0));
    }

    #[test]
    fn terms_are_collected_in_evaluation_order() {
        let roi = Roi::new(0, 0, 10, 10).unwrap();
        let expr = Expr::cp(roi, range(0.8, 1.0))
            .div(Expr::cp_full(range(0.8, 1.0)))
            .add(Expr::Const(1.0));
        let terms = expr.terms();
        assert_eq!(terms.len(), 2);
        assert!(!terms[0].roi.is_mask_specific());
        assert!(expr
            .clone()
            .mul(Expr::cp_object(range(0.1, 0.2)))
            .uses_mask_specific_roi());
        assert!(!expr.uses_mask_specific_roi());
    }

    #[test]
    fn exact_evaluation_matches_hand_computation() {
        let roi = Roi::new(0, 0, 10, 10).unwrap();
        // (cp1 / cp2) * 100 - 5
        let expr = Expr::cp(roi, range(0.8, 1.0))
            .div(Expr::cp_full(range(0.8, 1.0)))
            .mul(Expr::Const(100.0))
            .sub(Expr::Const(5.0));
        let value = expr.evaluate_exact(&[30.0, 120.0]);
        assert!((value - (30.0 / 120.0 * 100.0 - 5.0)).abs() < 1e-12);
    }

    #[test]
    fn interval_evaluation_contains_exact_value() {
        let roi = Roi::new(0, 0, 10, 10).unwrap();
        let expr = Expr::cp(roi, range(0.8, 1.0))
            .mul(Expr::Const(2.0))
            .sub(Expr::cp_full(range(0.5, 1.0)));
        // Exact term values 40 and 70; intervals containing them.
        let exact = expr.evaluate_exact(&[40.0, 70.0]);
        let bounds = expr.evaluate_bounds(&[Interval::new(35.0, 50.0), Interval::new(60.0, 90.0)]);
        assert!(bounds.contains(exact));
        // Degenerate intervals give a degenerate result equal to the exact value.
        let tight = expr.evaluate_bounds(&[Interval::point(40.0), Interval::point(70.0)]);
        assert_eq!(tight.lo, exact);
        assert_eq!(tight.hi, exact);
    }

    #[test]
    fn ratio_expression_with_zero_denominator_bound_is_conservative() {
        let roi = Roi::new(0, 0, 10, 10).unwrap();
        let expr = Expr::cp(roi, range(0.8, 1.0)).div(Expr::cp_full(range(0.8, 1.0)));
        let bounds = expr.evaluate_bounds(&[Interval::new(0.0, 10.0), Interval::new(0.0, 50.0)]);
        assert_eq!(bounds.hi, f64::INFINITY);
    }
}
