//! Pixelwise composition of two masks of the same image — the *mask
//! expression algebra* behind multi-mask queries.
//!
//! The MaskSearch scenarios that compare masks of one image (saliency vs.
//! object masks, an old vs. a new model's masks; see the demonstration paper,
//! Wei et al., arXiv:2404.06563) all reduce to evaluating `CP` over a
//! *composed* mask:
//!
//! * [`MaskOp::Intersect`] — pixelwise `min(a, b)`: high only where **both**
//!   masks are high (agreement).
//! * [`MaskOp::Union`] — pixelwise `max(a, b)`: high where **either** mask is
//!   high.
//! * [`MaskOp::Diff`] — pixelwise `|a − b|`: high where the masks
//!   **disagree**.
//!
//! [`cp_composed`] is the reference implementation: a single fused pass over
//! both pixel buffers that never materialises the composed mask. Everything
//! upstream (the composed CHI bound algebra in `masksearch-index` and the
//! pair executors in `masksearch-query`) is defined relative to it.
//!
//! ## NaN semantics
//!
//! A composed pixel where **either** operand is NaN is NaN, and a NaN pixel
//! is *never in range* (`PixelRange::contains` is `false` for NaN), matching
//! the single-mask rule. [`MaskOp::apply`] implements this explicitly rather
//! than relying on `f32::min`/`f32::max`, whose NaN propagation differs from
//! comparison-based scans.

use crate::error::{Error, Result};
use crate::mask::Mask;
use crate::range::PixelRange;
use crate::roi::Roi;
use std::fmt;

/// A pixelwise composition of two masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskOp {
    /// Pixelwise minimum — agreement of the two masks.
    Intersect,
    /// Pixelwise maximum — either mask.
    Union,
    /// Pixelwise absolute difference — disagreement of the two masks.
    Diff,
}

impl MaskOp {
    /// Applies the composition to one pixel pair.
    ///
    /// If either operand is NaN the result is NaN (and therefore never
    /// counted by any range); otherwise the IEEE min/max/abs-difference.
    #[inline]
    pub fn apply(&self, a: f32, b: f32) -> f32 {
        if a.is_nan() || b.is_nan() {
            return f32::NAN;
        }
        match self {
            MaskOp::Intersect => a.min(b),
            MaskOp::Union => a.max(b),
            MaskOp::Diff => (a - b).abs(),
        }
    }

    /// A short stable name for plans, signatures, and statistics output.
    pub fn name(&self) -> &'static str {
        match self {
            MaskOp::Intersect => "intersect",
            MaskOp::Union => "union",
            MaskOp::Diff => "diff",
        }
    }
}

impl fmt::Display for MaskOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Checks that two masks can be composed (identical shapes).
pub fn check_composable(a: &Mask, b: &Mask) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(Error::ShapeMismatch {
            expected: a.shape(),
            found: b.shape(),
        });
    }
    Ok(())
}

/// Materialises the composed mask `op(a, b)`.
///
/// Prefer [`cp_composed`] when only counts are
/// needed — this allocates a full pixel buffer. Because `Diff` of two
/// in-domain masks stays in `[0, 1)` and `Intersect`/`Union` preserve the
/// domain, the result of composing valid masks is always a valid mask; NaN
/// operands produce NaN pixels, which the returned buffer keeps verbatim.
pub fn compose_masks(a: &Mask, b: &Mask, op: MaskOp) -> Result<Mask> {
    check_composable(a, b)?;
    let data: Vec<f32> = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| op.apply(x, y))
        .collect();
    Ok(Mask::from_data_unchecked(a.width(), a.height(), data).expect("shapes already validated"))
}

/// Exact `CP` over the composed mask `op(a, b)` — the reference scan every
/// composed fast path is tested against. Streams over both pixel buffers
/// without materialising the composition.
pub fn cp_composed(a: &Mask, b: &Mask, op: MaskOp, roi: &Roi, range: &PixelRange) -> Result<u64> {
    check_composable(a, b)?;
    let Some(clip) = a.clip_roi(roi) else {
        return Ok(0);
    };
    let mut count = 0u64;
    for y in clip.y0()..clip.y1() {
        let ra = &a.row(y)[clip.x0() as usize..clip.x1() as usize];
        let rb = &b.row(y)[clip.x0() as usize..clip.x1() as usize];
        for (&x, &yv) in ra.iter().zip(rb) {
            if range.contains(op.apply(x, yv)) {
                count += 1;
            }
        }
    }
    Ok(count)
}

/// Evaluates `CP` over the composed mask for several `(roi, range)` pairs.
pub fn cp_composed_many(
    a: &Mask,
    b: &Mask,
    op: MaskOp,
    terms: &[(Roi, PixelRange)],
) -> Result<Vec<u64>> {
    terms
        .iter()
        .map(|(roi, range)| cp_composed(a, b, op, roi, range))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::cp;

    fn left() -> Mask {
        Mask::from_fn(16, 12, |x, y| ((x * 3 + y * 7) % 13) as f32 / 13.0)
    }

    fn right() -> Mask {
        Mask::from_fn(16, 12, |x, y| ((x * 5 + y * 2) % 11) as f32 / 11.0)
    }

    #[test]
    fn apply_matches_ieee_on_finite_values() {
        assert_eq!(MaskOp::Intersect.apply(0.2, 0.7), 0.2);
        assert_eq!(MaskOp::Union.apply(0.2, 0.7), 0.7);
        assert!((MaskOp::Diff.apply(0.2, 0.7) - 0.5).abs() < 1e-7);
        assert_eq!(MaskOp::Diff.apply(0.7, 0.2), MaskOp::Diff.apply(0.2, 0.7));
    }

    #[test]
    fn apply_is_nan_poisoning_in_both_positions() {
        for op in [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff] {
            assert!(op.apply(f32::NAN, 0.5).is_nan(), "{op}");
            assert!(op.apply(0.5, f32::NAN).is_nan(), "{op}");
            assert!(op.apply(f32::NAN, f32::NAN).is_nan(), "{op}");
        }
    }

    #[test]
    fn composed_cp_matches_materialised_composition() {
        let (a, b) = (left(), right());
        for op in [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff] {
            let composed = compose_masks(&a, &b, op).unwrap();
            for roi in [
                a.full_roi(),
                Roi::new(2, 3, 9, 11).unwrap(),
                Roi::new(10, 10, 100, 100).unwrap(),
                Roi::new(200, 200, 300, 300).unwrap(),
            ] {
                for range in [
                    PixelRange::full(),
                    PixelRange::new(0.5, 1.0).unwrap(),
                    PixelRange::new(0.1, 0.3).unwrap(),
                ] {
                    assert_eq!(
                        cp_composed(&a, &b, op, &roi, &range).unwrap(),
                        cp(&composed, &roi, &range),
                        "{op} roi {roi} range {range}"
                    );
                }
            }
        }
    }

    #[test]
    fn cp_composed_many_matches_per_term() {
        let (a, b) = (left(), right());
        let terms = vec![
            (a.full_roi(), PixelRange::full()),
            (
                Roi::new(1, 1, 5, 5).unwrap(),
                PixelRange::new(0.2, 0.8).unwrap(),
            ),
        ];
        let batch = cp_composed_many(&a, &b, MaskOp::Diff, &terms).unwrap();
        for (i, (roi, range)) in terms.iter().enumerate() {
            assert_eq!(
                batch[i],
                cp_composed(&a, &b, MaskOp::Diff, roi, range).unwrap()
            );
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = left();
        let b = Mask::zeros(8, 8);
        assert!(matches!(
            cp_composed(&a, &b, MaskOp::Union, &a.full_roi(), &PixelRange::full()),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(compose_masks(&a, &b, MaskOp::Diff).is_err());
    }

    #[test]
    fn nan_pixels_are_never_counted() {
        let a = Mask::from_data_unchecked(2, 2, vec![0.5, f32::NAN, 0.2, 0.9]).unwrap();
        let b = Mask::from_data_unchecked(2, 2, vec![0.5, 0.5, f32::NAN, 0.9]).unwrap();
        let roi = a.full_roi();
        // Only pixels (0,0) and (1,1) have both operands non-NaN.
        assert_eq!(
            cp_composed(&a, &b, MaskOp::Union, &roi, &PixelRange::full()).unwrap(),
            2
        );
        assert_eq!(
            cp_composed(&a, &b, MaskOp::Diff, &roi, &PixelRange::full()).unwrap(),
            2
        );
    }
}
