//! The exact `CP` function: count of pixels in an ROI with values in a range.
//!
//! `CP(mask, roi, (lv, uv))` is the scalar at the heart of every MaskSearch
//! query (paper §2.1):
//!
//! ```text
//! CP(mask, roi, (lv, uv)) = Σ_{(x,y) ∈ roi} 1[lv ≤ mask[x][y] < uv]
//! ```
//!
//! The functions in this module are the *reference* implementation: they scan
//! the mask pixels directly. The whole point of the CHI index
//! (`masksearch-index`) and the filter–verification executor
//! (`masksearch-query`) is to avoid calling these on most masks; their
//! correctness is always defined relative to this module.

use crate::error::{Error, Result};
use crate::mask::Mask;
use crate::range::PixelRange;
use crate::roi::Roi;
use std::ops::Range;

/// Exact pixel count: number of pixels of `mask` inside `roi` (clipped to the
/// mask bounds) whose value lies in `range`.
///
/// ```
/// use masksearch_core::{Mask, Roi, PixelRange, cp};
/// let m = Mask::from_fn(8, 8, |x, _| x as f32 / 8.0);
/// let roi = Roi::new(0, 0, 8, 8).unwrap();
/// // Half of the columns have values >= 0.5.
/// assert_eq!(cp(&m, &roi, &PixelRange::new(0.5, 1.0).unwrap()), 32);
/// ```
#[inline]
pub fn cp(mask: &Mask, roi: &Roi, range: &PixelRange) -> u64 {
    mask.count_pixels(roi, range)
}

/// Exact pixel count over the full mask (the paper's `CP(mask, -, (lv, uv))`
/// notation, where `-` denotes "no ROI" / the whole mask).
pub fn cp_full(mask: &Mask, range: &PixelRange) -> u64 {
    mask.count_pixels(&mask.full_roi(), range)
}

/// Evaluates `CP` for several `(roi, range)` pairs in a single pass over the
/// mask.
///
/// This mirrors queries that contain multiple `CP` terms (paper §2.1, e.g.
/// ratios of salient pixels inside vs. outside a region). A single traversal
/// is noticeably cheaper than one scan per term when masks are loaded from
/// disk during the verification stage.
pub fn cp_many(mask: &Mask, terms: &[(Roi, PixelRange)]) -> Vec<u64> {
    sweep_rows(mask.width(), mask.height(), terms, |y, x0, x1, range| {
        let mut c = 0u64;
        for &v in &mask.row(y)[x0..x1] {
            if range.contains(v) {
                c += 1;
            }
        }
        c
    })
}

/// The rows [`cp_many`] reads on a `width × height` mask: from the first row
/// of the topmost clipped ROI to the last row of the bottommost one. `None`
/// when every ROI clips to nothing (all counts are zero, no row is read).
pub fn cp_row_band(width: u32, height: u32, terms: &[(Roi, PixelRange)]) -> Option<Range<u32>> {
    terms
        .iter()
        .filter_map(|(roi, _)| roi.clamp_to(width, height))
        .map(|clip| clip.y0()..clip.y1())
        .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end))
}

/// [`cp_many`] over a band of rows as a store holds them — row-major
/// little-endian `f32`, `bytes` starting at row `first_row` of a
/// `width × height` mask — without decoding the mask: same ROI clipping,
/// same `[lo, hi)` comparison, same counts.
///
/// A [`Mask`] checks the `[0, 1)` value domain when it is built; nothing has
/// checked these bytes, so every pixel of the band is checked here and the
/// first offender (row-major) is reported exactly as [`Mask::new`] would
/// report it, with its index in whole-mask coordinates. Pixels outside the
/// band are not read.
///
/// # Panics
/// If `bytes` is not a whole number of rows inside the mask, or does not
/// cover [`cp_row_band`] of the terms — both are caller bugs.
pub fn cp_many_le_rows(
    bytes: &[u8],
    width: u32,
    height: u32,
    first_row: u32,
    terms: &[(Roi, PixelRange)],
) -> Result<Vec<u64>> {
    let row_bytes = width as usize * 4;
    assert!(
        row_bytes > 0 && bytes.len().is_multiple_of(row_bytes),
        "a band of {} bytes is not whole rows of {width} pixels",
        bytes.len()
    );
    let rows = first_row..first_row + (bytes.len() / row_bytes) as u32;
    assert!(rows.end <= height, "rows {rows:?} exceed height {height}");
    if let Some(needed) = cp_row_band(width, height, terms) {
        assert!(
            rows.start <= needed.start && needed.end <= rows.end,
            "terms count rows {needed:?}, the band holds {rows:?}"
        );
    }
    let pixel = |c: &[u8]| f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    // The same two steps as `Mask::new`: a pass without an early exit
    // (it vectorises), then a search only to name the offender.
    let in_domain = |value: f32| (0.0..1.0).contains(&value);
    let pixels = || bytes.chunks_exact(4).map(pixel);
    if !pixels().fold(true, |ok, value| ok & in_domain(value)) {
        let (at, value) = pixels()
            .enumerate()
            .find(|(_, value)| !in_domain(*value))
            .expect("the pass above saw a pixel outside the domain");
        return Err(Error::PixelOutOfRange {
            value,
            index: first_row as usize * width as usize + at,
        });
    }
    Ok(sweep_rows(width, height, terms, |y, x0, x1, range| {
        let row = &bytes[(y - first_row) as usize * row_bytes..][..row_bytes];
        let mut c = 0u64;
        for v in row[x0 * 4..x1 * 4].chunks_exact(4).map(pixel) {
            if range.contains(v) {
                c += 1;
            }
        }
        c
    }))
}

/// The sweep behind [`cp_many`] and [`cp_many_le_rows`]: clips every ROI to
/// the `width × height` mask and walks the rows top to bottom, asking
/// `count_row(y, x0, x1, range)` for the pixels of row `y`, columns
/// `x0..x1`, that lie in `range` — once per term whose span holds the row.
fn sweep_rows(
    width: u32,
    height: u32,
    terms: &[(Roi, PixelRange)],
    mut count_row: impl FnMut(u32, usize, usize, &PixelRange) -> u64,
) -> Vec<u64> {
    let mut counts = vec![0u64; terms.len()];
    if terms.is_empty() {
        return counts;
    }
    /// One clipped term with its precomputed row span and column slice, so
    /// the row loop never re-tests `y` against terms whose span is over or
    /// has not started.
    #[derive(Clone)]
    struct PlannedTerm {
        index: usize,
        x0: usize,
        x1: usize,
        y1: u32,
        range: PixelRange,
    }
    // Clip every ROI once and sort the surviving terms by their first row;
    // the scan then sweeps rows keeping only the terms whose span contains
    // the current row active.
    let mut pending: Vec<(u32, PlannedTerm)> = terms
        .iter()
        .enumerate()
        .filter_map(|(index, (roi, range))| {
            let clip = roi.clamp_to(width, height)?;
            Some((
                clip.y0(),
                PlannedTerm {
                    index,
                    x0: clip.x0() as usize,
                    x1: clip.x1() as usize,
                    y1: clip.y1(),
                    range: *range,
                },
            ))
        })
        .collect();
    pending.sort_by_key(|(y0, term)| (*y0, term.index));
    let Some(&(first_row, _)) = pending.first() else {
        return counts;
    };
    let last_row = pending.iter().map(|(_, t)| t.y1).max().expect("non-empty");

    let mut next = 0;
    let mut active: Vec<PlannedTerm> = Vec::new();
    let mut y = first_row;
    while y < last_row {
        active.retain(|t| t.y1 > y);
        while next < pending.len() && pending[next].0 <= y {
            active.push(pending[next].1.clone());
            next += 1;
        }
        if active.is_empty() {
            // Disjoint ROIs can leave the bounding box mostly dead rows;
            // jump straight to the next term's first row instead of walking
            // them one by one (`pending` is sorted by first row).
            if next < pending.len() {
                y = pending[next].0;
                continue;
            }
            break;
        }
        for term in &active {
            counts[term.index] += count_row(y, term.x0, term.x1, &term.range);
        }
        y += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_mask() -> Mask {
        Mask::from_fn(8, 8, |x, y| ((x + y * 8) as f32) / 64.0)
    }

    #[test]
    fn cp_counts_expected_pixels() {
        let m = gradient_mask();
        let full = m.full_roi();
        assert_eq!(cp(&m, &full, &PixelRange::full()), 64);
        assert_eq!(cp(&m, &full, &PixelRange::new(0.5, 1.0).unwrap()), 32);
        assert_eq!(cp(&m, &full, &PixelRange::new(0.0, 0.25).unwrap()), 16);
    }

    #[test]
    fn cp_full_equals_cp_with_full_roi() {
        let m = gradient_mask();
        let range = PixelRange::new(0.3, 0.7).unwrap();
        assert_eq!(cp_full(&m, &range), cp(&m, &m.full_roi(), &range));
    }

    #[test]
    fn cp_clips_roi_to_mask() {
        let m = gradient_mask();
        let oversized = Roi::new(4, 4, 100, 100).unwrap();
        let clipped = Roi::new(4, 4, 8, 8).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        assert_eq!(cp(&m, &oversized, &range), cp(&m, &clipped, &range));
    }

    #[test]
    fn cp_many_matches_individual_calls() {
        let m = gradient_mask();
        let terms = vec![
            (
                Roi::new(0, 0, 4, 4).unwrap(),
                PixelRange::new(0.0, 0.5).unwrap(),
            ),
            (
                Roi::new(2, 2, 8, 8).unwrap(),
                PixelRange::new(0.25, 0.9).unwrap(),
            ),
            (Roi::new(6, 0, 8, 8).unwrap(), PixelRange::full()),
            (
                Roi::new(20, 20, 30, 30).unwrap(),
                PixelRange::new(0.0, 1.0).unwrap(),
            ),
        ];
        let batch = cp_many(&m, &terms);
        for (i, (roi, range)) in terms.iter().enumerate() {
            assert_eq!(batch[i], cp(&m, roi, range), "term {i}");
        }
    }

    #[test]
    fn cp_many_disjoint_rois_with_a_large_bbox() {
        // Two tiny ROIs at opposite corners of a tall mask: the bounding box
        // spans every row, but almost all of them belong to no term. The
        // row-span sweep must still count both terms exactly (and terms
        // sharing rows with different column slices must not interfere).
        let m = Mask::from_fn(64, 256, |x, y| ((x * 13 + y * 7) % 97) as f32 / 97.0);
        let terms = vec![
            (
                Roi::new(0, 0, 4, 4).unwrap(),
                PixelRange::new(0.0, 0.6).unwrap(),
            ),
            (
                Roi::new(60, 252, 64, 256).unwrap(),
                PixelRange::new(0.4, 1.0).unwrap(),
            ),
            (
                Roi::new(0, 2, 2, 6).unwrap(),
                PixelRange::new(0.2, 0.8).unwrap(),
            ),
            // Fully outside the mask: contributes zero.
            (Roi::new(500, 500, 600, 600).unwrap(), PixelRange::full()),
        ];
        let batch = cp_many(&m, &terms);
        for (i, (roi, range)) in terms.iter().enumerate() {
            assert_eq!(batch[i], cp(&m, roi, range), "term {i}");
        }
    }

    #[test]
    fn cp_many_terms_starting_on_the_same_row() {
        let m = gradient_mask();
        let terms = vec![
            (Roi::new(0, 3, 2, 8).unwrap(), PixelRange::full()),
            (
                Roi::new(5, 3, 8, 5).unwrap(),
                PixelRange::new(0.5, 1.0).unwrap(),
            ),
        ];
        let batch = cp_many(&m, &terms);
        for (i, (roi, range)) in terms.iter().enumerate() {
            assert_eq!(batch[i], cp(&m, roi, range), "term {i}");
        }
    }

    #[test]
    fn cp_many_empty_terms() {
        let m = gradient_mask();
        assert!(cp_many(&m, &[]).is_empty());
    }

    #[test]
    fn cp_boundary_semantics_are_half_open() {
        // A mask whose only value is exactly 0.5 must be counted by [0.5, x)
        // ranges but not by [x, 0.5) ranges.
        let m = Mask::constant(2, 2, 0.5).unwrap();
        let roi = m.full_roi();
        assert_eq!(cp(&m, &roi, &PixelRange::new(0.5, 1.0).unwrap()), 4);
        assert_eq!(cp(&m, &roi, &PixelRange::new(0.0, 0.5).unwrap()), 0);
    }
}
