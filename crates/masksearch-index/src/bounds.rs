//! Upper and lower bounds on `CP` derived from a CHI.
//!
//! Given a predicate on `CP(mask, roi, (lv, uv))`, the filter stage needs an
//! upper bound `θ̄` and a lower bound `θ̲` on the true value `θ` computed
//! *without* touching the mask. The paper gives two upper-bound constructions
//! (§3.2.1, Eqs. 3–4) and notes the lower bound is symmetric; both are
//! implemented here.
//!
//! Notation: let `roi⁺` be the smallest available region covering the ROI and
//! `roi⁻` the largest available region covered by it. Let the *outer* bin
//! range be `[⌊lv/Δ⌋, ⌈uv/Δ⌉)` (a superset of `(lv, uv)`) and the *inner* bin
//! range `[⌈lv/Δ⌉, ⌊uv/Δ⌋)` (a subset).
//!
//! * Upper bound 1 (Eq. 3): outer-bin count of `roi⁺`.
//! * Upper bound 2 (Eq. 4): outer-bin count of `roi⁻` plus the pixels of the
//!   ROI not covered by `roi⁻` (each can contribute at most 1).
//! * Lower bound 1: inner-bin count of `roi⁻`.
//! * Lower bound 2: inner-bin count of `roi⁺` minus the pixels of `roi⁺`
//!   outside the ROI.
//!
//! The final bounds are `θ̄ = min(θ̄₁, θ̄₂)` and `θ̲ = max(θ̲₁, θ̲₂)`, clamped to
//! `[0, |roi|]`.
//!
//! ## Per-cell bounds
//!
//! Eqs. 3–4 treat the ring of cells between `roi⁺` and `roi⁻` as one block.
//! The CHI holds each of those cells' histograms too, and bounding each
//! separately is as tight as they allow: with `R` the clipped ROI, `roi⁻`'s
//! outer and inner counts are exact for the cells inside, and every ring
//! cell `c` adds
//!
//! * to the upper bound `min(|c ∩ R|, outer(c))`,
//! * to the lower bound `max(0, inner(c) − |c \ R|)`,
//!
//! clamped to `upper ≤ |R|` and `lower ≤ upper`. Each term bounds the
//! in-range pixels of `c ∩ R`, so the sum is sound; and summed over the
//! ring, `min` is at most both `Σ |c ∩ R|` (Eq. 4's missed pixels) and
//! `Σ outer(c)` (Eq. 3's count minus `roi⁻`'s), so it is never looser than
//! Eqs. 3–4 — the lower bound dominates both of theirs the same way. With
//! no `roi⁻`, every cell of `roi⁺` is a ring cell. It costs a few loads and
//! a little arithmetic per ring cell where Eqs. 3–4 cost at most sixteen
//! loads in all, so the query layer asks for it only for candidates Eqs.
//! 3–4 leave undecided.
//!
//! ## The cell kernel
//!
//! Verification counts exactly, and the same per-cell counts decide most of
//! it ([`TermBounds::cell_count`]). Every cell `c` the ROI touches has an
//! outer and an inner count; it is
//!
//! * **all-out** when `outer(c) = 0`: none of its pixels is in range;
//! * **all-in** when `inner(c) = |c|`: all of them are, so it counts
//!   `|c ∩ R|`;
//! * **exact** when the ROI covers it and `outer(c) = inner(c)`: it counts
//!   that;
//! * **undecided** otherwise, and only its ROI pixels are scanned.
//!
//! The inner bins hold only pixels in range and the outer bins every pixel
//! in range (the comparisons of [`ChiConfig::bin_of`] against the bin
//! edges of [`bin_ranges`]), so the rules are exact for any bin count. A
//! pixel outside `[0, 1)` (NaN, ±∞) is in no histogram and in no range: a
//! cell holding one is never all-in, and the other rules never count it.
//!
//! ## What depends on the mask
//!
//! Only the counts do. Which cells `roi⁺` and `roi⁻` end on, their areas
//! and the clipped ROI's depend on the ROI and the mask's *shape* (the
//! private `RoiGeometry`); the four bin indices depend on the range and the
//! bin count ([`bin_ranges`]). `RoiGeometry::cp_bounds` is the rest of
//! Eqs. 3–4 — at most sixteen loads from a mask's cumulative cells and a
//! few additions — and it is the only place they are written;
//! `RoiGeometry::cell_bounds` is the rest of the per-cell bound — a walk
//! over the ring — and `RoiGeometry::cell_count` the cell kernel's walk
//! over every cell; both walk strips through `RoiGeometry::walk_strip`. Both are generic
//! over the count type (16- or 32-bit, as the mask's shape sets; see
//! [`crate::chi::Cells`]), and each bound call dispatches on the width once
//! before running them. [`cp_bounds`]
//! builds the geometry and calls it once; [`TermBounds`], of which the
//! query layer keeps one per term of a statement, keeps the bin indices for
//! the whole statement and the geometry of an ROI across every candidate of
//! the same shape, for both bounds.

use crate::chi::{with_counts, CellStorage, ChiConfig, ChiOver, ChiView, Count};
use masksearch_core::{PixelRange, Roi};

/// An upper and lower bound on a `CP` value, plus the ROI area they refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpBounds {
    /// Lower bound `θ̲ ≤ θ`.
    pub lower: u64,
    /// Upper bound `θ ≤ θ̄`.
    pub upper: u64,
    /// Pixel area of the (mask-clipped) ROI the bounds refer to.
    pub roi_area: u64,
}

impl CpBounds {
    /// Bounds for an empty ROI (the exact value is zero).
    pub fn empty() -> Self {
        CpBounds {
            lower: 0,
            upper: 0,
            roi_area: 0,
        }
    }

    /// Returns `true` if the bounds pin down the exact value.
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// Width of the uncertainty interval.
    pub fn gap(&self) -> u64 {
        self.upper - self.lower
    }
}

/// Bin indices of the outer (superset) and inner (subset) bin ranges for a
/// pixel-value range under `bins` equi-width buckets.
///
/// Returns `(outer_lo, outer_hi, inner_lo, inner_hi)` where a range `[a, b)`
/// of bins is empty when `a >= b`.
pub fn bin_ranges(range: &PixelRange, bins: u32) -> (u32, u32, u32, u32) {
    let b = bins as f64;
    let lo = range.lo() as f64 * b;
    let hi = range.hi() as f64 * b;
    let outer_lo = lo.floor() as u32;
    let outer_hi = (hi.ceil() as u32).min(bins);
    let inner_lo = (lo.ceil() as u32).min(bins);
    let inner_hi = hi.floor() as u32;
    (outer_lo, outer_hi, inner_lo, inner_hi)
}

/// Offset standing for the empty prefix rectangle (boundary index 0 on
/// either axis), every count of which is zero.
const EMPTY_PREFIX: usize = usize::MAX;

/// An available region as Eq. 2 reads it: the offsets, in a mask's
/// cumulative cells, of bin 0 of its four prefix rectangles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Corners {
    /// `H(bx1, by1)` and `H(bx0, by0)`.
    plus: [usize; 2],
    /// `H(bx0, by1)` and `H(bx1, by0)`.
    minus: [usize; 2],
}

/// The offset of bin 0 of the prefix rectangle ending at grid boundary
/// `(bx, by)`; [`EMPTY_PREFIX`] on either axis's boundary 0.
fn prefix(chi: ChiView<'_>, bx: u32, by: u32) -> usize {
    if bx == 0 || by == 0 {
        return EMPTY_PREFIX;
    }
    let cx = (bx - 1).min(chi.cells_x() - 1) as usize;
    let cy = (by - 1).min(chi.cells_y() - 1) as usize;
    (cy * chi.cells_x() as usize + cx) * chi.config().bins() as usize
}

/// The count at `offset + bin` of a mask's cumulative cells; zero for the
/// empty prefix.
#[inline]
fn load<T: Count>(cells: &[T], offset: usize, bin: usize) -> u64 {
    match offset {
        EMPTY_PREFIX => 0,
        _ => cells[offset + bin].into(),
    }
}

impl Corners {
    fn of(chi: ChiView<'_>, region: (u32, u32, u32, u32)) -> Self {
        let (bx0, by0, bx1, by1) = region;
        debug_assert!(bx0 <= bx1 && by0 <= by1);
        let prefix = |bx, by| prefix(chi, bx, by);
        Corners {
            plus: [prefix(bx1, by1), prefix(bx0, by0)],
            minus: [prefix(bx0, by1), prefix(bx1, by0)],
        }
    }

    /// Pixels of the region with bin index `>= bin`; none for `bin >= bins`
    /// (the implicit `hist[bins] = 0` element).
    #[inline]
    fn tail<T: Count>(&self, cells: &[T], bins: u32, bin: u32) -> u64 {
        if bin >= bins {
            return 0;
        }
        let at = |offset| load(cells, offset, bin as usize);
        // Inclusion–exclusion never goes negative for prefix sums of
        // non-negative data.
        at(self.plus[0]) + at(self.plus[1]) - at(self.minus[0]) - at(self.minus[1])
    }

    /// Pixels of the region with bin index in `[lo, hi)`, from two
    /// reverse-cumulative lookups per corner. No histogram is materialised.
    #[inline]
    fn range_count<T: Count>(&self, cells: &[T], bins: u32, lo: u32, hi: u32) -> u64 {
        if lo >= hi {
            return 0;
        }
        self.tail(cells, bins, lo)
            .saturating_sub(self.tail(cells, bins, hi))
    }
}

/// Everything Eqs. 3–4 need of one ROI on masks of one shape and index
/// configuration: the clipped ROI's area and the covering and covered
/// available regions. Valid for the cells of any mask of that shape under
/// that configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoiGeometry {
    bins: u32,
    roi_area: u64,
    covering: Corners,
    /// Pixels of the covering region outside the ROI.
    slack: u64,
    /// The covered region and the ROI pixels it misses; `None` when no
    /// whole cell fits inside the ROI.
    covered: Option<(Corners, u64)>,
    /// The clipped ROI and, in grid boundaries, the covering and covered
    /// regions: what the per-cell bound walks.
    clipped: Roi,
    covering_cells: (u32, u32, u32, u32),
    covered_cells: Option<(u32, u32, u32, u32)>,
}

impl RoiGeometry {
    /// The geometry of `roi` on `chi`'s grid; `None` when the ROI misses the
    /// mask (the exact count is then zero: [`CpBounds::empty`]).
    fn new(chi: ChiView<'_>, roi: &Roi) -> Option<Self> {
        let clipped = roi.clamp_to(chi.mask_width(), chi.mask_height())?;
        let roi_area = clipped.area();
        let covering = chi
            .covering_region(&clipped)
            .expect("non-empty clipped ROI always has a covering region");
        let covered_cells = chi.covered_region(&clipped);
        let covered = covered_cells
            .map(|region| (Corners::of(chi, region), roi_area - chi.region_area(region)));
        Some(Self {
            bins: chi.config().bins(),
            roi_area,
            covering: Corners::of(chi, covering),
            slack: chi.region_area(covering) - roi_area,
            covered,
            clipped,
            covering_cells: covering,
            covered_cells,
        })
    }

    /// [`CpBounds`] of the ROI on the mask whose cumulative `cells` these
    /// are, for the value range whose [`bin_ranges`] are given.
    ///
    /// # Panics
    /// May panic if `cells` belong to a mask of another shape or
    /// configuration than the geometry was made for.
    #[inline]
    fn cp_bounds<T: Count>(&self, cells: &[T], bin_ranges: (u32, u32, u32, u32)) -> CpBounds {
        let (outer_lo, outer_hi, inner_lo, inner_hi) = bin_ranges;
        let count = |region: &Corners, lo, hi| region.range_count(cells, self.bins, lo, hi);

        // Upper bound 1 (Eq. 3): outer bins over the covering region.
        let ub1 = count(&self.covering, outer_lo, outer_hi);
        // Upper bound 2 (Eq. 4): outer bins over the covered region, plus every
        // ROI pixel the covered region misses.
        let ub2 = match &self.covered {
            Some((region, missed)) => count(region, outer_lo, outer_hi) + missed,
            None => self.roi_area,
        };
        let upper = ub1.min(ub2).min(self.roi_area);

        // Lower bound 1: inner bins over the covered region.
        let lb1 = match &self.covered {
            Some((region, _)) => count(region, inner_lo, inner_hi),
            None => 0,
        };
        // Lower bound 2: inner bins over the covering region minus the covering
        // pixels that lie outside the ROI (each could account for one counted
        // pixel).
        let lb2 = count(&self.covering, inner_lo, inner_hi).saturating_sub(self.slack);
        let lower = lb1.max(lb2).min(upper);

        CpBounds {
            lower,
            upper,
            roi_area: self.roi_area,
        }
    }

    /// Walks row `at` across columns `from..to` (`horizontal`), or column
    /// `at` down rows `from..to`, handing `visit` each cell's counts.
    ///
    /// Along a strip the prefix up to a cell boundary (an *edge*) is two
    /// loads per bin, a cell the difference of its two edges: neighbouring
    /// cells share the edge between them.
    #[allow(clippy::too_many_arguments)]
    fn walk_strip<T: Count>(
        &self,
        chi: ChiView<'_>,
        cells: &[T],
        bin_ranges: (u32, u32, u32, u32),
        horizontal: bool,
        at: u32,
        (from, to): (u32, u32),
        mut visit: impl FnMut(CellCounts),
    ) {
        let (outer_lo, outer_hi, inner_lo, inner_hi) = bin_ranges;
        // An edge's pixels with bin index at least each of the four; none
        // past the last bin.
        let tails = [outer_lo, outer_hi, inner_lo, inner_hi];
        let tails = tails.map(|bin| (bin < self.bins).then_some(bin as usize));
        let edge = |(plus, minus): (usize, usize)| {
            tails.map(|bin| bin.map_or(0, |bin| load(cells, plus, bin) - load(cells, minus, bin)))
        };
        // A cell's extent on one axis and how much of it the ROI takes.
        let roi = self.clipped;
        let span = |lo: u32, hi: u32, from: u32, to: u32| {
            (
                u64::from(hi - lo),
                u64::from(hi.min(to).saturating_sub(lo.max(from))),
            )
        };
        let column = |i| span(chi.x_boundary(i), chi.x_boundary(i + 1), roi.x0(), roi.x1());
        let row = |j| span(chi.y_boundary(j), chi.y_boundary(j + 1), roi.y0(), roi.y1());
        let offsets = |k| match horizontal {
            true => (prefix(chi, k, at + 1), prefix(chi, k, at)),
            false => (prefix(chi, at + 1, k), prefix(chi, at, k)),
        };
        let mut before = edge(offsets(from));
        for k in from..to {
            let after = edge(offsets(k + 1));
            let tail = |t: usize| after[t] - before[t];
            let (cell_x, cell_y) = match horizontal {
                true => (k, at),
                false => (at, k),
            };
            let ((width, in_x), (height, in_y)) = (column(cell_x), row(cell_y));
            // A tail never grows with the bin, so an empty bin range counts
            // zero.
            visit(CellCounts {
                column: cell_x,
                outer: tail(0).saturating_sub(tail(1)),
                inner: tail(2).saturating_sub(tail(3)),
                area: width * height,
                inside: in_x * in_y,
            });
            before = after;
        }
    }

    /// The per-cell bound (see the module docs) of the ROI on `chi`, whose
    /// cumulative `cells` these are, for the value range whose
    /// [`bin_ranges`] are given: the ring is walked as strips of
    /// neighbouring cells — the partial rows above and below the covered
    /// region across the whole covering width, the partial columns beside
    /// it.
    ///
    /// # Panics
    /// May panic if `chi` is of another shape or configuration than the
    /// geometry was made for.
    fn cell_bounds<T: Count>(
        &self,
        chi: ChiView<'_>,
        cells: &[T],
        bin_ranges: (u32, u32, u32, u32),
    ) -> CpBounds {
        let (outer_lo, outer_hi, inner_lo, inner_hi) = bin_ranges;
        let (mut upper, mut lower) = match &self.covered {
            Some((region, _)) => (
                region.range_count(cells, self.bins, outer_lo, outer_hi),
                region.range_count(cells, self.bins, inner_lo, inner_hi),
            ),
            None => (0, 0),
        };
        let mut strip = |horizontal: bool, at: u32, from: u32, to: u32| {
            self.walk_strip(chi, cells, bin_ranges, horizontal, at, (from, to), |c| {
                upper += c.outer.min(c.inside);
                lower += c.inner.saturating_sub(c.area - c.inside);
            });
        };
        let (bx0, by0, bx1, by1) = self.covering_cells;
        match self.covered_cells {
            Some((cx0, cy0, cx1, cy1)) => {
                for j in (by0..cy0).chain(cy1..by1) {
                    strip(true, j, bx0, bx1);
                }
                for i in (bx0..cx0).chain(cx1..bx1) {
                    strip(false, i, cy0, cy1);
                }
            }
            // No covered region: every covering cell is a ring cell.
            None => (by0..by1).for_each(|j| strip(true, j, bx0, bx1)),
        }
        let upper = upper.min(self.roi_area);
        CpBounds {
            lower: lower.min(upper),
            upper,
            roi_area: self.roi_area,
        }
    }

    /// The cell kernel (see [`TermBounds::cell_count`]): every cell of the
    /// covering region, walked row by row, is classified from its counts;
    /// the ROI pixels of undecided cells are appended to `scan`, adjacent
    /// cells of a row as one rectangle.
    ///
    /// # Panics
    /// May panic if `chi` is of another shape or configuration than the
    /// geometry was made for.
    fn cell_count<T: Count>(
        &self,
        chi: ChiView<'_>,
        cells: &[T],
        bin_ranges: (u32, u32, u32, u32),
        scan: &mut Vec<Roi>,
    ) -> CellCount {
        let roi = self.clipped;
        let mut count = CellCount::default();
        let (bx0, by0, bx1, by1) = self.covering_cells;
        for j in by0..by1 {
            let rows = (
                chi.y_boundary(j).max(roi.y0()),
                chi.y_boundary(j + 1).min(roi.y1()),
            );
            // The undecided run of this row so far, as columns.
            let mut run: Option<(u32, u32)> = None;
            let mut flush = |run: &mut Option<(u32, u32)>| {
                if let Some((i0, i1)) = run.take() {
                    let x0 = chi.x_boundary(i0).max(roi.x0());
                    let x1 = chi.x_boundary(i1).min(roi.x1());
                    scan.push(Roi::new(x0, rows.0, x1, rows.1).expect("a cell inside the roi"));
                }
            };
            self.walk_strip(chi, cells, bin_ranges, true, j, (bx0, bx1), |c| {
                if c.outer == 0 {
                    count.decided_cells += 1;
                } else if c.inner == c.area {
                    count.decided_cells += 1;
                    count.decided += c.inside;
                } else if c.inside == c.area && c.outer == c.inner {
                    count.exact_cells += 1;
                    count.decided += c.inner;
                } else {
                    count.scanned_cells += 1;
                    run = match run {
                        Some((i0, _)) => Some((i0, c.column + 1)),
                        None => Some((c.column, c.column + 1)),
                    };
                    return;
                }
                flush(&mut run);
            });
            flush(&mut run);
        }
        count
    }
}

/// One cell of a strip (see `RoiGeometry::walk_strip`).
#[derive(Debug, Clone, Copy)]
struct CellCounts {
    /// Grid column of the cell.
    column: u32,
    /// Its pixels in the outer and in the inner bin range.
    outer: u64,
    inner: u64,
    /// Its pixels, and how many of them the ROI takes.
    area: u64,
    inside: u64,
}

/// What the cell kernel decided of one `CP` term from a mask's CHI, and
/// what it left to scan (see [`TermBounds::cell_count`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCount {
    /// In-range ROI pixels of the decided and exact cells.
    pub decided: u64,
    /// Cells decided whole: none of their pixels in range (all-out) or all
    /// of them (all-in).
    pub decided_cells: u64,
    /// Cells the ROI covers whose count the histogram gives exactly.
    pub exact_cells: u64,
    /// Cells whose ROI pixels must be scanned.
    pub scanned_cells: u64,
}

/// Bounds on one `CP(·, roi, range)` term over many masks — what
/// [`cp_bounds`] computes, and the per-cell bound — and its cell kernel,
/// keeping between calls what does not depend on the mask's cells.
#[derive(Debug, Clone)]
pub struct TermBounds {
    range: PixelRange,
    /// The bin count `bin_ranges` are for; 0 before the first mask.
    bins: u32,
    bin_ranges: (u32, u32, u32, u32),
    /// The grid (configuration and mask shape) and ROI `geometry` is for. It
    /// is recomputed when either changes: never again for a constant ROI
    /// over masks of one shape, per mask for an ROI that is the mask's own
    /// (measured: a path of their own that skips the comparison gains those
    /// nothing).
    geometry_of: Option<((ChiConfig, u32, u32), Roi)>,
    geometry: Option<RoiGeometry>,
}

impl TermBounds {
    /// Bounds over `range`, nothing kept yet.
    pub fn new(range: PixelRange) -> Self {
        Self {
            range,
            bins: 0,
            bin_ranges: (0, 0, 0, 0),
            geometry_of: None,
            geometry: None,
        }
    }

    /// Keeps the bin indices and geometry for `chi`'s grid and `roi`.
    fn refresh(&mut self, chi: ChiView<'_>, roi: &Roi) {
        let grid = (*chi.config(), chi.mask_width(), chi.mask_height());
        if self.bins != grid.0.bins() {
            self.bins = grid.0.bins();
            self.bin_ranges = bin_ranges(&self.range, self.bins);
        }
        if self.geometry_of != Some((grid, *roi)) {
            self.geometry_of = Some((grid, *roi));
            self.geometry = RoiGeometry::new(chi, roi);
        }
    }

    /// Exactly `chi.cp_bounds(roi, range)`.
    pub fn cp_bounds(&mut self, chi: ChiView<'_>, roi: &Roi) -> CpBounds {
        self.refresh(chi, roi);
        match &self.geometry {
            Some(geometry) => {
                with_counts!(chi.cells(), cells => geometry.cp_bounds(cells, self.bin_ranges))
            }
            None => CpBounds::empty(),
        }
    }

    /// The per-cell bound of `CP(mask, roi, range)` (see the module docs):
    /// sound, and never looser than [`TermBounds::cp_bounds`].
    pub fn cell_bounds(&mut self, chi: ChiView<'_>, roi: &Roi) -> CpBounds {
        self.refresh(chi, roi);
        match &self.geometry {
            Some(geometry) => {
                with_counts!(chi.cells(), cells => geometry.cell_bounds(chi, cells, self.bin_ranges))
            }
            None => CpBounds::empty(),
        }
    }

    /// The cell kernel of verification (see the module docs): classifies
    /// every CHI cell the ROI touches and returns the in-range ROI pixels of
    /// the cells it decides, appending the ROI pixels of the others to
    /// `scan` (adjacent cells of a row as one rectangle). The exact
    /// `CP(mask, roi, range)` is [`CellCount::decided`] plus the in-range
    /// pixels of those rectangles — provided `chi` is the index of exactly
    /// the pixels they are counted on.
    pub fn cell_count(&mut self, chi: ChiView<'_>, roi: &Roi, scan: &mut Vec<Roi>) -> CellCount {
        self.refresh(chi, roi);
        match &self.geometry {
            Some(geometry) => with_counts!(chi.cells(), cells => {
                geometry.cell_count(chi, cells, self.bin_ranges, scan)
            }),
            None => CellCount::default(),
        }
    }
}

/// Computes [`CpBounds`] for `CP(mask, roi, range)` from the mask's CHI.
pub fn cp_bounds<D: CellStorage>(chi: &ChiOver<D>, roi: &Roi, range: &PixelRange) -> CpBounds {
    let chi = chi.view();
    match RoiGeometry::new(chi, roi) {
        Some(geometry) => {
            let bin_ranges = bin_ranges(range, chi.config().bins());
            with_counts!(chi.cells(), cells => geometry.cp_bounds(cells, bin_ranges))
        }
        None => CpBounds::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi::{Chi, ChiConfig};
    use masksearch_core::{cp, Mask};

    fn region_range_count(chi: &Chi, region: (u32, u32, u32, u32), lo: u32, hi: u32) -> u64 {
        let corners = Corners::of(chi.view(), region);
        let bins = chi.config().bins();
        with_counts!(chi.cells(), cells => corners.range_count(cells, bins, lo, hi))
    }

    fn blob_mask(w: u32, h: u32, cx: f32, cy: f32, sigma: f32) -> Mask {
        Mask::from_fn(w, h, |x, y| {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            (0.95 * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()).min(0.999)
        })
    }

    fn check_bounds(mask: &Mask, config: &ChiConfig, roi: &Roi, range: &PixelRange) -> CpBounds {
        let chi = Chi::build(mask, config);
        let bounds = cp_bounds(&chi, roi, range);
        let exact = cp(mask, roi, range);
        assert!(
            bounds.lower <= exact,
            "lower {} > exact {exact} for roi {roi} range {range}",
            bounds.lower
        );
        assert!(
            exact <= bounds.upper,
            "exact {exact} > upper {} for roi {roi} range {range}",
            bounds.upper
        );
        assert!(bounds.upper <= bounds.roi_area);
        bounds
    }

    #[test]
    fn bin_ranges_align_with_boundaries() {
        let r = PixelRange::new(0.5, 1.0).unwrap();
        assert_eq!(bin_ranges(&r, 16), (8, 16, 8, 16));
        let r = PixelRange::new(0.6, 1.0).unwrap();
        assert_eq!(bin_ranges(&r, 16), (9, 16, 10, 16));
        let r = PixelRange::new(0.1, 0.2).unwrap();
        // 16 bins: 0.1*16 = 1.6, 0.2*16 = 3.2
        assert_eq!(bin_ranges(&r, 16), (1, 4, 2, 3));
        // A range narrower than one bin has an empty inner range.
        let r = PixelRange::new(0.11, 0.12).unwrap();
        let (olo, ohi, ilo, ihi) = bin_ranges(&r, 16);
        assert!(olo < ohi);
        assert!(ilo >= ihi);
    }

    #[test]
    fn region_range_count_matches_materialised_histograms() {
        let mask = blob_mask(20, 12, 10.0, 6.0, 4.0);
        let config = ChiConfig::new(6, 5, 8).unwrap();
        let chi = Chi::build(&mask, &config);
        let region = chi
            .covering_region(&Roi::new(1, 1, 19, 11).unwrap())
            .unwrap();
        let (bx0, by0, bx1, by1) = region;
        let hist = chi.region_hist(bx0, by0, bx1, by1);
        let bins = config.bins();
        for lo in 0..=bins + 1 {
            for hi in 0..=bins + 1 {
                let expected = if lo >= hi {
                    0
                } else {
                    let at = |i: u32| *hist.get(i as usize).unwrap_or(&0);
                    at(lo).saturating_sub(at(hi))
                };
                assert_eq!(
                    region_range_count(&chi, region, lo, hi),
                    expected,
                    "lo={lo} hi={hi}"
                );
            }
        }
    }

    #[test]
    fn bounds_are_valid_on_gradient_and_blob_masks() {
        let configs = [
            ChiConfig::new(8, 8, 16).unwrap(),
            ChiConfig::new(5, 7, 4).unwrap(),
            ChiConfig::new(64, 64, 16).unwrap(), // cells larger than some ROIs
        ];
        let masks = [
            Mask::from_fn(48, 48, |x, y| ((x * y) % 97) as f32 / 97.0),
            blob_mask(48, 48, 24.0, 24.0, 8.0),
            Mask::constant(48, 48, 0.42).unwrap(),
        ];
        let rois = [
            Roi::new(0, 0, 48, 48).unwrap(),
            Roi::new(3, 5, 17, 29).unwrap(),
            Roi::new(20, 20, 28, 28).unwrap(),
            Roi::new(1, 1, 3, 3).unwrap(),
            Roi::new(40, 40, 100, 100).unwrap(),
        ];
        let ranges = [
            PixelRange::new(0.5, 1.0).unwrap(),
            PixelRange::new(0.8, 1.0).unwrap(),
            PixelRange::new(0.25, 0.75).unwrap(),
            PixelRange::new(0.4, 0.45).unwrap(),
            PixelRange::full(),
        ];
        for config in &configs {
            for mask in &masks {
                for roi in &rois {
                    for range in &ranges {
                        check_bounds(mask, config, roi, range);
                    }
                }
            }
        }
    }

    #[test]
    fn cell_aligned_roi_and_bin_aligned_range_give_exact_bounds() {
        let mask = blob_mask(32, 32, 16.0, 16.0, 6.0);
        let config = ChiConfig::new(8, 8, 16).unwrap();
        let chi = Chi::build(&mask, &config);
        let roi = Roi::new(8, 8, 24, 24).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap(); // 0.5 = bin boundary
        let bounds = cp_bounds(&chi, &roi, &range);
        assert!(bounds.is_exact());
        assert_eq!(bounds.lower, cp(&mask, &roi, &range));
        assert_eq!(bounds.gap(), 0);
    }

    #[test]
    fn disjoint_roi_yields_empty_bounds() {
        let mask = Mask::zeros(16, 16);
        let chi = Chi::build(&mask, &ChiConfig::default());
        let roi = Roi::new(100, 100, 120, 120).unwrap();
        let bounds = cp_bounds(&chi, &roi, &PixelRange::full());
        assert_eq!(bounds, CpBounds::empty());
    }

    #[test]
    fn figure_6_example_upper_bounds() {
        // Paper Figure 6 example: the same mask as Figure 4, ROI = ((3,3),(5,5))
        // in the paper's 1-based inclusive convention, (lv, uv) = (0.5, 1.0),
        // cell size 2x2, 2 bins.
        //
        // The paper computes θ̄₁ = 8 from the covering region ((3,3),(6,6)) and
        // θ̄₂ = 2 − 0 + 9 − 4 = 7 from the covered region ((3,3),(4,4)).
        // We build a mask consistent with those index values: within rows/cols
        // 2..6 (0-based), 8 pixels ≥ 0.5, of which 2 are inside rows/cols 2..4.
        let mut mask = Mask::zeros(6, 6);
        for y in 0..6 {
            for x in 0..6 {
                mask.set(x, y, 0.1);
            }
        }
        // Two high pixels inside [2,4)x[2,4).
        mask.set(2, 2, 0.9);
        mask.set(3, 3, 0.9);
        // Six more high pixels inside [2,6)x[2,6) but outside [2,4)x[2,4).
        mask.set(4, 2, 0.9);
        mask.set(5, 3, 0.9);
        mask.set(4, 4, 0.9);
        mask.set(5, 5, 0.9);
        mask.set(2, 4, 0.9);
        mask.set(3, 5, 0.9);

        let config = ChiConfig::new(2, 2, 2).unwrap();
        let chi = Chi::build(&mask, &config);
        // Paper ROI ((3,3),(5,5)) 1-based inclusive = [2,5)x[2,5) 0-based.
        let roi = Roi::from_inclusive_corners((3, 3), (5, 5)).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();

        // Covering region boundaries: [2,6)x[2,6) = grid (1,1)..(3,3).
        assert_eq!(chi.covering_region(&roi), Some((1, 1, 3, 3)));
        // Covered region: [2,4)x[2,4) = grid (1,1)..(2,2).
        assert_eq!(chi.covered_region(&roi), Some((1, 1, 2, 2)));

        let covering_hist = chi.region_hist(1, 1, 3, 3);
        assert_eq!(covering_hist[1], 8); // θ̄₁ = 8
        let covered_hist = chi.region_hist(1, 1, 2, 2);
        assert_eq!(covered_hist[1], 2);
        // θ̄₂ = 2 + |roi| − |roi⁻| = 2 + 9 − 4 = 7.
        let bounds = cp_bounds(&chi, &roi, &range);
        assert_eq!(bounds.upper, 7);
        // And the bounds bracket the true value.
        let exact = cp(&mask, &roi, &range);
        assert!(bounds.lower <= exact && exact <= bounds.upper);
    }

    #[test]
    fn full_range_full_roi_is_exact() {
        let mask = blob_mask(40, 30, 12.0, 15.0, 5.0);
        let chi = Chi::build(&mask, &ChiConfig::new(8, 8, 8).unwrap());
        let bounds = cp_bounds(&chi, &mask.full_roi(), &PixelRange::full());
        assert!(bounds.is_exact());
        assert_eq!(bounds.upper, 40 * 30);
    }

    #[test]
    fn finer_grids_give_tighter_bounds() {
        // §4.4: larger (more granular) indexes yield tighter bounds.
        let mask = blob_mask(64, 64, 20.0, 40.0, 10.0);
        let roi = Roi::new(9, 13, 47, 55).unwrap();
        let range = PixelRange::new(0.6, 1.0).unwrap();
        let coarse = Chi::build(&mask, &ChiConfig::new(32, 32, 4).unwrap());
        let fine = Chi::build(&mask, &ChiConfig::new(4, 4, 32).unwrap());
        let cb = cp_bounds(&coarse, &roi, &range);
        let fb = cp_bounds(&fine, &roi, &range);
        assert!(fb.gap() <= cb.gap());
        let exact = cp(&mask, &roi, &range);
        assert!(fb.lower <= exact && exact <= fb.upper);
        assert!(cb.lower <= exact && exact <= cb.upper);
    }
}
