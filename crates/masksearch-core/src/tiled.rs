//! Tiled verification kernel: per-tile summaries that make exact `CP`
//! sub-linear in the number of pixels it must touch.
//!
//! The CHI (`masksearch-index`) prunes *across* masks; this module applies
//! the same cumulative-histogram idea *within* one mask. A [`TileGrid`]
//! partitions a mask into fixed-size square tiles (default
//! [`DEFAULT_TILE_SIZE`] = 64×64; edge tiles are smaller when the mask is not
//! a tile multiple). Each tile carries three summaries:
//!
//! * the minimum and maximum pixel value of the tile,
//! * the number of its pixels outside `[0, 1)` (uncountable), and
//! * a small cumulative value histogram over [`TILE_BINS`] equi-width bins:
//!   `cum[i]` counts the tile's pixels with value `< i / TILE_BINS`.
//!
//! This module keeps no pixel loop of its own: [`TileGrid::build_with`] is
//! `pixel_pass::tiles`, the row-major pass that also builds a
//! mask's per-cell CHI histograms — the durable store's commit path asks it
//! for both products of one mask at once.
//!
//! When `CP(mask, roi, [lo, hi))` is evaluated through the kernel
//! ([`TiledMask::cp`]), every tile overlapping the clipped ROI is classified
//! without touching its pixels first:
//!
//! * **all-out** — `max < lo` or `min >= hi`: no pixel of the tile can lie
//!   in the range, so the tile contributes zero. Skipped entirely.
//! * **all-in** — `min >= lo && max < hi`: every pixel of the tile lies in
//!   the range, so the tile contributes the area of its intersection with
//!   the ROI. Skipped entirely.
//! * **histogram** — the ROI covers the tile fully *and* both range bounds
//!   fall exactly on bin edges (`lo = a/TILE_BINS`, `hi = b/TILE_BINS`):
//!   the contribution is `cum[b] - cum[a]`, again without touching pixels.
//! * **boundary** — everything else (a tile partially covered by the ROI, or
//!   a range bound strictly inside a bin, with min/max undecided): the tile
//!   falls back to a tight row-slice scan of exactly the intersected pixels.
//!
//! Every classification is *exact*, not approximate: bin edges `i/16` are
//! dyadic rationals represented exactly in `f32`, multiplying a value by
//! `TILE_BINS` (a power of two) is exact, and the half-open comparisons used
//! to build the histogram are the same comparisons
//! [`PixelRange::contains`] performs — so the kernel returns counts
//! byte-identical to the reference scan [`crate::cp::cp`] on every input.
//! The differential-oracle suite (`tests/kernel_oracle.rs`) proves this over
//! arbitrary masks, ROIs, ranges, and tile sizes.

use crate::mask::Mask;
use crate::range::PixelRange;
use crate::roi::Roi;
use std::sync::{Arc, OnceLock};

/// Default tile edge length in pixels.
pub const DEFAULT_TILE_SIZE: u32 = 64;

/// Number of equi-width value bins per tile histogram. Must be a power of
/// two so that `value * TILE_BINS` is exact in `f32` (only the exponent
/// changes), which the aligned-range fast path relies on.
pub const TILE_BINS: usize = 16;

/// Per-query kernel counters: how many tiles each classification decided.
///
/// `tiles_pruned` counts tiles answered from min/max alone (all-in or
/// all-out), `tiles_hist` counts tiles answered from the cumulative
/// histogram, and `tiles_scanned` counts tiles that fell back to the
/// row-slice pixel scan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TileStats {
    /// Tiles decided from min/max summaries without touching pixels.
    pub tiles_pruned: u64,
    /// Tiles answered exactly from the cumulative histogram.
    pub tiles_hist: u64,
    /// Tiles that required a pixel scan (boundary tiles, straddling ranges).
    pub tiles_scanned: u64,
}

impl TileStats {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &TileStats) {
        self.tiles_pruned += other.tiles_pruned;
        self.tiles_hist += other.tiles_hist;
        self.tiles_scanned += other.tiles_scanned;
    }

    /// Total tiles classified.
    pub fn tiles_touched(&self) -> u64 {
        self.tiles_pruned + self.tiles_hist + self.tiles_scanned
    }
}

/// Summaries of one tile: value bounds plus a cumulative histogram.
///
/// `min`/`max` are computed with plain comparisons, so NaN pixels never
/// update them; pixels outside the `[0, 1)` value domain (NaN, ±∞, negative,
/// ≥ 1) are excluded from the histogram and tallied in `uncountable`
/// instead, because no [`PixelRange`] can ever count them. A tile with
/// `uncountable > 0` must never be classified *all-in* (its area would
/// overcount the uncountable pixels); all-out and histogram classification
/// stay exact.
#[derive(Debug, Clone, PartialEq)]
pub struct TileSummary {
    min: f32,
    max: f32,
    /// Pixels outside the countable `[0, 1)` domain (NaN, ±∞, out of range).
    uncountable: u32,
    /// `cum[i]` = number of *countable* tile pixels with value
    /// `< i / TILE_BINS`; `cum[TILE_BINS]` is the tile's countable pixel
    /// count.
    cum: [u32; TILE_BINS + 1],
}

impl TileSummary {
    /// Reassembles a summary from its parts (used by persistence layers).
    pub fn from_parts(min: f32, max: f32, uncountable: u32, cum: [u32; TILE_BINS + 1]) -> Self {
        Self {
            min,
            max,
            uncountable,
            cum,
        }
    }

    /// Smallest pixel value in the tile.
    pub fn min(&self) -> f32 {
        self.min
    }

    /// Largest pixel value in the tile.
    pub fn max(&self) -> f32 {
        self.max
    }

    /// The cumulative histogram (`cum[i]` = countable pixels with value
    /// `< i/16`).
    pub fn cum(&self) -> &[u32; TILE_BINS + 1] {
        &self.cum
    }

    /// Number of countable (in-domain) pixels in the tile.
    pub fn count(&self) -> u32 {
        self.cum[TILE_BINS]
    }

    /// Number of uncountable pixels (NaN / out-of-domain) in the tile.
    pub fn uncountable(&self) -> u32 {
        self.uncountable
    }
}

/// If `bound` lies exactly on a bin edge `i / TILE_BINS`, returns `i`.
#[inline]
fn bin_edge_index(bound: f32) -> Option<usize> {
    let scaled = bound * TILE_BINS as f32; // exact: TILE_BINS is a power of two
    if scaled >= 0.0 && scaled <= TILE_BINS as f32 && scaled == scaled.floor() {
        Some(scaled as usize)
    } else {
        None
    }
}

/// The per-tile summary index of a mask: tile layout plus one
/// [`TileSummary`] per tile, row-major over tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TileGrid {
    mask_width: u32,
    mask_height: u32,
    tile: u32,
    tiles_x: u32,
    tiles_y: u32,
    summaries: Vec<TileSummary>,
}

impl TileGrid {
    /// Builds the grid of `mask` with the default tile size.
    pub fn build(mask: &Mask) -> Self {
        Self::build_with(mask, DEFAULT_TILE_SIZE)
    }

    /// Builds the grid of `mask` with tiles of `tile × tile` pixels, through
    /// the one pixel pass ([`crate::pixel_pass`]) the CHI is built by too.
    ///
    /// # Panics
    /// Panics if `tile` is zero.
    pub fn build_with(mask: &Mask, tile: u32) -> Self {
        crate::pixel_pass::tiles(mask, tile)
    }

    /// Reassembles a grid from its parts, or `None` if the summary count
    /// does not match the declared layout (used by persistence layers).
    pub fn from_parts(
        mask_width: u32,
        mask_height: u32,
        tile: u32,
        summaries: Vec<TileSummary>,
    ) -> Option<Self> {
        if mask_width == 0 || mask_height == 0 || tile == 0 {
            return None;
        }
        let tiles_x = mask_width.div_ceil(tile);
        let tiles_y = mask_height.div_ceil(tile);
        if summaries.len() != (tiles_x as usize) * (tiles_y as usize) {
            return None;
        }
        Some(Self {
            mask_width,
            mask_height,
            tile,
            tiles_x,
            tiles_y,
            summaries,
        })
    }

    /// Width of the summarised mask.
    pub fn mask_width(&self) -> u32 {
        self.mask_width
    }

    /// Height of the summarised mask.
    pub fn mask_height(&self) -> u32 {
        self.mask_height
    }

    /// Tile edge length in pixels.
    pub fn tile(&self) -> u32 {
        self.tile
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// Returns `true` if the grid holds no tiles (never for a valid mask).
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// All tile summaries, row-major over tiles.
    pub fn summaries(&self) -> &[TileSummary] {
        &self.summaries
    }

    /// Returns `true` if the grid describes a mask of this shape.
    pub fn matches_shape(&self, mask: &Mask) -> bool {
        self.mask_width == mask.width() && self.mask_height == mask.height()
    }

    /// Invariant check: the grid equals one freshly rebuilt from `mask`'s
    /// pixels with the same tile size. The ingest-path tests call this after
    /// writes and crash-recovery reopens.
    pub fn verify(&self, mask: &Mask) -> bool {
        self.matches_shape(mask) && *self == TileGrid::build_with(mask, self.tile)
    }

    /// In-memory size of the summaries in bytes.
    pub fn byte_size(&self) -> u64 {
        Self::byte_size_for(self.mask_width, self.mask_height, self.tile)
    }

    /// Summary bytes of a grid over a `width × height` mask with the given
    /// tile size (deterministic in the shape; used for cache accounting).
    pub fn byte_size_for(width: u32, height: u32, tile: u32) -> u64 {
        let tiles = (width.div_ceil(tile) as u64) * (height.div_ceil(tile) as u64);
        tiles * (8 + 4 + 4 * (TILE_BINS as u64 + 1)) + 24
    }

    #[inline]
    fn summary(&self, tx: u32, ty: u32) -> &TileSummary {
        &self.summaries[(ty as usize) * (self.tiles_x as usize) + (tx as usize)]
    }

    /// The in-bounds pixel rectangle of tile `(tx, ty)`.
    #[inline]
    fn tile_rect(&self, tx: u32, ty: u32) -> Roi {
        let x0 = tx * self.tile;
        let y0 = ty * self.tile;
        Roi::new(
            x0,
            y0,
            (x0 + self.tile).min(self.mask_width),
            (y0 + self.tile).min(self.mask_height),
        )
        .expect("tile rectangles are non-empty")
    }

    /// Exact `CP` over `mask` (which must be the mask this grid summarises),
    /// classifying tiles as described in the module docs and recording the
    /// outcome per tile into `stats`.
    pub fn cp(&self, mask: &Mask, roi: &Roi, range: &PixelRange, stats: &mut TileStats) -> u64 {
        debug_assert!(self.matches_shape(mask), "grid built for another mask");
        masksearch_obs::counters::incr(&masksearch_obs::counters::KERNEL_CALLS);
        let Some(clip) = mask.clip_roi(roi) else {
            return 0;
        };
        let lo = range.lo();
        let hi = range.hi();
        let aligned = match (bin_edge_index(lo), bin_edge_index(hi)) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        };
        let ty0 = clip.y0() / self.tile;
        let ty1 = (clip.y1() - 1) / self.tile;
        let tx0 = clip.x0() / self.tile;
        let tx1 = (clip.x1() - 1) / self.tile;
        let mut count = 0u64;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let s = self.summary(tx, ty);
                // All-out: the tile's value bounds prove no pixel is in range.
                if s.max < lo || s.min >= hi {
                    stats.tiles_pruned += 1;
                    continue;
                }
                let rect = self.tile_rect(tx, ty);
                let inter = rect
                    .intersect(&clip)
                    .expect("tile range overlaps the clipped roi");
                // All-in: every pixel is in range; count the covered area.
                // Requires a fully countable tile — an uncountable (NaN /
                // out-of-domain) pixel never satisfies any range, so the
                // area would overcount it (its value also never updates
                // min/max when NaN, so the bounds alone cannot exclude it).
                if s.uncountable == 0 && s.min >= lo && s.max < hi {
                    stats.tiles_pruned += 1;
                    count += inter.area();
                    continue;
                }
                // Fully covered tile + bin-aligned range: exact from the
                // cumulative histogram.
                if inter == rect {
                    if let Some((a, b)) = aligned {
                        stats.tiles_hist += 1;
                        count += u64::from(s.cum[b] - s.cum[a]);
                        continue;
                    }
                }
                // Boundary tile or straddling range: tight row-slice scan of
                // exactly the intersected pixels.
                stats.tiles_scanned += 1;
                count += mask.count_pixels(&inter, range);
            }
        }
        count
    }

    /// Exact `CP` over the pixelwise composition `op(a, b)` of two masks of
    /// identical shape, using **both** masks' tile summaries: per-tile value
    /// bounds of the composition are derived algebraically from the two
    /// tiles' min/max (see the module-internal bound table), so all-out and all-in
    /// tiles are decided without touching either mask's pixels and only
    /// boundary tiles pay a fused two-row scan. There is no histogram fast
    /// path — marginal histograms cannot express a joint composition
    /// exactly.
    ///
    /// `self` must summarise `a`, `other` must summarise `b`, and both grids
    /// must share one tile size; [`TiledMask::cp_composed_with_stats`]
    /// enforces this and falls back to the reference scan otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn cp_composed(
        &self,
        other: &TileGrid,
        a: &Mask,
        b: &Mask,
        op: crate::compose::MaskOp,
        roi: &Roi,
        range: &PixelRange,
        stats: &mut TileStats,
    ) -> u64 {
        debug_assert!(self.matches_shape(a), "left grid built for another mask");
        debug_assert!(other.matches_shape(b), "right grid built for another mask");
        debug_assert_eq!(a.shape(), b.shape(), "composition requires equal shapes");
        debug_assert_eq!(self.tile, other.tile, "composition requires equal tiles");
        masksearch_obs::counters::incr(&masksearch_obs::counters::KERNEL_CALLS);
        let Some(clip) = a.clip_roi(roi) else {
            return 0;
        };
        let lo = range.lo();
        let hi = range.hi();
        let ty0 = clip.y0() / self.tile;
        let ty1 = (clip.y1() - 1) / self.tile;
        let tx0 = clip.x0() / self.tile;
        let tx1 = (clip.x1() - 1) / self.tile;
        let mut count = 0u64;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let sa = self.summary(tx, ty);
                let sb = other.summary(tx, ty);
                let (clo, chi) = composed_tile_bounds(op, sa, sb);
                // All-out: the composed value bounds prove no pixel can lie
                // in the range. NaN bounds (empty-tile sentinels fed through
                // Diff arithmetic) fail both comparisons and fall through to
                // the scan, which is always exact.
                if chi < lo || clo >= hi {
                    stats.tiles_pruned += 1;
                    continue;
                }
                let rect = self.tile_rect(tx, ty);
                let inter = rect
                    .intersect(&clip)
                    .expect("tile range overlaps the clipped roi");
                // All-in: every composed pixel is countable and in range.
                if sa.uncountable == 0 && sb.uncountable == 0 && clo >= lo && chi < hi {
                    stats.tiles_pruned += 1;
                    count += inter.area();
                    continue;
                }
                // Boundary tile: fused scan of exactly the intersected rows.
                stats.tiles_scanned += 1;
                for y in inter.y0()..inter.y1() {
                    let ra = &a.row(y)[inter.x0() as usize..inter.x1() as usize];
                    let rb = &b.row(y)[inter.x0() as usize..inter.x1() as usize];
                    for (&x, &yv) in ra.iter().zip(rb) {
                        if range.contains(op.apply(x, yv)) {
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }
}

/// Sound value bounds `[lo, hi]` of the composition `op(a, b)` over one tile,
/// derived from the operands' per-tile min/max:
///
/// | op        | lower bound                         | upper bound                         |
/// |-----------|-------------------------------------|-------------------------------------|
/// | intersect | `min(a.min, b.min)`                 | `min(a.max, b.max)`                 |
/// | union     | `max(a.min, b.min)`                 | `max(a.max, b.max)`                 |
/// | diff      | `max(0, a.min−b.max, b.min−a.max)`  | `max(a.max−b.min, b.max−a.min)`     |
///
/// Every composed pixel with both operands countable lies inside the
/// interval; the intersect/union extremes are additionally attained (the
/// pointwise min of minima *is* the minimum of the pointwise min).
fn composed_tile_bounds(
    op: crate::compose::MaskOp,
    sa: &TileSummary,
    sb: &TileSummary,
) -> (f32, f32) {
    use crate::compose::MaskOp;
    match op {
        MaskOp::Intersect => (sa.min.min(sb.min), sa.max.min(sb.max)),
        MaskOp::Union => (sa.min.max(sb.min), sa.max.max(sb.max)),
        MaskOp::Diff => {
            let hi = (sa.max - sb.min).max(sb.max - sa.min);
            let lo = (sa.min - sb.max).max(sb.min - sa.max).max(0.0);
            (lo, hi)
        }
    }
}

/// A mask paired with its (lazily built) tile grid — the unit the buffer
/// cache stores and the verification executor evaluates `CP` terms on.
///
/// The grid is built on first use ([`TiledMask::grid`]) or seeded from a
/// persisted summary ([`TiledMask::with_grid`]); either way `cp`/`cp_many`
/// return counts byte-identical to the reference scan.
#[derive(Debug)]
pub struct TiledMask {
    mask: Arc<Mask>,
    grid: OnceLock<Arc<TileGrid>>,
}

impl TiledMask {
    /// Wraps a mask; the grid is built lazily on first kernel use.
    pub fn new(mask: Arc<Mask>) -> Self {
        Self {
            mask,
            grid: OnceLock::new(),
        }
    }

    /// Wraps an owned mask; the grid is built lazily on first kernel use.
    pub fn from_mask(mask: Mask) -> Self {
        Self::new(Arc::new(mask))
    }

    /// Wraps a mask with a pre-built grid (e.g. one maintained by the
    /// durable store). A grid whose shape does not match the mask is
    /// discarded and rebuilt lazily instead — a mismatched summary must
    /// never influence counts.
    pub fn with_grid(mask: Arc<Mask>, grid: Arc<TileGrid>) -> Self {
        let tiled = Self::new(mask);
        if grid.matches_shape(&tiled.mask) {
            let _ = tiled.grid.set(grid);
        }
        tiled
    }

    /// Replaces the pixels with `mask`'s, reusing this value's allocation,
    /// provided nothing else holds the underlying mask and the shapes
    /// agree; the grid then describes pixels that are gone, so it is dropped
    /// and rebuilt on next use. Returns whether the pixels were replaced.
    pub fn overwrite(&mut self, mask: &Mask) -> bool {
        let replaced = Arc::get_mut(&mut self.mask).is_some_and(|own| own.overwrite_with(mask));
        if replaced {
            self.grid = OnceLock::new();
        }
        replaced
    }

    /// The underlying mask.
    pub fn mask(&self) -> &Mask {
        &self.mask
    }

    /// A shared handle on the underlying mask.
    pub fn mask_arc(&self) -> Arc<Mask> {
        Arc::clone(&self.mask)
    }

    /// The tile grid, building it on first use.
    pub fn grid(&self) -> &Arc<TileGrid> {
        self.grid
            .get_or_init(|| Arc::new(TileGrid::build(&self.mask)))
    }

    /// Returns `true` if the grid has already been built or seeded.
    pub fn has_grid(&self) -> bool {
        self.grid.get().is_some()
    }

    /// Exact `CP` through the kernel.
    pub fn cp(&self, roi: &Roi, range: &PixelRange) -> u64 {
        self.cp_with_stats(roi, range, &mut TileStats::default())
    }

    /// Exact `CP` through the kernel, recording tile classifications.
    pub fn cp_with_stats(&self, roi: &Roi, range: &PixelRange, stats: &mut TileStats) -> u64 {
        self.grid().cp(&self.mask, roi, range, stats)
    }

    /// Evaluates several `(roi, range)` terms through the kernel.
    pub fn cp_many(&self, terms: &[(Roi, PixelRange)]) -> Vec<u64> {
        self.cp_many_with_stats(terms, &mut TileStats::default())
    }

    /// Evaluates several `(roi, range)` terms through the kernel, recording
    /// tile classifications across all terms.
    pub fn cp_many_with_stats(
        &self,
        terms: &[(Roi, PixelRange)],
        stats: &mut TileStats,
    ) -> Vec<u64> {
        terms
            .iter()
            .map(|(roi, range)| self.cp_with_stats(roi, range, stats))
            .collect()
    }

    /// Exact `CP` over the pixelwise composition `op(self, other)` through
    /// the composed tile kernel, recording tile classifications.
    ///
    /// The masks must have identical shapes ([`crate::error::Error::ShapeMismatch`]
    /// otherwise). When the two grids share a tile size (the default — all
    /// lazily built grids use [`DEFAULT_TILE_SIZE`]) the composed kernel
    /// classifies tiles from both summaries; mismatched tile layouts (a
    /// persisted grid with a custom size) fall back to the fused reference
    /// scan. Counts are byte-identical either way.
    pub fn cp_composed_with_stats(
        &self,
        other: &TiledMask,
        op: crate::compose::MaskOp,
        roi: &Roi,
        range: &PixelRange,
        stats: &mut TileStats,
    ) -> crate::error::Result<u64> {
        crate::compose::check_composable(&self.mask, &other.mask)?;
        let ga = self.grid();
        if ga.tile() == other.grid().tile() {
            let gb = other.grid();
            Ok(ga.cp_composed(gb, &self.mask, &other.mask, op, roi, range, stats))
        } else {
            crate::compose::cp_composed(&self.mask, &other.mask, op, roi, range)
        }
    }

    /// Cache-accounting size: decoded pixels plus the (default-layout) grid
    /// summaries. Deterministic in the shape regardless of whether the lazy
    /// grid has been built yet.
    pub fn byte_size(&self) -> u64 {
        self.mask.byte_size()
            + TileGrid::byte_size_for(self.mask.width(), self.mask.height(), DEFAULT_TILE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::cp;

    fn gradient(w: u32, h: u32) -> Mask {
        Mask::from_fn(w, h, move |x, y| {
            ((x + y * w) as f32) / ((w * h) as f32).max(1.0)
        })
    }

    fn blob(w: u32, h: u32) -> Mask {
        Mask::from_fn(w, h, move |x, y| {
            let dx = x as f32 - w as f32 / 2.0;
            let dy = y as f32 - h as f32 / 2.0;
            (-(dx * dx + dy * dy) / (w as f32 * h as f32 / 16.0).max(1.0)).exp() * 0.97
        })
    }

    fn assert_kernel_matches(mask: &Mask, tile: u32, roi: &Roi, range: &PixelRange) {
        let grid = TileGrid::build_with(mask, tile);
        let mut stats = TileStats::default();
        assert_eq!(
            grid.cp(mask, roi, range, &mut stats),
            cp(mask, roi, range),
            "tile {tile} roi {roi} range {range}"
        );
    }

    #[test]
    fn kernel_matches_reference_across_tile_sizes_and_ranges() {
        for mask in [gradient(37, 23), blob(64, 64), gradient(1, 19), blob(19, 1)] {
            for tile in [1, 3, 8, 64] {
                for roi in [
                    Roi::new(0, 0, 200, 200).unwrap(),
                    Roi::new(5, 2, 21, 17).unwrap(),
                    Roi::new(3, 3, 4, 4).unwrap(),
                    Roi::new(100, 100, 150, 160).unwrap(),
                ] {
                    for range in [
                        PixelRange::full(),
                        PixelRange::new(0.5, 1.0).unwrap(),
                        PixelRange::new(0.25, 0.75).unwrap(),
                        PixelRange::new(0.3, 0.31).unwrap(),
                        PixelRange::new(0.0, f32::EPSILON).unwrap(),
                    ] {
                        assert_kernel_matches(&mask, tile, &roi, &range);
                    }
                }
            }
        }
    }

    #[test]
    fn selective_range_on_smooth_mask_prunes_most_tiles() {
        let mask = blob(256, 256);
        let grid = TileGrid::build_with(&mask, 32);
        let mut stats = TileStats::default();
        let range = PixelRange::new(0.9, 1.0).unwrap();
        let count = grid.cp(&mask, &mask.full_roi(), &range, &mut stats);
        assert_eq!(count, cp(&mask, &mask.full_roi(), &range));
        assert!(
            stats.tiles_pruned > stats.tiles_scanned,
            "expected mostly pruned tiles, got {stats:?}"
        );
        assert_eq!(stats.tiles_touched(), 64);
    }

    #[test]
    fn aligned_range_uses_the_histogram() {
        // Every tile spreads over the full value domain, so min/max cannot
        // decide, but the range is bin-aligned (4/16 and 8/16): every fully
        // covered tile must answer from its histogram, none from a scan.
        let mask = Mask::from_fn(128, 128, |x, y| ((x + 2 * y) % 16) as f32 / 16.0);
        let grid = TileGrid::build_with(&mask, 32);
        let mut stats = TileStats::default();
        let range = PixelRange::new(0.25, 0.5).unwrap();
        let count = grid.cp(&mask, &mask.full_roi(), &range, &mut stats);
        assert_eq!(count, cp(&mask, &mask.full_roi(), &range));
        assert!(stats.tiles_hist > 0, "expected histogram hits, {stats:?}");
        assert_eq!(stats.tiles_scanned, 0);
    }

    #[test]
    fn bin_edges_are_detected_exactly() {
        for i in 0..=TILE_BINS {
            assert_eq!(bin_edge_index(i as f32 / TILE_BINS as f32), Some(i));
        }
        assert_eq!(bin_edge_index(0.3), None);
        assert_eq!(bin_edge_index(0.50001), None);
        assert_eq!(bin_edge_index(f32::EPSILON), None);
    }

    #[test]
    fn disjoint_roi_counts_zero() {
        let mask = gradient(16, 16);
        let tiled = TiledMask::from_mask(mask);
        let far = Roi::new(100, 100, 120, 120).unwrap();
        assert_eq!(tiled.cp(&far, &PixelRange::full()), 0);
    }

    #[test]
    fn cp_many_matches_per_term_cp() {
        let mask = blob(90, 70);
        let tiled = TiledMask::from_mask(mask.clone());
        let terms = vec![
            (Roi::new(0, 0, 30, 30).unwrap(), PixelRange::full()),
            (
                Roi::new(10, 10, 200, 200).unwrap(),
                PixelRange::new(0.5, 1.0).unwrap(),
            ),
            (
                Roi::new(60, 50, 90, 70).unwrap(),
                PixelRange::new(0.1, 0.2).unwrap(),
            ),
        ];
        let mut stats = TileStats::default();
        let counts = tiled.cp_many_with_stats(&terms, &mut stats);
        for (i, (roi, range)) in terms.iter().enumerate() {
            assert_eq!(counts[i], cp(&mask, roi, range), "term {i}");
        }
        assert!(stats.tiles_touched() > 0);
    }

    #[test]
    fn grid_round_trips_through_parts_and_verifies() {
        let mask = blob(100, 60);
        let grid = TileGrid::build_with(&mask, 16);
        assert!(grid.verify(&mask));
        let rebuilt = TileGrid::from_parts(
            grid.mask_width(),
            grid.mask_height(),
            grid.tile(),
            grid.summaries().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, grid);
        // A shape with a different tile count is rejected.
        assert!(TileGrid::from_parts(100, 65, 16, grid.summaries().to_vec()).is_none());
        assert!(TileGrid::from_parts(0, 60, 16, vec![]).is_none());
        // A different mask fails verification.
        assert!(!grid.verify(&gradient(100, 60)));
    }

    #[test]
    fn mismatched_seeded_grid_is_discarded() {
        let mask = Arc::new(gradient(32, 32));
        let wrong = Arc::new(TileGrid::build(&gradient(16, 16)));
        let tiled = TiledMask::with_grid(Arc::clone(&mask), wrong);
        assert!(!tiled.has_grid());
        // The lazily rebuilt grid still produces exact counts.
        let range = PixelRange::new(0.5, 1.0).unwrap();
        assert_eq!(
            tiled.cp(&mask.full_roi(), &range),
            cp(&mask, &mask.full_roi(), &range)
        );
        assert!(tiled.has_grid());
    }

    #[test]
    fn byte_size_is_deterministic_across_lazy_state() {
        let tiled = TiledMask::from_mask(gradient(130, 70));
        let before = tiled.byte_size();
        let _ = tiled.grid();
        assert_eq!(tiled.byte_size(), before);
        assert!(before > tiled.mask().byte_size());
    }

    #[test]
    fn summary_accessors_are_consistent() {
        let mask = gradient(48, 48);
        let grid = TileGrid::build_with(&mask, 16);
        assert_eq!(grid.len(), 9);
        assert!(!grid.is_empty());
        let total: u64 = grid.summaries().iter().map(|s| u64::from(s.count())).sum();
        assert_eq!(total, mask.num_pixels() as u64);
        for s in grid.summaries() {
            assert!(s.min() <= s.max());
            assert_eq!(s.uncountable(), 0);
            let reassembled = TileSummary::from_parts(s.min(), s.max(), s.uncountable(), *s.cum());
            assert_eq!(&reassembled, s);
        }
    }

    #[test]
    fn kernel_agrees_with_scan_on_nan_and_inf_pixels() {
        // A mask whose pixels would all satisfy [0.25, 0.75) from min/max
        // alone, with NaN / ±∞ / out-of-domain pixels sprinkled in: the
        // all-in and histogram paths must not count the uncountables.
        let mut data = vec![0.5f32; 24 * 24];
        data[0] = f32::NAN;
        data[30] = f32::INFINITY;
        data[77] = f32::NEG_INFINITY;
        data[100] = -0.25;
        data[200] = 1.5;
        data[300] = -0.0; // countable: −0.0 ≥ 0.0 holds in IEEE
        let mask = Mask::from_data_unchecked(24, 24, data).unwrap();
        for tile in [1, 4, 8, 64] {
            let grid = TileGrid::build_with(&mask, tile);
            for roi in [
                mask.full_roi(),
                Roi::new(0, 0, 7, 7).unwrap(),
                Roi::new(3, 5, 20, 24).unwrap(),
            ] {
                for range in [
                    PixelRange::full(),
                    PixelRange::new(0.25, 0.75).unwrap(), // bin-aligned
                    PixelRange::new(0.0, 0.5).unwrap(),
                    PixelRange::new(0.4, 0.6).unwrap(),
                ] {
                    let mut stats = TileStats::default();
                    assert_eq!(
                        grid.cp(&mask, &roi, &range, &mut stats),
                        cp(&mask, &roi, &range),
                        "tile {tile} roi {roi} range {range}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_nan_tiles_classify_all_out() {
        let mask = Mask::from_data_unchecked(8, 8, vec![f32::NAN; 64]).unwrap();
        let grid = TileGrid::build_with(&mask, 4);
        let mut stats = TileStats::default();
        assert_eq!(
            grid.cp(&mask, &mask.full_roi(), &PixelRange::full(), &mut stats),
            0
        );
        assert_eq!(stats.tiles_pruned, 4);
        assert_eq!(stats.tiles_scanned, 0);
    }

    #[test]
    fn composed_kernel_matches_reference_scan() {
        use crate::compose::{cp_composed, MaskOp};
        let a = blob(90, 70);
        let b = gradient(90, 70);
        for op in [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff] {
            for tile in [5, 16, 64] {
                let ga = TileGrid::build_with(&a, tile);
                let gb = TileGrid::build_with(&b, tile);
                for roi in [
                    a.full_roi(),
                    Roi::new(10, 10, 50, 60).unwrap(),
                    Roi::new(85, 65, 200, 200).unwrap(),
                    Roi::new(100, 100, 120, 120).unwrap(),
                ] {
                    for range in [
                        PixelRange::full(),
                        PixelRange::new(0.5, 1.0).unwrap(),
                        PixelRange::new(0.05, 0.2).unwrap(),
                    ] {
                        let mut stats = TileStats::default();
                        assert_eq!(
                            ga.cp_composed(&gb, &a, &b, op, &roi, &range, &mut stats),
                            cp_composed(&a, &b, op, &roi, &range).unwrap(),
                            "{op} tile {tile} roi {roi} range {range}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn composed_kernel_prunes_agreeing_smooth_masks() {
        use crate::compose::MaskOp;
        // Two near-identical smooth blobs: |a − b| is tiny everywhere, so a
        // selective DIFF range must prune almost every tile from composed
        // min/max bounds alone.
        let a = blob(256, 256);
        let b = Mask::from_fn(256, 256, |x, y| (a.get(x, y) * 0.99).min(0.999));
        let ta = TiledMask::from_mask(a.clone());
        let tb = TiledMask::from_mask(b.clone());
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let mut stats = TileStats::default();
        let count = ta
            .cp_composed_with_stats(&tb, MaskOp::Diff, &a.full_roi(), &range, &mut stats)
            .unwrap();
        assert_eq!(
            count,
            crate::compose::cp_composed(&a, &b, MaskOp::Diff, &a.full_roi(), &range).unwrap()
        );
        assert_eq!(count, 0);
        assert!(
            stats.tiles_pruned > stats.tiles_scanned,
            "expected mostly pruned tiles, got {stats:?}"
        );
    }

    #[test]
    fn composed_kernel_nan_pixels_never_counted() {
        use crate::compose::{cp_composed, MaskOp};
        let mut da = vec![0.6f32; 16 * 16];
        let mut db = vec![0.4f32; 16 * 16];
        da[5] = f32::NAN;
        db[9] = f32::NAN;
        let a = Mask::from_data_unchecked(16, 16, da).unwrap();
        let b = Mask::from_data_unchecked(16, 16, db).unwrap();
        let ta = TiledMask::from_mask(a.clone());
        let tb = TiledMask::from_mask(b.clone());
        for op in [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff] {
            for range in [PixelRange::full(), PixelRange::new(0.25, 0.75).unwrap()] {
                let mut stats = TileStats::default();
                assert_eq!(
                    ta.cp_composed_with_stats(&tb, op, &a.full_roi(), &range, &mut stats)
                        .unwrap(),
                    cp_composed(&a, &b, op, &a.full_roi(), &range).unwrap(),
                    "{op} {range}"
                );
            }
        }
    }

    #[test]
    fn composed_kernel_rejects_shape_mismatch_and_survives_tile_mismatch() {
        use crate::compose::MaskOp;
        let a = TiledMask::from_mask(gradient(32, 32));
        let b = TiledMask::from_mask(gradient(16, 16));
        let mut stats = TileStats::default();
        assert!(a
            .cp_composed_with_stats(
                &b,
                MaskOp::Union,
                &Roi::new(0, 0, 32, 32).unwrap(),
                &PixelRange::full(),
                &mut stats
            )
            .is_err());
        // Mismatched tile layouts fall back to the reference scan.
        let c_mask = Arc::new(gradient(32, 32));
        let seeded = Arc::new(TileGrid::build_with(&c_mask, 8));
        let c = TiledMask::with_grid(Arc::clone(&c_mask), seeded);
        let count = a
            .cp_composed_with_stats(
                &c,
                MaskOp::Union,
                &c_mask.full_roi(),
                &PixelRange::full(),
                &mut stats,
            )
            .unwrap();
        assert_eq!(count, 32 * 32);
    }
}
