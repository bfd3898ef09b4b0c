//! The retired 64-px tile grid, kept only for the benchmark package's
//! `core.cp_tiled_mpix_per_s` micro-measurement.
//!
//! No product path calls this module: verification decides by CHI cell
//! (`masksearch-index`'s cell kernel), and the CHI is the only per-mask
//! summary the system builds, stores or caches. A [`TileGrid`] cuts a mask
//! into 64×64 tiles, each with its min/max, its count of pixels outside
//! `[0, 1)` and a 16-bin cumulative histogram; [`TiledMask::cp`] decides a
//! tile from those (all-out, all-in, or from the histogram when the ROI
//! covers it and the range ends on bin edges) and scans the rest. Counts
//! equal the reference scan [`crate::cp::cp`].

use crate::mask::Mask;
use crate::range::PixelRange;
use crate::roi::Roi;
use std::sync::Arc;

/// Tile edge length in pixels.
const TILE: u32 = 64;

/// Value bins per tile histogram: a power of two, so `value · TILE_BINS`
/// is exact in `f32`.
const TILE_BINS: usize = 16;

/// Summaries of one tile.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    min: f32,
    max: f32,
    /// Pixels outside `[0, 1)`: no range counts them.
    uncountable: u32,
    /// `cum[i]`: countable pixels with value `< i / TILE_BINS`.
    cum: [u32; TILE_BINS + 1],
}

/// If `bound` lies exactly on a bin edge `i / TILE_BINS`, returns `i`.
fn bin_edge_index(bound: f32) -> Option<usize> {
    let scaled = bound * TILE_BINS as f32;
    (scaled >= 0.0 && scaled <= TILE_BINS as f32 && scaled == scaled.floor())
        .then_some(scaled as usize)
}

/// The per-tile summaries of one mask, row-major over tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TileGrid {
    mask_width: u32,
    mask_height: u32,
    tile: u32,
    tiles_x: u32,
    summaries: Vec<Summary>,
}

impl TileGrid {
    /// Builds the grid of `mask` with 64×64 tiles.
    pub fn build(mask: &Mask) -> Self {
        Self::build_with(mask, TILE)
    }

    fn build_with(mask: &Mask, tile: u32) -> Self {
        let (w, h) = mask.shape();
        let tiles_x = w.div_ceil(tile);
        let mut summaries = Vec::with_capacity((tiles_x * h.div_ceil(tile)) as usize);
        for ty in 0..h.div_ceil(tile) {
            for tx in 0..tiles_x {
                let mut s = Summary {
                    min: f32::INFINITY,
                    max: f32::NEG_INFINITY,
                    uncountable: 0,
                    cum: [0; TILE_BINS + 1],
                };
                let mut hist = [0u32; TILE_BINS];
                for y in ty * tile..((ty + 1) * tile).min(h) {
                    let row = &mask.row(y)[(tx * tile) as usize..((tx + 1) * tile).min(w) as usize];
                    for &v in row {
                        if v < s.min {
                            s.min = v;
                        }
                        if v > s.max {
                            s.max = v;
                        }
                        if (0.0..1.0).contains(&v) {
                            hist[((v * TILE_BINS as f32) as usize).min(TILE_BINS - 1)] += 1;
                        } else {
                            s.uncountable += 1;
                        }
                    }
                }
                for (i, count) in hist.into_iter().enumerate() {
                    s.cum[i + 1] = s.cum[i] + count;
                }
                summaries.push(s);
            }
        }
        Self {
            mask_width: w,
            mask_height: h,
            tile,
            tiles_x,
            summaries,
        }
    }

    fn matches_shape(&self, mask: &Mask) -> bool {
        (self.mask_width, self.mask_height) == mask.shape()
    }

    /// Exact `CP` over `mask`, the mask this grid summarises.
    fn cp(&self, mask: &Mask, roi: &Roi, range: &PixelRange) -> u64 {
        self.cp_classified(mask, roi, range, &mut [0; 3])
    }

    /// [`TileGrid::cp`], counting the tiles decided from min/max, from the
    /// histogram and by a scan into `classes`.
    fn cp_classified(
        &self,
        mask: &Mask,
        roi: &Roi,
        range: &PixelRange,
        classes: &mut [u64; 3],
    ) -> u64 {
        let Some(clip) = mask.clip_roi(roi) else {
            return 0;
        };
        let (lo, hi) = (range.lo(), range.hi());
        let aligned = bin_edge_index(lo).zip(bin_edge_index(hi));
        let mut count = 0u64;
        for ty in clip.y0() / self.tile..=(clip.y1() - 1) / self.tile {
            for tx in clip.x0() / self.tile..=(clip.x1() - 1) / self.tile {
                let s = &self.summaries[(ty * self.tiles_x + tx) as usize];
                if s.max < lo || s.min >= hi {
                    classes[0] += 1;
                    continue;
                }
                let (x0, y0) = (tx * self.tile, ty * self.tile);
                let rect = Roi::new(
                    x0,
                    y0,
                    (x0 + self.tile).min(self.mask_width),
                    (y0 + self.tile).min(self.mask_height),
                )
                .expect("tile rectangles are non-empty");
                let inter = rect.intersect(&clip).expect("the tile meets the roi");
                if s.uncountable == 0 && s.min >= lo && s.max < hi {
                    classes[0] += 1;
                    count += inter.area();
                } else if let (true, Some((a, b))) = (inter == rect, aligned) {
                    classes[1] += 1;
                    count += u64::from(s.cum[b] - s.cum[a]);
                } else {
                    classes[2] += 1;
                    count += mask.count_pixels(&inter, range);
                }
            }
        }
        count
    }
}

/// A mask with its tile grid.
#[derive(Debug)]
pub struct TiledMask {
    mask: Arc<Mask>,
    grid: Arc<TileGrid>,
}

impl TiledMask {
    /// Pairs a mask with a grid; a grid of another shape is replaced by the
    /// mask's own.
    pub fn with_grid(mask: Arc<Mask>, grid: Arc<TileGrid>) -> Self {
        let grid = match grid.matches_shape(&mask) {
            true => grid,
            false => Arc::new(TileGrid::build(&mask)),
        };
        Self { mask, grid }
    }

    /// Exact `CP` through the tile grid.
    pub fn cp(&self, roi: &Roi, range: &PixelRange) -> u64 {
        self.grid.cp(&self.mask, roi, range)
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

    #[test]
    fn kernel_matches_reference_across_tile_sizes_and_ranges() {
        for mask in [gradient(37, 23), blob(64, 64), gradient(1, 19), blob(19, 1)] {
            for tile in [1, 3, 8, 64] {
                let grid = TileGrid::build_with(&mask, tile);
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
                        assert_eq!(
                            grid.cp(&mask, &roi, &range),
                            cp(&mask, &roi, &range),
                            "tile {tile} roi {roi} range {range}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn selective_range_on_smooth_mask_prunes_most_tiles() {
        let mask = blob(256, 256);
        let grid = TileGrid::build_with(&mask, 32);
        let mut classes = [0; 3];
        let range = PixelRange::new(0.9, 1.0).unwrap();
        let count = grid.cp_classified(&mask, &mask.full_roi(), &range, &mut classes);
        assert_eq!(count, cp(&mask, &mask.full_roi(), &range));
        let [pruned, hist, scanned] = classes;
        assert!(
            pruned > scanned,
            "expected mostly pruned tiles, got {classes:?}"
        );
        assert_eq!(pruned + hist + scanned, 64);
    }

    #[test]
    fn aligned_range_uses_the_histogram() {
        // Every tile spreads over the full value domain, so min/max cannot
        // decide, but the range is bin-aligned (4/16 and 8/16): every fully
        // covered tile must answer from its histogram, none from a scan.
        let mask = Mask::from_fn(128, 128, |x, y| ((x + 2 * y) % 16) as f32 / 16.0);
        let grid = TileGrid::build_with(&mask, 32);
        let mut classes = [0; 3];
        let range = PixelRange::new(0.25, 0.5).unwrap();
        let count = grid.cp_classified(&mask, &mask.full_roi(), &range, &mut classes);
        assert_eq!(count, cp(&mask, &mask.full_roi(), &range));
        assert!(classes[1] > 0, "expected histogram hits, {classes:?}");
        assert_eq!(classes[2], 0);
    }

    #[test]
    fn summary_accessors_are_consistent() {
        let mask = gradient(48, 48);
        let grid = TileGrid::build_with(&mask, 16);
        assert_eq!(grid.summaries.len(), 9);
        let total: u64 = grid
            .summaries
            .iter()
            .map(|s| u64::from(s.cum[TILE_BINS]))
            .sum();
        assert_eq!(total, mask.num_pixels() as u64);
        for s in &grid.summaries {
            assert!(s.min <= s.max);
            assert_eq!(s.uncountable, 0);
            assert!(s.cum.windows(2).all(|pair| pair[0] <= pair[1]));
        }
    }

    #[test]
    fn all_nan_tiles_classify_all_out() {
        let mask = Mask::from_data_unchecked(8, 8, vec![f32::NAN; 64]).unwrap();
        let grid = TileGrid::build_with(&mask, 4);
        let mut classes = [0; 3];
        let count = grid.cp_classified(&mask, &mask.full_roi(), &PixelRange::full(), &mut classes);
        assert_eq!(count, 0);
        assert_eq!(classes, [4, 0, 0]);
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
        let mask = Arc::new(gradient(16, 16));
        let tiled = TiledMask::with_grid(Arc::clone(&mask), Arc::new(TileGrid::build(&mask)));
        let far = Roi::new(100, 100, 120, 120).unwrap();
        assert_eq!(tiled.cp(&far, &PixelRange::full()), 0);
    }

    #[test]
    fn mismatched_seeded_grid_is_discarded() {
        let mask = Arc::new(gradient(32, 32));
        let wrong = Arc::new(TileGrid::build(&gradient(16, 16)));
        let tiled = TiledMask::with_grid(Arc::clone(&mask), wrong);
        assert!(tiled.grid.matches_shape(&mask));
        let range = PixelRange::new(0.5, 1.0).unwrap();
        assert_eq!(
            tiled.cp(&mask.full_roi(), &range),
            cp(&mask, &mask.full_roi(), &range)
        );
    }

    #[test]
    fn kernel_agrees_with_scan_on_nan_and_inf_pixels() {
        // Every pixel would satisfy [0.25, 0.75) from min/max alone, with
        // NaN / ±∞ / out-of-domain pixels sprinkled in: the all-in and
        // histogram paths must not count the uncountables.
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
                    PixelRange::new(0.25, 0.75).unwrap(),
                    PixelRange::new(0.0, 0.5).unwrap(),
                    PixelRange::new(0.4, 0.6).unwrap(),
                ] {
                    assert_eq!(
                        grid.cp(&mask, &roi, &range),
                        cp(&mask, &roi, &range),
                        "tile {tile} roi {roi} range {range}"
                    );
                }
            }
        }
    }
}
