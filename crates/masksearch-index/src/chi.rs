//! The Cumulative Histogram Index for one mask.
//!
//! For a cell grid of `(cell_width, cell_height)` pixels and `bins` equi-width
//! pixel-value buckets, the index stores (paper Eq. 1)
//!
//! ```text
//! H(cx, cy, bin) = CP(mask,
//!                     ((0, 0), (min(cx·cell_width, w), min(cy·cell_height, h))),
//!                     (bin·Δ, 1))
//! ```
//!
//! i.e. for every *prefix rectangle* that ends on a cell boundary, the number
//! of pixels whose value is at least `bin·Δ` (reverse-cumulative over bins).
//! Counts for any *available region* — a rectangle whose corners lie on cell
//! boundaries — follow by inclusion–exclusion (Eq. 2), and bounds on `CP`
//! over arbitrary ROIs follow from the covering/covered available regions
//! (see [`crate::bounds`]).
//!
//! No count exceeds its mask's pixel count, so the mask's shape sets how
//! wide the counts are stored: 16 bits for a mask of at most 65,535 pixels
//! (a 224×224 ImageNet mask has 50,176), 32 bits otherwise — [`Cells`]. The
//! paper's space formula charges 4 bytes a count; most masks need 2.
//!
//! An index is the same few numbers — configuration, mask shape, grid shape —
//! beside its cumulative cells wherever the cells live: [`Chi`] owns them,
//! [`ChiView`] borrows them from whoever does (the [`crate::ChiStore`] keeps
//! every mask's cells in one slab per width and hands out views). Both are
//! [`ChiOver`] some cell storage, so every read method is written once, and
//! every read of the counts is written once over either width: a method
//! dispatches on the width once and runs code generic over the count type.
//!
//! Building one is the plain per-cell histograms followed by the cumulative
//! sweeps. The histograms come from the one pass over a mask's pixels in
//! `masksearch-core` ([`pixel_pass`]) — this module has no pixel loop.

use crate::bounds::{self, CpBounds};
use masksearch_core::{pixel_pass, CellGeometry, Mask, PixelRange, Roi};
use std::ops::Deref;

/// Whether the index of a `width × height` mask keeps 16-bit counts: no
/// count can exceed the pixel count.
pub(crate) fn narrow(width: u32, height: u32) -> bool {
    u64::from(width) * u64::from(height) <= u64::from(u16::MAX)
}

/// Bytes of one stored count of the index of a `width × height` mask: 2 for
/// a mask of at most 65,535 pixels, 4 otherwise.
pub fn count_bytes(width: u32, height: u32) -> u64 {
    if narrow(width, height) {
        2
    } else {
        4
    }
}

/// A stored count: `u16` or `u32`.
pub(crate) trait Count: Copy + Default + Into<u64> {
    /// `count` at this width.
    ///
    /// # Panics
    /// Panics if it does not fit: the shape rule ([`count_bytes`]) makes
    /// every count of a 16-bit index fit, so a wrong rule fails loudly
    /// instead of serving truncated counts.
    fn of(count: u32) -> Self;
}

impl Count for u16 {
    fn of(count: u32) -> Self {
        u16::try_from(count).expect("a count of a mask under 65,536 pixels fits 16 bits")
    }
}

impl Count for u32 {
    fn of(count: u32) -> Self {
        count
    }
}

/// Runs `$body` with `$counts` bound to the counts of `$cells` (a [`Cells`])
/// at their own width: the one dispatch on width of a read, in front of code
/// written once for both count types.
macro_rules! with_counts {
    ($cells:expr, $counts:ident => $body:expr) => {
        match $cells {
            $crate::chi::Cells::Narrow($counts) => $body,
            $crate::chi::Cells::Wide($counts) => $body,
        }
    };
}
pub(crate) use with_counts;

/// Configuration of a CHI: spatial cell size and number of value bins.
///
/// The paper's defaults are `bins = 16` with `cell = 64×64` for WILDS
/// (448×448 masks) and `cell = 28×28` for ImageNet (224×224 masks), chosen so
/// the index is ≈5 % of the compressed dataset size (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChiConfig {
    cell_width: u32,
    cell_height: u32,
    bins: u32,
}

impl ChiConfig {
    /// Creates a configuration; every parameter must be non-zero.
    pub fn new(cell_width: u32, cell_height: u32, bins: u32) -> Option<Self> {
        if cell_width == 0 || cell_height == 0 || bins == 0 {
            return None;
        }
        Some(Self {
            cell_width,
            cell_height,
            bins,
        })
    }

    /// The paper's WILDS configuration: 64×64 cells, 16 bins.
    pub fn paper_wilds() -> Self {
        Self {
            cell_width: 64,
            cell_height: 64,
            bins: 16,
        }
    }

    /// The paper's ImageNet configuration: 28×28 cells, 16 bins.
    pub fn paper_imagenet() -> Self {
        Self {
            cell_width: 28,
            cell_height: 28,
            bins: 16,
        }
    }

    /// Cell width in pixels.
    pub fn cell_width(&self) -> u32 {
        self.cell_width
    }

    /// Cell height in pixels.
    pub fn cell_height(&self) -> u32 {
        self.cell_height
    }

    /// Number of equi-width pixel-value bins.
    pub fn bins(&self) -> u32 {
        self.bins
    }

    /// Width of one value bin (`Δ` in the paper).
    pub fn delta(&self) -> f64 {
        1.0 / self.bins as f64
    }

    /// Number of grid columns for a mask of width `w` (ragged final column
    /// included).
    pub fn cells_x(&self, width: u32) -> u32 {
        width.div_ceil(self.cell_width)
    }

    /// Number of grid rows for a mask of height `h`.
    pub fn cells_y(&self, height: u32) -> u32 {
        height.div_ceil(self.cell_height)
    }

    /// Number of counts in the index of a mask of the given shape
    /// (`bins · cells_x · cells_y`).
    pub fn count_len(&self, width: u32, height: u32) -> u64 {
        self.bins as u64 * self.cells_x(width) as u64 * self.cells_y(height) as u64
    }

    /// Index size in bytes for one mask of the given shape:
    /// `count_bytes · bins · cells_x · cells_y`, the paper's space formula
    /// (which charges 4 bytes a count) with the count width the shape sets
    /// ([`count_bytes`]).
    pub fn index_bytes(&self, width: u32, height: u32) -> u64 {
        count_bytes(width, height) * self.count_len(width, height)
    }

    /// Maps a pixel value in `[0, 1)` to its bin index.
    #[inline]
    pub fn bin_of(&self, value: f32) -> u32 {
        self.geometry().bin_of(value)
    }

    /// The cell grid and bins of the per-cell histograms the index sweeps.
    pub fn geometry(&self) -> CellGeometry {
        CellGeometry {
            cell_width: self.cell_width,
            cell_height: self.cell_height,
            bins: self.bins,
        }
    }
}

impl Default for ChiConfig {
    fn default() -> Self {
        // A generic default suitable for moderately sized masks.
        Self {
            cell_width: 32,
            cell_height: 32,
            bins: 16,
        }
    }
}

/// An index's cumulative counts at the width its mask's shape sets
/// ([`count_bytes`]), owned (`Vec`s) or borrowed (slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cells<N, W> {
    /// 16-bit counts: the mask has at most 65,535 pixels.
    Narrow(N),
    /// 32-bit counts: the mask has more.
    Wide(W),
}

/// Counts borrowed at either width.
pub type CellsRef<'a> = Cells<&'a [u16], &'a [u32]>;

impl Cells<Vec<u16>, Vec<u32>> {
    /// `counts` of a `width × height` mask's index, narrowed if its shape
    /// allows.
    fn of_shape(width: u32, height: u32, counts: Vec<u32>) -> Self {
        if narrow(width, height) {
            Cells::Narrow(counts.into_iter().map(u16::of).collect())
        } else {
            Cells::Wide(counts)
        }
    }
}

/// Storage of an index's cells: owned or borrowed, at either width.
pub trait CellStorage {
    /// The cells, borrowed.
    fn cells(&self) -> CellsRef<'_>;
}

impl<N: Deref<Target = [u16]>, W: Deref<Target = [u32]>> CellStorage for Cells<N, W> {
    #[inline]
    fn cells(&self) -> CellsRef<'_> {
        match self {
            Cells::Narrow(counts) => Cells::Narrow(counts),
            Cells::Wide(counts) => Cells::Wide(counts),
        }
    }
}

impl CellsRef<'_> {
    /// Number of counts.
    pub(crate) fn len(&self) -> usize {
        with_counts!(self, counts => counts.len())
    }

    /// Every count widened to 32 bits, in storage order: what
    /// [`Chi::from_parts`] takes.
    pub fn to_wide(&self) -> Vec<u32> {
        match self {
            Cells::Narrow(counts) => counts.iter().map(|&c| u32::from(c)).collect(),
            Cells::Wide(counts) => counts.to_vec(),
        }
    }
}

/// The Cumulative Histogram Index of a single mask, over cell storage `D`.
///
/// The cells are a flat array of counts indexed by `(cy, cx, bin)`, 16 or 32
/// bits wide as the mask's shape sets ([`Cells`]); lookups are pure offset
/// arithmetic ("rather than building a B-tree index or a hash index ... an
/// optimized index structure using an array", §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChiOver<D> {
    config: ChiConfig,
    mask_width: u32,
    mask_height: u32,
    cells_x: u32,
    cells_y: u32,
    /// `data[((cy * cells_x) + cx) * bins + bin]` = count of pixels in the
    /// prefix rectangle ending at boundary `(cx+1, cy+1)` with value
    /// `>= bin · Δ`.
    data: D,
}

/// A CHI that owns its cells.
pub type Chi = ChiOver<Cells<Vec<u16>, Vec<u32>>>;

/// A CHI whose cells are borrowed: what every bound is computed from.
pub type ChiView<'a> = ChiOver<CellsRef<'a>>;

impl Chi {
    /// Builds the CHI of `mask` under `config`.
    ///
    /// Cost is `O(w · h + cells · bins)` — the one pass over the pixels
    /// ([`pixel_pass::cells`]) plus the cumulative sweeps.
    pub fn build(mask: &Mask, config: &ChiConfig) -> Self {
        Self::sweep(mask, config, pixel_pass::cells(mask, config.geometry()))
    }

    /// The index over `data`, the plain per-cell histograms of `mask`.
    ///
    /// Pixels outside the countable [0, 1) domain (NaN, ±∞, out of range —
    /// reachable only through the unchecked constructor, e.g. on hostile
    /// blobs) are in no histogram: no `PixelRange` can ever count them, and
    /// binning a NaN (which casts to bin 0) would inflate lower bounds above
    /// the exact count, breaking filter-stage soundness.
    fn sweep(mask: &Mask, config: &ChiConfig, mut data: Vec<u32>) -> Self {
        let (w, h) = mask.shape();
        let cells_x = config.cells_x(w);
        let cells_y = config.cells_y(h);
        let bins = config.bins as usize;
        debug_assert_eq!(data.len(), cells_x as usize * cells_y as usize * bins);

        // Reverse-cumulative over bins within each cell.
        for cell in data.chunks_exact_mut(bins) {
            for b in (0..bins - 1).rev() {
                cell[b] += cell[b + 1];
            }
        }

        // 2-D prefix sums over the cell grid, per bin.
        // First along x...
        for cy in 0..cells_y as usize {
            for cx in 1..cells_x as usize {
                for b in 0..bins {
                    let prev = data[(cy * cells_x as usize + cx - 1) * bins + b];
                    data[(cy * cells_x as usize + cx) * bins + b] += prev;
                }
            }
        }
        // ...then along y.
        for cy in 1..cells_y as usize {
            for cx in 0..cells_x as usize {
                for b in 0..bins {
                    let prev = data[((cy - 1) * cells_x as usize + cx) * bins + b];
                    data[(cy * cells_x as usize + cx) * bins + b] += prev;
                }
            }
        }

        Self {
            config: *config,
            mask_width: w,
            mask_height: h,
            cells_x,
            cells_y,
            data: Cells::of_shape(w, h, data),
        }
    }

    /// Assembles a CHI from its raw parts, 32-bit counts narrowed if the
    /// mask's shape allows (used by the persistence layer).
    ///
    /// Returns `None` if the data length is inconsistent with the shape.
    ///
    /// # Panics
    /// Panics if the shape allows 16-bit counts and a count exceeds 65,535
    /// (it cannot exceed the pixel count).
    pub fn from_parts(
        config: ChiConfig,
        mask_width: u32,
        mask_height: u32,
        data: Vec<u32>,
    ) -> Option<Self> {
        let grid = (config.cells_x(mask_width), config.cells_y(mask_height));
        (data.len() as u64 == config.count_len(mask_width, mask_height)).then(|| {
            let data = Cells::of_shape(mask_width, mask_height, data);
            Self::from_grid(config, (mask_width, mask_height), grid, data)
        })
    }
}

impl<D: CellStorage> ChiOver<D> {
    /// Assembles a CHI whose grid shape the caller already knows (the
    /// store's slots keep it beside the mask's).
    pub(crate) fn from_grid(
        config: ChiConfig,
        (mask_width, mask_height): (u32, u32),
        (cells_x, cells_y): (u32, u32),
        data: D,
    ) -> Self {
        debug_assert_eq!(
            (cells_x, cells_y),
            (config.cells_x(mask_width), config.cells_y(mask_height))
        );
        debug_assert_eq!(
            matches!(data.cells(), Cells::Narrow(_)),
            narrow(mask_width, mask_height)
        );
        debug_assert_eq!(
            data.cells().len() as u64,
            config.count_len(mask_width, mask_height)
        );
        Self {
            config,
            mask_width,
            mask_height,
            cells_x,
            cells_y,
            data,
        }
    }

    /// The same index over other storage holding the same cells.
    fn over<E>(&self, data: E) -> ChiOver<E> {
        ChiOver {
            config: self.config,
            mask_width: self.mask_width,
            mask_height: self.mask_height,
            cells_x: self.cells_x,
            cells_y: self.cells_y,
            data,
        }
    }

    /// The same index over borrowed cells.
    #[inline]
    pub fn view(&self) -> ChiView<'_> {
        self.over(self.data.cells())
    }

    /// The same index over cells of its own.
    pub fn to_chi(&self) -> Chi {
        self.over(match self.data.cells() {
            Cells::Narrow(counts) => Cells::Narrow(counts.to_vec()),
            Cells::Wide(counts) => Cells::Wide(counts.to_vec()),
        })
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &ChiConfig {
        &self.config
    }

    /// Width of the indexed mask.
    pub fn mask_width(&self) -> u32 {
        self.mask_width
    }

    /// Height of the indexed mask.
    pub fn mask_height(&self) -> u32 {
        self.mask_height
    }

    /// Number of grid columns (including the ragged final column).
    pub fn cells_x(&self) -> u32 {
        self.cells_x
    }

    /// Number of grid rows.
    pub fn cells_y(&self) -> u32 {
        self.cells_y
    }

    /// The cumulative counts at their stored width (used by the persistence
    /// layer).
    #[inline]
    pub fn cells(&self) -> CellsRef<'_> {
        self.data.cells()
    }

    /// In-memory size of the index payload in bytes.
    pub fn byte_size(&self) -> u64 {
        with_counts!(self.cells(), counts => std::mem::size_of_val(counts) as u64)
    }

    /// Pixel x-coordinate of grid boundary `i` (`0 ..= cells_x`), clamped to
    /// the mask width for the ragged final column.
    #[inline]
    pub fn x_boundary(&self, i: u32) -> u32 {
        (i * self.config.cell_width).min(self.mask_width)
    }

    /// Pixel y-coordinate of grid boundary `i` (`0 ..= cells_y`).
    #[inline]
    pub fn y_boundary(&self, i: u32) -> u32 {
        (i * self.config.cell_height).min(self.mask_height)
    }

    /// Reverse-cumulative histogram of the prefix rectangle ending at grid
    /// boundary `(bx, by)` (in boundary indices, `0 ..= cells`): element `b`
    /// is the count of pixels with value `>= b · Δ` inside
    /// `[0, x_boundary(bx)) × [0, y_boundary(by))`.
    ///
    /// Boundary index 0 denotes the empty prefix (all zeros).
    pub fn prefix_hist(&self, bx: u32, by: u32) -> Vec<u64> {
        let bins = self.config.bins as usize;
        if bx == 0 || by == 0 {
            return vec![0; bins];
        }
        let cx = (bx - 1).min(self.cells_x - 1) as usize;
        let cy = (by - 1).min(self.cells_y - 1) as usize;
        let start = (cy * self.cells_x as usize + cx) * bins;
        with_counts!(self.cells(), counts => counts[start..start + bins]
            .iter()
            .map(|&v| v.into())
            .collect())
    }

    /// Reverse-cumulative histogram of an *available region* given by grid
    /// boundary indices `[bx0, bx1) × [by0, by1)` (paper Eq. 2):
    ///
    /// ```text
    /// C(region) = H(bx1, by1) − H(bx0, by1) − H(bx1, by0) + H(bx0, by0)
    /// ```
    pub fn region_hist(&self, bx0: u32, by0: u32, bx1: u32, by1: u32) -> Vec<u64> {
        debug_assert!(bx0 <= bx1 && by0 <= by1);
        let bins = self.config.bins as usize;
        let a = self.prefix_hist(bx1, by1);
        let b = self.prefix_hist(bx0, by1);
        let c = self.prefix_hist(bx1, by0);
        let d = self.prefix_hist(bx0, by0);
        let mut out = vec![0u64; bins];
        for i in 0..bins {
            // Inclusion–exclusion never goes negative for prefix sums of
            // non-negative data; use checked arithmetic in debug builds.
            out[i] = a[i] + d[i] - b[i] - c[i];
        }
        out
    }

    /// Grid-boundary rectangle (in boundary indices) of the smallest
    /// available region that *covers* the pixel rectangle `roi`
    /// (clipped to the mask). Returns `None` if the clipped ROI is empty.
    pub fn covering_region(&self, roi: &Roi) -> Option<(u32, u32, u32, u32)> {
        let clipped = roi.clamp_to(self.mask_width, self.mask_height)?;
        let bx0 = clipped.x0() / self.config.cell_width;
        let by0 = clipped.y0() / self.config.cell_height;
        let bx1 = clipped
            .x1()
            .div_ceil(self.config.cell_width)
            .min(self.cells_x);
        let by1 = clipped
            .y1()
            .div_ceil(self.config.cell_height)
            .min(self.cells_y);
        Some((bx0, by0, bx1, by1))
    }

    /// Grid-boundary rectangle of the largest available region *covered by*
    /// the pixel rectangle `roi` (clipped to the mask). Returns `None` if no
    /// complete cell fits inside the ROI.
    pub fn covered_region(&self, roi: &Roi) -> Option<(u32, u32, u32, u32)> {
        let clipped = roi.clamp_to(self.mask_width, self.mask_height)?;
        let bx0 = clipped.x0().div_ceil(self.config.cell_width);
        let by0 = clipped.y0().div_ceil(self.config.cell_height);
        let bx1 = clipped.x1() / self.config.cell_width;
        let by1 = clipped.y1() / self.config.cell_height;
        // The ragged final boundary equals the mask edge: if the ROI reaches
        // the mask edge it covers the (partial) final cell as well.
        let bx1 = if clipped.x1() == self.mask_width {
            self.cells_x
        } else {
            bx1
        };
        let by1 = if clipped.y1() == self.mask_height {
            self.cells_y
        } else {
            by1
        };
        if bx0 < bx1 && by0 < by1 {
            Some((bx0, by0, bx1, by1))
        } else {
            None
        }
    }

    /// Pixel area of a grid-boundary rectangle.
    pub fn region_area(&self, region: (u32, u32, u32, u32)) -> u64 {
        let (bx0, by0, bx1, by1) = region;
        let w = self.x_boundary(bx1).saturating_sub(self.x_boundary(bx0)) as u64;
        let h = self.y_boundary(by1).saturating_sub(self.y_boundary(by0)) as u64;
        w * h
    }

    /// Upper and lower bounds on `CP(mask, roi, range)` computed purely from
    /// the index (see [`crate::bounds`] for the construction).
    pub fn cp_bounds(&self, roi: &Roi, range: &PixelRange) -> CpBounds {
        bounds::cp_bounds(self, roi, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_mask(w: u32, h: u32) -> Mask {
        Mask::from_fn(w, h, |x, y| ((x + y) as f32) / ((w + h) as f32))
    }

    #[test]
    fn config_validation_and_geometry() {
        assert!(ChiConfig::new(0, 4, 16).is_none());
        assert!(ChiConfig::new(4, 0, 16).is_none());
        assert!(ChiConfig::new(4, 4, 0).is_none());
        let c = ChiConfig::new(28, 28, 16).unwrap();
        assert_eq!(c.cells_x(224), 8);
        assert_eq!(c.cells_y(224), 8);
        // Ragged: 30 pixels with 28-wide cells -> 2 columns.
        assert_eq!(c.cells_x(30), 2);
        // 224x224 = 50,176 pixels: 16-bit counts.
        assert_eq!(c.index_bytes(224, 224), 2 * 16 * 64);
        assert_eq!(c.count_len(224, 224), 16 * 64);
        // 65,535 pixels keep 16-bit counts; one more needs 32 bits.
        assert_eq!(count_bytes(255, 257), 2);
        assert_eq!(count_bytes(256, 256), 4);
        assert_eq!(count_bytes(1, 65_535), 2);
        assert_eq!(count_bytes(448, 448), 4);
        assert!((c.delta() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn bin_mapping_is_clamped() {
        let c = ChiConfig::new(4, 4, 16).unwrap();
        assert_eq!(c.bin_of(0.0), 0);
        assert_eq!(c.bin_of(0.0624), 0);
        assert_eq!(c.bin_of(0.0625), 1);
        assert_eq!(c.bin_of(0.999_999), 15);
    }

    #[test]
    fn paper_index_sizes_are_about_five_percent() {
        // ImageNet: 224x224 masks, 28x28 cells, 16 bins, 16-bit counts ->
        // 2 KiB per mask vs. 224*224*4 = 196 KiB raw (about 1%; the paper's
        // 4-byte counts make it 4 KiB, ~5% of the compressed size).
        let c = ChiConfig::paper_imagenet();
        let index = c.index_bytes(224, 224) as f64;
        let raw = (224 * 224 * 4) as f64;
        assert!(index / raw < 0.015);
        // WILDS: 448x448 masks, 64x64 cells, 16 bins.
        let c = ChiConfig::paper_wilds();
        let index = c.index_bytes(448, 448) as f64;
        let raw = (448 * 448 * 4) as f64;
        assert!(index / raw < 0.01);
    }

    #[test]
    fn prefix_hist_matches_brute_force() {
        let mask = gradient_mask(20, 12);
        let config = ChiConfig::new(6, 5, 8).unwrap();
        let chi = Chi::build(&mask, &config);
        for by in 0..=chi.cells_y() {
            for bx in 0..=chi.cells_x() {
                let hist = chi.prefix_hist(bx, by);
                let x1 = chi.x_boundary(bx);
                let y1 = chi.y_boundary(by);
                for (b, &count) in hist.iter().enumerate() {
                    let lo = (b as f32) * (config.delta() as f32);
                    let expected = if x1 == 0 || y1 == 0 {
                        0
                    } else {
                        let roi = Roi::new(0, 0, x1, y1).unwrap();
                        // Count pixels with value >= lo (i.e. in [lo, 1)).
                        mask.count_pixels(&roi, &PixelRange::new(lo.min(0.999_999), 1.0).unwrap())
                    };
                    assert_eq!(count, expected, "bx={bx} by={by} bin={b}");
                }
            }
        }
    }

    #[test]
    fn region_hist_is_additive() {
        // Eq. 2: region counts computed via inclusion-exclusion must match a
        // direct scan of the region, for every bin, on an awkwardly-sized
        // mask (ragged cells).
        let mask = gradient_mask(23, 17);
        let config = ChiConfig::new(7, 5, 4).unwrap();
        let chi = Chi::build(&mask, &config);
        for by0 in 0..chi.cells_y() {
            for bx0 in 0..chi.cells_x() {
                for by1 in (by0 + 1)..=chi.cells_y() {
                    for bx1 in (bx0 + 1)..=chi.cells_x() {
                        let hist = chi.region_hist(bx0, by0, bx1, by1);
                        let roi = Roi::new(
                            chi.x_boundary(bx0),
                            chi.y_boundary(by0),
                            chi.x_boundary(bx1),
                            chi.y_boundary(by1),
                        )
                        .unwrap();
                        for (b, &count) in hist.iter().enumerate() {
                            let lo = (b as f64 * config.delta()) as f32;
                            let expected = mask.count_pixels(
                                &roi,
                                &PixelRange::new(lo.min(0.999_999), 1.0).unwrap(),
                            );
                            assert_eq!(
                                count, expected,
                                "region ({bx0},{by0})-({bx1},{by1}) bin {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn covering_and_covered_regions() {
        let mask = gradient_mask(16, 16);
        let config = ChiConfig::new(4, 4, 4).unwrap();
        let chi = Chi::build(&mask, &config);

        // ROI aligned exactly on cell boundaries: covering == covered.
        let aligned = Roi::new(4, 8, 12, 16).unwrap();
        assert_eq!(chi.covering_region(&aligned), Some((1, 2, 3, 4)));
        assert_eq!(chi.covered_region(&aligned), Some((1, 2, 3, 4)));

        // Unaligned ROI.
        let roi = Roi::new(3, 5, 10, 14).unwrap();
        assert_eq!(chi.covering_region(&roi), Some((0, 1, 3, 4)));
        assert_eq!(chi.covered_region(&roi), Some((1, 2, 2, 3)));

        // ROI smaller than a cell: covered region is empty.
        let tiny = Roi::new(5, 5, 7, 7).unwrap();
        assert_eq!(chi.covered_region(&tiny), None);
        assert_eq!(chi.covering_region(&tiny), Some((1, 1, 2, 2)));

        // ROI outside the mask.
        let outside = Roi::new(100, 100, 120, 120).unwrap();
        assert_eq!(chi.covering_region(&outside), None);
        assert_eq!(chi.covered_region(&outside), None);

        // Region area accounts for ragged boundaries.
        let ragged_mask = gradient_mask(10, 10);
        let ragged = Chi::build(&ragged_mask, &ChiConfig::new(4, 4, 4).unwrap());
        // 3 columns with boundaries at 0, 4, 8, 10.
        assert_eq!(ragged.region_area((0, 0, 3, 3)), 100);
        assert_eq!(ragged.region_area((2, 2, 3, 3)), 4);
    }

    #[test]
    fn figure_4_example() {
        // Reproduces the paper's Figure 4: a 6x6 mask, cell size 2x2, 2 bins.
        // We construct a mask where exactly the pixels of the top-left 2x2
        // block are all below 0.5 and 3 pixels overall are >= 0.5 within the
        // 4x4 prefix, matching H(M,1,1) = [4, 0] and H(M,2,2) = [16, 3].
        let mut mask = Mask::zeros(6, 6);
        // Fill with 0.1 everywhere.
        for y in 0..6 {
            for x in 0..6 {
                mask.set(x, y, 0.1);
            }
        }
        // Place 3 high pixels inside [0,4)x[0,4) but outside [0,2)x[0,2).
        mask.set(2, 1, 0.9);
        mask.set(3, 3, 0.7);
        mask.set(0, 2, 0.6);
        let chi = Chi::build(&mask, &ChiConfig::new(2, 2, 2).unwrap());
        assert_eq!(chi.prefix_hist(1, 1), vec![4, 0]);
        assert_eq!(chi.prefix_hist(2, 2), vec![16, 3]);
    }

    #[test]
    fn from_parts_validates_shape() {
        let mask = gradient_mask(8, 8);
        let config = ChiConfig::new(4, 4, 4).unwrap();
        let chi = Chi::build(&mask, &config);
        let rebuilt = Chi::from_parts(config, 8, 8, chi.cells().to_wide()).expect("valid parts");
        assert_eq!(rebuilt, chi);
        assert!(Chi::from_parts(config, 8, 8, vec![0; 3]).is_none());
    }

    #[test]
    fn counts_held_at_either_width_give_identical_bounds() {
        use crate::{composed_cp_bounds, TermBounds};
        use masksearch_core::MaskOp;
        // Narrow shapes' counts, also held at 32 bits (which the shape rule
        // never does): every read of the counts is one generic routine, so
        // every bound must be bit-identical.
        let ranges = [
            PixelRange::full(),
            PixelRange::new(0.5, 1.0).unwrap(),
            PixelRange::new(0.3, 0.71).unwrap(),
        ];
        for (w, h) in [(37, 29), (255, 257), (1, 300)] {
            let config = ChiConfig::new(9, 7, 8).unwrap();
            let chi = Chi::build(&gradient_mask(w, h), &config);
            let Cells::Narrow(_) = chi.cells() else {
                panic!("{w}x{h} keeps 16-bit counts");
            };
            let wide = chi.over(Cells::<Vec<u16>, Vec<u32>>::Wide(chi.cells().to_wide()));
            assert_eq!(wide.byte_size(), 2 * chi.byte_size());
            let (x1, y1) = (chi.cells_x(), chi.cells_y());
            assert_eq!(
                chi.region_hist(0, 1, x1, y1),
                wide.region_hist(0, 1, x1, y1)
            );
            for roi in [
                Roi::new(0, 0, w, h).unwrap(),
                Roi::new(w / 8, 2, w / 2 + 1, h - 1).unwrap(),
                Roi::new(w / 3, h / 4, w, h + 9).unwrap(),
            ] {
                for range in &ranges {
                    assert_eq!(chi.cp_bounds(&roi, range), wide.cp_bounds(&roi, range));
                    let mut term = TermBounds::new(*range);
                    assert_eq!(
                        term.cell_bounds(chi.view(), &roi),
                        term.cell_bounds(wide.view(), &roi)
                    );
                    for op in [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff] {
                        let both = composed_cp_bounds(&chi, &chi, op, &roi, range);
                        assert_eq!(both, composed_cp_bounds(&wide, &wide, op, &roi, range));
                        assert_eq!(both, composed_cp_bounds(&chi, &wide, op, &roi, range));
                    }
                }
            }
        }
    }

    #[test]
    fn byte_size_matches_config_formula() {
        let mask = gradient_mask(224, 224);
        let config = ChiConfig::paper_imagenet();
        let chi = Chi::build(&mask, &config);
        assert_eq!(chi.byte_size(), config.index_bytes(224, 224));
    }
}
