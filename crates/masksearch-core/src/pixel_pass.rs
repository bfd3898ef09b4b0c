//! The one pass over a mask's pixels that builds its per-mask indexes.
//!
//! Two indexes summarise a mask's pixels: the tile grid of the verification
//! kernel ([`TileGrid`]: per tile the min/max, the uncountable-pixel count and
//! a [`TILE_BINS`]-bin histogram) and the plain per-cell value histograms
//! whose cumulative sweeps are the CHI (`masksearch-index`). Both are counts
//! over the same pixels, so one row-major loop builds either or both: each
//! row is cut into runs over which neither the cell nor the tile changes, and
//! every pixel of a run updates its tile's bounds and is binned once. Even
//! and odd pixels of a run count into separate copies of each histogram,
//! summed when a tile row or the mask is done, so the increments of
//! neighbouring pixels (which mostly share a bin) do not wait on each other.
//! On 112² saliency masks (cells of 14², 16 bins, tiles of 64²) the pair
//! costs ≈38 µs per mask on a 2-core x86-64 host, the cells or the tiles
//! alone ≈34 and ≈32 µs.
//!
//! * **Bins.** The tile histogram bins through `f32` (`value · 16` is exact:
//!   16 is a power of two). With [`CellGeometry::bins`] equal to
//!   [`TILE_BINS`] a cell shares that bin — `value · 16` is exact in `f64`
//!   too, and both truncate to the same integer — so a pixel is binned once
//!   for both products. Any other bin count bins the cell through `f64`
//!   ([`CellGeometry::bin_of`], the CHI's own rule).
//! * **Uncountable pixels.** Values outside `[0, 1)` (NaN, ±∞, negatives,
//!   ≥ 1 — reachable only through [`Mask::from_data_unchecked`]) enter no
//!   histogram: no [`crate::PixelRange`] can count them. Tiles tally them.
//! * **Min/max.** Plain `<` / `>` updates in row-major order within a tile,
//!   so NaN never moves a bound and a tile of `−0.0` and `0.0` keeps the sign
//!   of whichever it met first.
//!
//! [`TileGrid::build_with`] and the CHI build reach pixels through this
//! module only; `tests/index_build_oracle.rs` holds every product to a
//! plain per-pixel reference loop of each index.

use crate::mask::Mask;
use crate::tiled::{TileGrid, TileSummary, TILE_BINS};

/// Geometry of a mask's plain per-cell value histograms: cells of
/// `cell_width × cell_height` pixels (the last column and row ragged when the
/// mask is not a multiple), `bins` equi-width value bins over `[0, 1)`.
///
/// The histograms are laid out `[(cy · cells_x + cx) · bins + bin]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellGeometry {
    /// Cell width in pixels (non-zero).
    pub cell_width: u32,
    /// Cell height in pixels (non-zero).
    pub cell_height: u32,
    /// Number of value bins (non-zero).
    pub bins: u32,
}

impl CellGeometry {
    /// The bin of a value in `[0, 1)`, through `f64`.
    #[inline]
    pub fn bin_of(&self, value: f32) -> u32 {
        ((value as f64 * self.bins as f64) as u32).min(self.bins - 1)
    }
}

/// The tile grid of `mask` with `tile × tile` tiles.
///
/// # Panics
/// Panics if `tile` is zero.
pub(crate) fn tiles(mask: &Mask, tile: u32) -> TileGrid {
    assert!(tile > 0, "tile size must be non-zero");
    // One cell spanning the mask: the runs are the tiles'.
    let whole = CellGeometry {
        cell_width: mask.width(),
        cell_height: mask.height(),
        bins: TILE_BINS as u32,
    };
    let (summaries, _) = scan::<true, false>(mask, tile, whole, |_, tile_bin| tile_bin);
    grid(mask, tile, summaries)
}

/// The plain per-cell histograms of `mask` under `cells`.
///
/// # Panics
/// Panics if a field of `cells` is zero.
pub fn cells(mask: &Mask, cells: CellGeometry) -> Vec<u32> {
    // One tile spanning the width: the runs are the cells'.
    scan_cells::<false>(mask, mask.width(), cells).1
}

/// The tile grid and the per-cell histograms of `mask`, in one pass.
///
/// # Panics
/// Panics if `tile` or a field of `cells` is zero.
pub fn tiles_and_cells(mask: &Mask, tile: u32, cells: CellGeometry) -> (TileGrid, Vec<u32>) {
    assert!(tile > 0, "tile size must be non-zero");
    let (summaries, hist) = scan_cells::<true>(mask, tile, cells);
    (grid(mask, tile, summaries), hist)
}

fn grid(mask: &Mask, tile: u32, summaries: Vec<TileSummary>) -> TileGrid {
    TileGrid::from_parts(mask.width(), mask.height(), tile, summaries)
        .expect("one summary per tile")
}

/// [`scan`] with the cell histograms: with [`TILE_BINS`] bins a pixel's
/// cell bin is its tile bin, with any other count it is
/// [`CellGeometry::bin_of`].
fn scan_cells<const TILES: bool>(
    mask: &Mask,
    tile: u32,
    cells: CellGeometry,
) -> (Vec<TileSummary>, Vec<u32>) {
    assert!(
        cells.cell_width > 0 && cells.cell_height > 0 && cells.bins > 0,
        "cell geometry must be non-zero"
    );
    if cells.bins as usize == TILE_BINS {
        scan::<TILES, true>(mask, tile, cells, |_, tile_bin| tile_bin)
    } else {
        scan::<TILES, true>(mask, tile, cells, |v, _| cells.bin_of(v) as usize)
    }
}

/// A tile's running summary while its rows are being read.
#[derive(Clone, Copy)]
struct TileAcc {
    min: f32,
    max: f32,
    uncountable: u32,
    /// Counts of the even and of the odd pixels of its runs (see `scan`).
    hist: [[u32; TILE_BINS]; 2],
}

const EMPTY_TILE: TileAcc = TileAcc {
    min: f32::INFINITY,
    max: f32::NEG_INFINITY,
    uncountable: 0,
    hist: [[0; TILE_BINS]; 2],
};

/// Pixels `x0..x1` of a row: one tile column, one cell column (whose
/// histogram starts `cell` words into the cell row).
struct Run {
    x0: usize,
    x1: usize,
    tile: usize,
    cell: usize,
}

/// Cuts a row of `width` pixels at every tile and cell boundary.
fn runs(width: u32, tile: u32, cells: CellGeometry) -> Vec<Run> {
    let (width, tile, cell) = (width as u64, tile as u64, cells.cell_width as u64);
    let mut runs = Vec::new();
    let mut x0 = 0u64;
    while x0 < width {
        let (tx, cx) = (x0 / tile, x0 / cell);
        let x1 = ((tx + 1) * tile).min((cx + 1) * cell).min(width);
        runs.push(Run {
            x0: x0 as usize,
            x1: x1 as usize,
            tile: tx as usize,
            cell: cx as usize * cells.bins as usize,
        });
        x0 = x1;
    }
    runs
}

/// The pass: tile summaries (row-major over tiles) when `TILES`, per-cell
/// histograms when `CELLS`, a pixel's cell bin being `cell_bin(value,
/// tile_bin)`. The product not asked for is empty and its work compiles
/// away.
fn scan<const TILES: bool, const CELLS: bool>(
    mask: &Mask,
    tile: u32,
    cells: CellGeometry,
    cell_bin: impl Fn(f32, usize) -> usize,
) -> (Vec<TileSummary>, Vec<u32>) {
    let (w, h) = mask.shape();
    let bins = cells.bins as usize;
    let cell_row_words = w.div_ceil(cells.cell_width) as usize * bins;
    let mut hist = vec![
        0u32;
        if CELLS {
            cell_row_words * h.div_ceil(cells.cell_height) as usize
        } else {
            0
        }
    ];
    // Neighbouring pixels of a smooth mask mostly share a bin, and an
    // increment waits for the previous one to the same counter: the even and
    // odd pixels of a run count into copies of their own (summed at the end),
    // so two such chains overlap.
    let mut hist_odd = hist.clone();
    let tiles_x = w.div_ceil(tile) as usize;
    let mut summaries = Vec::with_capacity(if TILES {
        tiles_x * h.div_ceil(tile) as usize
    } else {
        0
    });
    let mut accs = vec![EMPTY_TILE; if TILES { tiles_x } else { 0 }];
    let mut no_tile = EMPTY_TILE;
    let runs = runs(w, tile, cells);
    for y in 0..h {
        let row = mask.row(y);
        let cell_row = (y / cells.cell_height) as usize * cell_row_words;
        for run in &runs {
            let acc = if TILES {
                &mut accs[run.tile]
            } else {
                &mut no_tile
            };
            let (cell_even, cell_odd): (&mut [u32], &mut [u32]) = if CELLS {
                let at = cell_row + run.cell;
                (&mut hist[at..at + bins], &mut hist_odd[at..at + bins])
            } else {
                (&mut [], &mut [])
            };
            let (mut min, mut max, mut uncountable) = (acc.min, acc.max, acc.uncountable);
            let [tile_even, tile_odd] = &mut acc.hist;
            // One pixel, in row-major order within its tile.
            let mut step = |v: f32, tile_hist: &mut [u32; TILE_BINS], cell: &mut [u32]| {
                if TILES {
                    if v < min {
                        min = v;
                    }
                    if v > max {
                        max = v;
                    }
                }
                if (0.0..1.0).contains(&v) {
                    // Exact: only the exponent changes.
                    let tile_bin = ((v * TILE_BINS as f32) as usize).min(TILE_BINS - 1);
                    if TILES {
                        tile_hist[tile_bin] += 1;
                    }
                    if CELLS {
                        cell[cell_bin(v, tile_bin)] += 1;
                    }
                } else if TILES {
                    uncountable += 1;
                }
            };
            let mut pairs = row[run.x0..run.x1].chunks_exact(2);
            for pair in &mut pairs {
                step(pair[0], tile_even, cell_even);
                step(pair[1], tile_odd, cell_odd);
            }
            for &v in pairs.remainder() {
                step(v, tile_even, cell_even);
            }
            (acc.min, acc.max, acc.uncountable) = (min, max, uncountable);
        }
        if TILES && ((y + 1) % tile == 0 || y + 1 == h) {
            for acc in accs.iter_mut() {
                let mut cum = [0u32; TILE_BINS + 1];
                for i in 0..TILE_BINS {
                    cum[i + 1] = cum[i] + acc.hist[0][i] + acc.hist[1][i];
                }
                summaries.push(TileSummary::from_parts(
                    acc.min,
                    acc.max,
                    acc.uncountable,
                    cum,
                ));
                *acc = EMPTY_TILE;
            }
        }
    }
    for (even, odd) in hist.iter_mut().zip(hist_odd) {
        *even += odd;
    }
    (summaries, hist)
}
