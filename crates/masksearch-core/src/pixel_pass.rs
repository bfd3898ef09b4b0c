//! The one pass over a mask's pixels that builds its per-mask index.
//!
//! The CHI (`masksearch-index`) is the cumulative sweep of a mask's plain
//! per-cell value histograms; this module counts those histograms in one
//! row-major loop. Each row is cut into runs over which the cell does not
//! change, and every pixel of a run is binned once. Even and odd pixels of
//! a run count into separate copies of the histograms, summed when the mask
//! is done, so the increments of neighbouring pixels (which mostly share a
//! bin) do not wait on each other.
//!
//! * **Bins.** A pixel's bin is [`CellGeometry::bin_of`], the CHI's own rule.
//! * **Uncountable pixels.** Values outside `[0, 1)` (NaN, ±∞, negatives,
//!   ≥ 1 — reachable only through [`Mask::from_data_unchecked`]) enter no
//!   histogram: no [`crate::PixelRange`] can count them.
//!
//! `tests/index_build_oracle.rs` holds the pass to a plain per-pixel
//! reference loop.

use crate::mask::Mask;

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

/// The plain per-cell histograms of `mask` under `cells`.
///
/// # Panics
/// Panics if a field of `cells` is zero.
pub fn cells(mask: &Mask, cells: CellGeometry) -> Vec<u32> {
    assert!(
        cells.cell_width > 0 && cells.cell_height > 0 && cells.bins > 0,
        "cell geometry must be non-zero"
    );
    let (w, h) = mask.shape();
    let bins = cells.bins as usize;
    let cell_row_words = w.div_ceil(cells.cell_width) as usize * bins;
    let mut hist = vec![0u32; cell_row_words * h.div_ceil(cells.cell_height) as usize];
    // Neighbouring pixels of a smooth mask mostly share a bin, and an
    // increment waits for the previous one to the same counter: the even and
    // odd pixels of a run count into copies of their own (summed at the end),
    // so two such chains overlap.
    let mut hist_odd = hist.clone();
    // The runs of a row: `(x0, x1, offset of the cell's histogram in its row)`.
    let runs: Vec<(usize, usize, usize)> = (0..w.div_ceil(cells.cell_width))
        .map(|cx| {
            let x0 = cx * cells.cell_width;
            let x1 = (x0 + cells.cell_width).min(w);
            (x0 as usize, x1 as usize, cx as usize * bins)
        })
        .collect();
    for y in 0..h {
        let row = mask.row(y);
        let cell_row = (y / cells.cell_height) as usize * cell_row_words;
        for &(x0, x1, cell) in &runs {
            let at = cell_row + cell;
            let (even, odd) = (&mut hist[at..at + bins], &mut hist_odd[at..at + bins]);
            let step = |v: f32, hist: &mut [u32]| {
                if (0.0..1.0).contains(&v) {
                    hist[cells.bin_of(v) as usize] += 1;
                }
            };
            let mut pairs = row[x0..x1].chunks_exact(2);
            for pair in &mut pairs {
                step(pair[0], even);
                step(pair[1], odd);
            }
            for &v in pairs.remainder() {
                step(v, even);
            }
        }
    }
    for (even, odd) in hist.iter_mut().zip(hist_odd) {
        *even += odd;
    }
    hist
}
