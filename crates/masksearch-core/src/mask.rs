//! Dense 2-D masks with pixel values in `[0, 1)`.

use crate::error::{Error, Result};
use crate::range::PixelRange;
use crate::roi::Roi;

/// A dense 2-D array of pixel values in `[0, 1)`, stored in row-major order.
///
/// A mask annotates an image: a saliency map, a segmentation probability map,
/// a depth map, etc. The data model (paper §2.1) restricts values to the
/// half-open interval `[0, 1)`; constructors validate this so downstream code
/// (in particular the CHI bin arithmetic) can rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Mask {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

/// Largest representable mask value. The data model is the half-open interval
/// `[0, 1)`; this is the value used when clamping inputs that are exactly 1.0
/// (common in saliency maps normalised to `[0, 1]`).
pub const MAX_PIXEL_VALUE: f32 = 1.0 - f32::EPSILON;

impl Mask {
    /// Creates a mask from raw row-major pixel data, validating dimensions and
    /// the `[0, 1)` value domain.
    pub fn new(width: u32, height: u32, data: Vec<f32>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(Error::EmptyMask);
        }
        let expected = (width as usize) * (height as usize);
        if data.len() != expected {
            return Err(Error::DimensionMismatch {
                width,
                height,
                data_len: data.len(),
            });
        }
        // Every stored mask passes through here on load. The pass without an
        // early exit vectorises; the search only runs to name the offender.
        // (NaN fails both comparisons of `contains`.)
        let in_domain = |value: &f32| (0.0..1.0).contains(value);
        if !data.iter().fold(true, |ok, value| ok & in_domain(value)) {
            let index = data
                .iter()
                .position(|value| !in_domain(value))
                .expect("the pass above saw a pixel outside the domain");
            return Err(Error::PixelOutOfRange {
                value: data[index],
                index,
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Creates a mask from raw data, clamping every value into `[0, 1)`.
    ///
    /// Values below zero become `0.0`, values at or above one become
    /// [`MAX_PIXEL_VALUE`], and NaNs become `0.0`. This is the lenient
    /// constructor used when ingesting masks produced by external tools that
    /// normalise to the closed interval `[0, 1]`.
    pub fn from_data_clamped(width: u32, height: u32, mut data: Vec<f32>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(Error::EmptyMask);
        }
        let expected = (width as usize) * (height as usize);
        if data.len() != expected {
            return Err(Error::DimensionMismatch {
                width,
                height,
                data_len: data.len(),
            });
        }
        for v in &mut data {
            if v.is_nan() || *v < 0.0 {
                *v = 0.0;
            } else if *v >= 1.0 {
                *v = MAX_PIXEL_VALUE;
            }
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Creates a mask from raw data **without validating the value domain**.
    ///
    /// Dimensions are still checked, but pixels may be NaN, ±∞, negative, or
    /// ≥ 1. Values outside `[0, 1)` are *never in range* for any
    /// [`PixelRange`] (NaN comparisons are false; a range's bounds satisfy
    /// `0 ≤ lo < hi ≤ 1`), so `CP` over such a mask counts only its in-domain
    /// pixels. This constructor exists for code that must tolerate
    /// hostile or corrupt pixel payloads (the codec round-trips NaN bit
    /// patterns) and for the differential tests that prove the kernel, CHI,
    /// and reference scan agree on non-finite pixels. Prefer [`Mask::new`]
    /// everywhere else.
    pub fn from_data_unchecked(width: u32, height: u32, data: Vec<f32>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(Error::EmptyMask);
        }
        let expected = (width as usize) * (height as usize);
        if data.len() != expected {
            return Err(Error::DimensionMismatch {
                width,
                height,
                data_len: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Creates an all-zero mask of the given dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero (use [`Mask::new`] for fallible
    /// construction).
    pub fn zeros(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![0.0; (width as usize) * (height as usize)],
        }
    }

    /// Creates a mask filled with a constant value.
    pub fn constant(width: u32, height: u32, value: f32) -> Result<Self> {
        Self::new(
            width,
            height,
            vec![value; (width as usize) * (height as usize)],
        )
    }

    /// Creates a mask by evaluating `f(x, y)` at every pixel, clamping results
    /// into `[0, 1)`.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> f32) -> Self {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        let mut data = Vec::with_capacity((width as usize) * (height as usize));
        for y in 0..height {
            for x in 0..width {
                let v = f(x, y);
                let v = if v.is_nan() || v < 0.0 {
                    0.0
                } else if v >= 1.0 {
                    MAX_PIXEL_VALUE
                } else {
                    v
                };
                data.push(v);
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Mask width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mask height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn shape(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    #[inline]
    pub fn num_pixels(&self) -> usize {
        self.data.len()
    }

    /// The ROI covering the entire mask.
    pub fn full_roi(&self) -> Roi {
        Roi::new(0, 0, self.width, self.height).expect("mask dimensions are non-zero")
    }

    /// Raw row-major pixel data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the mask and returns its raw pixel buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns the pixel value at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds; use [`Mask::try_get`] for a
    /// fallible variant.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y as usize) * (self.width as usize) + (x as usize)]
    }

    /// Returns the pixel value at `(x, y)`, or an error if out of bounds.
    pub fn try_get(&self, x: u32, y: u32) -> Result<f32> {
        if x >= self.width || y >= self.height {
            return Err(Error::CoordinateOutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(self.data[(y as usize) * (self.width as usize) + (x as usize)])
    }

    /// Sets the pixel value at `(x, y)`, clamping into `[0, 1)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let v = if value.is_nan() || value < 0.0 {
            0.0
        } else if value >= 1.0 {
            MAX_PIXEL_VALUE
        } else {
            value
        };
        self.data[(y as usize) * (self.width as usize) + (x as usize)] = v;
    }

    /// Copies `other`'s pixels over this mask's, keeping this mask's
    /// allocation. Returns `false` (changing nothing) if the shapes differ.
    pub fn overwrite_with(&mut self, other: &Mask) -> bool {
        let same_shape = self.shape() == other.shape();
        if same_shape {
            self.data.copy_from_slice(&other.data);
        }
        same_shape
    }

    /// Returns one row of pixels as a slice.
    #[inline]
    pub fn row(&self, y: u32) -> &[f32] {
        assert!(y < self.height, "row out of bounds");
        let w = self.width as usize;
        let start = (y as usize) * w;
        &self.data[start..start + w]
    }

    /// Iterates over `(x, y, value)` triples in row-major order.
    pub fn iter_pixels(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        let w = self.width;
        self.data.iter().enumerate().map(move |(i, &v)| {
            let x = (i as u32) % w;
            let y = (i as u32) / w;
            (x, y, v)
        })
    }

    /// Returns the minimum and maximum pixel values in the mask.
    pub fn value_bounds(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        (lo, hi)
    }

    /// Mean pixel value over the whole mask.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Intersects an ROI with the mask bounds, returning `None` if the
    /// intersection is empty.
    pub fn clip_roi(&self, roi: &Roi) -> Option<Roi> {
        roi.intersect(&self.full_roi())
    }

    /// Counts the pixels inside `roi` (clipped to the mask) whose values lie
    /// in `range`. This is the exact `CP` function of the paper; see
    /// [`crate::cp::cp`] for the free-function form used throughout the
    /// codebase.
    pub fn count_pixels(&self, roi: &Roi, range: &PixelRange) -> u64 {
        let Some(clipped) = self.clip_roi(roi) else {
            return 0;
        };
        let mut count = 0u64;
        let w = self.width as usize;
        for y in clipped.y0()..clipped.y1() {
            let row_start = (y as usize) * w;
            let row =
                &self.data[row_start + clipped.x0() as usize..row_start + clipped.x1() as usize];
            for &v in row {
                if range.contains(v) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Returns a new mask where every pixel is `1 - epsilon` if its value is
    /// at or above `threshold` and `0` otherwise. Used by `MASK_AGG`
    /// expressions such as `INTERSECT(mask > 0.8, ...)`.
    pub fn threshold(&self, threshold: f32) -> Mask {
        let data = self
            .data
            .iter()
            .map(|&v| if v >= threshold { MAX_PIXEL_VALUE } else { 0.0 })
            .collect();
        Mask {
            width: self.width,
            height: self.height,
            data,
        }
    }

    /// Extracts the sub-mask covered by `roi` (clipped to the mask bounds).
    ///
    /// Returns `None` if the clipped ROI is empty.
    pub fn crop(&self, roi: &Roi) -> Option<Mask> {
        let clipped = self.clip_roi(roi)?;
        let w = self.width as usize;
        let out_w = clipped.width();
        let out_h = clipped.height();
        let mut data = Vec::with_capacity((out_w as usize) * (out_h as usize));
        for y in clipped.y0()..clipped.y1() {
            let row_start = (y as usize) * w;
            data.extend_from_slice(
                &self.data[row_start + clipped.x0() as usize..row_start + clipped.x1() as usize],
            );
        }
        Some(Mask {
            width: out_w,
            height: out_h,
            data,
        })
    }

    /// Size of the mask's pixel payload in bytes when stored uncompressed
    /// (4 bytes per pixel).
    pub fn byte_size(&self) -> u64 {
        self.data.len() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mask() -> Mask {
        // 4x4 mask with values increasing left-to-right, top-to-bottom.
        Mask::from_fn(4, 4, |x, y| (y * 4 + x) as f32 / 16.0)
    }

    #[test]
    fn new_validates_dimensions_and_values() {
        assert_eq!(Mask::new(0, 4, vec![]), Err(Error::EmptyMask));
        assert!(matches!(
            Mask::new(2, 2, vec![0.0; 3]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Mask::new(2, 2, vec![0.0, 0.5, 1.0, 0.2]),
            Err(Error::PixelOutOfRange { index: 2, .. })
        ));
        assert!(matches!(
            Mask::new(2, 2, vec![0.0, 0.5, f32::NAN, 0.2]),
            Err(Error::PixelOutOfRange { .. })
        ));
        assert!(Mask::new(2, 2, vec![0.0, 0.5, 0.99, 0.2]).is_ok());
    }

    #[test]
    fn new_names_the_first_pixel_outside_the_domain() {
        // The check `Mask::new` made before it became a two-pass check.
        let reference = |data: &[f32]| {
            data.iter()
                .enumerate()
                .find(|(_, v)| !(0.0..1.0).contains(*v) || v.is_nan())
                .map(|(index, &value)| (index, value.to_bits()))
        };
        let bad = [
            -0.25,
            -f32::MIN_POSITIVE,
            1.0,
            1.5,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        // 5 x 7 = 35 pixels: not a multiple of any vector width.
        let clean: Vec<f32> = (0..35).map(|i| i as f32 / 35.0).collect();
        for value in bad {
            for at in [vec![0], vec![17], vec![34], vec![17, 3], vec![0, 34]] {
                let mut data = clean.clone();
                // A second offender of another kind further on (or before)
                // must not change which pixel is named.
                for (k, &index) in at.iter().enumerate() {
                    data[index] = if k == 0 { value } else { 2.0 };
                }
                let expected = reference(&data).unwrap();
                match Mask::new(5, 7, data) {
                    Err(Error::PixelOutOfRange { value, index }) => {
                        assert_eq!((index, value.to_bits()), expected, "{value} at {at:?}");
                    }
                    other => panic!("{value} at {at:?}: got {other:?}"),
                }
            }
        }
        // Boundary values inside the domain, negative zero included.
        assert!(Mask::new(2, 2, vec![0.0, -0.0, MAX_PIXEL_VALUE, f32::MIN_POSITIVE]).is_ok());
        assert_eq!(reference(&[0.0, -0.0, MAX_PIXEL_VALUE]), None);
    }

    #[test]
    fn clamped_constructor_fixes_out_of_range_values() {
        let m = Mask::from_data_clamped(2, 2, vec![-0.5, 1.0, 1.5, f32::NAN]).unwrap();
        assert_eq!(m.get(0, 0), 0.0);
        assert!(m.get(1, 0) < 1.0);
        assert!(m.get(0, 1) < 1.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = Mask::zeros(3, 2);
        m.set(2, 1, 0.75);
        assert_eq!(m.get(2, 1), 0.75);
        assert_eq!(m.try_get(2, 1).unwrap(), 0.75);
        assert!(matches!(
            m.try_get(3, 0),
            Err(Error::CoordinateOutOfBounds { .. })
        ));
    }

    #[test]
    fn set_clamps_values() {
        let mut m = Mask::zeros(2, 2);
        m.set(0, 0, 2.0);
        assert!(m.get(0, 0) < 1.0);
        m.set(0, 0, -1.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn row_and_iteration_agree_with_get() {
        let m = sample_mask();
        assert_eq!(
            m.row(2),
            &[8.0 / 16.0, 9.0 / 16.0, 10.0 / 16.0, 11.0 / 16.0]
        );
        for (x, y, v) in m.iter_pixels() {
            assert_eq!(v, m.get(x, y));
        }
        assert_eq!(m.iter_pixels().count(), 16);
    }

    #[test]
    fn count_pixels_matches_manual_count() {
        let m = sample_mask();
        let roi = Roi::new(1, 1, 4, 4).unwrap(); // 3x3 lower-right block
        let range = PixelRange::new(0.5, 1.0).unwrap();
        // Values in the ROI: indices 5,6,7,9,10,11,13,14,15 -> /16.
        // Values >= 0.5 are 8..=15 /16, intersected with ROI: 9,10,11,13,14,15 -> 6.
        assert_eq!(m.count_pixels(&roi, &range), 6);
    }

    #[test]
    fn count_pixels_with_disjoint_roi_is_zero() {
        let m = sample_mask();
        let roi = Roi::new(10, 10, 20, 20).unwrap();
        let range = PixelRange::new(0.0, 1.0).unwrap();
        assert_eq!(m.count_pixels(&roi, &range), 0);
    }

    #[test]
    fn threshold_produces_binary_mask() {
        let m = sample_mask();
        let t = m.threshold(0.5);
        for (x, y, v) in t.iter_pixels() {
            if m.get(x, y) >= 0.5 {
                assert!(v > 0.9);
            } else {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn crop_extracts_expected_region() {
        let m = sample_mask();
        let cropped = m.crop(&Roi::new(1, 2, 3, 4).unwrap()).unwrap();
        assert_eq!(cropped.shape(), (2, 2));
        assert_eq!(cropped.get(0, 0), m.get(1, 2));
        assert_eq!(cropped.get(1, 1), m.get(2, 3));
        assert!(m.crop(&Roi::new(100, 100, 101, 101).unwrap()).is_none());
    }

    #[test]
    fn value_bounds_and_mean() {
        let m = sample_mask();
        let (lo, hi) = m.value_bounds();
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 15.0 / 16.0);
        let mean = m.mean();
        assert!((mean - (0..16).sum::<u32>() as f64 / 16.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn byte_size_counts_four_bytes_per_pixel() {
        assert_eq!(sample_mask().byte_size(), 64);
    }

    #[test]
    fn from_fn_clamps() {
        let m = Mask::from_fn(2, 1, |x, _| if x == 0 { 5.0 } else { -3.0 });
        assert!(m.get(0, 0) < 1.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn full_roi_covers_mask() {
        let m = sample_mask();
        assert_eq!(m.full_roi().area(), 16);
        assert_eq!(
            m.count_pixels(&m.full_roi(), &PixelRange::new(0.0, 1.0).unwrap()),
            16
        );
    }
}
