//! Differential-oracle property suite for the cell kernel of verification:
//! `TermBounds::cell_count` — every CHI cell an ROI touches decided from the
//! mask's index where it can be, the ROI pixels of the rest scanned — must
//! give counts **byte-identical** to the reference scan `Mask::count_pixels`
//! (exact equality, no tolerance) over arbitrary mask shapes (including
//! masks that are not cell multiples and degenerate 1×N / N×1 masks),
//! arbitrary clipped and fully-disjoint ROIs, arbitrary cell sizes, bin
//! counts of 16, 32 and 10, and boundary ranges (bin-edge aligned, one-ULP
//! wide, the full `[0, 1)` domain) — counted both on the mask in memory and
//! straight off the stored bytes of the rows it leaves to scan.

use masksearch::core::{
    compose_masks, cp, cp_composed, cp_many, cp_many_le_rows, cp_row_band, Mask, MaskId, MaskOp,
    PixelRange, Roi,
};
use masksearch::index::{Chi, ChiConfig, ChiStore, ChiView, TermBounds};
use proptest::prelude::*;

/// Builds one mask of a content family. Families 0–3 are in-domain (smooth
/// blobs, hash noise, bin-edge values, near-constant); families 4–5 use the
/// unchecked constructor to inject NaN / ±∞ / −0.0 / out-of-domain pixels —
/// the payloads a hostile or corrupt compressed blob can round-trip into a
/// mask, where the kernel's summaries must still agree with the reference
/// scan (NaN is never in range).
fn mask_of(w: u32, h: u32, seed: u64, kind: u32) -> Mask {
    let mut state = seed | 1;
    if kind >= 4 {
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let dense_specials = kind == 5;
        let data: Vec<f32> = (0..(w as usize) * (h as usize))
            .map(|_| {
                let r = next();
                let special = if dense_specials {
                    r % 2 == 0
                } else {
                    r % 8 == 0
                };
                if special {
                    match (r >> 8) % 6 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => -0.0,
                        4 => 1.0 + ((r >> 16) % 100) as f32 / 10.0,
                        _ => -(((r >> 16) % 100) as f32 / 10.0),
                    }
                } else {
                    ((r >> 33) as f32) / (u32::MAX as f32 + 1.0)
                }
            })
            .collect();
        return Mask::from_data_unchecked(w, h, data).expect("shape matches");
    }
    Mask::from_fn(w, h, move |x, y| match kind {
        0 => {
            let dx = x as f32 - w as f32 / 3.0;
            let dy = y as f32 - h as f32 / 2.0;
            0.9 * (-(dx * dx + dy * dy) / ((w.min(h) as f32 / 3.0).powi(2)).max(1.0)).exp()
        }
        1 => {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX as f32)
        }
        2 => ((x + y * w + seed as u32) % 17) as f32 / 16.0, // bin edges, incl. 1.0 clamped
        _ => 0.5 + ((x + y) % 2) as f32 * f32::EPSILON,
    })
}

/// Arbitrary masks over all six content families (including the
/// special-pixel families 4–5).
fn arb_mask() -> impl Strategy<Value = Mask> {
    (1u32..72, 1u32..72, any::<u64>(), 0u32..6u32)
        .prop_map(|(w, h, seed, kind)| mask_of(w, h, seed, kind))
}

/// A same-shape mask pair for the composed kernel (independent content
/// families and seeds per side).
fn arb_mask_pair() -> impl Strategy<Value = (Mask, Mask)> {
    (
        1u32..56,
        1u32..56,
        any::<u64>(),
        any::<u64>(),
        0u32..6u32,
        0u32..6u32,
    )
        .prop_map(|(w, h, sa, sb, ka, kb)| (mask_of(w, h, sa, ka), mask_of(w, h, sb, kb)))
}

/// ROIs that may lie partially or entirely outside the mask (clipping and
/// disjointness are part of the contract under test).
fn arb_roi() -> impl Strategy<Value = Roi> {
    (0u32..100, 0u32..100, 1u32..=100, 1u32..=100)
        .prop_filter_map("non-degenerate roi", |(x0, y0, w, h)| {
            Roi::new(x0, y0, x0 + w, y0 + h).ok()
        })
}

/// Ranges mixing generic hundredth-grid bounds, bin-aligned bounds (`i/16`),
/// the full domain, and one-ULP-wide ranges around an arbitrary value.
fn arb_range() -> impl Strategy<Value = PixelRange> {
    (0u32..4u32, 0u32..=99, 1u32..=100, any::<u64>()).prop_filter_map(
        "valid range",
        |(kind, lo, width, seed)| match kind {
            0 => {
                let lo = lo as f32 / 100.0;
                let hi = (lo + width as f32 / 100.0).min(1.0);
                PixelRange::new(lo, hi).ok()
            }
            1 => {
                let a = lo % 16;
                let b = (a + 1 + width % 16).min(16);
                PixelRange::new(a as f32 / 16.0, b as f32 / 16.0).ok()
            }
            2 => Some(PixelRange::full()),
            _ => {
                // One ULP wide: [v, next_up(v)) contains exactly the value v.
                let v = ((seed % 1_000_000) as f32 / 1_000_000.0).min(0.999_999);
                PixelRange::new(v, v.next_up()).ok()
            }
        },
    )
}

/// Index configurations: cells with heavy partial coverage (1..=10 px) and
/// larger ones, non-square, at 16, 32 and a non-power-of-two 10 bins.
fn arb_config() -> impl Strategy<Value = ChiConfig> {
    let side = |(small, big): (u32, u32)| small * if big == 0 { 1 } else { 16 };
    (1u32..=10, 0u32..2, 1u32..=10, 0u32..2, 0usize..3).prop_map(move |(w, bw, h, bh, bins)| {
        ChiConfig::new(side((w, bw)), side((h, bh)), [16, 32, 10][bins])
            .expect("non-zero configuration")
    })
}

/// What the cell kernel counts of `CP(mask, roi, range)` from `chi`, and
/// the rectangles it left to scan.
fn cell_kernel(chi: ChiView<'_>, roi: &Roi, range: PixelRange) -> (u64, Vec<Roi>, u64) {
    let mut scan = Vec::new();
    let count = TermBounds::new(range).cell_count(chi, roi, &mut scan);
    let cells = count.decided_cells + count.exact_cells + count.scanned_cells;
    (count.decided, scan, cells)
}

/// The cell kernel's count off the stored bytes of the rows it leaves to
/// scan: `Err` when those rows hold a pixel outside `[0, 1)`.
fn cell_kernel_le(mask: &Mask, chi: ChiView<'_>, roi: &Roi, range: PixelRange) -> Result<u64, ()> {
    let (decided, scan, _) = cell_kernel(chi, roi, range);
    let (w, h) = mask.shape();
    let mut total = decided;
    for rect in scan {
        let rows = rect.y0()..rect.y1();
        let bytes = le_rows(mask, rows.clone());
        total += cp_many_le_rows(&bytes, w, h, rows.start, &[(rect, range)]).map_err(drop)?[0];
    }
    Ok(total)
}

/// Whether rows `rows` of `mask` hold a pixel outside `[0, 1)`.
fn rows_hold_uncountable(mask: &Mask, rows: std::ops::Range<u32>) -> bool {
    let w = mask.width() as usize;
    mask.data()[rows.start as usize * w..rows.end as usize * w]
        .iter()
        .any(|v| !(0.0..1.0).contains(v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The core differential oracle: cell-kernel CP == reference CP,
    /// exactly, in memory and off the stored rows; every cell the clipped
    /// ROI touches is classified exactly once, and what is left to scan lies
    /// inside the ROI.
    #[test]
    fn cell_kernel_equals_reference_cp(
        mask in arb_mask(),
        config in arb_config(),
        roi in arb_roi(),
        range in arb_range(),
    ) {
        let chi = Chi::build(&mask, &config);
        let reference = mask.count_pixels(&roi, &range);
        let (decided, scan, cells) = cell_kernel(chi.view(), &roi, range);
        let scanned: u64 = scan.iter().map(|rect| mask.count_pixels(rect, &range)).sum();
        prop_assert_eq!(decided + scanned, reference, "config={:?} roi={} range={}", config, roi, range);
        match mask.clip_roi(&roi) {
            Some(clip) => {
                let cx = clip.x1().div_ceil(config.cell_width()) - clip.x0() / config.cell_width();
                let cy = clip.y1().div_ceil(config.cell_height()) - clip.y0() / config.cell_height();
                prop_assert_eq!(cells, u64::from(cx) * u64::from(cy));
                prop_assert!(scan.iter().all(|rect| rect.intersect(&clip) == Some(*rect)));
            }
            None => prop_assert_eq!((cells, scan.len()), (0, 0)),
        }
        let off_rows = cell_kernel_le(&mask, chi.view(), &roi, range);
        if scan.iter().any(|rect| rows_hold_uncountable(&mask, rect.y0()..rect.y1())) {
            prop_assert!(off_rows.is_err());
        } else {
            prop_assert_eq!(off_rows, Ok(reference));
        }
    }

    /// Multi-term evaluation through the cell kernel and through the
    /// reference batched scan both equal per-term reference counts.
    #[test]
    fn cp_many_paths_equal_reference(
        mask in arb_mask(),
        config in arb_config(),
        roi_a in arb_roi(),
        roi_b in arb_roi(),
        range_a in arb_range(),
        range_b in arb_range(),
    ) {
        let terms = vec![(roi_a, range_a), (roi_b, range_b), (roi_a, range_b)];
        let chi = Chi::build(&mask, &config);
        let batched = cp_many(&mask, &terms);
        for (i, (roi, range)) in terms.iter().enumerate() {
            let reference = cp(&mask, roi, range);
            let (decided, scan, _) = cell_kernel(chi.view(), roi, *range);
            let pending: Vec<(Roi, PixelRange)> = scan.iter().map(|rect| (*rect, *range)).collect();
            let kernel = decided + cp_many(&mask, &pending).iter().sum::<u64>();
            prop_assert_eq!(kernel, reference, "kernel term {}", i);
            prop_assert_eq!(batched[i], reference, "batched term {}", i);
        }
    }

    /// An index that went through a store — its slab, at the count width
    /// the mask's shape sets, and its file encoding — counts like a fresh
    /// one.
    #[test]
    fn reassembled_index_counts_like_a_fresh_one(
        mask in arb_mask(),
        config in arb_config(),
        roi in arb_roi(),
        range in arb_range(),
    ) {
        let store = ChiStore::new(config);
        store.insert(MaskId::new(7), Chi::build(&mask, &config));
        let reloaded = ChiStore::from_bytes(&store.to_bytes()).expect("round trip");
        let version = reloaded.reader();
        let chi = version.get(MaskId::new(7)).expect("indexed");
        let (decided, scan, _) = cell_kernel(chi, &roi, range);
        let scanned: u64 = scan.iter().map(|rect| mask.count_pixels(rect, &range)).sum();
        prop_assert_eq!(decided + scanned, mask.count_pixels(&roi, &range));
    }

    /// The composed kernel of pair verification (`cp_composed`, one fused
    /// pass over both masks): `CP` over `min` / `max` / `|a−b|` equals the
    /// reference count over the materialised composition, exactly —
    /// including masks with NaN/±∞/−0.0 pixels (a NaN operand poisons the
    /// composed pixel, which is never counted).
    #[test]
    fn composed_kernel_equals_reference(
        pair in arb_mask_pair(),
        roi in arb_roi(),
        range in arb_range(),
        op_pick in 0u32..3,
    ) {
        let (a, b) = pair;
        let op = [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff][op_pick as usize];
        let kernel = cp_composed(&a, &b, op, &roi, &range).expect("same shape");
        let composed = compose_masks(&a, &b, op).expect("same shape");
        prop_assert_eq!(kernel, composed.count_pixels(&roi, &range), "{} roi={} range={}", op, roi, range);
    }
}

/// Degenerate bound combinations that the type system rejects rather than
/// the kernel mis-counting: `lv == uv`, inverted, NaN, and out-of-domain
/// bounds are all unrepresentable as [`PixelRange`] values.
#[test]
fn degenerate_ranges_are_unrepresentable() {
    for v in [0.0f32, 0.25, 0.5, 0.999, 1.0] {
        assert!(PixelRange::new(v, v).is_err(), "lv == uv must be rejected");
    }
    assert!(PixelRange::new(0.7, 0.2).is_err());
    assert!(PixelRange::new(f32::NAN, 0.5).is_err());
    assert!(PixelRange::new(0.1, f32::NAN).is_err());
    assert!(PixelRange::new(-0.1, 0.5).is_err());
    assert!(PixelRange::new(0.0, 1.0 + f32::EPSILON).is_err());
}

/// NaN-adjacent / extreme-but-valid bounds: the smallest positive range, a
/// range ending at the largest sub-1.0 value, and subnormal lower bounds.
#[test]
fn extreme_boundary_ranges_stay_exact() {
    let masks = [
        Mask::from_fn(33, 7, |x, y| ((x * 31 + y * 17) % 97) as f32 / 97.0),
        Mask::from_fn(1, 64, |_, y| (y % 16) as f32 / 16.0),
        Mask::from_fn(64, 1, |x, _| (x % 16) as f32 / 16.0),
        Mask::constant(16, 16, 1.0 - f32::EPSILON).unwrap(),
        Mask::constant(5, 5, f32::MIN_POSITIVE / 2.0).unwrap(), // subnormal pixels
    ];
    let ranges = [
        PixelRange::new(0.0, f32::MIN_POSITIVE).unwrap(),
        PixelRange::new(0.0, f32::MIN_POSITIVE / 2.0).unwrap(),
        PixelRange::new((1.0f32 - f32::EPSILON).next_down(), 1.0).unwrap(),
        PixelRange::new(1.0 - f32::EPSILON, 1.0).unwrap(),
        PixelRange::full(),
    ];
    for mask in &masks {
        for (cell, bins) in [(1u32, 16u32), (2, 32), (5, 10), (64, 16)] {
            let chi = Chi::build(mask, &ChiConfig::new(cell, cell, bins).unwrap());
            for range in &ranges {
                for roi in [
                    mask.full_roi(),
                    Roi::new(0, 0, 3, 3).unwrap(),
                    Roi::new(2, 0, 1000, 1000).unwrap(),
                ] {
                    let expected = mask.count_pixels(&roi, range);
                    let (decided, scan, _) = cell_kernel(chi.view(), &roi, *range);
                    let scanned: u64 = scan.iter().map(|r| mask.count_pixels(r, range)).sum();
                    assert_eq!(
                        decided + scanned,
                        expected,
                        "range {range} roi {roi} cell {cell} bins {bins}"
                    );
                    assert_eq!(cell_kernel_le(mask, chi.view(), &roi, *range), Ok(expected));
                }
            }
        }
    }
}

/// The rows `rows` of a mask as a store holds them: little-endian `f32`.
fn le_rows(mask: &Mask, rows: std::ops::Range<u32>) -> Vec<u8> {
    let w = mask.width() as usize;
    mask.data()[rows.start as usize * w..rows.end as usize * w]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The in-place verification kernel against `cp_many`: counting the
    /// terms straight off the stored bytes of the row band they span (or
    /// any wider band) gives the counts of the decoded mask, exactly — over
    /// 1×N / N×1 shapes, clipped, disjoint and multi-term ROIs, bin-aligned
    /// and one-ULP ranges, and −0.0 pixels. A pixel outside `[0, 1)` (NaN,
    /// ±∞, ≥ 1, < 0) inside the band is the error `Mask::new` reports for
    /// the first such pixel of the band, in whole-mask coordinates; outside
    /// the band it is never read.
    #[test]
    fn byte_band_kernel_equals_cp_many(
        mask in (1u32..72, 1u32..72, any::<u64>(), 0u32..4u32)
            .prop_map(|(w, h, seed, kind)| mask_of(w, h, seed, kind)),
        rois in (arb_roi(), arb_roi(), arb_roi()),
        ranges in (arb_range(), arb_range(), arb_range()),
        term_count in 1usize..=3,
        margin in (0u32..4, 0u32..4),
        poison in 0u32..3,
        seed in any::<u64>(),
    ) {
        let (w, h) = mask.shape();
        let terms = [(rois.0, ranges.0), (rois.1, ranges.1), (rois.2, ranges.2)];
        let terms = &terms[..term_count];
        // Every ROI may miss the mask: zero counts, and no row is needed.
        let needed = cp_row_band(w, h, terms).unwrap_or(0..0);
        let band = needed.start.saturating_sub(margin.0)..(needed.end + margin.1).min(h);
        let in_band = |i: usize| band.contains(&((i / w as usize) as u32));

        // −0.0 is in the domain and must count like 0.0; the poison values
        // are outside it, placed only outside the band or only inside it.
        let mut data = mask.into_data();
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..3 {
            let i = next() % data.len();
            data[i] = -0.0;
        }
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0, -0.25, 7.5];
        if poison > 0 {
            for _ in 0..4 {
                let i = next() % data.len();
                if in_band(i) == (poison == 2) {
                    data[i] = bad[next() % bad.len()];
                }
            }
        }
        let mask = Mask::from_data_unchecked(w, h, data.clone()).expect("shape matches");
        let counted = cp_many_le_rows(&le_rows(&mask, band.clone()), w, h, band.start, terms);

        // What loading the band's pixels as a mask would say.
        let mut band_only = data;
        for (i, v) in band_only.iter_mut().enumerate() {
            if !in_band(i) {
                *v = 0.0;
            }
        }
        match Mask::new(w, h, band_only) {
            Ok(_) => prop_assert_eq!(counted, Ok(cp_many(&mask, terms))),
            Err(expected) => {
                prop_assert_eq!(poison, 2, "only in-band poison can fail");
                // NaN != NaN: compare the rendering, which shows both fields.
                prop_assert_eq!(
                    format!("{:?}", counted.expect_err("a pixel outside the domain was read")),
                    format!("{expected:?}")
                );
            }
        }
    }
}
