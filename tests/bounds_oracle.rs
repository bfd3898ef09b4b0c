//! Oracles for the filter stage's three mechanisms: the compiled bounds
//! (`masksearch_query::eval::CompiledBounds`), the slab-backed
//! [`ChiStore`], and the ordered lookup cursors.
//!
//! The references are the slow, obviously-right forms: `bounds::cp_bounds`
//! on a freshly built owned [`Chi`], per-cell bounds summed from every
//! border cell's materialised histogram ([`Chi::region_hist`]), an
//! unordered evaluation of every comparison (region bounds, then per-cell
//! bounds when those leave it `Unknown`), a `BTreeMap<MaskId, Chi>`, and
//! point lookups. Everything is compared *exactly* — the executors' rows
//! and statistics depend on every `Truth` and interval being bit-equal to
//! what they were.

use masksearch::baselines::BruteForce;
use masksearch::core::{cp, Mask, MaskId, MaskRecord, PixelRange, Roi};
use masksearch::db::{DbConfig, MaskDb, CHI_FILE};
use masksearch::index::bounds::{bin_ranges, cp_bounds};
use masksearch::index::{Cells, Chi, ChiConfig, ChiStore, CpBounds, TermBounds};
use masksearch::query::eval::{resolve_roi, CompiledBounds};
use masksearch::query::{
    CpTerm, Expr, IndexingMode, Interval, Predicate, Query, QueryError, RoiSpec, Session,
    SessionConfig, TermSource, Truth,
};
use masksearch::storage::codec::checksum64;
use masksearch::storage::Catalog;
use std::collections::BTreeMap;

/// Seeded pixel noise with structure: a bright block over a hash floor.
fn mask(seed: u64, width: u32, height: u32) -> Mask {
    Mask::from_fn(width, height, |x, y| {
        let h = (x as u64 * 73 + y as u64 * 151 + seed * 977) % 1009;
        let block = x * 3 / width.max(1) == (seed % 3) as u32 && y * 2 / height.max(1) == 1;
        let v = h as f32 / 1009.0 * if block { 1.0 } else { 0.6 };
        v.min(0.999)
    })
}

/// Shapes with a ragged last cell, one pixel wide or high, smaller than one
/// cell, and plain.
const SHAPES: [(u32, u32); 6] = [(37, 29), (1, 40), (40, 1), (5, 3), (64, 64), (28, 42)];

fn configs() -> Vec<ChiConfig> {
    [(8, 8, 16), (5, 7, 4), (14, 14, 16), (64, 64, 2), (3, 3, 5)]
        .into_iter()
        .map(|(w, h, bins)| ChiConfig::new(w, h, bins).unwrap())
        .collect()
}

/// Masks of every shape, interleaved so consecutive ids differ in shape,
/// every third without an object box.
fn dataset() -> Vec<(MaskRecord, Mask)> {
    (0..18u64)
        .map(|id| {
            let (w, h) = SHAPES[id as usize % SHAPES.len()];
            let mut record = MaskRecord::builder(MaskId::new(id * 2)).shape(w, h);
            if id % 3 != 0 {
                let (x0, y0) = (id as u32 % w, (id as u32 * 5) % h);
                let object = Roi::new(x0, y0, (x0 + 1 + w / 2).min(w), (y0 + 1 + h / 3).min(h));
                record = record.object_box(object.unwrap());
            }
            (record.build(), mask(id, w, h))
        })
        .collect()
}

fn rois() -> Vec<RoiSpec> {
    let constant = |x0, y0, x1, y1| RoiSpec::Constant(Roi::new(x0, y0, x1, y1).unwrap());
    vec![
        constant(100, 100, 140, 140), // off every mask
        constant(20, 10, 90, 90),     // clipped by most
        constant(9, 9, 11, 12),       // inside one cell of the coarser grids
        constant(8, 8, 24, 16),       // aligned to 8x8 cells
        constant(0, 0, 37, 29),       // touching the edge of the 37x29 masks
        constant(0, 0, 1, 1),
        constant(3, 0, 64, 64),
        RoiSpec::ObjectBox,
        RoiSpec::FullMask,
    ]
}

fn step(value: f32, up: bool) -> f32 {
    f32::from_bits(if up {
        value.to_bits() + 1
    } else {
        value.to_bits() - 1
    })
}

/// Ranges on bin boundaries of the 16-, 4- and 5-bin configurations, one
/// ULP either side of them, narrower than any bin, and full.
fn ranges() -> Vec<PixelRange> {
    let mut ranges = vec![PixelRange::full()];
    for (lo, hi) in [(0.5f32, 1.0f32), (0.25, 0.75), (0.4, 0.8), (0.0625, 0.125)] {
        for lo in [lo, step(lo, true), step(lo, false)] {
            for hi in [hi, step(hi, false)] {
                ranges.push(PixelRange::new(lo, hi).unwrap());
            }
        }
        ranges.push(PixelRange::new(lo, hi.min(step(1.0, false))).unwrap());
    }
    ranges.push(PixelRange::new(0.51, 0.52).unwrap());
    ranges.push(PixelRange::new(0.0, step(0.0, true)).unwrap());
    ranges
}

fn same_error(a: &QueryError, b: &QueryError) -> bool {
    a.to_string() == b.to_string()
}

#[test]
fn compiled_bounds_equal_cp_bounds_on_an_owned_chi_and_bracket_cp() {
    let data = dataset();
    let mut compared = 0u64;
    for config in configs() {
        let store = ChiStore::new(config);
        for (record, mask) in &data {
            store.index_mask(record.mask_id, mask);
        }
        let reader = store.reader();
        for roi in rois() {
            for range in ranges() {
                let term = CpTerm {
                    source: TermSource::Own,
                    roi,
                    range,
                };
                let expr = Expr::Cp(term);
                for fallback in [false, true] {
                    // One compiled statement over every mask, so what it
                    // keeps per shape is kept across shape changes.
                    let mut compiled = CompiledBounds::expr(&expr, fallback);
                    for (record, mask) in data.iter().chain(data.iter().rev()) {
                        let view = reader.get(record.mask_id).unwrap();
                        let got = compiled.interval(record, view);
                        let resolved = match resolve_roi(&term, record, fallback) {
                            Ok(resolved) => resolved,
                            Err(expected) => {
                                assert!(roi == RoiSpec::ObjectBox && !fallback);
                                assert!(matches!(expected, QueryError::MissingObjectBox(_)));
                                assert!(same_error(&got.unwrap_err(), &expected));
                                continue;
                            }
                        };
                        let owned = Chi::build(mask, &config);
                        let expected = cp_bounds(&owned, &resolved, &range);
                        assert_eq!(view, owned.view());
                        assert_eq!(view.cp_bounds(&resolved, &range), expected);
                        assert_eq!(
                            got.unwrap(),
                            Interval::new(expected.lower as f64, expected.upper as f64),
                            "mask {} {config:?} {roi:?} {range}",
                            record.mask_id
                        );
                        let exact = cp(mask, &resolved, &range);
                        assert!(expected.lower <= exact && exact <= expected.upper);
                        compared += 1;
                    }
                }
            }
        }
    }
    assert!(compared > 50_000, "{compared} bounds compared");
}

/// What the per-cell bound of one ROI reads of a mask, materialised: the
/// clipped ROI's area, the covered region's histogram, and every other
/// covering cell's histogram with its pixels inside and outside the ROI.
struct CellParts {
    roi_area: u64,
    covered: Option<Vec<u64>>,
    ring: Vec<(Vec<u64>, u64, u64)>,
}

fn cell_parts(chi: &Chi, roi: &Roi) -> Option<CellParts> {
    let clipped = roi.clamp_to(chi.mask_width(), chi.mask_height())?;
    let covered = chi.covered_region(&clipped);
    let (bx0, by0, bx1, by1) = chi.covering_region(&clipped).unwrap();
    let mut ring = Vec::new();
    for j in by0..by1 {
        for i in bx0..bx1 {
            if covered.is_some_and(|(x0, y0, x1, y1)| x0 <= i && i < x1 && y0 <= j && j < y1) {
                continue;
            }
            let cell = Roi::new(
                chi.x_boundary(i),
                chi.y_boundary(j),
                chi.x_boundary(i + 1),
                chi.y_boundary(j + 1),
            )
            .unwrap();
            let inside = cell.intersect(&clipped).map_or(0, |both| both.area());
            ring.push((
                chi.region_hist(i, j, i + 1, j + 1),
                inside,
                cell.area() - inside,
            ));
        }
    }
    Some(CellParts {
        roi_area: clipped.area(),
        covered: covered.map(|(x0, y0, x1, y1)| chi.region_hist(x0, y0, x1, y1)),
        ring,
    })
}

/// The per-cell bound from materialised histograms: the covered region's
/// counts, plus per ring cell `min(|c ∩ R|, outer)` and
/// `max(0, inner − |c \ R|)`, clamped.
fn cell_bounds_from(parts: Option<&CellParts>, range: &PixelRange, bins: u32) -> CpBounds {
    let Some(parts) = parts else {
        return CpBounds::empty();
    };
    let (outer_lo, outer_hi, inner_lo, inner_hi) = bin_ranges(range, bins);
    let count = |hist: &[u64], lo: u32, hi: u32| {
        let at = |bin: u32| hist.get(bin as usize).copied().unwrap_or(0);
        if lo < hi {
            at(lo) - at(hi)
        } else {
            0
        }
    };
    let (mut upper, mut lower) = match &parts.covered {
        Some(hist) => (
            count(hist, outer_lo, outer_hi),
            count(hist, inner_lo, inner_hi),
        ),
        None => (0, 0),
    };
    for (hist, inside, outside) in &parts.ring {
        upper += count(hist, outer_lo, outer_hi).min(*inside);
        lower += count(hist, inner_lo, inner_hi).saturating_sub(*outside);
    }
    let upper = upper.min(parts.roi_area);
    CpBounds {
        lower: lower.min(upper),
        upper,
        roi_area: parts.roi_area,
    }
}

fn interval(b: CpBounds) -> Interval {
    Interval::new(b.lower as f64, b.upper as f64)
}

#[test]
fn cell_bounds_are_sound_never_looser_and_equal_a_per_cell_reference() {
    let data = dataset();
    let (mut compared, mut tighter) = (0u64, 0u64);
    for config in configs() {
        let store = ChiStore::new(config);
        for (record, mask) in &data {
            store.index_mask(record.mask_id, mask);
        }
        let reader = store.reader();
        for roi in rois() {
            let exprs: Vec<Expr> = ranges()
                .into_iter()
                .map(|range| {
                    Expr::Cp(CpTerm {
                        source: TermSource::Own,
                        roi,
                        range,
                    })
                })
                .collect();
            // One of each per range over every mask, so what they keep per
            // shape and ROI is kept across changes of either.
            let mut compiled: Vec<_> = exprs
                .iter()
                .map(|expr| CompiledBounds::expr(expr, true))
                .collect();
            let mut terms: Vec<_> = ranges().into_iter().map(TermBounds::new).collect();
            for (record, mask) in data.iter().chain(data.iter().rev()) {
                let view = reader.get(record.mask_id).unwrap();
                let resolved = roi.resolve(record).unwrap_or_else(|| mask.full_roi());
                let owned = Chi::build(mask, &config);
                let parts = cell_parts(&owned, &resolved);
                for (at, range) in ranges().iter().enumerate() {
                    let expected = cell_bounds_from(parts.as_ref(), range, config.bins());
                    let region = cp_bounds(&owned, &resolved, range);
                    let what = format!("mask {} {config:?} {roi:?} {range}", record.mask_id);
                    assert_eq!(terms[at].cp_bounds(view, &resolved), region, "{what}");
                    assert_eq!(terms[at].cell_bounds(view, &resolved), expected, "{what}");
                    assert_eq!(
                        compiled[at].interval(record, view).unwrap(),
                        interval(region)
                    );
                    let cells = compiled[at].cell_interval(record, view).unwrap();
                    assert_eq!(cells, interval(expected), "{what}");
                    let exact = cp(mask, &resolved, range);
                    assert!(expected.lower <= exact && exact <= expected.upper, "{what}");
                    assert!(region.lower <= expected.lower, "{what}");
                    assert!(expected.upper <= region.upper, "{what}");
                    tighter += u64::from(expected.gap() < region.gap());
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 40_000, "{compared} bounds compared");
    assert!(tighter > compared / 20, "{tighter} of {compared} tighter");
}

/// The unordered evaluation: every term resolved in written order (the
/// first failure is the error), every comparison bounded with region
/// bounds and the predicate evaluated once; if that is `Unknown`, every
/// comparison bounded with per-cell bounds and the predicate evaluated
/// again. Also says whether the per-cell bounds decided it.
fn unordered(
    predicate: &Predicate,
    record: &MaskRecord,
    chi: &Chi,
    fallback: bool,
) -> Result<(Truth, bool), QueryError> {
    for cells in [false, true] {
        let mut intervals = Vec::new();
        for cmp in predicate.comparisons() {
            let mut terms = Vec::new();
            for term in cmp.expr.terms() {
                if term.source.is_pair() {
                    return Err(QueryError::invalid(
                        "CP terms over a.mask / b.mask or a mask composition require a pair (join) query",
                    ));
                }
                let roi = resolve_roi(term, record, fallback)?;
                terms.push(interval(match cells {
                    false => cp_bounds(chi, &roi, &term.range),
                    true => cell_bounds_from(
                        cell_parts(chi, &roi).as_ref(),
                        &term.range,
                        chi.config().bins(),
                    ),
                }));
            }
            intervals.push(cmp.expr.evaluate_bounds(&terms));
        }
        let truth = predicate.eval_bounds(&intervals);
        if truth != Truth::Unknown || cells {
            return Ok((truth, cells && truth != Truth::Unknown));
        }
    }
    unreachable!("the per-cell pass returns")
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut order = rest.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

#[test]
fn compound_predicates_give_the_unordered_truth_and_error_under_every_cost_order() {
    let config = ChiConfig::new(8, 8, 16).unwrap();
    let salient = PixelRange::new(0.5, 1.0).unwrap();
    let mid = PixelRange::new(0.3, 0.55).unwrap();
    let rect = Roi::new(4, 2, 30, 20).unwrap();
    let (wide, tall) = (
        Roi::new(3, 3, 29, 27).unwrap(),
        Roi::new(2, 5, 22, 38).unwrap(),
    );
    let object = || Expr::cp_object(salient);
    let pair = || Expr::cp_side(TermSource::Left, RoiSpec::FullMask, mid);
    let predicates = [
        Predicate::gt(Expr::cp(rect, salient), 40.0)
            .and(Predicate::lt(Expr::cp_full(mid), 300.0))
            .and(Predicate::ge(object().div(Expr::cp_full(salient)), 0.2)),
        Predicate::gt(Expr::cp(rect, mid), 90.0)
            .or(Predicate::le(object(), 3.0))
            .or(Predicate::gt(Expr::cp_full(salient).sub(object()), 500.0).negate()),
        // A comparison that cannot be resolved between two that can, and a
        // pair term after it: the object box is the first written failure.
        Predicate::lt(Expr::cp_full(mid), 1.0)
            .and(Predicate::gt(object().add(pair()), 10.0))
            .and(Predicate::gt(Expr::cp(rect, salient), 1e9)),
        // The pair term first.
        Predicate::gt(pair(), 1.0)
            .or(Predicate::gt(object(), 10.0))
            .or(Predicate::gt(Expr::cp_full(salient), 0.0)),
        // Thresholds inside the region bounds' gap, where per-cell bounds
        // decide some masks.
        Predicate::gt(Expr::cp(wide, salient), 60.0).or(Predicate::lt(Expr::cp(tall, mid), 80.0)),
        Predicate::lt(Expr::cp(tall, mid), 80.0)
            .and(Predicate::le(Expr::cp(wide, salient), 60.0))
            .and(Predicate::ge(Expr::cp_full(mid), 0.0)),
    ];
    let (mut truths, mut errors, mut by_cells) = ([0u64; 3], 0u64, 0u64);
    for (record, mask) in dataset() {
        let chi = Chi::build(&mask, &config);
        for predicate in &predicates {
            for fallback in [false, true] {
                let expected =
                    unordered(predicate, &record, &chi, fallback).map(|(truth, cells)| {
                        by_cells += u64::from(cells);
                        truth
                    });
                for order in permutations(predicate.comparisons().len()) {
                    let mut compiled = CompiledBounds::predicate(predicate, &order, fallback);
                    match (compiled.classify(&record, chi.view()), &expected) {
                        (Ok(got), Ok(expected)) => {
                            assert_eq!(got, *expected, "mask {} order {order:?}", record.mask_id);
                            truths[got as usize] += 1;
                        }
                        (Err(got), Err(expected)) => {
                            assert!(same_error(&got, expected), "{got} vs {expected}");
                            errors += 1;
                        }
                        (got, expected) => panic!("order {order:?}: {got:?} vs {expected:?}"),
                    }
                }
            }
        }
    }
    assert!(
        truths.iter().all(|n| *n > 0) && errors > 0 && by_cells > 10,
        "{truths:?} {errors} {by_cells}"
    );
}

/// Whether a `width × height` mask's index keeps 16-bit counts: it has at
/// most 65,535 pixels.
fn narrow(width: u32, height: u32) -> bool {
    u64::from(width) * u64::from(height) <= 65_535
}

/// What `ChiStore::to_bytes` must produce for `entries`: one v3 segment,
/// whose cells are `u16`s for a mask of at most 65,535 pixels and `u32`s
/// otherwise.
fn encode(config: &ChiConfig, entries: &BTreeMap<MaskId, Chi>) -> Vec<u8> {
    encode_version(3, config, entries)
}

/// What a v2 build wrote for `entries`: one v2 segment, every cell a `u32`.
fn encode_v2(config: &ChiConfig, entries: &BTreeMap<MaskId, Chi>) -> Vec<u8> {
    encode_version(2, config, entries)
}

fn encode_version(version: u8, config: &ChiConfig, entries: &BTreeMap<MaskId, Chi>) -> Vec<u8> {
    let mut payload = Vec::new();
    for v in [config.cell_width(), config.cell_height(), config.bins()] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (id, chi) in entries {
        payload.extend_from_slice(&id.raw().to_le_bytes());
        let cells = chi.cells().to_wide();
        for v in [chi.mask_width(), chi.mask_height(), cells.len() as u32] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        for cell in cells {
            match version >= 3 && narrow(chi.mask_width(), chi.mask_height()) {
                true => payload.extend_from_slice(&u16::try_from(cell).unwrap().to_le_bytes()),
                false => payload.extend_from_slice(&cell.to_le_bytes()),
            }
        }
    }
    segment(version, &payload)
}

fn segment(version: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"MSKI".to_vec();
    bytes.extend_from_slice(&[version, 0, 0, 0]);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let checksum = checksum64(&[&bytes[..16], payload]);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// A v1/v2 payload (every cell a `u32`) as v3 writes it: the cells of every
/// mask of at most 65,535 pixels narrowed to `u16`s, nothing else changed.
fn narrowed(payload: &[u8]) -> Vec<u8> {
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
    let mut out = payload[..20].to_vec();
    let count = u64::from_le_bytes(payload[12..20].try_into().unwrap());
    let mut at = 20;
    for _ in 0..count {
        let (width, height, len) = (u32_at(at + 8), u32_at(at + 12), u32_at(at + 16) as usize);
        out.extend_from_slice(&payload[at..at + 20]);
        at += 20;
        for i in 0..len {
            let cell = u32_at(at + 4 * i);
            match narrow(width, height) {
                true => out.extend_from_slice(&u16::try_from(cell).unwrap().to_le_bytes()),
                false => out.extend_from_slice(&cell.to_le_bytes()),
            }
        }
        at += 4 * len;
    }
    assert_eq!(at, payload.len());
    out
}

fn assert_same(store: &ChiStore, model: &BTreeMap<MaskId, Chi>, step: usize) {
    assert_eq!(store.len(), model.len(), "step {step}");
    assert_eq!(store.is_empty(), model.is_empty());
    assert_eq!(store.ids(), model.keys().copied().collect::<Vec<_>>());
    let reader = store.reader();
    for probe in 0..40u64 {
        let id = MaskId::new(probe);
        assert_eq!(store.get(id).as_deref(), model.get(&id), "step {step}");
        assert_eq!(
            reader.get(id).map(|view| view.to_chi()).as_ref(),
            model.get(&id)
        );
        assert_eq!(store.contains(id), model.contains_key(&id));
    }
    drop(reader);
    let cells: u64 = model.values().map(Chi::byte_size).sum();
    assert_eq!(store.total_bytes(), cells);
    let bytes = encode(store.config(), model);
    assert_eq!(store.encoded_len(), bytes.len() as u64);
    assert!(store.to_bytes() == bytes, "step {step}: to_bytes differs");
    let some: Vec<MaskId> = (0..40).step_by(3).map(MaskId::new).collect();
    let present: BTreeMap<MaskId, Chi> = some
        .iter()
        .filter_map(|id| model.get(id).map(|chi| (*id, chi.clone())))
        .collect();
    assert_eq!(
        store.segment_bytes(some),
        (!present.is_empty()).then(|| encode(store.config(), &present))
    );
}

#[test]
fn a_store_history_matches_a_map_of_owned_indexes() {
    let config = ChiConfig::new(8, 8, 4).unwrap();
    let store = ChiStore::new(config);
    let mut model: BTreeMap<MaskId, Chi> = BTreeMap::new();
    let mut state = 0x9e37_79b9u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut overwrites = [0u64; 2];
    for step in 0..600 {
        let id = MaskId::new(next() % 24);
        let (w, h) = SHAPES[(next() % SHAPES.len() as u64) as usize];
        match next() % 8 {
            // Insert or overwrite, in the shape the mask has (so the slot is
            // rewritten in place) or another (so it moves).
            0..=3 => {
                let (w, h) = match model.get(&id) {
                    Some(old) if next() % 2 == 0 => (old.mask_width(), old.mask_height()),
                    _ => (w, h),
                };
                if let Some(old) = model.get(&id) {
                    overwrites[((old.mask_width(), old.mask_height()) == (w, h)) as usize] += 1;
                }
                let mask = mask(next(), w, h);
                let chi = store.index_mask(id, &mask);
                assert_eq!(chi, Chi::build(&mask, &config));
                model.insert(id, chi);
            }
            4 => {
                let chi = Chi::build(&mask(next(), w, h), &config);
                store.insert(id, chi.clone());
                model.insert(id, chi);
            }
            5 | 6 => assert_eq!(store.remove(id), model.remove(&id).is_some()),
            // Incremental indexing racing a removal: refused after one,
            // installed (on a free id only) without.
            _ => {
                let mask = mask(next(), w, h);
                let generation = store.removal_generation();
                if next() % 2 == 0 {
                    let victim = MaskId::new(next() % 24);
                    assert_eq!(store.remove(victim), model.remove(&victim).is_some());
                    assert!(!store.index_mask_if_current(id, &mask, generation));
                } else {
                    let installed = store.index_mask_if_current(id, &mask, generation);
                    assert_eq!(installed, !model.contains_key(&id));
                    if installed {
                        model.insert(id, Chi::build(&mask, &config));
                    }
                }
            }
        }
        assert_same(&store, &model, step);
    }
    assert!(overwrites.iter().all(|n| *n > 20), "{overwrites:?}");

    // What the store wrote, read back: the same store.
    let (loaded, valid_len) = ChiStore::from_segments(&store.to_bytes()).unwrap();
    assert_eq!(valid_len as u64, store.encoded_len());
    assert_same(&loaded, &model, usize::MAX);
}

#[test]
fn a_version_1_index_image_is_rewritten_as_the_same_payload() {
    // A bare v1 image is `magic, version, reserved` and the payload: loaded
    // and written back it is that payload in one checksummed v3 segment,
    // its cells narrowed to 16 bits (every fixture mask is 4x4).
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/masksearch-db/tests/fixtures/v1_checkpointed/masks.chi");
    let v1 = std::fs::read(fixture).unwrap();
    assert_eq!((&v1[..4], v1[4]), (&b"MSKI"[..], 1));
    let (store, valid_len) = ChiStore::from_segments(&v1).unwrap();
    assert_eq!(valid_len, 0);
    assert_eq!(store.len(), 5);
    let expected = segment(3, &narrowed(&v1[8..]));
    assert!(store.to_bytes() == expected);
    assert_eq!(store.encoded_len(), expected.len() as u64);
}

#[test]
fn cursors_answer_point_lookups_in_any_order() {
    let config = ChiConfig::new(8, 8, 4).unwrap();
    let store = ChiStore::new(config);
    let mut catalog = Catalog::new();
    for id in (0..500u64).filter(|id| id % 11 != 4 && !(200..260).contains(id)) {
        let (w, h) = SHAPES[id as usize % SHAPES.len()];
        catalog.insert(MaskRecord::builder(MaskId::new(id * 2)).shape(w, h).build());
        if id % 5 != 0 {
            store.index_mask(MaskId::new(id * 2), &mask(id, w, h));
        }
    }
    let ascending: Vec<u64> = (0..1100).collect();
    let strided: Vec<u64> = (0..1100).step_by(6).collect();
    let sparse: Vec<u64> = (0..1100).step_by(97).collect();
    let descending: Vec<u64> = (0..1100).rev().collect();
    let repeated: Vec<u64> = (0..500).flat_map(|id| [id, id, id + 3, id]).collect();
    let scattered: Vec<u64> = (0..3000u64).map(|i| (i * 7919) % 1100).collect();
    let reader = store.reader();
    for ids in [ascending, strided, sparse, descending, repeated, scattered] {
        let mut records = catalog.cursor();
        let mut chis = reader.cursor();
        for id in ids.into_iter().map(MaskId::new) {
            assert_eq!(records.seek(id), catalog.get(id), "record {id}");
            assert_eq!(chis.seek(id), reader.get(id), "chi {id}");
        }
    }
}

/// Shapes either side of the 16-bit rule — 65,535 pixels (narrow), 65,536
/// (wide), one column of 65,535 — and the WILDS shape, with the width each
/// must keep.
const WIDTH_EDGES: [((u32, u32), bool); 4] = [
    ((255, 257), true),
    ((256, 256), false),
    ((1, 65_535), true),
    ((448, 448), false),
];

/// A noisy mask and an all-0.99 mask (every count reaches the pixel count)
/// of every width-edge shape.
fn width_edge_masks() -> Vec<(MaskId, Mask, bool)> {
    let mut masks = Vec::new();
    for (at, ((w, h), narrow)) in WIDTH_EDGES.into_iter().enumerate() {
        let at = at as u64 * 2;
        masks.push((MaskId::new(at), mask(at, w, h), narrow));
        masks.push((
            MaskId::new(at + 1),
            Mask::constant(w, h, 0.99).unwrap(),
            narrow,
        ));
    }
    masks
}

#[test]
fn width_edge_shapes_give_the_same_bounds_from_every_source() {
    let config = ChiConfig::new(16, 16, 8).unwrap();
    let masks = width_edge_masks();
    let store = ChiStore::new(config);
    for (id, mask, _) in &masks {
        store.index_mask(*id, mask);
    }
    let (loaded, valid_len) = ChiStore::from_segments(&store.to_bytes()).unwrap();
    assert_eq!(valid_len as u64, store.encoded_len());
    let reader = loaded.reader();
    let ranges = [
        PixelRange::full(),
        PixelRange::new(0.5, 1.0).unwrap(),
        PixelRange::new(0.25, step(0.75, false)).unwrap(),
        PixelRange::new(step(0.4, true), 0.8).unwrap(),
        PixelRange::new(0.98, 0.995).unwrap(),
    ];
    let mut compared = 0;
    for (id, mask, narrow) in &masks {
        let (w, h) = mask.shape();
        let owned = Chi::build(mask, &config);
        assert_eq!(
            matches!(owned.cells(), Cells::Narrow(_)),
            *narrow,
            "{w}x{h}"
        );
        assert_eq!(owned.byte_size(), config.index_bytes(w, h));
        assert_eq!(
            owned.byte_size(),
            config.count_len(w, h) * if *narrow { 2 } else { 4 }
        );
        let full = owned.prefix_hist(owned.cells_x(), owned.cells_y());
        if mask.get(0, 0) == 0.99 {
            // The full prefix counts every pixel in every bin: 65,535 on
            // the largest narrow shape, the most 16 bits hold.
            assert_eq!(full, vec![u64::from(w * h); config.bins() as usize]);
        }
        let wide = Chi::from_parts(config, w, h, owned.cells().to_wide()).unwrap();
        assert_eq!(wide, owned);
        let view = reader.get(*id).unwrap();
        assert_eq!(view, owned.view());
        let sources = [owned.view(), view, wide.view()];
        for roi in [
            mask.full_roi(),
            Roi::new(w / 3, h / 5, w - w / 7, h - h / 9).unwrap(),
            Roi::new(w / 2, h / 2, w + 5, h + 5).unwrap(),
            Roi::new(0, 16, w.min(32), 48).unwrap(),
        ] {
            let region = owned.covering_region(&roi).unwrap();
            let (bx0, by0, bx1, by1) = region;
            let hist = owned.region_hist(bx0, by0, bx1, by1);
            for range in &ranges {
                let expected = cp_bounds(&owned, &roi, range);
                let cells = TermBounds::new(*range).cell_bounds(owned.view(), &roi);
                for source in &sources {
                    assert_eq!(cp_bounds(source, &roi, range), expected, "{w}x{h} {roi}");
                    let mut term = TermBounds::new(*range);
                    assert_eq!(term.cp_bounds(*source, &roi), expected);
                    assert_eq!(term.cell_bounds(*source, &roi), cells, "{w}x{h} {roi}");
                    assert_eq!(source.region_hist(bx0, by0, bx1, by1), hist);
                    compared += 1;
                }
                let exact = cp(mask, &roi, range);
                assert!(
                    cells.lower <= exact && exact <= cells.upper,
                    "{w}x{h} {roi}"
                );
                assert!(expected.lower <= cells.lower && cells.upper <= expected.upper);
            }
        }
    }
    assert_eq!(compared, 8 * 4 * ranges.len() * 3);
}

#[test]
fn overwrites_that_change_width_move_between_slabs() {
    // Masks of both widths overwritten by each other, removed and put back
    // in random order: the store answers like a map of owned indexes, and
    // writes what `encode` does.
    let config = ChiConfig::new(32, 32, 4).unwrap();
    let shapes = [(255, 257), (256, 256), (1, 65_535), (300, 220), (37, 29)];
    let store = ChiStore::new(config);
    let mut model: BTreeMap<MaskId, Chi> = BTreeMap::new();
    let mut state = 0x5eed_cafeu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut moved = 0;
    for step in 0..120 {
        let id = MaskId::new(next() % 6);
        let (w, h) = shapes[(next() % shapes.len() as u64) as usize];
        if next() % 4 == 0 {
            assert_eq!(store.remove(id), model.remove(&id).is_some());
        } else {
            let chi = store.index_mask(id, &mask(next(), w, h));
            if let Some(old) = model.insert(id, chi) {
                let widths = [&old, &model[&id]].map(|chi| matches!(chi.cells(), Cells::Narrow(_)));
                moved += usize::from(widths[0] != widths[1]);
            }
        }
        assert_same(&store, &model, step);
    }
    assert!(moved > 10, "{moved} overwrites changed width");
}

/// A model over both widths: the width-edge masks and the mixed shapes.
fn mixed_model(config: &ChiConfig, seed: u64) -> BTreeMap<MaskId, Chi> {
    let mut model: BTreeMap<MaskId, Chi> = width_edge_masks()
        .into_iter()
        .map(|(id, mask, _)| (id, Chi::build(&mask, config)))
        .collect();
    for (at, (w, h)) in SHAPES.into_iter().enumerate() {
        let id = MaskId::new(20 + at as u64);
        model.insert(id, Chi::build(&mask(seed + at as u64, w, h), config));
    }
    model
}

#[test]
fn version_2_segments_load_into_the_same_indexes() {
    let config = ChiConfig::new(16, 16, 8).unwrap();
    let model = mixed_model(&config, 1);
    let v2 = encode_v2(&config, &model);
    let (loaded, valid_len) = ChiStore::from_segments(&v2).unwrap();
    assert_eq!(valid_len, v2.len());
    // Written back, the same indexes are one v3 segment.
    assert_same(&loaded, &model, 0);
    assert!(loaded.to_bytes().len() < v2.len());
}

#[test]
fn a_version_3_segment_appended_to_a_version_2_file_wins() {
    let config = ChiConfig::new(16, 16, 8).unwrap();
    let old = mixed_model(&config, 1);
    // Every other mask overwritten (some in another shape, so another
    // width), and a new one.
    let mut newer: BTreeMap<MaskId, Chi> = old
        .keys()
        .step_by(2)
        .enumerate()
        .map(|(at, id)| {
            let (w, h) = WIDTH_EDGES[at % WIDTH_EDGES.len()].0;
            (*id, Chi::build(&mask(100 + at as u64, w, h), &config))
        })
        .collect();
    newer.insert(MaskId::new(99), Chi::build(&mask(7, 37, 29), &config));
    let mut file = encode_v2(&config, &old);
    file.extend_from_slice(&encode(&config, &newer));
    let (loaded, valid_len) = ChiStore::from_segments(&file).unwrap();
    assert_eq!(valid_len, file.len());
    let mut model = old;
    model.extend(newer);
    assert_same(&loaded, &model, 0);
}

#[test]
fn a_version_3_entry_whose_shape_changes_width_is_an_error() {
    // 255x257 (narrow) and 256x257 (wide) share a 16x17 grid of 16-pixel
    // cells, so only the cells' width tells them apart.
    let config = ChiConfig::new(16, 16, 4).unwrap();
    let small = Chi::build(&mask(3, 37, 29), &config);
    for (from, to) in [(255, 256), (256, 255)] {
        let edge = Chi::build(&mask(5, from, 257), &config);
        assert_eq!(config.count_len(from, 257), config.count_len(to, 257));
        for edge_first in [true, false] {
            let (edge_id, small_id) = match edge_first {
                true => (MaskId::new(1), MaskId::new(2)),
                false => (MaskId::new(2), MaskId::new(1)),
            };
            let entries = BTreeMap::from([(edge_id, edge.clone()), (small_id, small.clone())]);
            let file = encode(&config, &entries);
            assert!(ChiStore::from_segments(&file).is_ok());
            // The edge entry's width field, in the payload after the
            // segment header and the payload's own.
            let small_len = 20 + small.byte_size() as usize;
            let at = 20 + if edge_first { 0 } else { small_len } + 8;
            let mut payload = file[24..].to_vec();
            assert_eq!(payload[at..at + 4], from.to_le_bytes());
            payload[at..at + 4].copy_from_slice(&to.to_le_bytes());
            let changed = segment(3, &payload);
            assert!(
                ChiStore::from_segments(&changed).is_err(),
                "{from} -> {to}, first: {edge_first}"
            );
            // After a good segment it ends the valid prefix, which keeps
            // the good segment's indexes only.
            let mut file = encode(&config, &BTreeMap::from([(small_id, small.clone())]));
            let good = file.len();
            file.extend_from_slice(&changed);
            let (loaded, valid_len) = ChiStore::from_segments(&file).unwrap();
            assert_eq!((valid_len, loaded.ids()), (good, vec![small_id]));
        }
    }
}

#[test]
fn a_durable_store_over_a_version_2_index_file_answers_and_rewrites_it() {
    let chi_config = ChiConfig::new(8, 8, 4).unwrap();
    let dir = std::env::temp_dir().join(format!(
        "masksearch-bounds-oracle-v2-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let record =
        |id: u64, (w, h): (u32, u32)| MaskRecord::builder(MaskId::new(id)).shape(w, h).build();
    let shapes = [(24, 24), (37, 29), (256, 256)];
    let mut data: Vec<(MaskRecord, Mask)> = (0..9u64)
        .map(|id| {
            let shape = shapes[id as usize % shapes.len()];
            (record(id, shape), mask(id, shape.0, shape.1))
        })
        .collect();
    let config = DbConfig::default()
        .page_size(1024)
        .fsync(false)
        .chi_config(chi_config);
    {
        let db = MaskDb::open(&dir, config).unwrap();
        db.insert_masks(&data).unwrap();
        db.checkpoint().unwrap();
    }
    // The index file as a v2 build wrote it.
    let model: BTreeMap<MaskId, Chi> = data
        .iter()
        .map(|(record, mask)| (record.mask_id, Chi::build(mask, &chi_config)))
        .collect();
    let v2 = encode_v2(&chi_config, &model);
    std::fs::write(dir.join(CHI_FILE), &v2).unwrap();

    // Checkpoint after every commit.
    let db = MaskDb::open(&dir, config.checkpoint_wal_bytes(1)).unwrap();
    assert_same(&db.chi_store(), &model, 0);
    let session = Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        SessionConfig::new(chi_config)
            .threads(1)
            .indexing_mode(IndexingMode::Eager),
        db.chi_store(),
    );
    // The median count is the threshold: some masks pass, some do not.
    let (roi, range) = (
        Roi::new(3, 5, 30, 27).unwrap(),
        PixelRange::new(0.3, 0.7).unwrap(),
    );
    let mut counts: Vec<u64> = data
        .iter()
        .map(|(_, mask)| cp(mask, &roi, &range))
        .collect();
    counts.sort_unstable();
    let query = Query::filter_cp_gt(roi, range, counts[counts.len() / 2] as f64);
    let run = |data: &[(MaskRecord, Mask)]| {
        let catalog = db.catalog();
        let mut oracle = BruteForce::new(&catalog, &query);
        for (record, mask) in data {
            oracle.consume(record.mask_id, mask).unwrap();
        }
        let expected = oracle.finish().unwrap();
        assert!(!expected.is_empty() && expected.len() < data.len());
        assert_eq!(session.execute(&query).unwrap().rows, expected);
    };
    run(&data);
    assert_eq!(std::fs::read(dir.join(CHI_FILE)).unwrap(), v2);

    // The next automatic checkpoint writes the file as one v3 segment.
    let checkpoints = db.ingest_stats().checkpoints;
    let extra = (record(50, (24, 24)), mask(50, 24, 24));
    db.insert_masks(std::slice::from_ref(&extra)).unwrap();
    data.push(extra);
    assert_eq!(db.ingest_stats().checkpoints, checkpoints + 1);
    let file = std::fs::read(dir.join(CHI_FILE)).unwrap();
    assert_eq!((&file[..4], file[4]), (&b"MSKI"[..], 3));
    assert!(file == db.chi_store().to_bytes());
    assert!(file.len() < v2.len());
    run(&data);
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
