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

use masksearch::core::{cp, Mask, MaskId, MaskRecord, PixelRange, Roi};
use masksearch::index::bounds::{bin_ranges, cp_bounds};
use masksearch::index::{Chi, ChiConfig, ChiStore, CpBounds, TermBounds};
use masksearch::query::eval::{resolve_roi, CompiledBounds};
use masksearch::query::{
    CpTerm, Expr, Interval, Predicate, QueryError, RoiSpec, TermSource, Truth,
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

/// What `ChiStore::to_bytes` must produce for `entries`: one v2 segment.
fn encode(config: &ChiConfig, entries: &BTreeMap<MaskId, Chi>) -> Vec<u8> {
    let mut payload = Vec::new();
    for v in [config.cell_width(), config.cell_height(), config.bins()] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (id, chi) in entries {
        payload.extend_from_slice(&id.raw().to_le_bytes());
        for v in [chi.mask_width(), chi.mask_height(), chi.data().len() as u32] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        for cell in chi.data() {
            payload.extend_from_slice(&cell.to_le_bytes());
        }
    }
    segment(&payload)
}

fn segment(payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"MSKI".to_vec();
    bytes.extend_from_slice(&[2, 0, 0, 0]);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let checksum = checksum64(&[&bytes[..16], payload]);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
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
    // and written back it is that payload in one checksummed segment,
    // byte for byte what the parent build writes for this fixture.
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/masksearch-db/tests/fixtures/v1_checkpointed/masks.chi");
    let v1 = std::fs::read(fixture).unwrap();
    assert_eq!((&v1[..4], v1[4]), (&b"MSKI"[..], 1));
    let (store, valid_len) = ChiStore::from_segments(&v1).unwrap();
    assert_eq!(valid_len, 0);
    assert_eq!(store.len(), 5);
    assert!(store.to_bytes() == segment(&v1[8..]));
    assert_eq!(store.encoded_len(), (v1.len() - 8 + 24) as u64);
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
