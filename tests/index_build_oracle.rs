//! Differential oracle for the one pass over a mask's pixels
//! (`masksearch_core::pixel_pass`) that builds its CHI.
//!
//! The reference is the loop the index used to be built by —
//! `Chi::build`'s loop over `iter_pixels` (four divisions and an `f64` bin per
//! pixel) — copied here as it was. `Chi::build` must equal it exactly, in
//! every CHI cell.
//!
//! Inputs: arbitrary shapes (1×N and N×1 included, sizes that are no multiple
//! of the cell), cell sides from 1 to past the mask, 1, 3, 10, 16 and 32
//! bins, and pixels drawn with NaN, ±∞, −0.0, 1.0, negatives, subnormals and
//! the `f32` neighbours of every bin edge `k / bins`. The store-level case
//! drives a database through the commit path — inserts, overwrites (shape
//! changes included), deletes, automatic and explicit checkpoints, a reopen
//! that rebuilds a removed `masks.chi` — and holds `masks.chi` to the bytes
//! of a store filled by the reference builds.

use masksearch::core::{Mask, MaskId, MaskRecord};
use masksearch::db::{DbConfig, DurableMaskStore, CHI_FILE};
use masksearch::index::{Chi, ChiConfig, ChiStore};
use masksearch::storage::MaskStore;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `Chi::build` before the one pass.
fn reference_chi(mask: &Mask, config: &ChiConfig) -> Chi {
    let (w, h) = mask.shape();
    let cells_x = config.cells_x(w);
    let cells_y = config.cells_y(h);
    let bins = config.bins() as usize;
    let mut data = vec![0u32; cells_x as usize * cells_y as usize * bins];

    // Pass 1: per-cell plain histograms.
    for (x, y, v) in mask.iter_pixels() {
        if !(0.0..1.0).contains(&v) {
            continue;
        }
        let cx = (x / config.cell_width()) as usize;
        let cy = (y / config.cell_height()) as usize;
        // `ChiConfig::bin_of` as it was.
        let bin = ((v as f64 * config.bins() as f64) as u32).min(config.bins() - 1) as usize;
        data[(cy * cells_x as usize + cx) * bins + bin] += 1;
    }

    // Pass 2: reverse-cumulative over bins within each cell.
    for cell in data.chunks_exact_mut(bins) {
        for b in (0..bins - 1).rev() {
            cell[b] += cell[b + 1];
        }
    }

    // Pass 3: 2-D prefix sums over the cell grid, per bin.
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
    Chi::from_parts(*config, w, h, data).expect("grid of the mask's shape")
}

const BIN_COUNTS: [u32; 5] = [1, 3, 10, 16, 32];

/// A seeded linear congruential stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One pixel. `hostile` admits values outside `[0, 1)`; otherwise every
/// value is one `Mask::new` accepts (−0.0 and subnormals included).
fn pixel(rng: &mut Lcg, hostile: bool) -> f32 {
    let edge = |rng: &mut Lcg| {
        // An f32 neighbour of a bin edge k / bins, for every bin count.
        let bins = BIN_COUNTS[rng.below(BIN_COUNTS.len() as u64) as usize];
        let k = rng.below(bins as u64 + 1) as u32;
        let mut v = k as f32 / bins as f32;
        for _ in 0..rng.below(3) {
            v = v.next_down();
        }
        for _ in 0..rng.below(3) {
            v = v.next_up();
        }
        v
    };
    let v = match rng.below(if hostile { 14 } else { 9 }) {
        0..=3 => (rng.next() >> 29) as f32 / (1u64 << 24) as f32,
        4 | 5 => edge(rng),
        6 => -0.0,
        7 => f32::from_bits(1 + rng.below(0x007f_ffff) as u32), // subnormal
        8 => 0.0,
        9 => f32::NAN,
        10 => f32::INFINITY,
        11 => f32::NEG_INFINITY,
        12 => 1.0,
        _ => -((rng.below(1000) + 1) as f32) / 100.0,
    };
    if hostile || (0.0..1.0).contains(&v) {
        v
    } else {
        0.5
    }
}

fn mask_of(w: u32, h: u32, seed: u64, hostile: bool) -> Mask {
    let mut rng = Lcg(seed | 1);
    // Runs of one value now and then, so a cell can hold ±0 ties and whole
    // rows of one bin.
    let mut held = 0.0f32;
    let data = (0..w as usize * h as usize)
        .map(|_| {
            if rng.below(4) != 0 {
                held = pixel(&mut rng, hostile);
            }
            held
        })
        .collect();
    Mask::from_data_unchecked(w, h, data).expect("shape matches")
}

/// Checks the build of one `(mask, config)` against the reference loop.
fn check_builds(mask: &Mask, config: &ChiConfig) {
    let what = format!(
        "{}x{} cell {}x{} bins {}",
        mask.width(),
        mask.height(),
        config.cell_width(),
        config.cell_height(),
        config.bins()
    );
    assert_eq!(
        Chi::build(mask, config),
        reference_chi(mask, config),
        "{what}: Chi::build"
    );
}

/// Sides that are often 1, often no multiple of anything, sometimes large.
fn arb_side() -> impl Strategy<Value = u32> {
    (0u32..4, 1u32..=130).prop_map(|(kind, side)| if kind == 0 { 1 } else { side })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    #[test]
    fn one_pass_equals_the_two_reference_loops(
        w in arb_side(),
        h in arb_side(),
        seed in any::<u64>(),
        hostile in 0u32..4,
        cell_w in 1u32..=150,
        cell_h in 1u32..=150,
        bins_at in 0usize..BIN_COUNTS.len(),
    ) {
        let mask = mask_of(w, h, seed, hostile != 0);
        let config = ChiConfig::new(cell_w, cell_h, BIN_COUNTS[bins_at]).unwrap();
        check_builds(&mask, &config);
    }
}

/// The corners the random draw reaches only sometimes: single pixels, one
/// row or column, cells of one pixel and past the mask, the benchmark's
/// geometry.
#[test]
fn one_pass_equals_the_reference_loops_at_the_edges() {
    let shapes = [(1, 1), (1, 97), (97, 1), (2, 3), (112, 112), (129, 65)];
    let cells = [(1, 1), (1, 7), (14, 14), (13, 5), (64, 64), (200, 300)];
    for (i, &(w, h)) in shapes.iter().enumerate() {
        for hostile in [false, true] {
            let mask = mask_of(w, h, 77 + i as u64, hostile);
            for &(cw, ch) in &cells {
                for bins in BIN_COUNTS {
                    check_builds(&mask, &ChiConfig::new(cw, ch, bins).unwrap());
                }
            }
        }
    }
    // Signed zeros count like zeros.
    let mut data = vec![0.0f32; 6 * 4];
    for (i, v) in data.iter_mut().enumerate() {
        if (i / 3) % 2 == 0 {
            *v = -0.0;
        }
    }
    let mask = Mask::new(6, 4, data).unwrap();
    check_builds(&mask, &ChiConfig::new(2, 2, 16).unwrap());
    // Whole cells of uncountable pixels.
    let mask = Mask::from_data_unchecked(5, 5, vec![f32::NAN; 25]).unwrap();
    check_builds(&mask, &ChiConfig::new(2, 3, 10).unwrap());
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-index-build-oracle-{}-{}",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(id: MaskId, mask: &Mask) -> MaskRecord {
    MaskRecord::builder(id)
        .shape(mask.width(), mask.height())
        .build()
}

/// The bytes a store of the reference builds of `masks` serialises to.
fn reference_file(config: &ChiConfig, masks: &BTreeMap<MaskId, Mask>) -> Vec<u8> {
    let chi = ChiStore::new(*config);
    for (&id, mask) in masks {
        chi.insert(id, reference_chi(mask, config));
    }
    chi.to_bytes()
}

/// Checkpoints (one segment) and compares the index file with the
/// reference store's bytes.
fn assert_files_match(
    store: &DurableMaskStore,
    dir: &std::path::Path,
    config: &ChiConfig,
    masks: &BTreeMap<MaskId, Mask>,
    when: &str,
) {
    store.checkpoint().unwrap();
    assert!(
        std::fs::read(dir.join(CHI_FILE)).unwrap() == reference_file(config, masks),
        "{when}: masks.chi differs from the reference build"
    );
    assert_eq!(store.ids(), masks.keys().copied().collect::<Vec<_>>());
}

#[test]
fn committed_index_files_equal_the_reference_builds() {
    for (name, chi_config) in [
        ("shared-bins", ChiConfig::new(14, 14, 16).unwrap()),
        ("f64-bins", ChiConfig::new(5, 7, 10).unwrap()),
    ] {
        let dir = temp_dir(name);
        let config = DbConfig::default()
            .page_size(512)
            .fsync(false)
            .chi_config(chi_config)
            .checkpoint_wal_bytes(48 * 1024);
        let shapes = [(30, 20), (17, 9), (64, 64), (1, 50), (50, 1), (70, 66)];
        let mut rng = Lcg(0x5eed ^ chi_config.bins() as u64);
        let mut model: BTreeMap<MaskId, Mask> = BTreeMap::new();
        let draw = |rng: &mut Lcg| {
            let (w, h) = shapes[rng.below(shapes.len() as u64) as usize];
            mask_of(w, h, rng.next(), false)
        };
        {
            let store = DurableMaskStore::open(&dir, config).unwrap();
            for step in 0..60u64 {
                let mut inserts: Vec<(MaskRecord, Mask)> = Vec::new();
                let mut deletes: Vec<MaskId> = Vec::new();
                for _ in 0..1 + rng.below(4) {
                    // Ids 0..24: about half of the inserts overwrite.
                    let id = MaskId::new(rng.below(24));
                    let mask = draw(&mut rng);
                    inserts.push((record(id, &mask), mask));
                }
                if step % 3 == 2 && !model.is_empty() {
                    let ids: Vec<MaskId> = model.keys().copied().collect();
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    if inserts.iter().all(|(r, _)| r.mask_id != id) {
                        deletes.push(id);
                    }
                }
                store.apply_batch(&inserts, &deletes).unwrap();
                for id in &deletes {
                    model.remove(id);
                }
                for (record, mask) in inserts {
                    model.insert(record.mask_id, mask);
                }
                if step == 30 {
                    assert_files_match(&store, &dir, &chi_config, &model, "mid-history");
                }
            }
            assert!(store.ingest_stats().unwrap().checkpoints > 2);
            assert!(store.take_checkpoint_error().is_none());
            // Commits after the last checkpoint stay in the log only.
            let extra = draw(&mut rng);
            let id = *model.keys().next().unwrap();
            store
                .insert_masks(&[(record(id, &extra), extra.clone())])
                .unwrap();
            model.insert(id, extra);
        }

        // Reopen: the CHIs of the masks the log replays are rebuilt.
        {
            let store = DurableMaskStore::open(&dir, config).unwrap();
            assert_eq!(store.verify_indexes().unwrap(), model.len());
            assert_files_match(&store, &dir, &chi_config, &model, "replayed");
        }
        // Reopen without the index file: every CHI from its pixels.
        std::fs::remove_file(dir.join(CHI_FILE)).unwrap();
        {
            let store = DurableMaskStore::open(&dir, config).unwrap();
            assert_eq!(store.verify_indexes().unwrap(), model.len());
            assert_files_match(&store, &dir, &chi_config, &model, "rebuilt");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
