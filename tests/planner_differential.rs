//! Differential tests of the kernel rule: for arbitrary data and query
//! shapes, a session in `Auto` mode (the tiled kernel exactly for masks
//! that already carry their tile grid) must return rows **byte-identical**
//! to both fixed-strategy sessions (kernel forced on / off), however often
//! a statement repeats and whatever the cache then holds.
//!
//! The deterministic cases pin the rule itself: `Auto` never builds a grid,
//! takes the scan over a store without persisted grids, and takes the
//! kernel over the durable store, whose loads carry their grids.

use masksearch::core::{
    ImageId, Mask, MaskId, MaskOp, MaskRecord, ModelId, PixelRange, Roi, TILE_BINS,
};
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::ChiConfig;
use masksearch::query::{
    CmpOp, Expr, IndexingMode, KernelMode, MaskJoin, Order, Predicate, Query, RoiSpec, ScalarAgg,
    Selection, Session, SessionConfig,
};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use proptest::prelude::*;
use std::sync::Arc;

const W: u32 = 24;
const H: u32 = 24;
/// Executions per query on the `Auto` session: the cache admits a mask on
/// its second miss, so later runs verify on resident copies.
const REPS: usize = 5;

/// Deterministic per-id mask. Even ids are smooth blobs (tight CHI bounds),
/// odd ids are per-pixel noise (loose bounds), so the kernel's tile
/// classification meets both profiles within one query.
fn mask_for(id: u64, seed: u64) -> Mask {
    if id.is_multiple_of(2) {
        let r = 3.0 + ((id / 2 + seed) % 9) as f32;
        Mask::from_fn(W, H, move |x, y| {
            let dx = x as f32 - W as f32 / 2.0;
            let dy = y as f32 - H as f32 / 2.0;
            if (dx * dx + dy * dy).sqrt() < r {
                0.9
            } else {
                0.05
            }
        })
    } else {
        let mut state = id.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed) | 1;
        Mask::from_fn(W, H, move |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32) / (1u64 << 24) as f32
        })
    }
}

fn record_for(id: u64) -> MaskRecord {
    MaskRecord::builder(MaskId::new(id))
        .image_id(ImageId::new(id / 2))
        .model_id(ModelId::new(id % 2 + 1))
        .shape(W, H)
        .object_box(Roi::new(4, 4, 20, 20).unwrap())
        .build()
}

fn config(kernel: KernelMode) -> SessionConfig {
    SessionConfig::new(ChiConfig::new(6, 6, 8).unwrap())
        .threads(1)
        .indexing_mode(IndexingMode::Eager)
        .kernel_mode(kernel)
}

/// A session over a memory store, which persists no tile grids.
fn session_over(images: u64, seed: u64, config: SessionConfig) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for id in 0..images * 2 {
        store.put(MaskId::new(id), &mask_for(id, seed)).unwrap();
        catalog.insert(record_for(id));
    }
    Session::new(store as Arc<dyn MaskStore>, catalog, config).unwrap()
}

/// A pixel range that is tile-bin aligned (`i / TILE_BINS`) when `aligned`,
/// arbitrary hundredths otherwise, so the kernel's histogram and boundary
/// paths both run.
fn arb_range() -> impl Strategy<Value = PixelRange> {
    (any::<bool>(), 0u32..12, 1u32..=8).prop_filter_map(
        "non-empty range",
        |(aligned, lo_step, width)| {
            if aligned {
                let lo = lo_step.min(TILE_BINS as u32 - 1) as f32 / TILE_BINS as f32;
                let hi = ((lo_step + width).min(TILE_BINS as u32)) as f32 / TILE_BINS as f32;
                PixelRange::new(lo, hi).ok()
            } else {
                let lo = lo_step as f32 * 0.07;
                let hi = (lo + width as f32 * 0.09).min(1.0);
                PixelRange::new(lo, hi).ok()
            }
        },
    )
}

fn arb_roi() -> impl Strategy<Value = Roi> {
    (0u32..W - 4, 0u32..H - 4, 4u32..=W, 4u32..=H)
        .prop_filter_map("non-degenerate roi", |(x0, y0, w, h)| {
            Roi::new(x0, y0, (x0 + w).min(W), (y0 + h).min(H)).ok()
        })
}

/// A comparison over one CP term (constant or object-box ROI).
fn arb_comparison() -> impl Strategy<Value = Predicate> {
    (
        arb_roi(),
        arb_range(),
        any::<bool>(),
        0u32..6,
        any::<bool>(),
    )
        .prop_map(|(roi, range, object, steps, gt)| {
            let threshold = f64::from(steps) * (W * H) as f64 / 12.0;
            let expr = if object {
                Expr::cp_object(range)
            } else {
                Expr::cp(roi, range)
            };
            if gt {
                Predicate::gt(expr, threshold)
            } else {
                Predicate::lt(expr, threshold)
            }
        })
}

/// 1–3 comparisons combined with AND / OR / NOT.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (
        (arb_comparison(), arb_comparison(), arb_comparison()),
        (0u32..3, any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((first, second, third), (extra, and2, and3, neg))| {
            let mut p = first;
            if extra >= 1 {
                p = if and2 { p.and(second) } else { p.or(second) };
            }
            if extra >= 2 {
                p = if and3 { p.and(third) } else { p.or(third) };
            }
            if neg {
                p = p.negate();
            }
            p
        })
}

/// Runs `query` `REPS` times on the auto session and once per fixed
/// session; every result's rows must equal the first fixed baseline. The
/// auto session caches what it loads, so later reps verify resident masks.
fn assert_planner_matches_fixed(images: u64, seed: u64, queries: &[Query]) {
    let auto = session_over(images, seed, config(KernelMode::Auto).cache_bytes(1 << 20));
    let fixed: Vec<Session> = [KernelMode::ForceOn, KernelMode::ForceOff]
        .into_iter()
        .map(|kernel| session_over(images, seed, config(kernel)))
        .collect();
    for query in queries {
        let baseline = fixed[0].execute(query).unwrap();
        for session in &fixed[1..] {
            let out = session.execute(query).unwrap();
            assert_eq!(
                out.rows, baseline.rows,
                "fixed strategies diverged on {query:?}"
            );
        }
        // Repeated auto executions: masks enter the cache between runs, and
        // rows must never move.
        for rep in 0..REPS {
            let out = auto.execute(query).unwrap();
            assert_eq!(
                out.rows,
                baseline.rows,
                "auto plan diverged from fixed strategies on rep {rep} of {query:?} \
                 (plan: {})",
                auto.plan_signature(query)
            );
        }
    }
}

fn range(lo: f32, hi: f32) -> PixelRange {
    PixelRange::new(lo, hi).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn filter_plans_are_byte_identical_to_every_fixed_strategy(
        images in 3u64..10,
        seed in any::<u64>(),
        predicate in arb_predicate(),
    ) {
        let queries = [Query::filter(predicate)];
        assert_planner_matches_fixed(images, seed, &queries);
    }

    #[test]
    fn topk_and_aggregate_plans_are_byte_identical(
        images in 3u64..10,
        seed in any::<u64>(),
        roi in arb_roi(),
        r in arb_range(),
        k in 1usize..7,
        desc in any::<bool>(),
        steps in 0u32..6,
    ) {
        let order = if desc { Order::Desc } else { Order::Asc };
        let threshold = f64::from(steps) * (W * H) as f64 / 12.0;
        let queries = [
            Query::top_k_cp(roi, r, k, order),
            Query::top_k(
                Expr::cp(roi, r).div(Expr::cp_full(range(0.0, 1.0))),
                k,
                order,
            ),
            Query::aggregate(Expr::cp(roi, r), ScalarAgg::Avg).with_group_top_k(k, order),
            Query::aggregate(Expr::cp(roi, r), ScalarAgg::Sum)
                .with_having(CmpOp::Gt, threshold),
        ];
        assert_planner_matches_fixed(images, seed, &queries);
    }

    #[test]
    fn pair_plans_are_byte_identical(
        images in 3u64..9,
        seed in any::<u64>(),
        roi in arb_roi(),
        r in arb_range(),
        k in 1usize..6,
        desc in any::<bool>(),
        steps in 0u32..6,
    ) {
        let order = if desc { Order::Desc } else { Order::Asc };
        let threshold = f64::from(steps) * (W * H) as f64 / 12.0;
        let join = || MaskJoin::new(
            Selection::all().with_model(ModelId::new(1)),
            Selection::all().with_model(ModelId::new(2)),
        );
        let queries = [
            Query::pair_filter(
                join(),
                Predicate::gt(
                    Expr::cp_composed(MaskOp::Diff, RoiSpec::Constant(roi), r),
                    threshold,
                ),
            ),
            Query::pair_filter(
                join(),
                Predicate::lt(
                    Expr::cp_composed(MaskOp::Union, RoiSpec::FullMask, r),
                    threshold,
                ),
            ),
            Query::pair_top_k(join(), Expr::iou(RoiSpec::FullMask, r), k, order),
            Query::pair_top_k(
                join(),
                Expr::cp_composed(MaskOp::Intersect, RoiSpec::Constant(roi), r),
                k,
                order,
            ),
        ];
        assert_planner_matches_fixed(images, seed, &queries);
    }
}

/// A filter over the smooth model's masks.
fn smooth_filter() -> Query {
    Query::filter_cp_gt(
        Roi::new(0, 0, W, H).unwrap(),
        range(0.5, 1.0),
        (W * H) as f64 * 0.2,
    )
    .with_selection(Selection::all().with_model(ModelId::new(1)))
}

/// A caching session configuration without CHIs, so every candidate is
/// verified against its pixels.
fn verify_all(kernel: KernelMode) -> SessionConfig {
    config(kernel)
        .indexing_mode(IndexingMode::Disabled)
        .cache_bytes(1 << 20)
}

/// Every mask the session's cache holds, with whether it carries a grid.
fn cached_grids(session: &Session, masks: u64) -> Vec<bool> {
    (0..masks)
        .filter_map(|id| session.cache().peek_tiled(MaskId::new(id)))
        .map(|tiled| tiled.has_grid())
        .collect()
}

#[test]
fn auto_over_a_memory_store_scans_and_builds_no_grid() {
    let (images, seed) = (8, 11);
    let query = smooth_filter();
    let expected = session_over(images, seed, config(KernelMode::ForceOff))
        .execute(&query)
        .unwrap()
        .rows;
    let auto = session_over(images, seed, verify_all(KernelMode::Auto));
    let mut loaded_verifies = 0;
    for rep in 0..4 {
        let out = auto.execute(&query).unwrap();
        assert_eq!(out.rows, expected, "rows moved on rep {rep}");
        assert_eq!(out.stats.planner_kernel_on, 0, "rep {rep} took the kernel");
        loaded_verifies += out.stats.planner_kernel_off;
    }
    assert!(loaded_verifies > 0, "no verify ran on a loaded mask");
    let grids = cached_grids(&auto, images * 2);
    assert!(!grids.is_empty(), "nothing was cached");
    assert!(
        grids.iter().all(|has_grid| !has_grid),
        "an auto statement built a grid"
    );
}

#[test]
fn force_on_still_builds_grids_and_returns_the_same_rows() {
    let (images, seed) = (8, 11);
    let query = smooth_filter();
    let expected = session_over(images, seed, config(KernelMode::Auto))
        .execute(&query)
        .unwrap()
        .rows;
    let forced = session_over(images, seed, verify_all(KernelMode::ForceOn));
    let out = forced.execute(&query).unwrap();
    assert_eq!(out.rows, expected);
    assert!(out.stats.verified > 0);
    assert_eq!(out.stats.planner_kernel_on, out.stats.verified);
    let grids = cached_grids(&forced, images * 2);
    assert_eq!(grids.len() as u64, out.stats.verified);
    assert!(grids.iter().all(|has_grid| *has_grid));
}

#[test]
fn auto_over_a_durable_store_takes_the_kernel_on_every_whole_mask_verify() {
    let (images, seed) = (8u64, 11);
    let dir = std::env::temp_dir().join(format!(
        "masksearch-planner-differential-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = MaskDb::open(
        &dir,
        DbConfig::default().chi_config(ChiConfig::new(6, 6, 8).unwrap()),
    )
    .unwrap();
    let batch: Vec<(MaskRecord, Mask)> = (0..images * 2)
        .map(|id| (record_for(id), mask_for(id, seed)))
        .collect();
    db.insert_masks(&batch).unwrap();
    let session = |config: SessionConfig| {
        Session::with_store_maintained_index(db.mask_store(), db.catalog(), config, db.chi_store())
    };
    let query = smooth_filter();
    let expected = session(config(KernelMode::ForceOff))
        .execute(&query)
        .unwrap()
        .rows;
    let auto = session(verify_all(KernelMode::Auto));
    // A miss is first counted in place, then admitted and loaded whole,
    // then verified resident.
    let mut loaded_verifies = 0;
    for rep in 0..4 {
        let out = auto.execute(&query).unwrap();
        let s = &out.stats;
        assert_eq!(out.rows, expected, "rows moved on rep {rep}");
        assert_eq!(s.planner_kernel_off, 0, "rep {rep} scanned a loaded mask");
        assert_eq!(s.planner_kernel_on, s.verified - s.verified_in_place);
        loaded_verifies += s.planner_kernel_on;
    }
    assert!(loaded_verifies > 0, "no verify ran on a loaded mask");
    drop((auto, db));
    let _ = std::fs::remove_dir_all(&dir);
}
