//! Differential tests of verification's one rule: a mask is counted by
//! CHI cell when the statement's index summarises exactly its pixels (every
//! store stamps its pixels, and every index the stamp of the pixels it was
//! built from), by the reference scan otherwise. For arbitrary data and
//! query shapes, a session over each kind of store — the durable store and
//! a memory store, whose indexed masks both take the cell kernel — must
//! return rows **byte-identical** to the load-everything [`BruteForce`]
//! reference, however often a statement repeats and whatever the cache
//! then holds.
//!
//! The deterministic cases pin the rule itself: every verify of an indexed
//! mask takes the cell kernel on either store, an index built incrementally
//! counts the next statement's masks by cell, and an index read from a file
//! (stamped as of no commit) never does over a memory store's pixels.

use masksearch::baselines::BruteForce;
use masksearch::core::{ImageId, Mask, MaskId, MaskOp, MaskRecord, ModelId, PixelRange, Roi};
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::{ChiConfig, ChiStore};
use masksearch::query::{
    CmpOp, Expr, IndexingMode, MaskJoin, Order, Predicate, Query, ResultRow, RoiSpec, ScalarAgg,
    Selection, Session, SessionConfig,
};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const W: u32 = 24;
const H: u32 = 24;
/// Executions per query on each session: the cache admits a mask on its
/// second miss, so later runs verify on resident copies.
const REPS: usize = 5;

/// Deterministic per-id mask. Even ids are smooth blobs (tight CHI bounds),
/// odd ids are per-pixel noise (loose bounds), so the cell kernel meets
/// both profiles within one query.
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

/// The index configuration of every session: 8 bins.
const BINS: u32 = 8;

fn config() -> SessionConfig {
    SessionConfig::new(ChiConfig::new(6, 6, BINS).unwrap())
        .threads(1)
        .indexing_mode(IndexingMode::Eager)
}

/// The masks of `images` images and their records.
fn dataset(images: u64, seed: u64) -> Vec<(MaskRecord, Mask)> {
    (0..images * 2)
        .map(|id| (record_for(id), mask_for(id, seed)))
        .collect()
}

/// A memory store of the masks of `images` images, and their catalog.
fn memory_store(images: u64, seed: u64) -> (Arc<dyn MaskStore>, Catalog) {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for (record, mask) in dataset(images, seed) {
        store.put(record.mask_id, &mask).unwrap();
        catalog.insert(record);
    }
    (store, catalog)
}

/// A session over a memory store.
fn session_over(images: u64, seed: u64, config: SessionConfig) -> Session {
    let (store, catalog) = memory_store(images, seed);
    Session::new(store, catalog, config).unwrap()
}

/// A durable database of the same masks in a fresh directory, removed on
/// drop.
struct Durable {
    db: MaskDb,
    dir: PathBuf,
}

impl Durable {
    fn new(images: u64, seed: u64) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "masksearch-planner-differential-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DbConfig::default()
            .fsync(false)
            .chi_config(ChiConfig::new(6, 6, BINS).unwrap());
        let db = MaskDb::open(&dir, config).unwrap();
        db.insert_masks(&dataset(images, seed)).unwrap();
        Self { db, dir }
    }

    /// A session sharing the store's stamped index.
    fn session(&self, config: SessionConfig) -> Session {
        let db = &self.db;
        Session::with_store_maintained_index(db.mask_store(), db.catalog(), config, db.chi_store())
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The load-everything reference rows of `query`.
fn oracle_rows(images: u64, seed: u64, query: &Query) -> Vec<ResultRow> {
    let data = dataset(images, seed);
    let mut catalog = Catalog::new();
    for (record, _) in &data {
        catalog.insert(record.clone());
    }
    let mut bf = BruteForce::new(&catalog, query);
    for (record, mask) in &data {
        bf.consume(record.mask_id, mask).unwrap();
    }
    bf.finish().unwrap()
}

/// A pixel range that is bin aligned (`i / BINS`) when `aligned`, arbitrary
/// hundredths otherwise, so the cell kernel's exact and scanned cells both
/// occur.
fn arb_range() -> impl Strategy<Value = PixelRange> {
    (any::<bool>(), 0u32..12, 1u32..=8).prop_filter_map(
        "non-empty range",
        |(aligned, lo_step, width)| {
            if aligned {
                let lo = lo_step.min(BINS - 1) as f32 / BINS as f32;
                let hi = ((lo_step + width).min(BINS)) as f32 / BINS as f32;
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

/// Runs `query` `REPS` times on a session over the durable store and over
/// a memory store, both caching what they load, so later reps verify
/// resident masks; every result's rows must equal the [`BruteForce`]
/// reference.
fn assert_rows_match_brute_force(images: u64, seed: u64, queries: &[Query]) {
    let durable = Durable::new(images, seed);
    let sessions = [
        ("durable", durable.session(config().cache_bytes(1 << 20))),
        (
            "memory",
            session_over(images, seed, config().cache_bytes(1 << 20)),
        ),
    ];
    for query in queries {
        let expected = oracle_rows(images, seed, query);
        for (name, session) in &sessions {
            for rep in 0..REPS {
                let out = session.execute(query).unwrap();
                // An unranked row the bounds accepted carries no value.
                let keys = |rows: &[ResultRow]| rows.iter().map(|r| r.key).collect::<Vec<_>>();
                assert_eq!(
                    keys(&out.rows),
                    keys(&expected),
                    "{name} session diverged from brute force on rep {rep} of {query:?}"
                );
                for (got, want) in out.rows.iter().zip(&expected) {
                    assert!(
                        got.value.is_none() || got.value == want.value,
                        "{name} session's value diverged on rep {rep} of {query:?}"
                    );
                }
            }
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
        assert_rows_match_brute_force(images, seed, &queries);
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
        assert_rows_match_brute_force(images, seed, &queries);
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
        assert_rows_match_brute_force(images, seed, &queries);
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

/// A caching session configuration whose filter decides nothing, so every
/// candidate is verified against its pixels.
fn verify_all() -> SessionConfig {
    config().cache_bytes(1 << 20)
}

/// A filter the CHI bounds of the noise masks cannot decide: a range off
/// the bin edges, and a threshold near the count a uniform mask has in it.
fn undecidable_filter() -> Query {
    let roi = Roi::new(1, 1, W - 1, H - 1).unwrap();
    Query::filter_cp_gt(roi, range(0.33, 0.77), roi.area() as f64 * 0.44)
}

/// Runs `queries` four times each on `session` and checks every answer
/// against the [`BruteForce`] reference; returns the statements' stats.
fn run_checked(
    session: &Session,
    images: u64,
    seed: u64,
    queries: &[Query],
) -> Vec<masksearch::query::QueryStats> {
    let mut stats = Vec::new();
    for query in queries {
        let expected = oracle_rows(images, seed, query);
        for rep in 0..4 {
            let out = session.execute(query).unwrap();
            assert_eq!(out.rows, expected, "rows moved on rep {rep} of {query:?}");
            stats.push(out.stats);
        }
    }
    stats
}

#[test]
fn auto_over_a_memory_store_takes_the_kernel_on_every_whole_mask_verify() {
    let (images, seed) = (8, 11);
    let queries = [smooth_filter(), undecidable_filter()];
    // Eager: every index is built from pixels loaded with their stamp, so
    // every verify — in turn a miss, an admitted load, a resident copy —
    // counts by CHI cell.
    let session = session_over(images, seed, verify_all());
    let mut counted = 0;
    for s in run_checked(&session, images, seed, &queries) {
        assert_eq!(s.planner_kernel_off, 0, "a memory store's mask was scanned");
        assert_eq!(s.planner_kernel_on, s.verified);
        counted += s.planner_kernel_on;
    }
    assert!(counted > 0, "no verify ran");
    // Without an index there is nothing to count by: every verify scans.
    let unindexed = session_over(
        images,
        seed,
        verify_all().indexing_mode(IndexingMode::Disabled),
    );
    let mut scanned = 0;
    for s in run_checked(&unindexed, images, seed, &queries) {
        assert_eq!(
            s.planner_kernel_on, 0,
            "an unindexed session took the kernel"
        );
        assert_eq!(s.planner_kernel_off, s.verified);
        scanned += s.planner_kernel_off;
    }
    assert!(scanned > 0, "no verify ran");
}

#[test]
fn an_incremental_index_counts_the_next_statement_by_cell() {
    let (images, seed) = (8, 11);
    let query = undecidable_filter();
    let expected = oracle_rows(images, seed, &query);
    for cache_bytes in [0, 1 << 20] {
        let session = session_over(
            images,
            seed,
            verify_all()
                .indexing_mode(IndexingMode::Incremental)
                .cache_bytes(cache_bytes),
        );
        // The first statement has no index to count by: it scans, and
        // builds the CHI of every mask it loads.
        let first = session.execute(&query).unwrap();
        assert_eq!(first.rows, expected);
        let s = &first.stats;
        assert!(s.verified > 0, "no verify ran");
        assert_eq!((s.planner_kernel_on, s.indexes_built), (0, s.verified));
        // The next one counts those masks by CHI cell.
        for rep in 0..3 {
            let out = session.execute(&query).unwrap();
            assert_eq!(out.rows, expected, "rows moved on rep {rep}");
            let s = &out.stats;
            assert!(s.verified > 0, "rep {rep} verified nothing");
            assert_eq!(s.planner_kernel_off, 0, "rep {rep} scanned a mask");
            assert_eq!(s.planner_kernel_on, s.verified);
        }
    }
}

#[test]
fn an_index_read_from_a_file_never_takes_the_kernel_on_a_memory_store() {
    let (images, seed) = (8, 11);
    let file = session_over(images, seed, verify_all())
        .chi_store()
        .to_bytes();
    // An average over the whole mask with a bin-aligned range: the cells
    // decide every count, so even a verify that would read no pixel must
    // ask for their stamp.
    let full = Roi::new(0, 0, W, H).unwrap();
    let queries = [
        smooth_filter(),
        undecidable_filter(),
        Query::aggregate(Expr::cp(full, range(0.5, 1.0)), ScalarAgg::Avg),
    ];
    for cache_bytes in [0, 1 << 20] {
        let (store, catalog) = memory_store(images, seed);
        let config = verify_all().cache_bytes(cache_bytes);
        let loaded =
            Session::with_index(store, catalog, config, ChiStore::from_bytes(&file).unwrap());
        let mut scanned = 0;
        for s in run_checked(&loaded, images, seed, &queries) {
            assert_eq!(s.planner_kernel_on, 0, "a loaded index took the kernel");
            scanned += s.planner_kernel_off;
        }
        assert!(scanned > 0, "no verify ran");
    }
}

#[test]
fn auto_over_a_durable_store_takes_the_kernel_on_every_whole_mask_verify() {
    let (images, seed) = (8u64, 11);
    let durable = Durable::new(images, seed);
    let mut counted = 0;
    for query in [smooth_filter(), undecidable_filter()] {
        let expected = oracle_rows(images, seed, &query);
        let session = durable.session(verify_all());
        // A miss is first counted in place, then admitted and loaded whole,
        // then verified resident: by CHI cell every time.
        for rep in 0..4 {
            let out = session.execute(&query).unwrap();
            let s = &out.stats;
            assert_eq!(out.rows, expected, "rows moved on rep {rep}");
            assert_eq!(s.planner_kernel_off, 0, "rep {rep} scanned a mask");
            assert_eq!(s.planner_kernel_on, s.verified);
            counted += s.planner_kernel_on;
        }
    }
    assert!(counted > 0, "no verify ran");

    // A write stamps the pixels and the CHI it installs alike, and the
    // cache keeps the stamp of the pixels it refreshes: statements after
    // it still count by CHI cell. One pinned before it meets pixels newer
    // than its index and scans them.
    let query = undecidable_filter();
    let session = durable.session(verify_all());
    session.execute(&query).unwrap();
    session.execute(&query).unwrap();
    let pinned = session.read_version();
    let rewrite: Vec<(MaskRecord, Mask)> = dataset(images, seed + 1);
    session.insert_masks(&rewrite).unwrap();
    let stale = session.execute_at(&pinned, &query).unwrap();
    assert!(stale.stats.verified > 0);
    assert_eq!(stale.stats.planner_kernel_on, 0);
    for rep in 0..3 {
        let out = session.execute(&query).unwrap();
        assert_eq!(out.rows, oracle_rows(images, seed + 1, &query), "rep {rep}");
        assert_eq!(out.stats.planner_kernel_off, 0, "rep {rep} scanned a mask");
    }
}
