//! The ranked oracle: every ranked executor — mask top-k, grouped scalar
//! aggregate top-k, `MASK_AGG` top-k and pair top-k — returns exactly the
//! rows and values of [`BruteForce`], bit for bit, whatever order it visits
//! its candidates in and wherever it stops.
//!
//! The property draws tie-heavy datasets (quantised pixels, masks repeated
//! every few ids, empty masks whose ratios are 0/0), both orders, `k` in
//! {0, 1, 3, n−1, n, n+5}, `HAVING` beside `LIMIT`, and every indexing mode,
//! so some or all bounds are missing; a share of the cases runs on a
//! durable store. The deterministic cases pin what the bound-ordered pass
//! and the per-cell refinement of undecided candidates save (exact
//! `verified` counts for a filter, a top-k and a grouped top-k), and three
//! regressions: `HAVING` together with `ORDER BY … LIMIT`
//! (single node, in-process shards, and a 2-shard coordinator over TCP) and
//! a NaN-valued grouped aggregate.

use masksearch::baselines::BruteForce;
use masksearch::cluster::{distributed_topk, ClusterConfig, Coordinator, CoordinatorServer};
use masksearch::core::{ImageId, Mask, MaskAgg, MaskId, MaskOp, MaskRecord, ModelId};
use masksearch::core::{PixelRange, Roi};
use masksearch::datagen::DatasetSpec;
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::ChiConfig;
use masksearch::query::{
    CmpOp, CpTerm, Expr, IndexingMode, MaskJoin, Order, Query, ResultRow, RoiSpec, RowKey,
    ScalarAgg, Selection, Session, SessionConfig,
};
use masksearch::service::{Client, Engine, Server, ServiceConfig};
use masksearch::storage::{Catalog, DiskProfile, MaskEncoding, MaskStore, MemoryMaskStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const W: u32 = 12;
const H: u32 = 12;

fn chi() -> ChiConfig {
    ChiConfig::new(4, 4, 8).unwrap()
}

fn range(lo: f32, hi: f32) -> PixelRange {
    PixelRange::new(lo, hi).unwrap()
}

/// A quantised mask. Masks repeat every `period` ids (so values tie), and
/// every fourth pattern is empty above 0.05 (so ratios over it are 0/0).
fn mask_for(id: u64, seed: u64, period: u64) -> Mask {
    let pattern = id % period + seed * 97;
    if pattern % 4 == 3 {
        return Mask::constant(W, H, 0.05).unwrap();
    }
    let levels = [0.05, 0.3, 0.55, 0.8, 0.95];
    let mut state = pattern.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Mask::from_fn(W, H, move |x, y| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // A bright corner, so the CHI bounds decide some candidates.
        let bright = x < 6 && y < 6 && (state >> 60) < 12;
        if bright {
            0.95
        } else {
            levels[((state >> 33) % 3) as usize]
        }
    })
}

/// Two models' masks per image (ids `2i`, `2i + 1`). Every third object
/// box is cell-aligned, so under a bin-aligned range some bounds are exact
/// and the rest loose — the mix that puts a tight bound level with the k-th
/// value.
fn dataset(images: u64, seed: u64, period: u64) -> Vec<(MaskRecord, Mask)> {
    (0..images * 2)
        .map(|id| {
            let record = MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(id / 2))
                .model_id(ModelId::new(id % 2 + 1))
                .shape(W, H)
                .object_box(if id % 3 == 0 {
                    Roi::new(4, 0, 12, 8).unwrap()
                } else {
                    Roi::new(2, 2, 10, 10).unwrap()
                })
                .build();
            (record, mask_for(id, seed, period))
        })
        .collect()
}

fn catalog_of(data: &[(MaskRecord, Mask)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (record, _) in data {
        catalog.insert(record.clone());
    }
    catalog
}

fn memory_session(data: &[(MaskRecord, Mask)], mode: IndexingMode) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    for (record, mask) in data {
        store.put(record.mask_id, mask).unwrap();
    }
    Session::new(
        store as Arc<dyn MaskStore>,
        catalog_of(data),
        SessionConfig::new(chi()).threads(1).indexing_mode(mode),
    )
    .unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-ranked-oracle-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable database of `data`, checkpointed and reopened, with a session
/// over its store-maintained index.
fn durable_session(dir: &PathBuf, data: &[(MaskRecord, Mask)]) -> (MaskDb, Session) {
    let config = DbConfig::default().page_size(1024).chi_config(chi());
    {
        let db = MaskDb::open(dir, config).unwrap();
        db.insert_masks(data).unwrap();
        db.checkpoint().unwrap();
    }
    let db = MaskDb::open(dir, config).unwrap();
    let session = Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        SessionConfig::new(chi())
            .threads(1)
            .indexing_mode(IndexingMode::Eager),
        db.chi_store(),
    );
    (db, session)
}

fn oracle(data: &[(MaskRecord, Mask)], query: &Query) -> Vec<ResultRow> {
    let catalog = catalog_of(data);
    let mut bf = BruteForce::new(&catalog, query);
    for (record, mask) in data {
        bf.consume(record.mask_id, mask).unwrap();
    }
    bf.finish().unwrap()
}

/// Rows with their values as bits: `0.0` vs `-0.0` or one ulp is a diff.
fn bits(rows: &[ResultRow]) -> Vec<(RowKey, Option<u64>)> {
    rows.iter()
        .map(|r| (r.key, r.value.map(f64::to_bits)))
        .collect()
}

fn join() -> MaskJoin {
    MaskJoin::new(
        Selection::all().with_model(ModelId::new(1)),
        Selection::all().with_model(ModelId::new(2)),
    )
}

fn order_of(desc: bool) -> Order {
    if desc {
        Order::Desc
    } else {
        Order::Asc
    }
}

/// `k` from {0, 1, 3, n−1, n, n+5}.
fn k_of(choice: usize, n: usize) -> usize {
    [0, 1, 3, n - 1, n, n + 5][choice]
}

/// The per-mask expression: a rectangle, the object box, or a ratio whose
/// denominator is zero on the empty masks.
fn mask_expr(choice: usize) -> Expr {
    match choice {
        0 => Expr::cp(Roi::new(0, 0, 8, 8).unwrap(), range(0.5, 1.0)),
        1 => Expr::cp_object(range(0.5, 1.0)),
        _ => Expr::cp(Roi::new(0, 0, 6, 12).unwrap(), range(0.5, 1.0))
            .div(Expr::cp_full(range(0.5, 1.0))),
    }
}

fn having_of(choice: usize, ratio: bool) -> Option<(CmpOp, f64)> {
    let scale = if ratio { 0.01 } else { 1.0 };
    match choice {
        0 => None,
        1 => Some((CmpOp::Gt, 20.0 * scale)),
        2 => Some((CmpOp::Le, 30.0 * scale)),
        _ => Some((CmpOp::Ge, 55.0 * scale)),
    }
}

fn mask_agg_of(choice: usize) -> MaskAgg {
    if choice.is_multiple_of(2) {
        MaskAgg::IntersectThreshold { threshold: 0.5 }
    } else {
        MaskAgg::UnionThreshold { threshold: 0.5 }
    }
}

/// One case's four ranked statements, each with its item count (masks,
/// or images for the grouped and pair shapes).
fn statements(
    images: usize,
    desc: bool,
    k_choice: usize,
    expr_choice: usize,
    agg_choice: usize,
    having_choice: usize,
) -> Vec<(&'static str, Query, usize)> {
    let order = order_of(desc);
    let masks = images * 2;
    let expr = mask_expr(expr_choice);
    let having = having_of(having_choice, expr_choice == 2);
    let agg = [
        ScalarAgg::Sum,
        ScalarAgg::Avg,
        ScalarAgg::Min,
        ScalarAgg::Max,
    ][agg_choice];
    let mut grouped =
        Query::aggregate(expr.clone(), agg).with_group_top_k(k_of(k_choice, images), order);
    let mut mask_grouped =
        Query::mask_aggregate(mask_agg_of(agg_choice), CpTerm::object_roi(range(0.5, 1.0)))
            .with_group_top_k(k_of(k_choice, images), order);
    if let Some((op, threshold)) = having {
        grouped = grouped.with_having(op, threshold);
        // MASK_AGG values are counts.
        let threshold = if expr_choice == 2 {
            threshold * 100.0
        } else {
            threshold
        };
        mask_grouped = mask_grouped.with_having(op, threshold);
    }
    let pair_expr = if expr_choice == 2 {
        Expr::iou(RoiSpec::FullMask, range(0.9, 1.0))
    } else {
        Expr::cp_composed(MaskOp::Diff, RoiSpec::FullMask, range(0.5, 1.0))
    };
    vec![
        (
            "top-k",
            Query::top_k(expr, k_of(k_choice, masks), order),
            masks,
        ),
        ("grouped", grouped, images),
        ("mask_agg", mask_grouped, images),
        (
            "pair",
            Query::pair_top_k(join(), pair_expr, k_of(k_choice, images), order),
            images,
        ),
    ]
}

fn check(session: &Session, data: &[(MaskRecord, Mask)], query: &Query, n: usize, what: &str) {
    let expected = oracle(data, query);
    let got = session
        .execute(query)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(bits(&got.rows), bits(&expected), "{what}: {query:?}");
    let s = &got.stats;
    if !got.rows.is_empty() {
        // Every item is verified or pruned, never both.
        assert_eq!(s.verified + s.pruned, n as u64, "{what}: {s:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_ranked_executor_matches_brute_force(
        images in 3usize..11,
        seed in 0u64..1000,
        period in 2u64..6,
        desc in any::<bool>(),
        k_choice in 0usize..6,
        expr_choice in 0usize..3,
        agg_choice in 0usize..4,
        having_choice in 0usize..4,
        mode_choice in 0usize..4,
        agg_index in any::<bool>(),
    ) {
        let data = dataset(images as u64, seed, period);
        let durable = mode_choice == 3;
        let dir = temp_dir(&format!("prop-{seed}-{images}"));
        let (db, session) = if durable {
            let (db, session) = durable_session(&dir, &data);
            (Some(db), session)
        } else {
            let mode = [IndexingMode::Eager, IndexingMode::Incremental, IndexingMode::Disabled]
                [mode_choice];
            (None, memory_session(&data, mode))
        };
        if agg_index {
            session
                .build_aggregate_index(&mask_agg_of(agg_choice), &Selection::all())
                .unwrap();
        }
        if mode_choice == 1 {
            // Incremental: index model 2's masks only, so model 1's are
            // verified first (no bound) and set a k-th value that model 2's
            // bounds then meet with smaller keys.
            let warm_up = Query::top_k(mask_expr(expr_choice), 1, order_of(desc))
                .with_selection(Selection::all().with_model(ModelId::new(2)));
            session.execute(&warm_up).unwrap();
        }
        let what = format!(
            "images {images} seed {seed} period {period} mode {mode_choice} agg_index {agg_index}"
        );
        for (shape, query, n) in statements(images, desc, k_choice, expr_choice, agg_choice, having_choice) {
            // Twice: incremental indexing bounds the second run.
            check(&session, &data, &query, n, &format!("{shape}, {what}"));
            check(&session, &data, &query, n, &format!("{shape} again, {what}"));
        }
        drop(session);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grouped_having_with_limit_merges_exactly_across_shards(
        images in 4usize..14,
        seed in 0u64..1000,
        period in 2u64..6,
        desc in any::<bool>(),
        k_choice in 1usize..6,
        expr_choice in 0usize..3,
        agg_choice in 0usize..4,
        having_choice in 1usize..4,
    ) {
        let data = dataset(images as u64, seed, period);
        let shards: Vec<Session> = (0..2u64)
            .map(|shard| {
                let part: Vec<_> = data
                    .iter()
                    .filter(|(record, _)| record.image_id.raw() % 2 == shard)
                    .cloned()
                    .collect();
                memory_session(&part, IndexingMode::Eager)
            })
            .collect();
        let order = order_of(desc);
        let k = k_of(k_choice, images);
        let (op, threshold) = having_of(having_choice, expr_choice == 2).unwrap();
        let agg = [ScalarAgg::Sum, ScalarAgg::Avg, ScalarAgg::Min, ScalarAgg::Max][agg_choice];
        let query = Query::aggregate(mask_expr(expr_choice), agg)
            .with_group_top_k(k, order)
            .with_having(op, threshold);
        let expected = oracle(&data, &query);
        for single_round in [false, true] {
            let run = distributed_topk::<std::convert::Infallible>(k, order, 2, single_round, |requests| {
                Ok(requests
                    .iter()
                    .map(|&(shard, k_shard)| {
                        shards[shard].execute_topk_partial(&query, Some(k_shard)).unwrap()
                    })
                    .collect())
            })
            .unwrap();
            prop_assert_eq!(bits(&run.output.rows), bits(&expected));
        }
    }
}

/// Exact bounds (a cell-aligned ROI and a bin-aligned range) over masks
/// whose value rises with the id: a descending top-k verifies exactly `k`
/// masks, then stops at the first bound below the k-th value.
#[test]
fn exact_bounds_verify_exactly_k_masks() {
    let n = 40u64;
    let data: Vec<(MaskRecord, Mask)> = (0..n)
        .map(|id| {
            let record = MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(id))
                .shape(W, H)
                .build();
            let lit = id as u32 * 3;
            let mask = Mask::from_fn(W, H, move |x, y| if y * W + x < lit { 0.9 } else { 0.1 });
            (record, mask)
        })
        .collect();
    let session = memory_session(&data, IndexingMode::Eager);
    for k in [1, 3, 10] {
        let query = Query::top_k_cp(
            Roi::new(0, 0, W, H).unwrap(),
            range(0.5, 1.0),
            k,
            Order::Desc,
        );
        let out = session.execute(&query).unwrap();
        assert_eq!(bits(&out.rows), bits(&oracle(&data, &query)));
        assert_eq!(out.stats.verified, k as u64, "k = {k}");
        assert_eq!(out.stats.pruned, n - k as u64, "k = {k}");
        assert_eq!(out.stats.masks_loaded, k as u64, "k = {k}");
    }
}

/// Half the masks indexed (incremental mode, after a statement over model
/// 2): model 1's masks are verified first and fill the top; model 2's exact
/// bounds then tie the k-th value, and those with smaller keys must still
/// enter.
#[test]
fn exact_bounds_level_with_the_kth_value_enter_on_a_smaller_key() {
    let data = dataset(12, 5, 3);
    for order in [Order::Desc, Order::Asc] {
        for k in [1, 3, 5, 8] {
            let session = memory_session(&data, IndexingMode::Incremental);
            let warm_up = Query::top_k(mask_expr(0), 1, order)
                .with_selection(Selection::all().with_model(ModelId::new(2)));
            session.execute(&warm_up).unwrap();
            let query = Query::top_k(mask_expr(0), k, order);
            let out = session.execute(&query).unwrap();
            assert_eq!(
                bits(&out.rows),
                bits(&oracle(&data, &query)),
                "{order:?} k={k}"
            );
        }
    }
}

/// The `tests/end_to_end.rs` dataset shape: `images` × 2 models, 48², seed
/// 31, CHI 6×6×16.
fn generated(images: u64) -> (Arc<MemoryMaskStore>, Catalog) {
    let spec = DatasetSpec {
        name: "ranked".to_string(),
        num_images: images,
        models: 2,
        mask_width: 48,
        mask_height: 48,
        num_classes: 6,
        seed: 31,
        focus_probability: 0.7,
    };
    let store = Arc::new(MemoryMaskStore::new(
        MaskEncoding::Raw,
        DiskProfile::unthrottled(),
    ));
    let dataset = spec.generate_into(store.as_ref()).unwrap();
    (store, dataset.catalog)
}

fn generated_session(store: &Arc<MemoryMaskStore>, catalog: &Catalog) -> Session {
    Session::new(
        Arc::clone(store) as Arc<dyn MaskStore>,
        catalog.clone(),
        SessionConfig::new(ChiConfig::new(6, 6, 16).unwrap()).indexing_mode(IndexingMode::Eager),
    )
    .unwrap()
}

fn generated_oracle(store: &MemoryMaskStore, catalog: &Catalog, query: &Query) -> Vec<ResultRow> {
    let mut bf = BruteForce::new(catalog, query);
    for id in catalog.mask_ids() {
        bf.consume(id, &store.get(id).unwrap()).unwrap();
    }
    bf.finish().unwrap()
}

/// `HAVING` holds beside `ORDER BY … LIMIT`: no returned group fails it.
#[test]
fn having_applies_to_grouped_top_k() {
    let (store, catalog) = generated(40);
    let session = generated_session(&store, &catalog);
    for order in [Order::Asc, Order::Desc] {
        let query = Query::aggregate(Expr::cp_object(range(0.8, 1.0)), ScalarAgg::Avg)
            .with_group_top_k(10, order)
            .with_having(CmpOp::Gt, 20.0);
        let out = session.execute(&query).unwrap();
        assert!(
            out.rows.iter().all(|r| r.value.is_some_and(|v| v > 20.0)),
            "{order:?}: {:?}",
            out.rows
        );
        assert_eq!(
            bits(&out.rows),
            bits(&generated_oracle(&store, &catalog, &query))
        );
    }
    let query = Query::mask_aggregate(
        MaskAgg::IntersectThreshold { threshold: 0.5 },
        CpTerm::object_roi(range(0.5, 1.0)),
    )
    .with_group_top_k(10, Order::Asc)
    .with_having(CmpOp::Gt, 40.0);
    let out = session.execute(&query).unwrap();
    assert!(out.rows.iter().all(|r| r.value.is_some_and(|v| v > 40.0)));
    assert_eq!(
        bits(&out.rows),
        bits(&generated_oracle(&store, &catalog, &query))
    );
}

/// A grouped aggregate of 0/0 ratios is NaN; ranking it neither panics
/// nor diverges from the oracle (NaN ranks worst under either order).
#[test]
fn nan_valued_grouped_top_k_ranks_worst() {
    let (store, catalog) = generated(60);
    let session = generated_session(&store, &catalog);
    let ratio = Expr::cp_object(range(0.99, 1.0)).div(Expr::cp_full(range(0.99, 1.0)));
    for agg in [ScalarAgg::Avg, ScalarAgg::Sum] {
        for order in [Order::Desc, Order::Asc] {
            for k in [10, 60] {
                let query = Query::aggregate(ratio.clone(), agg).with_group_top_k(k, order);
                let out = session.execute(&query).unwrap();
                assert_eq!(out.rows.len(), k);
                assert_eq!(
                    bits(&out.rows),
                    bits(&generated_oracle(&store, &catalog, &query)),
                    "{agg:?} {order:?} k={k}"
                );
            }
        }
    }
}

/// `HAVING` with `ORDER BY … LIMIT` through a coordinator over two shard
/// servers: each shard applies `HAVING`, and a shard with fewer qualifying
/// groups than its budget reports no bound, so the merge is exact.
#[test]
fn having_with_limit_is_exact_through_a_two_shard_coordinator() {
    let shards: Vec<_> = (0..2)
        .map(|_| {
            let session = Session::new(
                Arc::new(MemoryMaskStore::for_tests()) as Arc<dyn MaskStore>,
                Catalog::new(),
                SessionConfig::new(chi()).indexing_mode(IndexingMode::Eager),
            )
            .unwrap();
            Server::bind("127.0.0.1:0", Engine::new(session, ServiceConfig::new(2)))
                .unwrap()
                .spawn()
        })
        .collect();
    let coordinator = Coordinator::connect(ClusterConfig::new(
        shards.iter().map(|h| h.local_addr().to_string()).collect(),
    ))
    .unwrap();
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator)
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();

    // Inserted without object boxes, as the SQL dialect does.
    let data: Vec<(MaskRecord, Mask)> = dataset(24, 7, 5)
        .into_iter()
        .map(|(record, mask)| {
            let record = MaskRecord::builder(record.mask_id)
                .image_id(record.image_id)
                .shape(W, H)
                .build();
            (record, mask)
        })
        .collect();
    for batch in data.chunks(8) {
        let tuples: Vec<String> = batch
            .iter()
            .map(|(record, mask)| {
                let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
                format!(
                    "({}, {}, {W}, {H}, ({}))",
                    record.mask_id.raw(),
                    record.image_id.raw(),
                    pixels.join(",")
                )
            })
            .collect();
        let sql = format!("INSERT INTO masks VALUES {}", tuples.join(", "));
        assert_eq!(
            client.query(&sql).unwrap().summary.inserted,
            batch.len() as u64
        );
    }

    for sql in [
        "SELECT image_id, AVG(CP(mask, (0, 0, 8, 8), (0.5, 1.0))) AS s FROM masks \
         GROUP BY image_id HAVING s > 20 ORDER BY s ASC LIMIT 6",
        "SELECT image_id, SUM(CP(mask, full, (0.5, 1.0))) AS s FROM masks \
         GROUP BY image_id HAVING s <= 100 ORDER BY s DESC LIMIT 4",
        "SELECT image_id, CP(INTERSECT(mask > 0.5), full, (0.5, 1.0)) AS s FROM masks \
         GROUP BY image_id HAVING s > 10 ORDER BY s ASC LIMIT 5",
    ] {
        let query = masksearch::sql::compile(sql).unwrap();
        let expected = oracle(&data, &query);
        assert!(!expected.is_empty(), "{sql}: vacuous");
        let got = client.query(sql).unwrap();
        assert_eq!(bits(&got.rows), bits(&expected), "{sql}");
    }
    client.quit().unwrap();
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

/// Masks whose 4×4 cells are each wholly lit (0.9) or wholly dark (0.1),
/// the lit cells a subset of the centre, the left column, the top row and
/// the middle right cell chosen by the id's bits; ids 16 and 17 are
/// checkerboards. Under `(2, 2, 10, 10)` and a bin-aligned range the
/// per-cell bounds of a lit-or-dark mask are exact — a corner cell counts 4
/// pixels inside the ROI, an edge cell 8, the centre 16 — while the region
/// bounds of Eqs. 3–4 leave most of them a wide interval; a checkerboard's
/// per-cell bounds are its region bounds, [8, 56].
fn cell_lit_dataset() -> Vec<(MaskRecord, Mask)> {
    (0..18u64)
        .map(|id| {
            let record = MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(id / 2))
                .model_id(ModelId::new(id % 2 + 1))
                .shape(W, H)
                .build();
            let lit = move |x: u32, y: u32| {
                let (cx, cy) = (x / 4, y / 4);
                match id {
                    16 | 17 => (x + y).is_multiple_of(2),
                    _ => {
                        ((cx, cy) == (1, 1) && id & 1 == 0)
                            || (cx == 0 && id & 2 != 0)
                            || (cy == 0 && id & 4 != 0)
                            || ((cx, cy) == (2, 1) && id & 8 != 0)
                    }
                }
            };
            let mask = Mask::from_fn(W, H, move |x, y| if lit(x, y) { 0.9 } else { 0.1 });
            (record, mask)
        })
        .collect()
}

/// `verified` of `items` (the 18 masks, or their 9 groups of two), a load
/// per verified mask, and every item pruned, accepted from its bounds or
/// verified.
fn assert_counts(out: &masksearch::query::QueryOutput, items: u64, verified: u64, what: &str) {
    let stats = &out.stats;
    assert_eq!(stats.verified, verified, "{what}: {stats:?}");
    assert_eq!(
        stats.masks_loaded,
        verified * 18 / items,
        "{what}: {stats:?}"
    );
    assert_eq!(
        stats.pruned + stats.accepted_without_load + stats.verified,
        items,
        "{what}: {stats:?}"
    );
}

/// A filter the region bounds leave undecided on most of the lit-or-dark
/// masks (they verify 14 of 18 under `> 20`): their per-cell bounds decide
/// every one of them, and only the two checkerboards are verified.
#[test]
fn per_cell_bounds_decide_what_region_bounds_leave_to_a_filter() {
    let data = cell_lit_dataset();
    let session = memory_session(&data, IndexingMode::Eager);
    let roi = Roi::new(2, 2, 10, 10).unwrap();
    for threshold in [20.0, 30.0] {
        let query = Query::filter_cp_gt(roi, range(0.5, 1.0), threshold);
        let out = session.execute(&query).unwrap();
        assert_eq!(bits(&out.rows), bits(&oracle(&data, &query)));
        assert_counts(&out, 18, 2, &format!("> {threshold}"));
    }
}

/// Top-k over the same masks: each mask reached on its region bound is
/// refined to its exact value, so only the k rows and the checkerboards
/// (whose refined bounds still reach the k-th value) are loaded — 5 and 6
/// where region bounds alone load 14 and 11.
#[test]
fn per_cell_bounds_leave_a_top_k_fewer_loads() {
    let data = cell_lit_dataset();
    let session = memory_session(&data, IndexingMode::Eager);
    let roi = Roi::new(2, 2, 10, 10).unwrap();
    for (order, k, verified) in [(Order::Desc, 3, 5), (Order::Asc, 4, 6)] {
        let query = Query::top_k_cp(roi, range(0.5, 1.0), k, order);
        let out = session.execute(&query).unwrap();
        assert_eq!(bits(&out.rows), bits(&oracle(&data, &query)));
        assert_counts(&out, 18, verified, &format!("{order:?} k={k}"));
    }
}

/// A grouped top-k and a `HAVING` filter over the images of two masks:
/// every member of a group reached on its region bound is refined before
/// the group costs a load. The top 3 verifies 4 groups (7 under region
/// bounds alone), the filter only the checkerboards' group.
#[test]
fn per_cell_bounds_leave_a_grouped_top_k_fewer_loads() {
    let data = cell_lit_dataset();
    let session = memory_session(&data, IndexingMode::Eager);
    let expr = Expr::cp(Roi::new(2, 2, 10, 10).unwrap(), range(0.5, 1.0));
    let top = Query::aggregate(expr.clone(), ScalarAgg::Avg).with_group_top_k(3, Order::Desc);
    let having = Query::aggregate(expr, ScalarAgg::Sum).with_having(CmpOp::Gt, 40.0);
    let out = session.execute(&top).unwrap();
    assert_eq!(bits(&out.rows), bits(&oracle(&data, &top)));
    assert_counts(&out, 9, 4, "top 3");
    // A group its bounds accept comes back without a value.
    let out = session.execute(&having).unwrap();
    let keys = |rows: &[ResultRow]| rows.iter().map(|r| r.key).collect::<Vec<_>>();
    assert_eq!(keys(&out.rows), keys(&oracle(&data, &having)));
    assert_counts(&out, 9, 1, "having");
}
