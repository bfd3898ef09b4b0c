//! Differential oracle for multi-mask (pair) queries: every composed query —
//! `CP` over ∩ / ∪ / △ in WHERE, mixed single-side terms, and `IOU` top-k —
//! executed with CHI pruning must be byte-identical (rows, values,
//! ordering, tie-breaks) to the load-everything [`BruteForce`] reference
//! scan, in every indexing mode. The SQL surface is exercised through
//! `compile_statement` so the parser → lowering → executor path is covered
//! end to end.

use masksearch::baselines::BruteForce;
use masksearch::core::{ImageId, Mask, MaskId, MaskOp, MaskRecord, ModelId, PixelRange, Roi};
use masksearch::index::ChiConfig;
use masksearch::query::{
    Expr, IndexingMode, MaskJoin, Order, Predicate, Query, ResultRow, RoiSpec, Selection, Session,
    SessionConfig, TermSource,
};
use masksearch::sql::{compile_statement, Statement};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use std::sync::Arc;

const W: u32 = 48;
const H: u32 = 40;

/// Two models' masks per image, with deliberate irregularities:
/// * every 5th image lacks the model-2 mask (must be skipped),
/// * every 7th image has *two* model-1 masks (smallest id must bind),
/// * every 3rd image's masks are identical (CP(DIFF) = 0 / IoU = 1 ties),
/// * image 11 has empty binarisations at 0.5 (IoU = 0/0 = NaN).
fn build_db(n: u64) -> (Arc<MemoryMaskStore>, Catalog) {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    let mut next_id = 0u64;
    let mut add = |store: &Arc<MemoryMaskStore>,
                   catalog: &mut Catalog,
                   image: u64,
                   model: u64,
                   mask: &Mask| {
        let id = MaskId::new(next_id);
        next_id += 1;
        store.put(id, mask).unwrap();
        catalog.insert(
            MaskRecord::builder(id)
                .image_id(ImageId::new(image))
                .model_id(ModelId::new(model))
                .shape(W, H)
                .object_box(Roi::new(8, 8, 40, 32).unwrap())
                .build(),
        );
    };
    for i in 0..n {
        let blob = |cx: f32, cy: f32, peak: f32| {
            Mask::from_fn(W, H, move |x, y| {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                (peak * (-(dx * dx + dy * dy) / 50.0).exp()).min(0.999)
            })
        };
        let peak = if i == 11 { 0.3 } else { 0.95 }; // image 11: nothing ≥ 0.5
        let a = blob(20.0, 20.0, peak);
        let b = if i % 3 == 0 {
            a.clone()
        } else {
            blob(20.0 + (i % 9) as f32, 17.0, peak)
        };
        add(&store, &mut catalog, i, 1, &a);
        if i % 7 == 0 {
            // A second, larger-id model-1 mask that must NOT bind.
            add(&store, &mut catalog, i, 1, &blob(5.0, 5.0, 0.9));
        }
        if i % 5 != 0 {
            add(&store, &mut catalog, i, 2, &b);
        }
    }
    (store, catalog)
}

fn join() -> MaskJoin {
    MaskJoin::new(
        Selection::all().with_model(ModelId::new(1)),
        Selection::all().with_model(ModelId::new(2)),
    )
}

fn oracle_rows(store: &MemoryMaskStore, catalog: &Catalog, query: &Query) -> Vec<ResultRow> {
    let mut bf = BruteForce::new(catalog, query);
    for id in store.ids() {
        let mask = store.get(id).unwrap();
        bf.consume(id, &mask).unwrap();
    }
    bf.finish().unwrap()
}

fn queries() -> Vec<(String, Query)> {
    let roi = Roi::new(4, 4, 44, 36).unwrap();
    let range = PixelRange::new(0.5, 1.0).unwrap();
    let mut queries = Vec::new();
    for op in [MaskOp::Intersect, MaskOp::Union, MaskOp::Diff] {
        for threshold in [0.0, 10.0, 120.0, 5000.0] {
            queries.push((
                format!("filter {op} > {threshold}"),
                Query::pair_filter(
                    join(),
                    Predicate::gt(
                        Expr::cp_composed(op, RoiSpec::Constant(roi), range),
                        threshold,
                    ),
                ),
            ));
        }
        for (k, order) in [(1, Order::Desc), (6, Order::Asc), (100, Order::Desc)] {
            queries.push((
                format!("topk {op} k={k} {order:?}"),
                Query::pair_top_k(
                    join(),
                    Expr::cp_composed(op, RoiSpec::FullMask, range),
                    k,
                    order,
                ),
            ));
        }
    }
    // IoU top-k in both directions (NaN image 11 must rank last under both).
    for order in [Order::Asc, Order::Desc] {
        queries.push((
            format!("iou topk {order:?}"),
            Query::pair_top_k(join(), Expr::iou(RoiSpec::FullMask, range), 8, order),
        ));
    }
    // Mixed side and composed terms, with object-box ROIs.
    queries.push((
        "mixed sides".to_string(),
        Query::pair_filter(
            join(),
            Predicate::gt(
                Expr::cp_composed(MaskOp::Diff, RoiSpec::ObjectBox, range).sub(
                    Expr::cp_side(TermSource::Left, RoiSpec::ObjectBox, range)
                        .mul(Expr::Const(0.25)),
                ),
                0.0,
            )
            .and(Predicate::gt(
                Expr::cp_side(TermSource::Right, RoiSpec::FullMask, range),
                1.0,
            )),
        ),
    ));
    // Outer selection restricting the image set.
    queries.push((
        "outer selection".to_string(),
        Query::pair_filter(
            join(),
            Predicate::ge(
                Expr::cp_composed(MaskOp::Union, RoiSpec::FullMask, range),
                1.0,
            ),
        )
        .with_selection(Selection::all().with_image_ids((0..10).map(ImageId::new).collect())),
    ));
    queries
}

#[test]
fn pair_queries_match_the_load_everything_oracle() {
    let (store, catalog) = build_db(30);
    for mode in [
        IndexingMode::Eager,
        IndexingMode::Incremental,
        IndexingMode::Disabled,
    ] {
        let session = Session::new(
            Arc::clone(&store) as Arc<dyn MaskStore>,
            catalog.clone(),
            SessionConfig::new(ChiConfig::new(8, 8, 16).unwrap())
                .threads(3)
                .indexing_mode(mode),
        )
        .unwrap();
        for (name, query) in queries() {
            let expected = oracle_rows(&store, &catalog, &query);
            let got = session.execute(&query).unwrap();
            assert_eq!(got.rows, expected, "{name} diverged (mode {mode:?})");
        }
    }
}

#[test]
fn pair_queries_prune_without_losing_exactness() {
    // Eager: the composed bound algebra must actually avoid
    // loading masks on a selective predicate while staying byte-identical.
    let (store, catalog) = build_db(40);
    let session = Session::new(
        Arc::clone(&store) as Arc<dyn MaskStore>,
        catalog.clone(),
        SessionConfig::new(ChiConfig::new(8, 8, 16).unwrap())
            .threads(2)
            .indexing_mode(IndexingMode::Eager),
    )
    .unwrap();
    store.io_stats().reset();
    let range = PixelRange::new(0.5, 1.0).unwrap();
    // Far above any possible union count of two concentrated blobs.
    let query = Query::pair_filter(
        join(),
        Predicate::gt(
            Expr::cp_composed(MaskOp::Diff, RoiSpec::FullMask, range),
            1500.0,
        ),
    );
    let expected = oracle_rows(&store, &catalog, &query);
    let got = session.execute(&query).unwrap();
    assert_eq!(got.rows, expected);
    assert!(expected.is_empty());
    assert_eq!(
        got.stats.masks_loaded, 0,
        "composed bounds should prune every pair: {:?}",
        got.stats
    );
    assert!(got.stats.pairs_bound > 0);
}

#[test]
fn sql_pair_statements_execute_end_to_end() {
    let (store, catalog) = build_db(24);
    let session = Session::new(
        Arc::clone(&store) as Arc<dyn MaskStore>,
        catalog.clone(),
        SessionConfig::new(ChiConfig::new(8, 8, 16).unwrap())
            .threads(2)
            .indexing_mode(IndexingMode::Eager),
    )
    .unwrap();
    let statements = [
        // Model-regression audit: images where v2 disagrees most with v1.
        "SELECT image_id, CP(DIFF(a.mask, b.mask), full, (0.5, 1.0)) AS d \
         FROM masks a JOIN masks b ON a.image_id = b.image_id \
         WHERE a.model_id = 1 AND b.model_id = 2 ORDER BY d DESC LIMIT 10",
        // Agreement filter over the object box.
        "SELECT image_id FROM masks a JOIN masks b ON a.image_id = b.image_id \
         WHERE a.model_id = 1 AND b.model_id = 2 \
         AND CP(INTERSECT(a.mask, b.mask), object, (0.5, 1.0)) > 50",
        // IoU ranking ascending (most disagreement first).
        "SELECT image_id, IOU(a.mask, b.mask, full, 0.5) AS agreement \
         FROM masks a JOIN masks b ON a.image_id = b.image_id \
         WHERE a.model_id = 1 AND b.model_id = 2 ORDER BY agreement ASC LIMIT 6",
    ];
    for sql in statements {
        let Statement::Query(query) = compile_statement(sql).unwrap() else {
            panic!("expected a query for {sql}");
        };
        let expected = oracle_rows(&store, &catalog, &query);
        let got = session.execute(&query).unwrap();
        assert_eq!(got.rows, expected, "SQL diverged: {sql}");
        assert!(!got.rows.is_empty(), "degenerate (empty) SQL case: {sql}");
    }
}
