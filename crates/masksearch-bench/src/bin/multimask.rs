//! Multi-mask (pair) query benchmark: composed-bound pruning vs. loading
//! both masks of every image.
//!
//! The dataset is a model-regression-audit workload: every image carries a
//! model-v1 and a model-v2 saliency mask; most images agree (v2 is a small
//! perturbation of v1) and a few drifted. The measured queries are the
//! flagship multi-mask shapes — `CP(DIFF(a, b)) > T` disagreement filters at
//! several selectivities and the `IOU` top-k — executed two ways on the same
//! store:
//!
//! * **pruned** — eager CHI indexing + the composed tile kernel: the filter
//!   stage composes the two per-mask CHIs algebraically and loads pixels
//!   only for undecidable images;
//! * **load-both** — indexing disabled: every candidate image loads *both*
//!   masks and runs the fused reference scan (the only plan available
//!   before the mask algebra existed).
//!
//! Every measured query asserts byte-identical rows between the two plans.
//! The reported time is the harness's standard metric — wall clock plus the
//! disk cost model's virtual I/O charge (`QueryStats::modeled_total`, cold
//! cache, EBS-gp3 profile) — because what the mask algebra saves is exactly
//! the *loads*. Results go to `BENCH_multimask.json`; with `--check` the
//! process exits non-zero unless composed-bound pruning beats load-both by
//! ≥ 5× on every *selective* predicate (fraction of pairs verified ≤ 25%)
//! — the CI regression gate required of this workload.
//!
//! ```text
//! cargo run --release --bin multimask -- --images 300 --side 128 --iters 5
//! cargo run --release --bin multimask -- --images 120 --side 96 --iters 3 --check
//! ```

use masksearch_bench::report::Table;
use masksearch_bench::usize_from_args;
use masksearch_core::{ImageId, Mask, MaskId, MaskOp, MaskRecord, ModelId, PixelRange};
use masksearch_index::ChiConfig;
use masksearch_query::{
    Expr, IndexingMode, KernelMode, MaskJoin, Order, Predicate, Query, QueryOutput, RoiSpec,
    Selection, Session, SessionConfig,
};
use masksearch_storage::{Catalog, DiskProfile, MaskEncoding, MaskStore, MemoryMaskStore};
use std::sync::Arc;

struct Point {
    name: String,
    selectivity: f64,
    pruned_ms: f64,
    load_both_ms: f64,
    speedup: f64,
    masks_loaded: u64,
    pairs: u64,
}

/// v1: a saliency blob; v2: the same blob nudged — drastically for every
/// 16th image (the regressions the audit must surface). Most images have
/// focused (sparse) saliency, every 11th a diffuse map — the realistic
/// mixture a disagreement audit runs over, and the one where composed
/// bounds shine: a sparse agreeing pair can be pruned from its two small
/// per-cell tails alone.
fn build_db(images: u64, side: u32) -> (Arc<MemoryMaskStore>, Catalog) {
    // Raw encoding behind the EBS-gp3 cost model: every mask load charges
    // realistic virtual I/O time, the quantity pruning is supposed to save.
    let store = Arc::new(MemoryMaskStore::new(
        MaskEncoding::Raw,
        DiskProfile::ebs_gp3(),
    ));
    let mut catalog = Catalog::new();
    for i in 0..images {
        let sigma = if i % 11 == 0 {
            side as f32 / 5.0 // diffuse saliency: must be verified
        } else {
            side as f32 / 14.0 // focused saliency: prunable
        };
        let blob = move |cx: f32, cy: f32| {
            Mask::from_fn(side, side, move |x, y| {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                (0.95 * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()).min(0.999)
            })
        };
        let c = side as f32 / 2.0;
        let spread = (i % 13) as f32 / 13.0 - 0.5;
        let v1 = blob(
            c + spread * side as f32 * 0.5,
            c - spread * side as f32 * 0.4,
        );
        let drift = if i % 16 == 0 {
            side as f32 / 3.0 // a regression: saliency moved
        } else {
            (i % 5) as f32 * 0.3 // agreement up to a small jitter
        };
        let v2 = blob(
            c + spread * side as f32 * 0.5 + drift,
            c - spread * side as f32 * 0.4 - drift * 0.5,
        );
        for (slot, (mask, model)) in [(v1, 1u64), (v2, 2u64)].into_iter().enumerate() {
            let id = MaskId::new(i * 2 + slot as u64);
            store.put(id, &mask).unwrap();
            catalog.insert(
                MaskRecord::builder(id)
                    .image_id(ImageId::new(i))
                    .model_id(ModelId::new(model))
                    .shape(side, side)
                    .build(),
            );
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

fn time_query(session: &Session, query: &Query, iters: usize) -> (f64, QueryOutput) {
    let output = session.execute(query).expect("warm-up execution");
    let mut best = f64::INFINITY;
    let mut last = output;
    for _ in 0..iters {
        last = session.execute(query).expect("measured execution");
        best = best.min(last.stats.modeled_total().as_secs_f64());
    }
    (best * 1e3, last)
}

fn main() {
    let images = usize_from_args("images", 300) as u64;
    let side = usize_from_args("side", 128) as u32;
    let iters = usize_from_args("iters", 5).max(1);
    let check = std::env::args().any(|a| a == "--check");

    println!("== multi-mask queries: composed-bound pruning vs load-both-masks ==\n");
    let (store, catalog) = build_db(images, side);
    let chi = ChiConfig::new((side / 8).max(1), (side / 8).max(1), 16).unwrap();
    // Cold cache (the paper's setting): every load pays the cost model.
    let pruned = Session::new(
        Arc::clone(&store) as Arc<dyn MaskStore>,
        catalog.clone(),
        SessionConfig::new(chi)
            .threads(4)
            .indexing_mode(IndexingMode::Eager),
    )
    .unwrap();
    let load_both = Session::new(
        Arc::clone(&store) as Arc<dyn MaskStore>,
        catalog,
        SessionConfig::new(chi)
            .threads(4)
            .indexing_mode(IndexingMode::Disabled)
            .kernel_mode(KernelMode::ForceOff),
    )
    .unwrap();

    let range = PixelRange::new(0.5, 1.0).unwrap();
    let area = f64::from(side) * f64::from(side);
    let queries: Vec<(String, Query)> = vec![
        (
            "diff > 8% of pixels (regressions only)".to_string(),
            Query::pair_filter(
                join(),
                Predicate::gt(
                    Expr::cp_composed(MaskOp::Diff, RoiSpec::FullMask, range),
                    area * 0.08,
                ),
            ),
        ),
        (
            "diff > 2% of pixels".to_string(),
            Query::pair_filter(
                join(),
                Predicate::gt(
                    Expr::cp_composed(MaskOp::Diff, RoiSpec::FullMask, range),
                    area * 0.02,
                ),
            ),
        ),
        (
            "intersect < 0.5% (no common saliency)".to_string(),
            Query::pair_filter(
                join(),
                Predicate::lt(
                    Expr::cp_composed(MaskOp::Intersect, RoiSpec::FullMask, range),
                    area * 0.005,
                ),
            ),
        ),
        (
            "iou top-20 asc (worst agreement)".to_string(),
            Query::pair_top_k(join(), Expr::iou(RoiSpec::FullMask, range), 20, Order::Asc),
        ),
        (
            "union > 0 (accept-all from bounds)".to_string(),
            Query::pair_filter(
                join(),
                Predicate::gt(
                    Expr::cp_composed(MaskOp::Union, RoiSpec::FullMask, range),
                    0.0,
                ),
            ),
        ),
    ];

    let mut points = Vec::new();
    for (name, query) in &queries {
        let (pruned_ms, out_pruned) = time_query(&pruned, query, iters);
        let (load_both_ms, out_load) = time_query(&load_both, query, iters);
        assert_eq!(
            out_pruned.rows, out_load.rows,
            "plans diverged on `{name}` — correctness before speed"
        );
        let pairs = out_pruned.stats.pairs_bound.max(1);
        points.push(Point {
            name: name.clone(),
            selectivity: out_pruned.stats.verified as f64 / pairs as f64,
            pruned_ms,
            load_both_ms,
            speedup: load_both_ms / pruned_ms.max(1e-9),
            masks_loaded: out_pruned.stats.masks_loaded,
            pairs,
        });
    }

    let mut table = Table::new(&[
        "query",
        "pairs",
        "verified frac",
        "pruned ms (modeled)",
        "load-both ms (modeled)",
        "speedup",
        "masks loaded",
    ]);
    for p in &points {
        table.add_row(vec![
            p.name.clone(),
            p.pairs.to_string(),
            format!("{:.3}", p.selectivity),
            format!("{:.2}", p.pruned_ms),
            format!("{:.2}", p.load_both_ms),
            format!("{:.2}x", p.speedup),
            p.masks_loaded.to_string(),
        ]);
    }
    table.print();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"multimask\",\n");
    json.push_str(&format!("  \"images\": {images},\n"));
    json.push_str(&format!("  \"side\": {side},\n"));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"pairs\": {}, \"verified_fraction\": {:.6}, \
             \"pruned_ms\": {:.3}, \"load_both_ms\": {:.3}, \"speedup\": {:.3}, \
             \"masks_loaded\": {}}}{}\n",
            p.name,
            p.pairs,
            p.selectivity,
            p.pruned_ms,
            p.load_both_ms,
            p.speedup,
            p.masks_loaded,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_multimask.json", &json).expect("write BENCH_multimask.json");
    println!("\nwrote BENCH_multimask.json");

    // Regression gate: composed-bound pruning must beat load-both by ≥ 5× on
    // every selective predicate (≤ 25% of pairs verified).
    let selective: Vec<&Point> = points.iter().filter(|p| p.selectivity <= 0.25).collect();
    assert!(
        !selective.is_empty(),
        "benchmark produced no selective case to gate"
    );
    let mut ok = true;
    for p in &selective {
        if p.speedup < 5.0 {
            eprintln!(
                "REGRESSION: composed pruning only {:.2}x vs load-both on `{}` \
                 (verified fraction {:.3})",
                p.speedup, p.name, p.selectivity
            );
            ok = false;
        }
    }
    if check && !ok {
        std::process::exit(1);
    }
    if check {
        println!("check passed: composed-bound pruning ≥ 5x on all selective predicates");
    }
}
