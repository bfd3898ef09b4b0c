//! Secondary-index microbenchmark: metadata-filtered queries answered by a
//! posting-list probe vs the full catalog scan, on a catalog large enough
//! that candidate *resolution* — not verification — is the cost that moves.
//!
//! The headline shape is a 1%-selective metadata equality filter whose CP
//! predicate every CHI decides from bounds alone (no mask is ever loaded),
//! so the two access paths differ **only** in how they resolve candidates:
//! the scan walks every catalog record, the probe touches one posting list.
//! Two more shapes show where the gain shrinks: a rarer two-column
//! conjunction (the planner picks the cheaper posting list) and a ranked
//! top-k whose verification work is shared by both paths.
//!
//! Every shape asserts byte-identical rows between the indexed and the
//! scanning session before anything is timed, and the indexed session must
//! *prove* it probed (`index_probes` > 0) while the scanning one must not.
//!
//! Two more sections measure the write side of the subsystem: in-place
//! re-masking (metadata `UPDATE`) throughput with and without posting lists
//! to maintain, and cluster `DELETE` latency through a coordinator whose
//! owner index knows the masks (zero `LOOKUP` broadcasts) vs one that must
//! broadcast a `LOOKUP` per statement to locate them.
//!
//! Results go to `BENCH_metaindex.json`; with `--check` the process exits
//! non-zero unless the indexed 1%-selective filter is at least **10×**
//! faster than the scan.
//!
//! ```text
//! cargo run --release --bin metadata_index -- --masks 60000 --iters 9
//! cargo run --release --bin metadata_index -- --masks 40000 --iters 9 --check
//! ```

use masksearch_bench::report::Table;
use masksearch_bench::usize_from_args;
use masksearch_cluster::{ClusterConfig, Coordinator};
use masksearch_core::{ImageId, Label, Mask, MaskId, MaskRecord, ModelId};
use masksearch_index::ChiConfig;
use masksearch_query::{IndexingMode, QueryOutput, Session, SessionConfig};
use masksearch_service::{Engine, Server, ServerHandle, ServiceConfig};
use masksearch_sql::{compile, compile_statement, Statement};
use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
use std::sync::Arc;
use std::time::Instant;

const W: u32 = 8;
const H: u32 = 8;
/// Distinct predicted labels: an equality filter selects exactly 1%.
const LABELS: u64 = 100;
/// Distinct models. Coprime with `LABELS` so the two-column conjunction
/// below really intersects (1% ∩ 1/7 ≈ 0.14%) instead of one column
/// implying the other.
const MODELS: u64 = 7;

fn mask_for(id: u64) -> Mask {
    let mut state = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Mask::from_fn(W, H, move |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32) / (1u64 << 24) as f32
    })
}

fn session_over(store: &Arc<MemoryMaskStore>, catalog: Catalog, indexed: bool) -> Session {
    let session = Session::new(
        Arc::clone(store) as Arc<dyn MaskStore>,
        catalog,
        SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
            .threads(1)
            .indexing_mode(IndexingMode::Eager),
    )
    .expect("bench session");
    if indexed {
        for sql in [
            "CREATE INDEX by_label ON masks (predicted_label)",
            "CREATE INDEX by_model ON masks (model_id)",
        ] {
            match masksearch_sql::compile_statement(sql).expect("compile DDL") {
                Statement::Mutation(m) => {
                    session.apply(&m).expect("create index");
                }
                _ => unreachable!(),
            }
        }
    }
    session
}

/// Best-of-N on the modeled metric, after warm-ups that build the CHIs and
/// warm the caches.
fn time_query(session: &Session, sql: &str, iters: usize) -> (f64, QueryOutput) {
    let query = compile(sql).expect("compile bench query");
    let mut last = session.execute(&query).expect("warm-up execution");
    for _ in 0..2 {
        last = session.execute(&query).expect("warm-up execution");
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        last = session.execute(&query).expect("measured execution");
        best = best.min(last.stats.modeled_total().as_secs_f64());
    }
    (best * 1e3, last)
}

/// Applies one mutation statement to a session.
fn apply(session: &Session, sql: &str) {
    match compile_statement(sql).expect("compile mutation") {
        Statement::Mutation(m) => {
            session.apply(&m).expect("apply mutation");
        }
        _ => unreachable!("not a mutation: {sql}"),
    }
}

/// In-place re-masking throughput: `ops` metadata `UPDATE`s against one
/// session, in statements-per-second. On the indexed session every update
/// also maintains the affected posting lists.
fn update_throughput(session: &Session, masks: u64, ops: u64) -> f64 {
    let start = Instant::now();
    for i in 0..ops {
        let id = (i * 97) % masks;
        apply(
            session,
            &format!(
                "UPDATE masks SET model_id = {}, predicted_label = {} WHERE mask_id = {id}",
                (id + i) % MODELS + 1,
                (id + i) % LABELS,
            ),
        );
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// One memory-backed shard server for the cluster section.
fn memory_shard() -> ServerHandle {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let session = Session::new(
        store as Arc<dyn MaskStore>,
        Catalog::new(),
        SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
            .threads(1)
            .indexing_mode(IndexingMode::Eager),
    )
    .expect("shard session");
    Server::bind("127.0.0.1:0", Engine::new(session, ServiceConfig::new(2)))
        .expect("bind shard")
        .spawn()
}

/// An `INSERT` tuple for mask `id` (no metadata; the cluster section only
/// deletes).
fn tuple_for(id: u64) -> String {
    let mask = mask_for(id);
    let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
    format!("({id}, {}, {W}, {H}, ({}))", id / 2, pixels.join(", "))
}

/// Cluster `DELETE` latency, owner index vs `LOOKUP` broadcast: ingests `n`
/// masks into a two-shard cluster through one coordinator (whose owner
/// index therefore knows every id), then deletes half the ids through it
/// (zero broadcasts) and the other half through a coordinator connected
/// *before* ingest (one `LOOKUP` broadcast per statement). Returns
/// `((warm ops/s, warm broadcasts), (cold ops/s, cold broadcasts))`.
fn cluster_delete_section(n: u64) -> ((f64, u64), (f64, u64)) {
    let shards: Vec<ServerHandle> = (0..2).map(|_| memory_shard()).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let cold = Coordinator::connect(ClusterConfig::new(addrs.clone())).expect("cold coordinator");
    let warm = Coordinator::connect(ClusterConfig::new(addrs)).expect("warm coordinator");
    let ids: Vec<u64> = (0..n).collect();
    for batch in ids.chunks(64) {
        let tuples: Vec<String> = batch.iter().map(|&id| tuple_for(id)).collect();
        warm.execute_sql(&format!("INSERT INTO masks VALUES {}", tuples.join(", ")))
            .expect("cluster insert");
    }
    let timed = |coordinator: &Coordinator, ids: std::iter::StepBy<std::ops::Range<u64>>| {
        let before = coordinator.metrics().lookup_broadcasts;
        let start = Instant::now();
        let mut ops = 0u64;
        for id in ids {
            coordinator
                .execute_sql(&format!("DELETE FROM masks WHERE mask_id IN ({id})"))
                .expect("cluster delete");
            ops += 1;
        }
        (
            ops as f64 / start.elapsed().as_secs_f64(),
            coordinator.metrics().lookup_broadcasts - before,
        )
    };
    let warm_result = timed(&warm, (0..n).step_by(2));
    let cold_result = timed(&cold, (1..n).step_by(2));
    for shard in shards {
        shard.shutdown();
    }
    (warm_result, cold_result)
}

fn main() {
    let masks = usize_from_args("masks", 60_000) as u64;
    let iters = usize_from_args("iters", 9).max(1);
    let check = std::env::args().any(|a| a == "--check");

    println!("== secondary metadata indexes: posting-list probe vs catalog scan ==\n");
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for id in 0..masks {
        store.put(MaskId::new(id), &mask_for(id)).expect("ingest");
        catalog.insert(
            MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(id / 2))
                .model_id(ModelId::new(id % MODELS + 1))
                .predicted_label(Label::new(id % LABELS))
                .shape(W, H)
                .build(),
        );
    }
    let indexed = session_over(&store, catalog.clone(), true);
    let scan = session_over(&store, catalog, false);

    // `(0.0, 1.0)` covers the whole value domain, so every CHI decides the
    // predicate from bounds alone: the headline shape never loads a mask
    // and its cost is purely candidate resolution.
    let shapes: [(&str, &str, String); 3] = [
        (
            "1% equality filter (bounds-decided)",
            "1.00%",
            "SELECT mask_id FROM masks WHERE CP(mask, full, (0.0, 1.0)) > 0 \
             AND predicted_label = 7"
                .to_string(),
        ),
        (
            "0.14% conjunction (cheapest posting list)",
            "0.14%",
            "SELECT mask_id FROM masks WHERE CP(mask, full, (0.0, 1.0)) > 0 \
             AND model_id = 3 AND predicted_label = 42"
                .to_string(),
        ),
        (
            "1% filter + verified top-10",
            "1.00%",
            "SELECT mask_id, CP(mask, full, (0.5, 1.0)) AS s FROM masks \
             WHERE predicted_label = 7 ORDER BY s DESC LIMIT 10"
                .to_string(),
        ),
    ];

    let mut table = Table::new(&["shape", "selectivity", "scan ms", "index ms", "speedup"]);
    let mut results = Vec::new();
    for (shape, selectivity, sql) in &shapes {
        let (index_ms, via_index) = time_query(&indexed, sql, iters);
        let (scan_ms, via_scan) = time_query(&scan, sql, iters);
        assert_eq!(
            via_index.rows, via_scan.rows,
            "index and scan diverged on `{shape}` — correctness before speed"
        );
        assert!(
            via_index.stats.index_probes > 0 && via_index.stats.planner_index_on > 0,
            "indexed session never probed on `{shape}`"
        );
        assert_eq!(
            via_scan.stats.index_probes, 0,
            "scanning session probed an index on `{shape}`"
        );
        let speedup = scan_ms / index_ms.max(1e-9);
        eprintln!(
            "  [{shape}] rows={} probes={} probe_rows={} loaded=({},{}) \
             filter=({:?},{:?}) verify=({:?},{:?}) total=({:?},{:?})",
            via_index.rows.len(),
            via_index.stats.index_probes,
            via_index.stats.index_rows,
            via_index.stats.masks_loaded,
            via_scan.stats.masks_loaded,
            via_index.stats.filter_wall,
            via_scan.stats.filter_wall,
            via_index.stats.verify_wall,
            via_scan.stats.verify_wall,
            via_index.stats.total_wall,
            via_scan.stats.total_wall,
        );
        table.add_row(vec![
            shape.to_string(),
            selectivity.to_string(),
            format!("{scan_ms:.3}"),
            format!("{index_ms:.3}"),
            format!("{speedup:.1}x"),
        ]);
        results.push((shape, selectivity, scan_ms, index_ms, speedup));
    }
    table.print();

    // ---- In-place re-masking (UPDATE) throughput --------------------------
    let ops = (masks / 10).clamp(500, 5_000);
    let updates_indexed = update_throughput(&indexed, masks, ops);
    let updates_plain = update_throughput(&scan, masks, ops);
    println!(
        "\nmetadata UPDATE throughput ({ops} statements): \
         {updates_indexed:.0}/s maintaining posting lists, {updates_plain:.0}/s without"
    );

    // ---- Cluster DELETE: owner index vs LOOKUP broadcast ------------------
    let cluster_masks = 1_000u64;
    let ((warm_ops, warm_broadcasts), (cold_ops, cold_broadcasts)) =
        cluster_delete_section(cluster_masks);
    assert_eq!(
        warm_broadcasts, 0,
        "the ingesting coordinator's owner index must answer every DELETE"
    );
    assert_eq!(
        cold_broadcasts,
        cluster_masks / 2,
        "a cold coordinator must broadcast one LOOKUP per DELETE"
    );
    println!(
        "cluster DELETE ({} statements each): {warm_ops:.0}/s via owner index \
         ({warm_broadcasts} broadcasts), {cold_ops:.0}/s resolving by LOOKUP \
         broadcast ({cold_broadcasts} broadcasts)",
        cluster_masks / 2
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"metadata_index\",\n");
    json.push_str(&format!("  \"masks\": {masks},\n"));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (shape, selectivity, scan_ms, index_ms, speedup)) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{shape}\", \"selectivity\": \"{selectivity}\", \
             \"scan_ms\": {scan_ms:.4}, \"index_ms\": {index_ms:.4}, \
             \"speedup\": {speedup:.2}}}{}\n",
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"update_throughput\": {{\"statements\": {ops}, \
         \"indexed_per_s\": {updates_indexed:.0}, \"plain_per_s\": {updates_plain:.0}}},\n"
    ));
    json.push_str(&format!(
        "  \"cluster_delete\": {{\"statements_each\": {}, \
         \"owner_index_per_s\": {warm_ops:.0}, \"owner_index_broadcasts\": {warm_broadcasts}, \
         \"lookup_broadcast_per_s\": {cold_ops:.0}, \"lookup_broadcasts\": {cold_broadcasts}}}\n",
        cluster_masks / 2
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_metaindex.json", &json).expect("write BENCH_metaindex.json");
    println!("\nwrote BENCH_metaindex.json");

    // Gate: the 1%-selective equality filter must be ≥ 10× faster through
    // the index than through the scan.
    let headline = results[0].4;
    if check && headline < 10.0 {
        eprintln!(
            "REGRESSION: indexed 1%-selective filter only {headline:.1}x the scan (gate: 10x)"
        );
        std::process::exit(1);
    }
    if check {
        println!("check passed: indexed 1%-selective filter {headline:.1}x the scan");
    }
}
