//! End-to-end observability acceptance tests:
//!
//! 1. `EXPLAIN ANALYZE` counters equal the measured [`QueryStats`] exactly —
//!    at the session level (kernel on and off, pair queries included) and
//!    over the wire against both a single-node server and a 4-shard
//!    coordinator (whose plan carries one measured sub-tree per shard).
//! 2. `METRICS` emits Prometheus text exposition that passes
//!    [`masksearch::obs::prom::validate`] on both front ends.
//! 3. `STATS PROFILES` returns span trees for traced queries; a server with
//!    tracing disabled records nothing and answers queries with frames
//!    byte-identical (modulo wall time) to a tracing-enabled server's.
//! 4. Per-shape aggregate statistics persist at checkpoint and survive a
//!    database reopen.

use masksearch::cluster::{ClusterConfig, Coordinator, CoordinatorServer, ShardMap};
use masksearch::core::{ImageId, Mask, MaskId, MaskRecord, PixelRange, Roi};
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::ChiConfig;
use masksearch::obs::prom;
use masksearch::query::{
    CpTerm, Expr, IndexingMode, KernelMode, MaskJoin, Order, Query, Selection, Session,
    SessionConfig, TermSource,
};
use masksearch::service::{Client, Engine, Server, ServerHandle, ServiceConfig};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const W: u32 = 16;
const H: u32 = 16;

fn mask_for(id: u64) -> Mask {
    let mut state = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Mask::from_fn(W, H, move |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32) / (1u64 << 24) as f32
    })
}

fn record_for(id: u64) -> MaskRecord {
    MaskRecord::builder(MaskId::new(id))
        .image_id(ImageId::new(id / 2))
        .shape(W, H)
        .build()
}

fn session_config(kernel: bool) -> SessionConfig {
    SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
        .threads(2)
        .indexing_mode(IndexingMode::Eager)
        .kernel_mode(if kernel {
            KernelMode::ForceOn
        } else {
            KernelMode::ForceOff
        })
}

fn session_over(ids: &[u64], kernel: bool) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for &id in ids {
        store.put(MaskId::new(id), &mask_for(id)).unwrap();
        catalog.insert(record_for(id));
    }
    Session::new(store as Arc<dyn MaskStore>, catalog, session_config(kernel)).unwrap()
}

fn filter_sql() -> String {
    format!(
        "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.5, 1.0)) > {}",
        W * H / 2
    )
}

/// `key=value` token lookup on one rendered plan/summary line.
fn token_value(line: &str, key: &str) -> Option<u64> {
    line.split_ascii_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// The counter `key` on the first plan line whose node name is `node`.
fn node_counter(lines: &[String], node: &str, key: &str) -> Option<u64> {
    lines
        .iter()
        .map(|l| l.trim_start())
        .find(|l| *l == node || l.starts_with(&format!("{node} ")))
        .and_then(|l| token_value(l, key))
}

/// Asserts an annotated plan's counters equal `stats` field for field.
fn assert_plan_matches_stats(
    plan: &masksearch::query::PlanNode,
    stats: &masksearch::query::QueryStats,
    rows: u64,
) {
    assert_eq!(plan.counter("candidates"), Some(stats.candidates));
    assert_eq!(plan.counter("rows"), Some(rows));
    assert_eq!(
        plan.counter("wall_us"),
        Some(stats.total_wall.as_micros() as u64)
    );
    let filter = plan.find("filter").expect("filter node");
    assert_eq!(filter.counter("pruned"), Some(stats.pruned));
    assert_eq!(
        filter.counter("accepted"),
        Some(stats.accepted_without_load)
    );
    assert_eq!(filter.counter("verified"), Some(stats.verified));
    assert_eq!(
        filter.counter("wall_us"),
        Some(stats.filter_wall.as_micros() as u64)
    );
    let verify = plan.find("verify").expect("verify node");
    assert_eq!(verify.counter("loaded"), Some(stats.masks_loaded));
    assert_eq!(verify.counter("bytes_read"), Some(stats.bytes_read));
    assert_eq!(verify.counter("indexes_built"), Some(stats.indexes_built));
    assert_eq!(verify.counter("tiles_pruned"), Some(stats.tiles_pruned));
    assert_eq!(verify.counter("tiles_hist"), Some(stats.tiles_hist));
    assert_eq!(verify.counter("tiles_scanned"), Some(stats.tiles_scanned));
}

#[test]
fn explain_analyze_counters_equal_query_stats_at_session_level() {
    let ids: Vec<u64> = (0..24).collect();
    let filter = Query::filter_cp_gt(
        Roi::new(0, 0, W, H).unwrap(),
        PixelRange::new(0.5, 1.0).unwrap(),
        (W * H / 2) as f64,
    );
    let pair = Query::pair_top_k(
        MaskJoin::new(Selection::all(), Selection::all()),
        Expr::Cp(
            CpTerm::full_mask(PixelRange::new(0.5, 1.0).unwrap()).with_source(TermSource::Left),
        ),
        5,
        Order::Desc,
    );
    for kernel in [true, false] {
        let session = session_over(&ids, kernel);
        for query in [&filter, &pair] {
            let (plan, output) = session.explain_analyze(query).expect("explain analyze");
            assert_plan_matches_stats(&plan, &output.stats, output.rows.len() as u64);
            if let Some(bind) = plan.find("pair.bind") {
                assert_eq!(bind.counter("pairs_bound"), Some(output.stats.pairs_bound));
            }
        }
    }
}

#[test]
fn explain_analyze_counters_equal_wire_summary_single_node() {
    for kernel in [true, false] {
        let engine = Engine::new(session_over(&(0..24).collect::<Vec<_>>(), kernel), {
            ServiceConfig::new(2)
        });
        let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let sql = filter_sql();
        // Warm the mask cache so both executions below observe identical
        // load counts.
        client.query(&sql).unwrap();
        let summary = client.query(&sql).unwrap().summary;
        let plan = client.explain(true, &sql).unwrap();
        assert!(
            plan[0].starts_with("query kind=filter"),
            "got {:?}",
            plan[0]
        );
        assert_eq!(
            node_counter(&plan, "query", "candidates"),
            Some(summary.candidates)
        );
        assert_eq!(node_counter(&plan, "query", "rows"), Some(summary.rows));
        assert_eq!(
            node_counter(&plan, "filter", "pruned"),
            Some(summary.pruned)
        );
        assert_eq!(
            node_counter(&plan, "filter", "verified"),
            Some(summary.verified)
        );
        assert_eq!(
            node_counter(&plan, "verify", "loaded"),
            Some(summary.loaded)
        );

        // Plan-only EXPLAIN neither executes nor carries measured counters.
        let plan_only = client.explain(false, &sql).unwrap();
        assert!(plan_only[0].starts_with("query kind=filter"));
        assert_eq!(node_counter(&plan_only, "query", "candidates"), None);
        assert_eq!(node_counter(&plan_only, "query", "wall_us"), None);
        handle.shutdown();
    }
}

struct TestCluster {
    _servers: Vec<ServerHandle>,
    coordinator: Coordinator,
}

fn cluster(num_shards: usize, ids: &[u64]) -> TestCluster {
    let map = ShardMap::new(num_shards).unwrap();
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); num_shards];
    for &id in ids {
        per_shard[map.shard_for_record(&record_for(id))].push(id);
    }
    let servers: Vec<ServerHandle> = per_shard
        .iter()
        .map(|shard_ids| {
            let engine = Engine::new(session_over(shard_ids, true), ServiceConfig::new(2));
            Server::bind("127.0.0.1:0", engine).unwrap().spawn()
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let coordinator = Coordinator::connect(ClusterConfig::new(addrs)).unwrap();
    TestCluster {
        _servers: servers,
        coordinator,
    }
}

#[test]
fn cluster_explain_analyze_carries_one_measured_subtree_per_shard() {
    let ids: Vec<u64> = (0..40).collect();
    let test = cluster(4, &ids);
    let front = CoordinatorServer::bind("127.0.0.1:0", test.coordinator.clone())
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();
    let sql = filter_sql();
    // Warm every shard's cache so the explain below observes the same load
    // counts as the reference execution.
    client.query(&sql).unwrap();
    let summary = client.query(&sql).unwrap().summary;

    let plan = client.explain(true, &sql).unwrap();
    assert!(
        plan[0].starts_with("cluster shards=4 routing=broadcast"),
        "got {:?}",
        plan[0]
    );
    assert!(
        token_value(&plan[0], "wall_us").is_some(),
        "analyze roots carry wall time"
    );
    for shard in 0..4 {
        assert!(
            plan.iter()
                .any(|l| l.starts_with(&format!("  shard {shard} addr="))),
            "missing sub-tree for shard {shard}"
        );
    }
    // Each shard sub-tree is a measured single-node plan; their candidate
    // counts sum to exactly what the coordinated execution reported.
    let shard_roots: Vec<&String> = plan
        .iter()
        .filter(|l| l.trim_start().starts_with("query "))
        .collect();
    assert_eq!(shard_roots.len(), 4, "one query root per shard");
    let candidate_sum: u64 = shard_roots
        .iter()
        .map(|l| token_value(l, "candidates").expect("measured shard root"))
        .sum();
    assert_eq!(candidate_sum, summary.candidates);
    let loaded_sum: u64 = shard_roots
        .iter()
        .map(|l| {
            let indent = plan.iter().position(|p| p == *l).unwrap();
            node_counter(&plan[indent..], "verify", "loaded").expect("verify node")
        })
        .sum();
    assert_eq!(loaded_sum, summary.loaded);

    // Ranked routing is named on the root so the plan doesn't overstate
    // what each shard returns at execution time.
    let ranked = format!(
        "SELECT mask_id, CP(mask, (0, 0, {W}, {H}), (0.6, 1.0)) AS s \
         FROM masks ORDER BY s DESC LIMIT 5"
    );
    let ranked_plan = client.explain(false, &ranked).unwrap();
    assert!(
        ranked_plan[0].starts_with("cluster shards=4 routing=ranked_partial k=5"),
        "got {:?}",
        ranked_plan[0]
    );

    // EXPLAIN on writes fails without touching any shard.
    assert!(client
        .explain(false, "DELETE FROM masks WHERE mask_id IN (1)")
        .is_err());
    front.shutdown();
}

#[test]
fn metrics_expositions_validate_on_both_front_ends() {
    let ids: Vec<u64> = (0..24).collect();
    let engine = Engine::new(session_over(&ids, true), ServiceConfig::new(2));
    let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.query(&filter_sql()).unwrap();
    let text = client.metrics().unwrap();
    let samples = prom::validate(&text).expect("single-node exposition validates");
    assert!(
        samples > 20,
        "expected a rich exposition, got {samples} samples"
    );
    assert!(text.contains("# TYPE masksearch_queries_completed_total counter"));
    assert!(text.contains("# TYPE masksearch_query_latency_seconds histogram"));
    handle.shutdown();

    let test = cluster(4, &ids);
    let front = CoordinatorServer::bind("127.0.0.1:0", test.coordinator.clone())
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();
    client.query(&filter_sql()).unwrap();
    let text = client.metrics().unwrap();
    let samples = prom::validate(&text).expect("coordinator exposition validates");
    assert!(
        samples > 10,
        "expected cluster + global counters, got {samples}"
    );
    assert!(text.contains("masksearch_cluster_shards 4"));
    assert!(text.contains("# TYPE masksearch_cluster_queries_total counter"));
    assert!(text.contains("# TYPE masksearch_scatter_requests_total counter"));
    front.shutdown();
}

#[test]
fn profiles_record_span_trees_on_both_front_ends() {
    let ids: Vec<u64> = (0..24).collect();
    let engine = Engine::new(session_over(&ids, true), ServiceConfig::new(2));
    let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let sql = filter_sql();
    client.query(&sql).unwrap();
    client.query(&sql).unwrap();
    let profiles = client.profiles(8).unwrap();
    assert!(!profiles.is_empty());
    assert!(
        profiles[0].starts_with("profile seq="),
        "got {:?}",
        profiles[0]
    );
    assert!(
        profiles[0].contains(&format!("statement={sql}")),
        "profiles carry the statement"
    );
    assert!(
        profiles
            .iter()
            .any(|l| l.trim_start().starts_with("query ")),
        "profiles carry the span tree"
    );
    handle.shutdown();

    let test = cluster(4, &ids);
    let front = CoordinatorServer::bind("127.0.0.1:0", test.coordinator.clone())
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();
    client.query(&sql).unwrap();
    let profiles = client.profiles(4).unwrap();
    assert!(profiles[0].starts_with("profile seq="));
    assert!(
        profiles
            .iter()
            .any(|l| l.trim_start().starts_with("cluster_query")),
        "coordinator trace root present: {profiles:?}"
    );
    let scatter = profiles
        .iter()
        .find(|l| l.trim_start().starts_with("scatter"))
        .expect("scatter span under the trace");
    assert_eq!(token_value(scatter, "shards"), Some(4));
    front.shutdown();
}

/// Blanks the digits of every `wall_us=<n>` token (the only part of a query
/// frame that varies run to run).
fn normalize_wall(frame: &str) -> String {
    let mut out = String::with_capacity(frame.len());
    let mut rest = frame;
    while let Some(i) = rest.find("wall_us=") {
        let after = &rest[i + "wall_us=".len()..];
        let digits = after.chars().take_while(char::is_ascii_digit).count();
        out.push_str(&rest[..i + "wall_us=".len()]);
        out.push('N');
        rest = &after[digits..];
    }
    out.push_str(rest);
    out
}

/// One raw request → raw frame round trip, no client-side parsing.
fn raw_frame(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "{request}").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut frame = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            panic!("connection closed mid-frame");
        }
        frame.push_str(&line);
        if line.trim_end() == "END" {
            return frame;
        }
    }
}

#[test]
fn tracing_disabled_server_is_byte_identical_and_records_nothing() {
    let ids: Vec<u64> = (0..24).collect();
    let sql = filter_sql();
    let mut frames = Vec::new();
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for tracing in [true, false] {
        let config = ServiceConfig::new(2).tracing(tracing);
        let engine = Engine::new(session_over(&ids, true), config);
        let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
        // Warm-up so both servers answer from identical cache state.
        raw_frame(handle.local_addr(), &sql);
        frames.push(raw_frame(handle.local_addr(), &sql));
        addrs.push(handle.local_addr());
        handles.push(handle);
    }
    assert_eq!(
        normalize_wall(&frames[0]),
        normalize_wall(&frames[1]),
        "tracing must not change the wire output"
    );
    // The tracing-enabled server recorded profiles; the disabled one none.
    let mut traced = Client::connect(addrs[0]).unwrap();
    assert!(!traced.profiles(4).unwrap().is_empty());
    let mut untraced = Client::connect(addrs[1]).unwrap();
    assert!(untraced.profiles(4).unwrap().is_empty());
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn slow_query_log_counts_over_threshold_statements() {
    let ids: Vec<u64> = (0..12).collect();
    let config = ServiceConfig::new(1).slow_query(Duration::ZERO);
    let engine = Engine::new(session_over(&ids, true), config);
    assert_eq!(engine.slow_log().logged(), 0);
    engine.execute_sql(&filter_sql()).unwrap();
    assert!(
        engine.slow_log().logged() >= 1,
        "zero threshold logs every query"
    );
}

#[test]
fn shape_stats_survive_checkpoint_and_reopen() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("masksearch-obs-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db_config = DbConfig::default()
        .page_size(1024)
        .chi_config(ChiConfig::new(4, 4, 8).unwrap());
    let query = Query::filter_cp_gt(
        Roi::new(0, 0, W, H).unwrap(),
        PixelRange::new(0.5, 1.0).unwrap(),
        (W * H / 2) as f64,
    );
    let shape;
    let before;
    {
        let db = MaskDb::open(&dir, db_config).unwrap();
        let session = Session::with_store_maintained_index(
            db.mask_store(),
            db.catalog(),
            session_config(true).indexing_mode(IndexingMode::Incremental),
            db.chi_store(),
        );
        let batch: Vec<(MaskRecord, Mask)> =
            (0..12).map(|i| (record_for(i), mask_for(i))).collect();
        session.insert_masks(&batch).unwrap();
        session.execute(&query).unwrap();
        session.execute(&query).unwrap();
        shape = masksearch::query::shape_key(&query, session.config());
        before = session
            .shape_stats()
            .get(&shape)
            .expect("shape recorded after execution");
        assert_eq!(before.queries, 2);
        assert!(before.sums.candidates > 0);
        db.checkpoint().unwrap();
    }
    let db = MaskDb::open(&dir, db_config).unwrap();
    let session = Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        session_config(true).indexing_mode(IndexingMode::Incremental),
        db.chi_store(),
    );
    let after = session
        .shape_stats()
        .get(&shape)
        .expect("shape statistics recovered from checkpoint");
    assert_eq!(after, before);
    // Recovered aggregates keep accumulating.
    session.execute(&query).unwrap();
    assert_eq!(session.shape_stats().get(&shape).unwrap().queries, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
