//! An end-to-end audit of the observability layer: `EXPLAIN`, `EXPLAIN
//! ANALYZE`, Prometheus metrics, query profiles, and the temporal layer,
//! exercised first against a [`Session`] directly and then over the wire
//! through the TCP service.
//!
//! Run with: `cargo run --release --example explain_audit`

use masksearch::datagen::DatasetSpec;
use masksearch::index::ChiConfig;
use masksearch::obs::prom;
use masksearch::query::{IndexingMode, Session, SessionConfig};
use masksearch::service::{Client, Engine, Server, ServiceConfig};
use masksearch::sql::compile;
use masksearch::storage::{DiskProfile, MaskEncoding, MaskStore, MemoryMaskStore};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let spec = DatasetSpec {
        name: "explain-audit".to_string(),
        num_images: 120,
        models: 2,
        mask_width: 64,
        mask_height: 64,
        num_classes: 10,
        seed: 23,
        focus_probability: 0.7,
    };
    let store = Arc::new(MemoryMaskStore::new(
        MaskEncoding::Raw,
        DiskProfile::ebs_gp3(),
    ));
    let dataset = spec
        .generate_into(store.as_ref())
        .expect("generate dataset");
    let config =
        SessionConfig::new(ChiConfig::new(8, 8, 16).unwrap()).indexing_mode(IndexingMode::Eager);
    let session = Session::new(
        Arc::clone(&store) as Arc<dyn MaskStore>,
        dataset.catalog.clone(),
        config,
    )
    .expect("create session");

    let sql = "SELECT mask_id FROM masks \
               WHERE CP(mask, (8, 8, 56, 56), (0.85, 1.0)) > 200 AND model_id = 1";
    let query = compile(sql).expect("compile SQL");

    // 1. The static plan: operators, strategy, and access path — no
    //    execution, so no counters.
    println!("== EXPLAIN (session) ==");
    for line in session.explain(&query).render() {
        println!("{line}");
    }

    // 2. The measured plan: the same tree annotated with the exact counters
    //    the execution produced (these equal `output.stats` verbatim).
    let (plan, output) = session.explain_analyze(&query).expect("execute query");
    println!("\n== EXPLAIN ANALYZE (session) ==");
    for line in plan.render() {
        println!("{line}");
    }
    println!(
        "-> {} rows; plan counters match QueryStats: candidates={} pruned={} loaded={}",
        output.len(),
        output.stats.candidates,
        output.stats.pruned,
        output.stats.masks_loaded,
    );

    // 3. Now the wire: the same requests through a TCP server. A zero
    //    slow-query threshold makes every statement emit a JSON line on
    //    stderr, so the audit shows the slow-query log format too.
    let engine = Engine::new(session, ServiceConfig::new(2).slow_query(Duration::ZERO));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind").spawn();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    println!("\n== EXPLAIN ANALYZE (over TCP) ==");
    for line in client.explain(true, sql).expect("explain over the wire") {
        println!("{line}");
    }

    let metrics = client.metrics().expect("metrics over the wire");
    let samples = prom::validate(&metrics).expect("valid Prometheus exposition");
    println!("\n== METRICS (over TCP) == {samples} samples; excerpt:");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("masksearch_queries") || l.starts_with("masksearch_masks_loaded"))
    {
        println!("{line}");
    }

    println!("\n== STATS PROFILES (over TCP) ==");
    for line in client.profiles(1).expect("profiles over the wire") {
        println!("{line}");
    }

    // 4. The temporal layer: windowed gauges over the last minute and the
    //    flight recorder's status line (off here — no capture configured).
    let windowed = client.metrics_window(60).expect("METRICS WINDOW");
    prom::validate(&windowed).expect("valid windowed exposition");
    println!("\n== METRICS WINDOW 60 (over TCP) == excerpt:");
    for line in windowed.lines().filter(|l| {
        l.starts_with("masksearch_window_qps") || l.starts_with("masksearch_window_queries")
    }) {
        println!("{line}");
    }
    let status = client.record_status().expect("RECORD STATUS");
    println!("\n== RECORD STATUS (over TCP) ==\n{status}");

    client.quit().expect("quit");
    server.shutdown();
}
