//! Cluster scaling experiment: served QPS and latency percentiles as a
//! function of shard count, plus the distributed top-k round structure.
//!
//! For each shard count the dataset is partitioned with the `ShardMap`
//! (image-id hashing), each shard gets its own engine + TCP server, and a
//! fleet of client threads fires a mixed filter / top-k / aggregation SQL
//! workload at a `CoordinatorServer` front end. Reported per point: QPS,
//! p50/p99 end-to-end latency, mean top-k scatter rounds, and refinement
//! re-queries; appended to `BENCH_cluster.json`.
//!
//! ```text
//! cargo run --release --bin cluster_scaling -- \
//!     --scale 0.002 --clients 4 --queries 30
//! ```

use masksearch_bench::report::{percentile, Table};
use masksearch_bench::{scale_from_args, usize_from_args, BenchDataset};
use masksearch_cluster::{ClusterConfig, Coordinator, CoordinatorServer, ShardMap};
use masksearch_query::{IndexingMode, Session, SessionConfig};
use masksearch_service::{Client, Engine, Server, ServerHandle, ServiceConfig};
use masksearch_storage::{Catalog, DiskProfile, MaskEncoding, MaskStore, MemoryMaskStore};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

struct ShardPoint {
    shards: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_topk_rounds: f64,
    refined_requests: u64,
}

/// Partitions the benchmark dataset by the shard map and serves each
/// partition from its own engine.
///
/// Shards run **storage-bound**: cloud-object-class read latency is emulated
/// with real waits ([`MemoryMaskStore::emulate_latency`]), modelling the
/// catalog-larger-than-RAM deployment that motivates sharding in the first
/// place. That keeps the scaling curve about what the cluster layer does —
/// overlapping per-shard waits via the pipelined fan-out — rather than about
/// how many cores the benchmark host happens to have.
fn shard_servers(bench: &BenchDataset, shards: usize) -> Vec<ServerHandle> {
    let map = ShardMap::new(shards).expect("shard map");
    let stores: Vec<Arc<MemoryMaskStore>> = (0..shards)
        .map(|_| {
            Arc::new(
                MemoryMaskStore::new(MaskEncoding::Raw, DiskProfile::cloud_object())
                    .emulate_latency(true),
            )
        })
        .collect();
    let mut catalogs = vec![Catalog::new(); shards];
    for record in bench.dataset.catalog.records() {
        let shard = map.shard_for_record(record);
        let mask = bench.store.get(record.mask_id).expect("mask");
        stores[shard].put(record.mask_id, &mask).expect("put");
        catalogs[shard].insert(record.clone());
    }
    stores
        .into_iter()
        .zip(catalogs)
        .map(|(store, catalog)| {
            store.io_stats().reset();
            let session = Session::new(
                store as Arc<dyn MaskStore>,
                catalog,
                SessionConfig::new(bench.chi_config).indexing_mode(IndexingMode::Eager),
            )
            .expect("shard session");
            let engine = Engine::new(session, ServiceConfig::new(2));
            Server::bind("127.0.0.1:0", engine)
                .expect("bind shard")
                .spawn()
        })
        .collect()
}

/// A deterministic mixed SQL workload (filter / mask top-k / grouped top-k).
fn workload_sql(client: u64, i: usize, width: u32, height: u32) -> String {
    let mut state = (client + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64);
    let mut next = move |modulo: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % modulo
    };
    let x0 = next(u64::from(width) / 2) as u32;
    let y0 = next(u64::from(height) / 2) as u32;
    let x1 = x0 + 1 + next(u64::from(width - x0 - 1).max(1)) as u32;
    let y1 = y0 + 1 + next(u64::from(height - y0 - 1).max(1)) as u32;
    let lo = 0.4 + next(40) as f64 / 100.0;
    match i % 3 {
        0 => {
            let area = u64::from(x1 - x0) * u64::from(y1 - y0);
            format!(
                "SELECT mask_id FROM masks WHERE CP(mask, ({x0}, {y0}, {x1}, {y1}), ({lo}, 1.0)) > {}",
                area / 4
            )
        }
        1 => format!(
            "SELECT mask_id, CP(mask, ({x0}, {y0}, {x1}, {y1}), ({lo}, 1.0)) AS s \
             FROM masks ORDER BY s DESC LIMIT 25"
        ),
        _ => format!(
            "SELECT image_id, AVG(CP(mask, full, ({lo}, 1.0))) AS s \
             FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 25"
        ),
    }
}

fn run_point(bench: &BenchDataset, shards: usize, clients: usize, queries: usize) -> ShardPoint {
    let servers = shard_servers(bench, shards);
    let coordinator = Coordinator::connect(ClusterConfig::new(
        servers.iter().map(|s| s.local_addr().to_string()).collect(),
    ))
    .expect("coordinator");
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator.clone())
        .expect("bind front end")
        .spawn();
    let addr = front.local_addr();
    let (width, height) = (bench.spec.mask_width, bench.spec.mask_height);

    let start = Instant::now();
    let latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut connection = Client::connect(addr).expect("connect");
                    let mut latencies = Vec::with_capacity(queries);
                    for i in 0..queries {
                        let sql = workload_sql(client as u64, i, width, height);
                        let issued = Instant::now();
                        connection.query(&sql).expect("served query");
                        latencies.push(issued.elapsed().as_secs_f64() * 1e3);
                    }
                    connection.quit().ok();
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    let metrics = coordinator.metrics();
    front.shutdown();
    drop(servers);

    ShardPoint {
        shards,
        qps: latencies_ms.len() as f64 / wall.as_secs_f64(),
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        mean_topk_rounds: metrics.mean_topk_rounds(),
        refined_requests: metrics.topk_refined_requests,
    }
}

fn main() {
    let scale = scale_from_args(0.002);
    let clients = usize_from_args("clients", 4);
    let queries = usize_from_args("queries", 30);
    let check = std::env::args().any(|a| a == "--check");

    println!("== masksearch-cluster throughput vs. shard count ==");
    println!("dataset: WILDS-like at scale {scale}, {clients} clients x {queries} queries\n");
    let bench = BenchDataset::wilds(scale).expect("generate dataset");

    let points: Vec<ShardPoint> = [1usize, 2, 4]
        .iter()
        .map(|&shards| run_point(&bench, shards, clients, queries))
        .collect();

    let mut table = Table::new(&[
        "shards",
        "QPS",
        "p50 (ms)",
        "p99 (ms)",
        "topk rounds (mean)",
        "refined requests",
    ]);
    for p in &points {
        table.add_row(vec![
            p.shards.to_string(),
            format!("{:.1}", p.qps),
            format!("{:.3}", p.p50_ms),
            format!("{:.3}", p.p99_ms),
            format!("{:.3}", p.mean_topk_rounds),
            p.refined_requests.to_string(),
        ]);
    }
    table.print();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"cluster_scaling\",\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"queries_per_client\": {queries},\n"));
    json.push_str(&format!("  \"num_masks\": {},\n", bench.num_masks()));
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"qps\": {:.3}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"mean_topk_rounds\": {:.4}, \"refined_requests\": {}}}{}\n",
            p.shards,
            p.qps,
            p.p50_ms,
            p.p99_ms,
            p.mean_topk_rounds,
            p.refined_requests,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    let path = "BENCH_cluster.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_cluster.json");
    println!("\nwrote {path}");

    if check {
        let qps_1 = points.iter().find(|p| p.shards == 1).expect("1-shard").qps;
        let qps_4 = points.iter().find(|p| p.shards == 4).expect("4-shard").qps;
        let speedup = qps_4 / qps_1;
        println!("check: 4-shard speedup {speedup:.2}x over 1 shard (gate: >= 2.5x)");
        if speedup < 2.5 {
            eprintln!(
                "FAIL: pipelined fan-out regression — 4 shards served only \
                 {speedup:.2}x the 1-shard QPS (required >= 2.5x)"
            );
            std::process::exit(1);
        }
    }
}
