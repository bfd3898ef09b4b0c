//! The metrics registry's contract (`masksearch_obs::keys`): every row is
//! unique, has HELP, is emitted by the surfaces it names and is listed in
//! README's metrics table — and the `STATS` lines built from the rows keep
//! their bytes.

use masksearch::cluster::coordinator::merged_stats_line;
use masksearch::cluster::{ClusterConfig, ClusterMetricsSnapshot, Coordinator};
use masksearch::core::{ImageId, Mask, MaskId, MaskRecord};
use masksearch::index::ChiConfig;
use masksearch::obs::counters;
use masksearch::obs::keys::{Kind, Merge, Metric, MetricsSnapshot, MONITOR_DELTA_KEYS};
use masksearch::obs::WINDOW_GAUGES;
use masksearch::query::{Session, SessionConfig};
use masksearch::service::protocol::stats_line;
use masksearch::service::{Backend, Engine, Server, ServiceConfig};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use std::sync::Arc;

const README: &str = include_str!("../README.md");

/// Prometheus series the front ends emit outside the rows.
const HISTOGRAMS: [&str; 2] = [
    "masksearch_query_latency_seconds",
    "masksearch_queue_wait_seconds",
];

fn session_over(ids: &[u64]) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for &id in ids {
        let mask = Mask::from_fn(16, 16, |x, y| {
            ((x * 7 + y * 3 + id as u32) % 16) as f32 / 16.0
        });
        store.put(MaskId::new(id), &mask).unwrap();
        catalog.insert(
            MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(id / 2))
                .shape(16, 16)
                .build(),
        );
    }
    let config = SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap()).threads(1);
    Session::new(store as Arc<dyn MaskStore>, catalog, config).unwrap()
}

/// A table's rows and the README "served by" text of a row.
type Table = (&'static [Metric], fn(&Metric) -> &'static str);

/// The three tables.
fn tables() -> [Table; 3] {
    [
        (&MetricsSnapshot::ROWS, |row| match row.merge {
            Merge::Sum => "node; coordinator `STATS` sums",
            Merge::Max => "node; coordinator `STATS` takes the max",
            Merge::Own => "node",
        }),
        (&ClusterMetricsSnapshot::ROWS, |_| "coordinator"),
        (&counters::ROWS, |_| "node, coordinator (process-global)"),
    ]
}

/// README's metrics-table line for one row.
fn readme_line(row: &Metric, served_by: &str) -> String {
    let code = |text: &str| {
        if text.is_empty() {
            "—".to_string()
        } else {
            format!("`{text}`")
        }
    };
    let kind = match row.kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
    };
    format!(
        "| {} | {} | {kind} | {served_by} | {} |",
        code(row.prom),
        code(row.key),
        row.help
    )
}

fn prom_header(row: &Metric) -> String {
    let kind = match row.kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
    };
    format!("# HELP {0} {1}\n# TYPE {0} {kind}\n", row.prom, row.help)
}

#[test]
fn registry_rows_are_unique_helped_emitted_and_documented() {
    let rows: Vec<&Metric> = tables().iter().flat_map(|(rows, _)| rows.iter()).collect();

    let mut keys: Vec<&str> = rows
        .iter()
        .map(|row| row.key)
        .filter(|k| !k.is_empty())
        .collect();
    let mut proms: Vec<&str> = rows
        .iter()
        .map(|row| row.prom)
        .filter(|p| !p.is_empty())
        .collect();
    proms.extend(HISTOGRAMS);
    proms.extend(WINDOW_GAUGES.iter().map(|gauge| gauge.prom));
    for names in [&mut keys, &mut proms] {
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(all, names.len(), "duplicate name among {names:?}");
    }
    for row in &rows {
        assert!(!row.help.trim().is_empty(), "{row:?} has no HELP");
        assert!(
            !row.key.is_empty() || !row.prom.is_empty(),
            "{row:?} is on no surface"
        );
    }

    // A single node and a one-shard coordinator over it, after a query.
    let ids: Vec<u64> = (0..8).collect();
    let engine = Engine::new(session_over(&ids), ServiceConfig::new(1));
    let shard = Server::bind("127.0.0.1:0", engine.clone()).unwrap().spawn();
    let coordinator =
        Coordinator::connect(ClusterConfig::new(vec![shard.local_addr().to_string()])).unwrap();
    coordinator
        .execute_sql("SELECT mask_id FROM masks WHERE CP(mask, full, (0.5, 1.0)) > 10")
        .unwrap();
    let node_stats = engine.stats_line(0).unwrap();
    let node_prom = engine.prometheus_text();
    let coord_stats = coordinator.stats_line(0).unwrap();
    let coord_prom = coordinator.prometheus_text();
    for histogram in HISTOGRAMS {
        assert!(node_prom.contains(&format!("# TYPE {histogram} histogram\n")));
    }

    let on_stats = |line: &str, key: &str| line.contains(&format!(" {key}="));
    for row in &MetricsSnapshot::ROWS {
        if !row.key.is_empty() {
            assert!(
                on_stats(&node_stats, row.key),
                "{} not on {node_stats}",
                row.key
            );
            let merged = row.merge != Merge::Own;
            assert_eq!(on_stats(&coord_stats, row.key), merged, "{}", row.key);
            assert_eq!(
                MONITOR_DELTA_KEYS.contains(&row.key),
                row.kind == Kind::Counter
            );
        }
        if !row.prom.is_empty() {
            assert!(
                node_prom.contains(&prom_header(row)),
                "{} not exported",
                row.prom
            );
            assert!(!coord_prom.contains(&prom_header(row)), "{}", row.prom);
        }
    }
    for row in &ClusterMetricsSnapshot::ROWS {
        if !row.key.is_empty() {
            assert!(
                on_stats(&coord_stats, row.key),
                "{} not on {coord_stats}",
                row.key
            );
        }
        if !row.prom.is_empty() {
            assert!(
                coord_prom.contains(&prom_header(row)),
                "{} not exported",
                row.prom
            );
        }
    }
    for row in &counters::ROWS {
        assert!(
            node_prom.contains(&prom_header(row)),
            "{} not exported",
            row.prom
        );
        assert!(
            coord_prom.contains(&prom_header(row)),
            "{} not exported",
            row.prom
        );
    }

    let missing: Vec<String> = tables()
        .iter()
        .flat_map(|(rows, served_by)| rows.iter().map(|row| readme_line(row, served_by(row))))
        .filter(|line| !README.lines().any(|l| l == line))
        .collect();
    assert!(
        missing.is_empty(),
        "README's metrics table lacks these rows:\n{}",
        missing.join("\n")
    );

    // The windowed gauges: each has HELP, is emitted with it by a node's
    // `METRICS` and both front ends' `METRICS WINDOW`, and is in the table.
    let windows = [
        node_prom.clone(),
        engine.metrics_window_text(60),
        coordinator.metrics_window_text(60),
    ];
    for gauge in &WINDOW_GAUGES {
        assert!(!gauge.help.trim().is_empty(), "{} has no HELP", gauge.prom);
        let header = format!("# HELP {0} {1}\n# TYPE {0} gauge\n", gauge.prom, gauge.help);
        for text in &windows {
            assert!(text.contains(&header), "{} not exported", gauge.prom);
        }
        let line = format!(
            "| `{}` | — | gauge | node `METRICS`; node and coordinator `METRICS WINDOW` | {} |",
            gauge.prom, gauge.help
        );
        assert!(README.lines().any(|l| l == line), "README lacks {line}");
    }
    shard.shutdown();
}

fn node_snapshot(base: u64) -> MetricsSnapshot {
    MetricsSnapshot {
        qps: 12.345_6 + base as f64,
        completed: base + 2,
        failed: base + 3,
        rejected: base + 4,
        deadline_expired: base + 5,
        p50_us: base + 26,
        p99_us: 1000 - base,
        mean_us: base + 28,
        filter_rate: 0.876_543_21,
        cache_hit_rate: 0.5 + base as f64 / 1000.0,
        uptime_ms: base + 4321,
        mutations: base + 6,
        masks_inserted: base + 7,
        masks_deleted: base + 8,
        masks_updated: base + 9,
        mutations_deduped: base + 10,
        wal_bytes: base + 22,
        checkpoints: base + 23,
        commits: base + 21,
        tiles_pruned: base + 11,
        tiles_hist: base + 12,
        tiles_scanned: base + 13,
        pairs_bound: base + 14,
        planner_kernel_on: base + 15,
        planner_kernel_off: base + 16,
        index_probes: base + 17,
        index_rows: base + 18,
        planner_index_on: base + 19,
        planner_index_off: base + 20,
        active_connections: base + 24,
        queue_depth: base + 25,
        // Not on `STATS`.
        submitted: base + 1,
        candidates: base + 30,
        masks_loaded: base + 31,
        profiles_recorded: base + 32,
        slow_queries_logged: base + 33,
    }
}

/// The `STATS` lines of fixed snapshots, a node's and a coordinator's, byte
/// for byte: clients parse them, so the key order, the decimals and the
/// coordinator's merge order are part of the wire.
#[test]
fn stats_lines_keep_their_bytes() {
    let a = stats_line(&node_snapshot(100));
    let b = stats_line(&node_snapshot(200));
    assert_eq!(
        a,
        "STATS qps=112.346 completed=102 failed=103 rejected=104 deadline_expired=105 \
         p50_us=126 p99_us=900 mean_us=128 filter_rate=0.876543 cache_hit_rate=0.600000 \
         uptime_ms=4421 mutations=106 inserted=107 deleted=108 updated=109 deduped=110 \
         wal_bytes=122 checkpoints=123 commits=121 tiles_pruned=111 tiles_hist=112 \
         tiles_scanned=113 pairs_bound=114 planner_kernel_on=115 planner_kernel_off=116 \
         index_probes=117 index_rows=118 planner_index_on=119 planner_index_off=120 \
         active_connections=124 queue_depth=125"
    );
    assert_eq!(
        b,
        "STATS qps=212.346 completed=202 failed=203 rejected=204 deadline_expired=205 \
         p50_us=226 p99_us=800 mean_us=228 filter_rate=0.876543 cache_hit_rate=0.700000 \
         uptime_ms=4521 mutations=206 inserted=207 deleted=208 updated=209 deduped=210 \
         wal_bytes=222 checkpoints=223 commits=221 tiles_pruned=211 tiles_hist=212 \
         tiles_scanned=213 pairs_bound=214 planner_kernel_on=215 planner_kernel_off=216 \
         index_probes=217 index_rows=218 planner_index_on=219 planner_index_off=220 \
         active_connections=224 queue_depth=225"
    );
    let own = ClusterMetricsSnapshot {
        queries: 1,
        ranked_queries: 2,
        mutations: 3,
        failed: 4,
        shard_requests: 5,
        topk_rounds: 6,
        topk_refined_requests: 7,
        topk_single_round: 8,
        masks_inserted: 9,
        masks_deleted: 10,
        masks_updated: 11,
        masks_relocated: 12,
        mutations_deduped: 13,
        transactions: 14,
        owner_resolutions: 15,
        lookup_broadcasts: 16,
        shards: 2,
        // Not on `STATS`.
        uptime_ms: 99,
        profiles_recorded: 17,
    };
    assert_eq!(
        merged_stats_line(&[a, b], &own),
        "STATS shards=2 active_connections=348 checkpoints=346 commits=342 completed=304 \
         deadline_expired=310 deduped=320 deleted=316 failed=306 index_probes=334 \
         index_rows=336 inserted=314 mutations=312 pairs_bound=328 planner_index_off=340 \
         planner_index_on=338 planner_kernel_off=332 planner_kernel_on=330 qps=324.692 \
         queue_depth=350 rejected=308 tiles_hist=324 tiles_pruned=322 tiles_scanned=326 \
         updated=318 wal_bytes=344 p50_us=226 p99_us=900 cluster_queries=1 cluster_ranked=2 \
         cluster_mutations=3 cluster_deduped=13 cluster_failed=4 shard_requests=5 \
         topk_rounds=6 topk_refined_requests=7 topk_single_round=8 relocated=12 \
         cluster_transactions=14 cluster_updated=11 owner_resolutions=15 lookup_broadcasts=16"
    );
}
