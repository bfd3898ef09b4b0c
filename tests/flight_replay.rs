//! End-to-end temporal-observability acceptance tests:
//!
//! 1. A mixed workload (filter, top-k, aggregation, pair — with the cell
//!    kernel on and off) captured over TCP by the flight recorder replays
//!    against a checkpointed-and-reopened store with every response digest
//!    and per-shape counter sum reproduced exactly.
//! 2. Replayed statements produce result frames byte-identical to the
//!    captured run (only `wall_us` masked), and a recorder-enabled server's
//!    wire output is byte-identical to a recorder-off server's.
//! 3. `MONITOR` metric deltas summed over a subscription equal the final
//!    cumulative `STATS` counters — on a single node and through a 4-shard
//!    coordinator.
//! 4. `METRICS WINDOW <secs>` emits validating Prometheus gauges on both
//!    front ends, and the windowed gauges fold into the full `METRICS`
//!    exposition.
//! 5. The slow-query log writes JSON lines to its configured file.

use masksearch::cluster::{ClusterConfig, Coordinator, CoordinatorServer, ShardMap};
use masksearch::core::{ImageId, Mask, MaskId, MaskRecord};
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::ChiConfig;
use masksearch::obs::{keys, prom, read_recording, RecordedQuery};
use masksearch::query::{IndexingMode, Session, SessionConfig};
use masksearch::service::protocol::{self, Frame};
use masksearch::service::{Client, Engine, Server, ServerHandle, ServiceConfig, ServiceError};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
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

fn session_config() -> SessionConfig {
    SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
        .threads(2)
        .indexing_mode(IndexingMode::Eager)
}

fn session_over(ids: &[u64]) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for &id in ids {
        store.put(MaskId::new(id), &mask_for(id)).unwrap();
        catalog.insert(record_for(id));
    }
    Session::new(store as Arc<dyn MaskStore>, catalog, session_config()).unwrap()
}

fn filter_sql() -> String {
    format!(
        "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.5, 1.0)) > {}",
        W * H / 2
    )
}

fn topk_sql() -> String {
    "SELECT mask_id, CP(mask, (0, 0, 8, 8), (0.5, 1.0)) AS s \
     FROM masks ORDER BY s DESC LIMIT 5"
        .to_string()
}

fn insert_sql(mask_id: u64) -> String {
    let pixels: Vec<String> = (0..16).map(|i| format!("{}", i as f32 / 16.0)).collect();
    format!(
        "INSERT INTO masks VALUES ({mask_id}, 424242, 4, 4, ({}))",
        pixels.join(", ")
    )
}

/// `key=value` token lookup on one rendered control/metric line.
fn token_value(line: &str, key: &str) -> Option<u64> {
    line.split_ascii_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Blanks the digits of every `wall_us=<n>` token (the only part of a
/// response frame that varies run to run).
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
fn raw_frame(addr: SocketAddr, request: &str) -> String {
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

/// Digest of a replayed response, mirroring the server-side recorder.
/// `Remote` carries the peer's wire message verbatim, which is exactly what
/// the server digested for an error.
fn replay_digest(result: &Result<Frame, ServiceError>) -> Option<u64> {
    match result {
        Ok(Frame::Rows(wire)) => Some(protocol::digest_wire_response(wire)),
        Ok(Frame::Plan(lines)) => Some(protocol::digest_plan_lines(lines)),
        Ok(_) => None,
        Err(ServiceError::Remote(msg)) => Some(protocol::digest_error_message(msg)),
        Err(_) => None,
    }
}

/// Counter summary of a replayed frame in recorder order
/// (`candidates, pruned, verified, loaded, inserted, deleted`).
fn replay_counters(result: &Result<Frame, ServiceError>) -> [u64; 6] {
    match result {
        Ok(Frame::Rows(wire)) => [
            wire.summary.candidates,
            wire.summary.pruned,
            wire.summary.verified,
            wire.summary.loaded,
            wire.summary.inserted,
            wire.summary.deleted,
        ],
        _ => [0; 6],
    }
}

/// The request line that re-issues a recorded statement (tokened mutations
/// get a fresh token so the dedup registry can't answer for the replay).
fn request_line(record: &RecordedQuery, fresh_token: u64) -> String {
    match record.kind {
        masksearch::obs::RecordKind::Statement => record.sql.clone(),
        masksearch::obs::RecordKind::Tokened => format!("TOKEN {fresh_token} {}", record.sql),
        masksearch::obs::RecordKind::Partial => format!("PARTIAL K={} {}", record.aux, record.sql),
    }
}

/// Replays `records` in order on one connection; asserts every digest
/// matches and accumulates replayed counters per recorded shape.
fn replay_and_check(
    records: &[RecordedQuery],
    addr: SocketAddr,
    shape_sums: &mut BTreeMap<String, [u64; 6]>,
) {
    let mut client = Client::connect(addr).unwrap();
    for (i, record) in records.iter().enumerate() {
        let line = request_line(record, 0x5EED_0000 + i as u64);
        let result = client.round_trip_raw(&line);
        assert_eq!(
            replay_digest(&result),
            Some(record.digest),
            "digest diverged for {:?} [{}]",
            record.shape,
            record.sql
        );
        let entry = shape_sums.entry(record.shape.clone()).or_default();
        for (slot, v) in entry.iter_mut().zip(replay_counters(&result)) {
            *slot += v;
        }
    }
}

/// A session over the durable database's own store and catalog: sharing
/// its stamped CHI store when `kernel` (masks counted by CHI cell), with an
/// index of its own otherwise (masks counted by the reference scan).
fn durable_session(db: &MaskDb, kernel: bool) -> Session {
    if kernel {
        Session::with_store_maintained_index(
            db.mask_store(),
            db.catalog(),
            session_config(),
            db.chi_store(),
        )
    } else {
        Session::new(db.mask_store(), db.catalog(), session_config()).unwrap()
    }
}

fn db_config() -> DbConfig {
    DbConfig::default()
        .page_size(1024)
        .chi_config(ChiConfig::new(4, 4, 8).unwrap())
}

/// The acceptance cycle: capture a mixed workload (kernel on, then kernel
/// off appended to the same recording) against a durable store over TCP,
/// checkpoint and reopen the store, and replay both segments — every
/// response digest and per-shape counter sum must be reproduced exactly.
#[test]
fn captured_workload_replays_exactly_against_reopened_store() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("masksearch-flight-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flight = std::env::temp_dir().join(format!(
        "masksearch-flight-e2e-{}.flight",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&flight);

    let pair_sql = "SELECT image_id, CP(INTERSECT(mask > 0.7), full, (0.7, 1.0)) AS s \
                    FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 5";
    let agg_sql = format!(
        "SELECT image_id, AVG(CP(mask, (0, 0, {W}, {H}), (0.5, 1.0))) AS s \
         FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 4"
    );
    // Mutations net to zero within each segment so the store that capture
    // leaves behind equals the store each statement saw at capture time.
    let kernel_on_workload = vec![
        filter_sql(),
        topk_sql(),
        pair_sql.to_string(),
        agg_sql.clone(),
        format!("EXPLAIN ANALYZE {}", filter_sql()),
        format!("TOKEN 7001 {}", insert_sql(999_983)),
        "TOKEN 7002 DELETE FROM masks WHERE mask_id IN (999983)".to_string(),
        format!("PARTIAL K=3 {}", topk_sql()),
        "SELECT bogus FROM masks".to_string(),
    ];
    let kernel_off_workload = vec![
        format!(
            "SELECT mask_id FROM masks WHERE CP(mask, (4, 4, 12, 12), (0.6, 1.0)) > {}",
            W * H / 8
        ),
        pair_sql.to_string(),
        format!("EXPLAIN {}", filter_sql()),
        insert_sql(999_991),
        "DELETE FROM masks WHERE mask_id IN (999991)".to_string(),
    ];

    let mut seeded = false;
    let mut segment_lens = Vec::new();
    {
        let db = MaskDb::open(&dir, db_config()).unwrap();
        for (kernel, workload) in [(true, &kernel_on_workload), (false, &kernel_off_workload)] {
            let session = durable_session(&db, kernel);
            if !seeded {
                let batch: Vec<(MaskRecord, Mask)> =
                    (0..24).map(|i| (record_for(i), mask_for(i))).collect();
                session.insert_masks(&batch).unwrap();
                seeded = true;
            }
            let engine = Engine::new(session, ServiceConfig::new(2));
            let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
            let mut client = Client::connect(handle.local_addr()).unwrap();
            client.record_start(Some(flight.to_str().unwrap())).unwrap();
            for sql in workload {
                let _ = client.round_trip_raw(sql); // the bogus statement errs
            }
            let status = client.record_stop().unwrap();
            assert_eq!(token_value(&status, "dropped"), Some(0));
            segment_lens.push(workload.len());
            handle.shutdown();
        }
        db.checkpoint().unwrap();
    }

    let records = read_recording(&flight).unwrap();
    assert_eq!(
        records.len(),
        kernel_on_workload.len() + kernel_off_workload.len(),
        "the second RECORD START must append to the recording"
    );
    let mut recorded_sums: BTreeMap<String, [u64; 6]> = BTreeMap::new();
    for record in &records {
        let entry = recorded_sums.entry(record.shape.clone()).or_default();
        for (slot, v) in entry.iter_mut().zip(record.counters) {
            *slot += v;
        }
    }
    // The mixed workload covers every shape class the recorder names.
    for shape in ["explain", "insert", "delete", "error"] {
        assert!(recorded_sums.contains_key(shape), "missing shape {shape}");
    }

    // Replay each segment against a cold server over the reopened store,
    // with the kernel setting the segment was captured under, so the replay
    // observes the same cache and index state capture did.
    let db = MaskDb::open(&dir, db_config()).unwrap();
    let mut replayed_sums: BTreeMap<String, [u64; 6]> = BTreeMap::new();
    let (seg1, seg2) = records.split_at(segment_lens[0]);
    for (kernel, segment) in [(true, seg1), (false, seg2)] {
        let engine = Engine::new(durable_session(&db, kernel), ServiceConfig::new(2));
        let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
        replay_and_check(segment, handle.local_addr(), &mut replayed_sums);
        handle.shutdown();
    }
    assert_eq!(
        replayed_sums, recorded_sums,
        "per-shape counter sums must be reproduced"
    );

    drop(db);
    let _ = std::fs::remove_file(&flight);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaying a recording against an identically seeded cold server yields
/// result frames byte-identical to the captured run, `wall_us` aside.
#[test]
fn replayed_frames_are_byte_identical_modulo_wall_time() {
    let ids: Vec<u64> = (0..24).collect();
    let flight = std::env::temp_dir().join(format!(
        "masksearch-flight-bytes-{}.flight",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&flight);
    let workload = [
        filter_sql(),
        topk_sql(),
        insert_sql(999_987),
        "DELETE FROM masks WHERE mask_id IN (999987)".to_string(),
        format!("EXPLAIN ANALYZE {}", topk_sql()),
    ];

    let engine = Engine::new(session_over(&ids), ServiceConfig::new(2));
    let capture = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
    let mut client = Client::connect(capture.local_addr()).unwrap();
    client.record_start(Some(flight.to_str().unwrap())).unwrap();
    let captured: Vec<String> = workload
        .iter()
        .map(|sql| raw_frame(capture.local_addr(), sql))
        .collect();
    client.record_stop().unwrap();
    capture.shutdown();

    let records = read_recording(&flight).unwrap();
    assert_eq!(records.len(), workload.len());
    let engine = Engine::new(session_over(&ids), ServiceConfig::new(2));
    let replay = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
    for (record, captured_frame) in records.iter().zip(&captured) {
        let replayed_frame = raw_frame(replay.local_addr(), &record.sql);
        assert_eq!(
            normalize_wall(&replayed_frame),
            normalize_wall(captured_frame),
            "frame diverged for {}",
            record.sql
        );
    }
    replay.shutdown();
    let _ = std::fs::remove_file(&flight);
}

/// A recorder-enabled server answers with wire output byte-identical to a
/// recorder-off server's — capture must not perturb what clients see.
#[test]
fn recorder_leaves_wire_output_byte_identical() {
    let ids: Vec<u64> = (0..24).collect();
    let sql = filter_sql();
    let record_path = std::env::temp_dir().join(format!(
        "masksearch-flight-ident-{}.flight",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&record_path);
    let mut frames = Vec::new();
    for recording in [true, false] {
        let mut config = ServiceConfig::new(2);
        if recording {
            config = config.record_to(&record_path);
        }
        let engine = Engine::new(session_over(&ids), config);
        let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
        // Warm-up so both servers answer from identical cache state.
        raw_frame(handle.local_addr(), &sql);
        frames.push((
            raw_frame(handle.local_addr(), &sql),
            raw_frame(handle.local_addr(), "SELECT bogus FROM masks"),
        ));
        handle.shutdown();
    }
    assert_eq!(normalize_wall(&frames[0].0), normalize_wall(&frames[1].0));
    assert_eq!(frames[0].1, frames[1].1, "error frames are timing-free");
    // And the recorder did capture the recorded server's traffic.
    let records = read_recording(&record_path).unwrap();
    assert_eq!(records.len(), 3);
    let _ = std::fs::remove_file(&record_path);
}

/// Sums one `MONITOR` subscription's deltas per key.
fn sum_deltas(frames: &[(u64, Vec<(String, u64)>)]) -> BTreeMap<String, u64> {
    let mut sums = BTreeMap::new();
    for (i, (seq, deltas)) in frames.iter().enumerate() {
        assert_eq!(*seq, i as u64, "delta frames arrive in sequence");
        for (key, value) in deltas {
            *sums.entry(key.clone()).or_insert(0) += value;
        }
    }
    sums
}

fn assert_deltas_equal_stats(sums: &BTreeMap<String, u64>, stats: &str) {
    for key in keys::MONITOR_DELTA_KEYS {
        assert_eq!(
            sums.get(key).copied().unwrap_or(0),
            token_value(stats, key).unwrap_or_else(|| panic!("{key} missing from {stats}")),
            "summed MONITOR deltas diverge from STATS for {key}"
        );
    }
}

#[test]
fn monitor_deltas_sum_to_final_stats_single_node() {
    let engine = Engine::new(session_over(&(0..24).collect::<Vec<_>>()), {
        ServiceConfig::new(2)
    });
    let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.query(&filter_sql()).unwrap();
    client.query(&topk_sql()).unwrap();
    client.query(&insert_sql(999_985)).unwrap();
    client
        .query("DELETE FROM masks WHERE mask_id IN (999985)")
        .unwrap();
    // A second delete of the same id fails at execution time, so the
    // `failed` counter moves too (a parse error never reaches a worker).
    let _ = client.round_trip_raw("DELETE FROM masks WHERE mask_id IN (999985)");

    // The subscription baseline is server-zero, so frame 0 carries the
    // cumulative counters and later (quiescent) frames all-zero deltas —
    // the sum equals the final STATS exactly.
    let frames = client.monitor(3, 10).unwrap();
    let sums = sum_deltas(&frames);
    assert!(sums.get(keys::COMPLETED).copied().unwrap_or(0) >= 2);
    assert!(sums.get(keys::MUTATIONS).copied().unwrap_or(0) >= 2);
    assert!(sums.get(keys::FAILED).copied().unwrap_or(0) >= 1);
    assert_eq!(sums.get(keys::INSERTED).copied(), Some(1));
    assert_eq!(sums.get(keys::DELETED).copied(), Some(1));
    let stats = client.stats().unwrap();
    assert_deltas_equal_stats(&sums, &stats);
    handle.shutdown();
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
            let engine = Engine::new(session_over(shard_ids), ServiceConfig::new(2));
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
fn monitor_deltas_sum_to_final_stats_across_a_cluster() {
    let ids: Vec<u64> = (0..40).collect();
    let test = cluster(4, &ids);
    let front = CoordinatorServer::bind("127.0.0.1:0", test.coordinator.clone())
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();
    client.query(&filter_sql()).unwrap();
    client.query(&topk_sql()).unwrap();

    let frames = client.monitor(2, 10).unwrap();
    let sums = sum_deltas(&frames);
    // Each broadcast touched all 4 shards; the cluster-wide counter is the
    // shard sum.
    assert!(sums.get(keys::COMPLETED).copied().unwrap_or(0) >= 8);
    let stats = client.stats().unwrap();
    assert_deltas_equal_stats(&sums, &stats);
    front.shutdown();
}

#[test]
fn metrics_window_exposes_windowed_gauges_on_both_front_ends() {
    let ids: Vec<u64> = (0..24).collect();
    let engine = Engine::new(session_over(&ids), ServiceConfig::new(2));
    let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for _ in 0..3 {
        client.query(&filter_sql()).unwrap();
    }
    let text = client.metrics_window(60).unwrap();
    prom::validate(&text).expect("windowed exposition validates");
    let queries_line = text
        .lines()
        .find(|l| l.starts_with("masksearch_window_queries{window_s=\"60\"}"))
        .expect("windowed query count gauge");
    let count: f64 = queries_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(
        count >= 3.0,
        "window covers the statements just run: {text}"
    );
    // The windowed gauges also fold into the full exposition.
    let full = client.metrics().unwrap();
    prom::validate(&full).expect("full exposition still validates");
    assert!(full.contains("masksearch_window_qps{window_s=\"60\"}"));
    assert!(full.contains("masksearch_window_qps{window_s=\"300\"}"));
    handle.shutdown();

    let test = cluster(4, &ids);
    let front = CoordinatorServer::bind("127.0.0.1:0", test.coordinator.clone())
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();
    client.query(&filter_sql()).unwrap();
    let text = client.metrics_window(60).unwrap();
    prom::validate(&text).expect("coordinator windowed exposition validates");
    assert!(text.contains("masksearch_window_queries{window_s=\"60\"}"));
    front.shutdown();
}

#[test]
fn slow_query_log_writes_to_configured_file() {
    let path =
        std::env::temp_dir().join(format!("masksearch-slowlog-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = ServiceConfig::new(1)
        .slow_query(Duration::ZERO)
        .slow_query_path(&path);
    let engine = Engine::new(session_over(&(0..12).collect::<Vec<_>>()), config);
    engine.execute_sql(&filter_sql()).unwrap();
    assert!(engine.slow_log().logged() >= 1);
    let written = std::fs::read_to_string(&path).unwrap();
    let line = written.lines().next().expect("one JSON line per entry");
    assert!(line.starts_with("{\"slow_query\":true,"), "got {line}");
    assert!(line.contains("\"statement\":\"SELECT mask_id FROM masks"));
    assert!(line.contains("\"counters\":{"));
    let _ = std::fs::remove_file(&path);
}
