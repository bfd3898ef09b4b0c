//! Concurrent-correctness tests for the serving layer (the acceptance
//! criteria of the `masksearch-service` subsystem):
//!
//! 1. N client threads issuing a mixed filter / top-k / aggregation workload
//!    against one `Engine` produce results identical to executing the same
//!    workload serially against a fresh `Session` — under both `Eager` and
//!    `Incremental` indexing.
//! 2. The TCP front end serves ≥ 8 concurrent clients running SQL-dialect
//!    queries with results identical to single-threaded `Session` execution.
//! 3. A statement that panics — it runs on its connection's own thread —
//!    answers `ERR`, and the same connection serves the next statement.

use masksearch::core::{Mask, MaskId, MaskRecord};
use masksearch::datagen::{DatasetSpec, RandomQueryGenerator};
use masksearch::index::ChiConfig;
use masksearch::query::{IndexingMode, Query, QueryOutput, Session, SessionConfig};
use masksearch::service::{Client, Engine, Server, ServiceConfig};
use masksearch::storage::{IoStats, MaskStore, MemoryMaskStore, Stamp, StorageResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 6;

/// Builds a fresh session over a deterministically generated dataset.
fn fresh_session(mode: IndexingMode) -> Session {
    session_over(mode, |store| store)
}

/// Builds a session over the generated dataset, reading it through the
/// store `wrap` makes of the one it was generated into.
fn session_over(
    mode: IndexingMode,
    wrap: impl FnOnce(Arc<dyn MaskStore>) -> Arc<dyn MaskStore>,
) -> Session {
    let spec = DatasetSpec {
        name: "service-test".to_string(),
        num_images: 24,
        models: 2,
        mask_width: 32,
        mask_height: 32,
        num_classes: 4,
        seed: 1234,
        focus_probability: 0.7,
    };
    let store = Arc::new(MemoryMaskStore::for_tests());
    let dataset = spec
        .generate_into(store.as_ref())
        .expect("generate dataset");
    Session::new(
        wrap(store as Arc<dyn MaskStore>),
        dataset.catalog,
        SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap())
            .threads(2)
            .indexing_mode(mode),
    )
    .expect("session")
}

/// The mixed workload: per client, a deterministic sequence of filter,
/// top-k, and aggregation queries.
fn client_workloads() -> Vec<Vec<Query>> {
    (0..CLIENTS)
        .map(|client| {
            let mut generator = RandomQueryGenerator::new(100 + client as u64, 32, 32);
            (0..QUERIES_PER_CLIENT)
                .map(|i| match i % 3 {
                    0 => generator.filter_query(),
                    1 => generator.topk_query(),
                    _ => generator.aggregation_query(),
                })
                .collect()
        })
        .collect()
}

/// Serial reference: all queries in client order on one fresh session.
fn serial_reference(mode: IndexingMode, workloads: &[Vec<Query>]) -> Vec<Vec<QueryOutput>> {
    let session = fresh_session(mode);
    workloads
        .iter()
        .map(|queries| {
            queries
                .iter()
                .map(|q| session.execute(q).expect("serial query"))
                .collect()
        })
        .collect()
}

fn assert_concurrent_matches_serial(mode: IndexingMode) {
    let workloads = client_workloads();
    let expected = serial_reference(mode, &workloads);

    let engine = Engine::new(fresh_session(mode), ServiceConfig::new(4));
    let mut handles = Vec::new();
    for (client, queries) in workloads.into_iter().enumerate() {
        let engine = engine.clone();
        handles.push(std::thread::spawn(move || {
            let outputs: Vec<QueryOutput> = queries
                .iter()
                .map(|q| engine.execute(q).expect("served query").output)
                .collect();
            (client, outputs)
        }));
    }
    for handle in handles {
        let (client, outputs) = handle.join().expect("client thread");
        assert_eq!(outputs.len(), expected[client].len());
        for (i, (got, want)) in outputs.iter().zip(&expected[client]).enumerate() {
            assert_eq!(
                got.rows, want.rows,
                "client {client} query {i} diverged under {mode:?}"
            );
        }
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.completed, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    assert_eq!(metrics.failed, 0);
    engine.shutdown();
}

#[test]
fn concurrent_engine_matches_serial_eager() {
    assert_concurrent_matches_serial(IndexingMode::Eager);
}

#[test]
fn concurrent_engine_matches_serial_incremental() {
    assert_concurrent_matches_serial(IndexingMode::Incremental);
}

/// The SQL statements the TCP clients run, parameterized per client so the
/// eight connections exercise different plans concurrently.
fn sql_workload(client: usize) -> Vec<String> {
    let t = 40 + 15 * client;
    let lo = [0.5f32, 0.6, 0.7, 0.8][client % 4];
    vec![
        format!(
            "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 32, 32), ({lo}, 1.0)) > {t}"
        ),
        format!(
            "SELECT mask_id FROM masks WHERE CP(mask, (8, 8, 24, 24), ({lo}, 1.0)) > 20 AND model_id = {}",
            1 + client % 2
        ),
        format!(
            "SELECT mask_id, CP(mask, object, ({lo}, 1.0)) AS s FROM masks ORDER BY s DESC LIMIT {}",
            5 + client
        ),
        format!(
            "SELECT image_id, AVG(CP(mask, object, ({lo}, 1.0))) AS s FROM masks \
             GROUP BY image_id ORDER BY s DESC LIMIT {}",
            4 + client
        ),
    ]
}

#[test]
fn tcp_server_serves_eight_concurrent_sql_clients_correctly() {
    // Single-threaded reference: compile each statement and run it directly.
    let reference_session = fresh_session(IndexingMode::Eager);
    let expected: Vec<Vec<QueryOutput>> = (0..CLIENTS)
        .map(|client| {
            sql_workload(client)
                .iter()
                .map(|sql| {
                    let query = masksearch::sql::compile(sql).expect("compile");
                    reference_session.execute(&query).expect("reference query")
                })
                .collect()
        })
        .collect();

    let engine = Engine::new(fresh_session(IndexingMode::Eager), ServiceConfig::new(4));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind").spawn();
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for client_id in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.ping().expect("ping");
            let responses: Vec<_> = sql_workload(client_id)
                .iter()
                .map(|sql| client.query(sql).expect("query over tcp"))
                .collect();
            client.quit().expect("quit");
            (client_id, responses)
        }));
    }
    for handle in handles {
        let (client_id, responses) = handle.join().expect("tcp client thread");
        for (i, (got, want)) in responses.iter().zip(&expected[client_id]).enumerate() {
            assert_eq!(
                got.rows, want.rows,
                "tcp client {client_id} statement {i} diverged"
            );
            assert_eq!(got.summary.candidates, want.stats.candidates);
        }
    }

    let served = server.engine().metrics();
    assert_eq!(served.completed, (CLIENTS * 4) as u64);
    assert_eq!(served.failed, 0);
    server.shutdown();
}

#[test]
fn tcp_server_reports_sql_errors_without_dropping_the_connection() {
    let engine = Engine::new(fresh_session(IndexingMode::Eager), ServiceConfig::new(1));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind").spawn();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client.query("SELECT gibberish FROM nowhere").is_err());
    // The connection survives the error and serves the next query.
    let ok = client
        .query("SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 32, 32), (0.0, 1.0)) > 0")
        .expect("query after error");
    assert!(!ok.rows.is_empty());
    let stats_line = client.stats().expect("stats");
    assert!(stats_line.starts_with("STATS "));
    client.quit().expect("quit");
    server.shutdown();
}

/// A store whose next read panics while `armed` — a bug deep in execution.
struct PanicOnceStore {
    inner: Arc<dyn MaskStore>,
    armed: AtomicBool,
}

impl MaskStore for PanicOnceStore {
    fn apply_batch(
        &self,
        inserts: &[(MaskRecord, Mask)],
        deletes: &[MaskId],
    ) -> StorageResult<Stamp> {
        self.inner.apply_batch(inserts, deletes)
    }
    fn get_stamped(&self, id: MaskId) -> StorageResult<(Mask, Stamp)> {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("simulated executor bug");
        }
        self.inner.get_stamped(id)
    }
    fn contains(&self, id: MaskId) -> bool {
        self.inner.contains(id)
    }
    fn ids(&self) -> Vec<MaskId> {
        self.inner.ids()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
}

#[test]
fn tcp_statement_that_panics_answers_err_and_the_connection_survives() {
    // Indexing off: every statement reads the store, so the first one
    // panics inside execution on the connection's thread.
    let session = session_over(IndexingMode::Disabled, |inner| {
        Arc::new(PanicOnceStore {
            inner,
            armed: AtomicBool::new(true),
        })
    });
    let engine = Engine::new(session, ServiceConfig::new(1));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind").spawn();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let sql = "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 32, 32), (0.5, 1.0)) > 0";
    let err = client
        .query(sql)
        .expect_err("the panicking statement must fail");
    // The message may be the verify pool's rewrap of the panic, so only
    // the kind is asserted.
    assert!(
        err.to_string().contains("query panicked"),
        "unexpected error: {err}"
    );
    // Same connection, same (only) slot: the next statement is served.
    let ok = client.query(sql).expect("query after the panic");
    assert!(!ok.rows.is_empty());
    let served = server.engine().metrics();
    assert_eq!((served.failed, served.completed), (1, 1));
    client.quit().expect("quit");
    server.shutdown();
}
