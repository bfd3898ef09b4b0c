//! The secondary-index differential oracle: every metadata-filtered query
//! shape — point equality, `IN` lists, conjunctions, ranked top-k,
//! aggregations, and pair joins with per-side bindings — returns rows
//! **byte-identical** with indexes on and off, on a single-node session and
//! through a live 4-shard cluster. The indexed runs must also *prove* they
//! probed indexes instead of scanning (`index_probes` / `planner_index_on`),
//! so the equality is between two genuinely different access paths.

use masksearch::cluster::{ClusterConfig, Coordinator, CoordinatorServer};
use masksearch::core::{ImageId, Label, Mask, MaskId, MaskRecord, MaskType, ModelId};
use masksearch::index::ChiConfig;
use masksearch::query::{IndexingMode, Session, SessionConfig};
use masksearch::service::{Client, Engine, Server, ServiceConfig};
use masksearch::sql::{compile, compile_statement, Statement};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use std::sync::Arc;

const W: u32 = 8;
const H: u32 = 8;

/// Deterministic per-id metadata: three models, four mask types, five
/// labels — enough cardinality that every filter below is selective enough
/// for the planner's index gate, and pair-join sides bind different masks.
fn model_of(id: u64) -> u64 {
    id % 3 + 1
}

fn type_code_of(id: u64) -> u64 {
    id % 4 + 1 // from_code(0) is Other(0) which re-encodes as 16; skip it
}

fn label_of(id: u64) -> u64 {
    id % 5
}

/// Deterministic per-pixel noise so CP thresholds split the data non-trivially.
fn mask_for(id: u64) -> Mask {
    let mut state = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Mask::from_fn(W, H, move |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32) / (1u64 << 24) as f32
    })
}

fn session_config() -> SessionConfig {
    SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
        .threads(2)
        .indexing_mode(IndexingMode::Eager)
}

const CREATE_INDEXES: [&str; 3] = [
    "CREATE INDEX by_model ON masks (model_id)",
    "CREATE INDEX by_type ON masks (mask_type)",
    "CREATE INDEX by_label ON masks (predicted_label)",
];

const DROP_INDEXES: [&str; 3] = [
    "DROP INDEX by_model",
    "DROP INDEX by_type",
    "DROP INDEX by_label",
];

fn apply_sql(session: &Session, sql: &str) {
    match compile_statement(sql).unwrap() {
        Statement::Mutation(m) => {
            session.apply(&m).unwrap();
        }
        _ => unreachable!("{sql} must compile to a mutation"),
    }
}

/// A session over the given mask ids with the deterministic metadata
/// scheme, optionally with all three secondary indexes defined (via the
/// same SQL DDL the cluster test broadcasts).
fn session_over(ids: &[u64], indexed: bool) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for &id in ids {
        store.put(MaskId::new(id), &mask_for(id)).unwrap();
        catalog.insert(
            MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(id / 2))
                .model_id(ModelId::new(model_of(id)))
                .mask_type(MaskType::from_code(type_code_of(id) as u16))
                .predicted_label(Label::new(label_of(id)))
                .shape(W, H)
                .build(),
        );
    }
    let session = Session::new(store as Arc<dyn MaskStore>, catalog, session_config()).unwrap();
    if indexed {
        for sql in CREATE_INDEXES {
            apply_sql(&session, sql);
        }
    }
    session
}

/// Every metadata-filtered query shape the planner can route through a
/// secondary index, each composed with CP work so the filter feeds a real
/// verification stage.
fn query_suite() -> Vec<String> {
    vec![
        // Point equality on each indexable column.
        "SELECT mask_id FROM masks WHERE CP(mask, full, (0.5, 1.0)) > 30 AND model_id = 1"
            .to_string(),
        format!(
            "SELECT mask_id FROM masks WHERE mask_type IN (1, 3) \
             AND CP(mask, (0, 0, 4, {H}), (0.25, 1.0)) > 22"
        ),
        // Ranked top-k over an indexed filter.
        "SELECT mask_id, CP(mask, full, (0.6, 1.0)) AS s FROM masks \
         WHERE predicted_label = 2 ORDER BY s DESC LIMIT 5"
            .to_string(),
        // Conjunction across two indexed columns: the planner picks the
        // cheaper posting list and re-verifies the full predicate.
        "SELECT mask_id FROM masks WHERE model_id = 3 AND predicted_label IN (1, 4) \
         AND CP(mask, full, (0.4, 1.0)) > 36"
            .to_string(),
        // Aggregations over indexed filters.
        "SELECT image_id, AVG(CP(mask, full, (0.5, 1.0))) AS s FROM masks \
         WHERE model_id = 2 GROUP BY image_id"
            .to_string(),
        "SELECT image_id, MAX(CP(mask, full, (0.5, 1.0))) AS s FROM masks \
         WHERE mask_type IN (2) GROUP BY image_id ORDER BY s DESC LIMIT 4"
            .to_string(),
        // Pair joins with per-side metadata bindings.
        "SELECT image_id, IOU(a.mask, b.mask, full, 0.5) AS s \
         FROM masks a JOIN masks b ON a.image_id = b.image_id \
         WHERE a.model_id = 1 AND b.model_id = 2 ORDER BY s DESC LIMIT 6"
            .to_string(),
        "SELECT image_id FROM masks a JOIN masks b ON a.image_id = b.image_id \
         WHERE a.model_id = 2 AND b.model_id = 3 \
         AND CP(UNION(a.mask, b.mask), full, (0.5, 1.0)) > 46"
            .to_string(),
    ]
}

#[test]
fn metadata_shapes_byte_identical_with_indexes_on_and_off() {
    let ids: Vec<u64> = (0..96).collect();
    let indexed = session_over(&ids, true);
    let plain = session_over(&ids, false);

    let (mut probes_on, mut planned_on, mut probes_off, mut scans_off) = (0u64, 0u64, 0u64, 0u64);
    // Two repetitions: warmed caches must never change rows either.
    for rep in 0..2 {
        for sql in query_suite() {
            let query = compile(&sql).unwrap();
            let a = indexed.execute(&query).unwrap();
            let b = plain.execute(&query).unwrap();
            assert_eq!(a.rows, b.rows, "[rep {rep}] divergence for {sql}");
            probes_on += a.stats.index_probes;
            planned_on += a.stats.planner_index_on;
            probes_off += b.stats.index_probes;
            scans_off += b.stats.planner_index_off;
        }
    }
    // The equality above compared two genuinely different access paths.
    assert!(probes_on > 0, "indexed session never probed an index");
    assert!(planned_on > 0, "planner never chose the index path");
    assert_eq!(probes_off, 0, "unindexed session probed an index");
    assert!(scans_off > 0, "unindexed session never scanned a filter");

    // Dropping the indexes flips the indexed session onto the scan path —
    // still byte-identical, and provably probe-free.
    for sql in DROP_INDEXES {
        apply_sql(&indexed, sql);
    }
    for sql in query_suite() {
        let query = compile(&sql).unwrap();
        let a = indexed.execute(&query).unwrap();
        let b = plain.execute(&query).unwrap();
        assert_eq!(a.rows, b.rows, "[after DROP INDEX] divergence for {sql}");
        assert_eq!(a.stats.index_probes, 0, "probe after DROP INDEX for {sql}");
    }
}

fn insert_sql(ids: std::ops::Range<u64>) -> String {
    let tuples: Vec<String> = ids
        .map(|id| {
            let mask = mask_for(id);
            let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
            format!("({id}, {}, {W}, {H}, ({}))", id / 2, pixels.join(","))
        })
        .collect();
    format!("INSERT INTO masks VALUES {}", tuples.join(", "))
}

fn stat_value(stats: &str, key: &str) -> u64 {
    stats
        .split_ascii_whitespace()
        .find_map(|token| token.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("{key} missing from {stats}"))
        .parse()
        .unwrap()
}

/// The same suite through a live 4-shard cluster: metadata attached by
/// routed `UPDATE`s (owner-index resolution, no `LOOKUP` broadcasts),
/// indexes defined by broadcast DDL, rows byte-identical to both the
/// unindexed cluster and a single-node oracle.
#[test]
fn four_shard_cluster_indexed_metadata_shapes_byte_identical() {
    const N: u64 = 64;
    let shards: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::new(MemoryMaskStore::for_tests());
            let session = Session::new(
                store as Arc<dyn MaskStore>,
                Catalog::new(),
                session_config(),
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
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator.clone())
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();

    // Ingest metadata-free tuples, then attach the metadata scheme through
    // routed UPDATEs — each one resolved by the coordinator's owner index.
    for batch in 0..N / 16 {
        let response = client
            .query(&insert_sql(batch * 16..(batch + 1) * 16))
            .unwrap();
        assert_eq!(response.summary.inserted, 16);
    }
    for id in 0..N {
        let response = client
            .query(&format!(
                "UPDATE masks SET model_id = {}, mask_type = {}, predicted_label = {} \
                 WHERE mask_id = {id}",
                model_of(id),
                type_code_of(id),
                label_of(id)
            ))
            .unwrap();
        assert_eq!(response.summary.updated, 1, "UPDATE {id} did not apply");
    }
    // Deletes resolve from the owner index too.
    let doomed = [5u64, 17, 40, 63];
    let response = client
        .query("DELETE FROM masks WHERE mask_id IN (5, 17, 40, 63)")
        .unwrap();
    assert_eq!(response.summary.deleted, doomed.len() as u64);

    let ids: Vec<u64> = (0..N).filter(|id| !doomed.contains(id)).collect();
    let oracle = session_over(&ids, false);
    let suite = query_suite();

    // Indexes off: the cluster equals the single-node oracle.
    let baseline: Vec<_> = suite
        .iter()
        .map(|sql| {
            let rows = client.query(sql).unwrap().rows;
            let expected = oracle.execute(&compile(sql).unwrap()).unwrap().rows;
            assert_eq!(
                rows, expected,
                "[cluster, indexes off] divergence for {sql}"
            );
            rows
        })
        .collect();

    // Broadcast the DDL, then every shape must stay byte-identical.
    for sql in CREATE_INDEXES {
        client.query(sql).unwrap();
    }
    for (sql, rows) in suite.iter().zip(&baseline) {
        assert_eq!(
            &client.query(sql).unwrap().rows,
            rows,
            "[cluster, indexes on] divergence for {sql}"
        );
    }

    // The shards really probed: the aggregated STATS line sums shard-side
    // index counters.
    let stats = client.stats().unwrap();
    assert!(stat_value(&stats, "index_probes") > 0, "{stats}");
    assert!(stat_value(&stats, "planner_index_on") > 0, "{stats}");

    // Steady-state writes never broadcast LOOKUP: the owner index resolved
    // every UPDATE and DELETE target.
    let metrics = coordinator.metrics();
    assert_eq!(metrics.lookup_broadcasts, 0, "{metrics:?}");
    assert!(
        metrics.owner_resolutions >= N + doomed.len() as u64,
        "{metrics:?}"
    );
    assert_eq!(metrics.masks_updated, N, "{metrics:?}");
    assert_eq!(metrics.masks_deleted, doomed.len() as u64, "{metrics:?}");

    client.quit().unwrap();
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}
