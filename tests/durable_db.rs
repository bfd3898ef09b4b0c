//! End-to-end tests of the durable mask database behind the full stack:
//! session wiring, SQL DML over TCP, concurrent readers during live
//! ingestion checked against a serial oracle, and crash-free reopen.

use masksearch::core::{ImageId, Mask, MaskId, MaskRecord, PixelRange, Roi};
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::ChiConfig;
use masksearch::query::{IndexingMode, Query, Session, SessionConfig};
use masksearch::service::{Client, Engine, Server, ServiceConfig};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const W: u32 = 16;
const H: u32 = 16;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-durable-e2e-{}-{}",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn db_config() -> DbConfig {
    DbConfig::default()
        .page_size(1024)
        .chi_config(ChiConfig::new(4, 4, 8).unwrap())
}

fn session_config() -> SessionConfig {
    SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap()).threads(2)
}

/// Even-id masks are bright (match high-threshold queries), odd-id masks
/// are dark.
fn mask_for(id: u64) -> Mask {
    let level = if id.is_multiple_of(2) { 0.9 } else { 0.1 };
    Mask::from_fn(W, H, move |x, y| {
        (level + ((x + y + id as u32) % 5) as f32 * 0.01).min(1.0)
    })
}

fn record_for(id: u64) -> MaskRecord {
    MaskRecord::builder(MaskId::new(id))
        .image_id(ImageId::new(id / 2))
        .shape(W, H)
        .build()
}

fn bright_query() -> Query {
    Query::filter_cp_gt(
        Roi::new(0, 0, W, H).unwrap(),
        PixelRange::new(0.5, 1.0).unwrap(),
        (W * H / 2) as f64,
    )
}

/// Builds a durable-db session sharing the db's store-maintained CHI.
fn db_session(db: &MaskDb) -> Session {
    Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        session_config(),
        db.chi_store(),
    )
}

/// A memory-store oracle session holding masks `0..n`.
fn oracle_session(n: u64) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for i in 0..n {
        store.put(MaskId::new(i), &mask_for(i)).unwrap();
        catalog.insert(record_for(i));
    }
    Session::new(
        store as Arc<dyn MaskStore>,
        catalog,
        session_config().indexing_mode(IndexingMode::Eager),
    )
    .unwrap()
}

#[test]
fn durable_session_matches_memory_oracle_and_survives_reopen() {
    let dir = temp_dir("oracle");
    {
        let db = MaskDb::open(&dir, db_config()).unwrap();
        let session = db_session(&db);
        let batch: Vec<(MaskRecord, Mask)> =
            (0..12).map(|i| (record_for(i), mask_for(i))).collect();
        session.insert_masks(&batch).unwrap();

        let expected = oracle_session(12).execute(&bright_query()).unwrap();
        let got = session.execute(&bright_query()).unwrap();
        assert_eq!(got.rows, expected.rows);

        // Deletes propagate through store, catalog, and CHI.
        session
            .delete_masks(&[MaskId::new(0), MaskId::new(2)])
            .unwrap();
        let got = session.execute(&bright_query()).unwrap();
        let expected_ids: Vec<MaskId> = expected
            .mask_ids()
            .into_iter()
            .filter(|id| id.raw() != 0 && id.raw() != 2)
            .collect();
        assert_eq!(got.mask_ids(), expected_ids);
        db.checkpoint().unwrap();
    }
    // Reopen: recovered store, catalog, and CHI answer identically.
    let db = MaskDb::open(&dir, db_config()).unwrap();
    assert_eq!(db.catalog().len(), 10);
    let session = db_session(&db);
    let got = session.execute(&bright_query()).unwrap();
    let expected_ids: Vec<MaskId> = oracle_session(12)
        .execute(&bright_query())
        .unwrap()
        .mask_ids()
        .into_iter()
        .filter(|id| id.raw() != 0 && id.raw() != 2)
        .collect();
    assert_eq!(got.mask_ids(), expected_ids);
    // Filtering really used the recovered CHI: some candidates were pruned
    // or accepted without loading.
    assert!(got.stats.pruned + got.stats.accepted_without_load > 0);
    // Ingest invariant: after inserts, deletes, and a checkpoint + reopen,
    // every surviving mask's CHI matches its pixels and their stamp.
    assert_eq!(db.verify_indexes().unwrap(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance scenario: TCP clients keep querying while another TCP
/// client streams INSERT batches. Every result must equal the serial oracle
/// over some committed prefix of the ingestion history — readers never see
/// half a batch.
#[test]
fn concurrent_tcp_readers_match_the_serial_oracle_during_ingestion() {
    const BATCHES: u64 = 24;
    const BATCH: u64 = 4; // masks per INSERT statement

    let dir = temp_dir("concurrent");
    let db = MaskDb::open(&dir, db_config()).unwrap();
    let engine = Engine::new(db_session(&db), ServiceConfig::new(4));
    let server = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
    let addr = server.local_addr();

    let select = format!(
        "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.5, 1.0)) > {}",
        W * H / 2
    );
    let done = Arc::new(AtomicBool::new(false));

    // Readers: hammer the bright-mask query and validate every result
    // against the committed-prefix oracle.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let done = Arc::clone(&done);
        let select = select.clone();
        readers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut checked = 0u64;
            while !done.load(Ordering::Acquire) || checked == 0 {
                let response = client.query(&select).unwrap();
                let ids: Vec<u64> = response.mask_ids().iter().map(|id| id.raw()).collect();
                // Bright masks are the even ids; batches insert contiguous
                // id ranges atomically, so a valid snapshot holds exactly
                // the even ids below a batch boundary.
                assert!(
                    ids.len().is_multiple_of(BATCH as usize / 2),
                    "partial batch: {ids:?}"
                );
                let batches_seen = ids.len() as u64 / (BATCH / 2);
                assert!(batches_seen <= BATCHES);
                let expected: Vec<u64> = (0..batches_seen * BATCH)
                    .filter(|i| i.is_multiple_of(2))
                    .collect();
                assert_eq!(ids, expected, "snapshot is not a committed prefix");
                checked += 1;
            }
            client.quit().unwrap();
            checked
        }));
    }

    // Writer: stream the batches over a separate TCP connection.
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for batch in 0..BATCHES {
            let tuples: Vec<String> = (batch * BATCH..(batch + 1) * BATCH)
                .map(|id| {
                    let mask = mask_for(id);
                    let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
                    format!("({id}, {}, {W}, {H}, ({}))", id / 2, pixels.join(","))
                })
                .collect();
            let insert = format!("INSERT INTO masks VALUES {}", tuples.join(", "));
            let response = client.query(&insert).unwrap();
            assert_eq!(response.summary.inserted, BATCH);
        }
        client.quit().unwrap();
    });

    writer.join().unwrap();
    done.store(true, Ordering::Release);
    let checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(checks > 0);

    // Final state equals the full serial oracle, and STATS reports the
    // ingestion counters.
    let mut client = Client::connect(addr).unwrap();
    let final_ids = client.query(&select).unwrap().mask_ids();
    let oracle = oracle_session(BATCHES * BATCH);
    assert_eq!(
        oracle.execute(&bright_query()).unwrap().mask_ids(),
        final_ids
    );
    let stats = client.stats().unwrap();
    assert!(
        stats.contains(&format!("inserted={}", BATCHES * BATCH)),
        "{stats}"
    );
    assert!(stats.contains("wal_bytes="), "{stats}");
    client.quit().unwrap();
    server.shutdown();

    // The whole ingested dataset survives a reopen, with a CHI consistent
    // with the pixels for every live-ingested mask.
    let db = MaskDb::open(&dir, db_config()).unwrap();
    assert_eq!(db.catalog().len() as u64, BATCHES * BATCH);
    assert_eq!(db.verify_indexes().unwrap() as u64, BATCHES * BATCH);
    let session = db_session(&db);
    assert_eq!(
        session.execute(&bright_query()).unwrap().mask_ids(),
        oracle.execute(&bright_query()).unwrap().mask_ids()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sql_deletes_over_tcp_hit_the_durable_store() {
    let dir = temp_dir("tcp-delete");
    let db = MaskDb::open(&dir, db_config()).unwrap();
    db.insert_masks(
        &(0..6)
            .map(|i| (record_for(i), mask_for(i)))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let engine = Engine::new(db_session(&db), ServiceConfig::new(2));
    let server = Server::bind("127.0.0.1:0", engine).unwrap().spawn();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client
        .query("DELETE FROM masks WHERE mask_id IN (0, 4)")
        .unwrap();
    assert_eq!(response.summary.deleted, 2);
    let select = format!(
        "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.5, 1.0)) > {}",
        W * H / 2
    );
    let ids = client.query(&select).unwrap().mask_ids();
    assert_eq!(ids, vec![MaskId::new(2)]);
    client.quit().unwrap();
    server.shutdown();

    // The deletes are durable.
    assert_eq!(db.catalog().len(), 4);
    drop(db);
    let db = MaskDb::open(&dir, db_config()).unwrap();
    assert!(!db.store().contains(MaskId::new(0)));
    assert!(!db.store().contains(MaskId::new(4)));
    assert_eq!(db.chi_store().len(), 4);
    assert_eq!(db.verify_indexes().unwrap(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}
