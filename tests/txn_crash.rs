//! Torn-transaction torture test: a `BEGIN … COMMIT` script spanning
//! INSERT, UPDATE, and DELETE lands in **one** WAL commit frame, so killing
//! the log at *every* byte boundary recovers either none or all of each
//! transaction — never an intra-transaction state.

use masksearch::core::{Mask, MaskId};
use masksearch::db::{DbConfig, DurableMaskStore, MaskDb, CHI_FILE, DB_FILE, WAL_FILE};
use masksearch::index::ChiConfig;
use masksearch::query::{Mutation, Session, SessionConfig};
use masksearch::sql::Statement;
use masksearch::storage::MaskStore;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const W: u32 = 4;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-txn-crash-{}-{}",
        name,
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> DbConfig {
    DbConfig::default()
        .page_size(128)
        .chi_config(ChiConfig::new(2, 2, 4).unwrap())
        .checkpoint_wal_bytes(0)
}

fn mask(seed: u32) -> Mask {
    Mask::from_fn(W, W, move |x, y| {
        ((x * 5 + y * 3 + seed) % 11) as f32 / 11.0
    })
}

fn pixels(seed: u32) -> String {
    let m = mask(seed);
    let values: Vec<String> = m.data().iter().map(|v| format!("{v}")).collect();
    values.join(", ")
}

fn tuple(id: u64, seed: u32) -> String {
    format!("({id}, {}, {W}, {W}, ({}))", id / 2, pixels(seed))
}

fn db_session(db: &MaskDb) -> Session {
    Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        SessionConfig::new(ChiConfig::new(2, 2, 4).unwrap()).threads(1),
        db.chi_store(),
    )
}

/// Compiles a `BEGIN; …; COMMIT` script and applies its mutations as one
/// atomic transaction — the exact path the served `BEGIN … COMMIT` script
/// takes below the protocol layer.
fn apply_script(session: &Session, sql: &str) {
    let mutations: Vec<Mutation> = masksearch::sql::compile_script(sql)
        .unwrap()
        .into_iter()
        .filter_map(|statement| match statement {
            Statement::Mutation(m) => Some(m),
            _ => None,
        })
        .collect();
    session.apply_transaction(&mutations).unwrap();
}

/// Runs a three-transaction history (the second and third span INSERT,
/// UPDATE, and DELETE in one script) and returns the expected state after
/// each commit, index 0 = empty database. Asserts every transaction cost
/// exactly one storage commit.
fn run_history(dir: &Path) -> Vec<BTreeMap<MaskId, Mask>> {
    let db = MaskDb::open(dir, config()).unwrap();
    let session = db_session(&db);
    let commits_at = || db.mask_store().ingest_stats().unwrap().commits;
    let mut model: BTreeMap<MaskId, Mask> = BTreeMap::new();
    let mut steps = vec![model.clone()];
    let base = commits_at();

    apply_script(
        &session,
        &format!(
            "BEGIN; INSERT INTO masks VALUES {}, {}, {}; COMMIT",
            tuple(0, 0),
            tuple(1, 1),
            tuple(2, 2)
        ),
    );
    for (id, seed) in [(0, 0), (1, 1), (2, 2)] {
        model.insert(MaskId::new(id), mask(seed));
    }
    steps.push(model.clone());
    assert_eq!(commits_at(), base + 1, "txn 1 must be one commit frame");

    apply_script(
        &session,
        &format!(
            "BEGIN; \
             INSERT INTO masks VALUES {}, {}; \
             UPDATE masks SET pixels = ({}) WHERE mask_id = 0; \
             DELETE FROM masks WHERE mask_id IN (1); \
             COMMIT",
            tuple(3, 3),
            tuple(4, 4),
            pixels(7)
        ),
    );
    model.insert(MaskId::new(3), mask(3));
    model.insert(MaskId::new(4), mask(4));
    model.insert(MaskId::new(0), mask(7));
    model.remove(&MaskId::new(1));
    steps.push(model.clone());
    assert_eq!(commits_at(), base + 2, "txn 2 must be one commit frame");

    apply_script(
        &session,
        &format!(
            "BEGIN; \
             UPDATE masks SET pixels = ({}) WHERE mask_id = 2; \
             INSERT INTO masks VALUES {}; \
             DELETE FROM masks WHERE mask_id IN (3); \
             COMMIT",
            pixels(8),
            tuple(5, 5)
        ),
    );
    model.insert(MaskId::new(2), mask(8));
    model.insert(MaskId::new(5), mask(5));
    model.remove(&MaskId::new(3));
    steps.push(model.clone());
    assert_eq!(commits_at(), base + 3, "txn 3 must be one commit frame");

    steps
}

/// Copies the database directory with the WAL truncated to `cut` bytes.
fn crashed_copy(src: &Path, dst: &Path, cut: usize) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for file in [DB_FILE, CHI_FILE] {
        if src.join(file).exists() {
            fs::copy(src.join(file), dst.join(file)).unwrap();
        }
    }
    let wal = fs::read(src.join(WAL_FILE)).unwrap();
    fs::write(dst.join(WAL_FILE), &wal[..cut.min(wal.len())]).unwrap();
}

/// The index of the transaction boundary the recovered state equals,
/// panicking if it matches none (i.e. a transaction was torn).
fn matching_step(store: &DurableMaskStore, steps: &[BTreeMap<MaskId, Mask>]) -> usize {
    let ids = store.ids();
    for (i, step) in steps.iter().enumerate() {
        if step.keys().copied().collect::<Vec<_>>() == ids
            && step.iter().all(|(id, m)| &store.get(*id).unwrap() == m)
        {
            // The recovered index structures describe exactly this state.
            let mut chi_ids = store.chi_store().ids();
            chi_ids.sort_unstable();
            assert_eq!(chi_ids, ids, "CHI holds a different mask set");
            assert_eq!(store.verify_indexes().unwrap(), ids.len());
            return i;
        }
    }
    panic!("recovered ids {ids:?} match no transaction boundary — a transaction was torn");
}

#[test]
fn killing_a_transaction_script_at_every_byte_is_all_or_nothing() {
    let src = temp_dir("src");
    let steps = run_history(&src);
    let wal_len = fs::read(src.join(WAL_FILE)).unwrap().len();

    let crash_dir = temp_dir("crash");
    let mut last = 0usize;
    let mut reached = std::collections::BTreeSet::new();
    for cut in 0..=wal_len {
        crashed_copy(&src, &crash_dir, cut);
        let store = DurableMaskStore::open(&crash_dir, config()).unwrap();
        let step = matching_step(&store, &steps);
        assert!(
            step >= last,
            "cut {cut} recovered boundary {step} after {last}"
        );
        last = step;
        reached.insert(step);
    }
    // Every transaction boundary is reachable — and nothing in between.
    assert_eq!(reached, (0..steps.len()).collect());

    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}
