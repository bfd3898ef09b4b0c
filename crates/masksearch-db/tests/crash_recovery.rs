//! Crash-recovery torture tests: kill the WAL at every byte boundary of a
//! multi-commit write history and prove the reopened database is always
//! bit-equivalent to a committed prefix — never a mix — with the CHI store
//! holding exactly the surviving masks.

use masksearch_core::{ImageId, Mask, MaskId, MaskRecord};
use masksearch_db::{DbConfig, DurableMaskStore, MaskDb, CHI_FILE, DB_FILE, TILES_FILE, WAL_FILE};
use masksearch_index::{Chi, ChiConfig};
use masksearch_storage::MaskStore;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-crash-test-{}-{}",
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
    Mask::from_fn(4, 4, move |x, y| {
        ((x * 5 + y * 3 + seed) % 11) as f32 / 11.0
    })
}

fn record(id: u64) -> MaskRecord {
    MaskRecord::builder(MaskId::new(id))
        .image_id(ImageId::new(id / 2))
        .shape(4, 4)
        .build()
}

/// One committed write batch plus the full expected database state after it.
struct HistoryStep {
    expected: BTreeMap<MaskId, Mask>,
}

/// Runs a mixed insert/overwrite/delete history against a fresh database and
/// returns the expected state after each commit (index 0 = empty database).
fn run_history(dir: &Path) -> Vec<HistoryStep> {
    let db = MaskDb::open(dir, config()).unwrap();
    let mut model: BTreeMap<MaskId, Mask> = BTreeMap::new();
    let mut steps = vec![HistoryStep {
        expected: model.clone(),
    }];

    let commit_inserts =
        |db: &MaskDb, model: &mut BTreeMap<MaskId, Mask>, ids: &[u64], salt: u32| {
            let batch: Vec<(MaskRecord, Mask)> = ids
                .iter()
                .map(|&i| (record(i), mask(i as u32 + salt)))
                .collect();
            db.insert_masks(&batch).unwrap();
            for (rec, m) in batch {
                model.insert(rec.mask_id, m);
            }
        };

    commit_inserts(&db, &mut model, &[0, 1, 2], 0);
    steps.push(HistoryStep {
        expected: model.clone(),
    });

    commit_inserts(&db, &mut model, &[2, 3, 4], 100); // overwrites mask 2
    steps.push(HistoryStep {
        expected: model.clone(),
    });

    db.delete_masks(&[MaskId::new(1), MaskId::new(3)]).unwrap();
    model.remove(&MaskId::new(1));
    model.remove(&MaskId::new(3));
    steps.push(HistoryStep {
        expected: model.clone(),
    });

    commit_inserts(&db, &mut model, &[5, 6], 7);
    steps.push(HistoryStep {
        expected: model.clone(),
    });

    steps
}

/// Asserts the reopened store is bit-equivalent to `expected`: same ids,
/// same pixels, same catalog records, a CHI for exactly the surviving masks
/// whose *contents* match their pixels, and tile summaries consistent with
/// the pixels (the verification-kernel ingest invariant).
fn assert_state_matches(store: &DurableMaskStore, expected: &BTreeMap<MaskId, Mask>) {
    let ids: Vec<MaskId> = expected.keys().copied().collect();
    assert_eq!(store.ids(), ids);
    for (id, mask) in expected {
        assert_eq!(&store.get(*id).unwrap(), mask, "mask {id} differs");
    }
    let catalog = store.catalog();
    assert_eq!(catalog.mask_ids(), ids);
    for id in &ids {
        assert_eq!(catalog.get(*id).unwrap(), &record(id.raw()));
    }
    let mut chi_ids = store.chi_store().ids();
    chi_ids.sort_unstable();
    assert_eq!(chi_ids, ids, "CHI must hold exactly the surviving masks");
    for (id, mask) in expected {
        let chi = store.chi_store().get(*id).unwrap();
        assert_eq!(
            *chi,
            Chi::build(mask, &store.config().chi_config),
            "CHI of mask {id} does not match its recovered pixels"
        );
    }
    assert_eq!(store.verify_tile_summaries().unwrap(), ids.len());
}

/// Copies the database directory with the WAL truncated to `cut` bytes. The
/// page file and the checkpointed CHI / tile-summary files survive a crash
/// unchanged, so they are copied whole — recovery must cope with index files
/// that predate replayed WAL commits.
fn crashed_copy(src: &Path, dst: &Path, cut: usize) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for file in [DB_FILE, CHI_FILE, TILES_FILE] {
        if src.join(file).exists() {
            fs::copy(src.join(file), dst.join(file)).unwrap();
        }
    }
    let wal = fs::read(src.join(WAL_FILE)).unwrap();
    fs::write(dst.join(WAL_FILE), &wal[..cut.min(wal.len())]).unwrap();
}

/// Matches the reopened state against the history, returning the index of
/// the committed prefix it equals (panicking if it matches none).
fn matching_prefix(store: &DurableMaskStore, steps: &[HistoryStep]) -> usize {
    let ids = store.ids();
    for (i, step) in steps.iter().enumerate() {
        if step.expected.keys().copied().collect::<Vec<_>>() == ids
            && step
                .expected
                .iter()
                .all(|(id, mask)| &store.get(*id).unwrap() == mask)
        {
            assert_state_matches(store, &step.expected);
            return i;
        }
    }
    panic!("recovered state with ids {ids:?} matches no committed prefix of the history");
}

#[test]
fn kill_at_every_byte_recovers_a_committed_prefix() {
    let src = temp_dir("kill-src");
    let steps = run_history(&src);
    let wal_len = fs::read(src.join(WAL_FILE)).unwrap().len();

    let crash_dir = temp_dir("kill-crash");
    let mut last_prefix = 0usize;
    let mut reached = std::collections::BTreeSet::new();
    for cut in 0..=wal_len {
        crashed_copy(&src, &crash_dir, cut);
        let store = DurableMaskStore::open(&crash_dir, config()).unwrap();
        let prefix = matching_prefix(&store, &steps);
        // Longer surviving logs can only recover longer histories.
        assert!(
            prefix >= last_prefix,
            "cut {cut} recovered prefix {prefix} after {last_prefix}"
        );
        last_prefix = prefix;
        reached.insert(prefix);
    }
    // Every commit boundary is reachable, from empty to fully applied.
    assert_eq!(reached, (0..steps.len()).collect());

    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn flipping_any_wal_byte_never_yields_a_torn_state() {
    let src = temp_dir("flip-src");
    let steps = run_history(&src);
    let wal = fs::read(src.join(WAL_FILE)).unwrap();

    let crash_dir = temp_dir("flip-crash");
    for idx in 0..wal.len() {
        let _ = fs::remove_dir_all(&crash_dir);
        fs::create_dir_all(&crash_dir).unwrap();
        let mut corrupt = wal.clone();
        corrupt[idx] ^= 0xa5;
        fs::write(crash_dir.join(WAL_FILE), &corrupt).unwrap();
        // A flip in the file header is loud corruption and may fail the
        // open; any flip past it must silently recover a committed prefix.
        match DurableMaskStore::open(&crash_dir, config()) {
            Ok(store) => {
                matching_prefix(&store, &steps);
            }
            Err(_) => assert!(idx < 12, "open failed on a body flip at byte {idx}"),
        }
    }

    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn crash_between_db_flush_and_wal_truncation_is_idempotent() {
    // A checkpoint fsyncs the page file *before* truncating the WAL. Crash
    // in between = both files fully present; replaying the full WAL over the
    // flushed pages must reproduce the same state.
    let src = temp_dir("ckpt-src");
    let steps = run_history(&src);
    let full_wal = fs::read(src.join(WAL_FILE)).unwrap();
    {
        let store = DurableMaskStore::open(&src, config()).unwrap();
        store.checkpoint().unwrap();
    }
    // Simulate the crash window: the page file is flushed but the old log
    // was never truncated. Replaying it over the flushed pages must be a
    // no-op state-wise.
    fs::write(src.join(WAL_FILE), &full_wal).unwrap();
    let store = DurableMaskStore::open(&src, config()).unwrap();
    assert_state_matches(&store, &steps.last().unwrap().expected);
    drop(store);
    // And after a clean checkpoint the db file alone carries the state.
    {
        let store = DurableMaskStore::open(&src, config()).unwrap();
        store.checkpoint().unwrap();
        assert!(store.wal_bytes() <= 12);
    }
    let store = DurableMaskStore::open(&src, config()).unwrap();
    assert_state_matches(&store, &steps.last().unwrap().expected);
    fs::remove_dir_all(&src).unwrap();
}

#[test]
fn fsync_off_under_memory_pressure_still_recovers_a_committed_prefix() {
    // With fsync off, recent commits may be LOST on crash but must never be
    // TORN. The dangerous interaction is extent reuse + memory pressure:
    // if dirty pages were written to the database file before the covering
    // WAL record was durable, a lost log tail would leave the surviving
    // directory pointing at physically overwritten pages. The log-ahead
    // rule (dirty pages stay in the pager's table until a WAL-synced
    // checkpoint) forbids that — the database file must stay untouched
    // between checkpoints however many pages are dirty.
    let src = temp_dir("nofsync-src");
    let config = config().fsync(false);
    let expected_states: Vec<BTreeMap<MaskId, Mask>> = {
        let db = MaskDb::open(&src, config).unwrap();
        let mut model = BTreeMap::new();
        let mut states = vec![model.clone()];
        // Repeatedly overwrite a small id set so freed extents get reused
        // while their earlier images are still dirty. (At most
        // 10 rounds: the 4x4 mask generator cycles mod 11, and two rounds
        // with identical pixels would make prefix indices ambiguous.)
        for round in 0..8u32 {
            let batch: Vec<(MaskRecord, Mask)> = (0..6u64)
                .map(|i| (record(i), mask(i as u32 + round * 10)))
                .collect();
            db.insert_masks(&batch).unwrap();
            for (rec, m) in batch {
                model.insert(rec.mask_id, m);
            }
            states.push(model.clone());
        }
        states
    };
    // Nothing may have reached the page file: it was created empty and no
    // checkpoint ran.
    assert_eq!(
        fs::metadata(src.join(DB_FILE)).unwrap().len(),
        0,
        "dirty pages leaked into the database file before a checkpoint"
    );

    let wal = fs::read(src.join(WAL_FILE)).unwrap();
    let crash_dir = temp_dir("nofsync-crash");
    let mut last = 0usize;
    for cut in (0..=wal.len()).step_by(97).chain([wal.len()]) {
        crashed_copy(&src, &crash_dir, cut);
        let store = DurableMaskStore::open(&crash_dir, config).unwrap();
        let ids = store.ids();
        let matched = expected_states
            .iter()
            .position(|state| {
                state.keys().copied().collect::<Vec<_>>() == ids
                    && state.iter().all(|(id, m)| &store.get(*id).unwrap() == m)
            })
            .unwrap_or_else(|| panic!("cut {cut}: recovered state matches no committed prefix"));
        assert!(matched >= last);
        last = matched;
    }
    assert_eq!(last, expected_states.len() - 1);
    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn stale_index_files_after_post_checkpoint_writes_are_rebuilt() {
    // A checkpoint persists the CHI and tile-summary files; commits after it
    // live only in the WAL. A crash then leaves index files describing
    // *pre-overwrite* pixels. Recovery must detect every mask whose extent
    // the WAL replay rewrote and rebuild its summaries from the recovered
    // pixels — a stale CHI would silently mis-prune, stale tiles would
    // silently mis-count.
    let src = temp_dir("stale-src");
    {
        let db = MaskDb::open(&src, config()).unwrap();
        let batch: Vec<(MaskRecord, Mask)> =
            (0..5u64).map(|i| (record(i), mask(i as u32))).collect();
        db.insert_masks(&batch).unwrap();
        db.checkpoint().unwrap(); // CHI + tiles files now describe masks 0..5
                                  // Post-checkpoint: overwrite two masks, delete one, insert one.
        db.insert_masks(&[(record(1), mask(50)), (record(3), mask(51))])
            .unwrap();
        db.delete_masks(&[MaskId::new(0)]).unwrap();
        db.insert_masks(&[(record(7), mask(52))]).unwrap();
        // Crash: no further checkpoint, so the index files are stale for
        // masks 1, 3 (overwritten), 0 (deleted), and missing 7.
    }
    let crash_dir = temp_dir("stale-crash");
    let wal_len = fs::read(src.join(WAL_FILE)).unwrap().len();
    crashed_copy(&src, &crash_dir, wal_len);
    assert!(crash_dir.join(CHI_FILE).exists());
    assert!(crash_dir.join(TILES_FILE).exists());

    let store = DurableMaskStore::open(&crash_dir, config()).unwrap();
    let expected: BTreeMap<MaskId, Mask> = [
        (MaskId::new(1), mask(50)),
        (MaskId::new(2), mask(2)),
        (MaskId::new(3), mask(51)),
        (MaskId::new(4), mask(4)),
        (MaskId::new(7), mask(52)),
    ]
    .into_iter()
    .collect();
    assert_state_matches(&store, &expected);

    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn commits_after_recovery_continue_the_history() {
    let src = temp_dir("continue-src");
    let steps = run_history(&src);
    // Tear the last commit off the WAL.
    let wal = fs::read(src.join(WAL_FILE)).unwrap();
    let crash_dir = temp_dir("continue-crash");
    crashed_copy(&src, &crash_dir, wal.len() - 1);
    {
        let store = DurableMaskStore::open(&crash_dir, config()).unwrap();
        let prefix = matching_prefix(&store, &steps);
        assert!(prefix < steps.len() - 1);
        // Write on top of the recovered state.
        store.insert_masks(&[(record(9), mask(9))]).unwrap();
    }
    let store = DurableMaskStore::open(&crash_dir, config()).unwrap();
    assert!(store.contains(MaskId::new(9)));
    assert_eq!(store.get(MaskId::new(9)).unwrap(), mask(9));
    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn shape_stats_survive_checkpoint_and_torn_files_fall_back_to_defaults() {
    use masksearch_db::SHAPE_STATS_FILE;
    use masksearch_obs::{CatalogStats, ShapeObservation};

    let src = temp_dir("stats-src");
    let shape = "filter/cp=1/roi=const/kernel=auto/idx=incremental";
    {
        let db = MaskDb::open(&src, config()).unwrap();
        db.insert_masks(&[(record(0), mask(0)), (record(1), mask(1))])
            .unwrap();
        let stats = db.mask_store().shape_stats().unwrap();
        for _ in 0..5 {
            stats.record(
                shape,
                &ShapeObservation {
                    candidates: 10,
                    rows: 3,
                    pruned: 6,
                    verified: 4,
                    ..Default::default()
                },
            );
        }
        stats.record_catalog(&CatalogStats {
            planned: 5,
            kernel_on: 4,
            reorders: 1,
            ..Default::default()
        });
        db.checkpoint().unwrap();
    }
    assert!(src.join(SHAPE_STATS_FILE).exists());

    // Clean reopen: the persisted aggregates and catalog line survive.
    {
        let store = DurableMaskStore::open(&src, config()).unwrap();
        let stats = store.shape_stats().unwrap();
        let agg = stats.get(shape).expect("persisted shape aggregate");
        assert_eq!(agg.queries, 5);
        assert_eq!(agg.sums.candidates, 50);
        assert_eq!(stats.catalog().planned, 5);
        assert_eq!(stats.catalog().kernel_on, 4);
    }

    // A torn stats file (crash mid-write) must never block opening: every
    // truncation prefix reopens with default statistics and an intact
    // database.
    let copy_dir = |src: &Path, dst: &Path| {
        let _ = fs::remove_dir_all(dst);
        fs::create_dir_all(dst).unwrap();
        for entry in fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    };
    let full = fs::read(src.join(SHAPE_STATS_FILE)).unwrap();
    let crash_dir = temp_dir("stats-crash");
    for len in 0..full.len() {
        copy_dir(&src, &crash_dir);
        fs::write(crash_dir.join(SHAPE_STATS_FILE), &full[..len]).unwrap();
        let store = DurableMaskStore::open(&crash_dir, config()).unwrap();
        let stats = store.shape_stats().unwrap();
        // A truncated file may still end on a complete line boundary; the
        // catalog totals monotonically bound the persisted ones either way,
        // and a mid-line tear yields the default registry.
        assert!(stats.catalog().planned <= 5, "prefix {len}");
        assert!(store.contains(MaskId::new(0)));
        assert_eq!(store.get(MaskId::new(0)).unwrap(), mask(0));
    }
    // A missing file is the same story.
    copy_dir(&src, &crash_dir);
    fs::remove_file(crash_dir.join(SHAPE_STATS_FILE)).unwrap();
    {
        let store = DurableMaskStore::open(&crash_dir, config()).unwrap();
        let stats = store.shape_stats().unwrap();
        assert!(stats.is_empty());
        assert_eq!(stats.catalog(), CatalogStats::default());
    }

    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}
