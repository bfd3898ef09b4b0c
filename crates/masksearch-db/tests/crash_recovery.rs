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
/// same pixels, same catalog records, and a CHI for exactly the surviving
/// masks whose *contents* match their pixels, stamped like them (the
/// invariant verification by CHI cell rests on).
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
    assert_eq!(store.verify_indexes().unwrap(), ids.len());
}

/// Copies the database directory with the WAL truncated to `cut` bytes. The
/// page file and the checkpointed CHI file survive a crash unchanged, so
/// they are copied whole — recovery must cope with an index file that
/// predates replayed WAL commits.
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
    // A checkpoint persists the CHI file; commits after it live only in the
    // WAL. A crash then leaves an index file describing *pre-overwrite*
    // pixels. Recovery must detect every mask whose extent the WAL replay
    // rewrote and rebuild its index from the recovered pixels — a stale CHI
    // would silently mis-prune and mis-count.
    let src = temp_dir("stale-src");
    {
        let db = MaskDb::open(&src, config()).unwrap();
        let batch: Vec<(MaskRecord, Mask)> =
            (0..5u64).map(|i| (record(i), mask(i as u32))).collect();
        db.insert_masks(&batch).unwrap();
        db.checkpoint().unwrap(); // the CHI file now describes masks 0..5
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

// ---------------------------------------------------------------------------
// Directory deltas in the WAL, the directory written at checkpoints, index
// files appended to: crashes between and inside a checkpoint's steps.
// ---------------------------------------------------------------------------

/// The three files recovery reads, as they were at one instant. A missing
/// file is an empty one.
#[derive(Clone, PartialEq)]
struct Files {
    db: Vec<u8>,
    wal: Vec<u8>,
    chi: Vec<u8>,
}

impl Files {
    fn read(dir: &Path) -> Self {
        let file = |name: &str| fs::read(dir.join(name)).unwrap_or_default();
        Self {
            db: file(DB_FILE),
            wal: file(WAL_FILE),
            chi: file(CHI_FILE),
        }
    }

    fn write(&self, dir: &Path) {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        for (name, bytes) in [
            (DB_FILE, &self.db),
            (WAL_FILE, &self.wal),
            (CHI_FILE, &self.chi),
        ] {
            if !bytes.is_empty() {
                fs::write(dir.join(name), bytes).unwrap();
            }
        }
    }
}

/// One commit of the interleaving history: masks to insert or overwrite
/// (id, pixel seed) and ids to delete, in one batch.
struct Op {
    upserts: &'static [(u64, u32)],
    deletes: &'static [u64],
}

const INTERLEAVING_HISTORY: &[Op] = &[
    Op {
        upserts: &[(0, 0), (1, 1), (2, 2)],
        deletes: &[],
    },
    Op {
        upserts: &[(3, 3), (4, 4)],
        deletes: &[],
    },
    Op {
        upserts: &[(1, 21), (3, 23)],
        deletes: &[],
    },
    Op {
        upserts: &[],
        deletes: &[0],
    },
    Op {
        upserts: &[(5, 5), (6, 6), (7, 7)],
        deletes: &[],
    },
    Op {
        upserts: &[(2, 32), (8, 8)],
        deletes: &[],
    },
    Op {
        upserts: &[],
        deletes: &[4, 5],
    },
    Op {
        upserts: &[(9, 9), (10, 10)],
        deletes: &[],
    },
    Op {
        upserts: &[(6, 46), (7, 47), (8, 48)],
        deletes: &[],
    },
    Op {
        upserts: &[],
        deletes: &[1],
    },
    // Re-inserts an id deleted earlier, and deletes one in the same batch.
    Op {
        upserts: &[(11, 0), (12, 1), (0, 5)],
        deletes: &[9],
    },
    Op {
        upserts: &[(10, 59)],
        deletes: &[],
    },
    Op {
        upserts: &[],
        deletes: &[10, 12],
    },
    Op {
        upserts: &[(13, 3)],
        deletes: &[],
    },
    Op {
        upserts: &[(2, 7)],
        deletes: &[],
    },
];

fn apply_op(store: &DurableMaskStore, op: &Op) {
    let inserts: Vec<(MaskRecord, Mask)> = op
        .upserts
        .iter()
        .map(|&(id, seed)| (record(id), mask(seed)))
        .collect();
    let deletes: Vec<MaskId> = op.deletes.iter().map(|&id| MaskId::new(id)).collect();
    store.apply_batch(&inserts, &deletes).unwrap();
}

/// Small enough that the history checkpoints automatically every few
/// commits.
fn checkpointing_config() -> DbConfig {
    config().checkpoint_wal_bytes(1200)
}

/// Reopens `files` as a crashed database and returns the committed prefix
/// it equals (with every CHI equal to `Chi::build` of its pixels, see
/// [`matching_prefix`]).
fn recovered_prefix(files: &Files, crash_dir: &Path, steps: &[HistoryStep]) -> usize {
    files.write(crash_dir);
    let store = DurableMaskStore::open(crash_dir, checkpointing_config()).unwrap();
    matching_prefix(&store, steps)
}

/// `after`'s pages where `from_after(page)` says so, `before`'s (zeros past
/// its end, as in a sparse file) elsewhere: a page file caught mid-flush.
fn mixed_pages(before: &[u8], after: &[u8], from_after: impl Fn(usize) -> bool) -> Vec<u8> {
    let page = 128;
    let mut mixed = vec![0u8; after.len().max(before.len())];
    for (no, chunk) in mixed.chunks_mut(page).enumerate() {
        let source = if from_after(no) { after } else { before };
        if let Some(bytes) = source.get(no * page..no * page + chunk.len()) {
            chunk.copy_from_slice(bytes);
        }
    }
    mixed
}

/// Every state of a file that is being appended to (or, if `after` does not
/// extend `before`, replaced by rename): each byte length in between.
fn append_states(before: &[u8], after: &[u8]) -> Vec<Vec<u8>> {
    if after.starts_with(before) {
        (before.len()..=after.len())
            .map(|len| after[..len].to_vec())
            .collect()
    } else {
        vec![before.to_vec(), after.to_vec()]
    }
}

#[test]
fn crashes_between_and_inside_checkpoint_steps_recover_a_committed_prefix() {
    let main_dir = temp_dir("interleave-main");
    let twin_dir = temp_dir("interleave-twin");
    let crash_dir = temp_dir("interleave-crash");

    // The expected state after every commit (index 0 = empty database).
    let mut model: BTreeMap<MaskId, Mask> = BTreeMap::new();
    let mut steps = vec![HistoryStep {
        expected: model.clone(),
    }];
    for op in INTERLEAVING_HISTORY {
        for id in op.deletes {
            assert!(model.remove(&MaskId::new(*id)).is_some());
        }
        for &(id, seed) in op.upserts {
            model.insert(MaskId::new(id), mask(seed));
        }
        assert!(
            steps.iter().all(|s| s.expected != model),
            "history states must be distinct for prefixes to be identifiable"
        );
        steps.push(HistoryStep {
            expected: model.clone(),
        });
    }

    let main = DurableMaskStore::open(&main_dir, checkpointing_config()).unwrap();
    let mut checkpoints = 0u64;
    for (k, op) in INTERLEAVING_HISTORY
        .iter()
        .enumerate()
        .map(|(i, op)| (i + 1, op))
    {
        let before = Files::read(&main_dir);
        apply_op(&main, op);
        let after = Files::read(&main_dir);
        let now = main.ingest_stats().unwrap().checkpoints;
        if now == checkpoints {
            continue;
        }
        checkpoints = now;

        // This commit checkpointed. The log as it was just before the
        // checkpoint dropped it is observed on a twin: the same database
        // reopened from `before`, given the same commit, its checkpoint
        // stopped after the page-file flush by an index file it cannot
        // write (a directory is in the way).
        before.write(&twin_dir);
        let twin = DurableMaskStore::open(&twin_dir, checkpointing_config()).unwrap();
        // Where the log's live frames end: past it, a recycled log holds an
        // earlier generation's frames, which the new ones overwrite.
        let live = twin.wal_bytes() as usize;
        let _ = fs::remove_file(twin_dir.join(CHI_FILE));
        fs::create_dir(twin_dir.join(CHI_FILE)).unwrap();
        apply_op(&twin, op);
        assert!(
            twin.take_checkpoint_error().is_some(),
            "commit {k}: the twin's checkpoint should have failed at the chi file"
        );
        drop(twin);
        let log = fs::read(twin_dir.join(WAL_FILE)).unwrap();
        assert!(log.starts_with(&before.wal[..live]) && log.len() > live);
        // The log file after `cut` bytes of it were written: the previous
        // file's bytes, with the new ones written over them from the live end.
        let written = |cut: usize| {
            let mut wal = log[..cut].to_vec();
            wal.extend_from_slice(before.wal.get(cut..).unwrap_or_default());
            wal
        };
        assert!(
            fs::read(twin_dir.join(DB_FILE)).unwrap() == after.db,
            "commit {k}: the twin flushed a different page file than the original"
        );
        let mut recycled = written(log.len());
        recycled[12..41].fill(0);
        assert!(
            after.wal == recycled,
            "commit {k}: checkpoint did not recycle the log"
        );

        let expect_k = |files: Files, what: &str| {
            assert_eq!(
                recovered_prefix(&files, &crash_dir, &steps),
                k,
                "commit {k}: {what}"
            );
        };

        // 1. The log is being appended to — first the commit, then the
        //    checkpoint's copy of the directory: cut at every byte. Nothing
        //    else has been touched.
        let mut last = k - 1;
        for cut in live..=log.len() {
            let files = Files {
                wal: written(cut),
                ..before.clone()
            };
            let prefix = recovered_prefix(&files, &crash_dir, &steps);
            assert!(
                prefix == last || (prefix == k && last == k - 1),
                "commit {k}: log cut at {cut} recovered prefix {prefix} after {last}"
            );
            last = prefix;
        }
        assert_eq!(last, k, "commit {k}: the whole log must recover the commit");

        // 2. The log is whole and synced; the page file is being flushed, in
        //    whatever order its pages reach the disk.
        for (what, db) in [
            (
                "flush: even pages written",
                mixed_pages(&before.db, &after.db, |no| no % 2 == 0),
            ),
            (
                "flush: odd pages written",
                mixed_pages(&before.db, &after.db, |no| no % 2 == 1),
            ),
            (
                "flush: first half written",
                mixed_pages(&before.db, &after.db, |no| no < 6),
            ),
            (
                "flush: second half written",
                mixed_pages(&before.db, &after.db, |no| no >= 6),
            ),
            ("flush: all pages written", after.db.clone()),
        ] {
            let files = Files {
                db,
                wal: log.clone(),
                ..before.clone()
            };
            expect_k(files, what);
        }

        // 3. The page file is durable; the chi file is being brought up to
        //    date. The log still names every mask the old file is stale for.
        for chi in append_states(&before.chi, &after.chi) {
            let files = Files {
                db: after.db.clone(),
                wal: log.clone(),
                chi,
            };
            expect_k(files, "chi file being written");
        }

        // 4. Everything else is durable; the log is being recycled: still
        //    whole, then its first frame's header zeroed.
        for wal in [written(log.len()), after.wal.clone()] {
            let files = Files {
                wal,
                ..after.clone()
            };
            expect_k(files, "log being recycled");
        }
    }
    assert!(checkpoints >= 4, "only {checkpoints} automatic checkpoints");
    drop(main);

    // The commits since the last checkpoint live in the final log alone: cut
    // it at every byte over the final files.
    let last_files = Files::read(&main_dir);
    let mut last = 0;
    for cut in 0..=last_files.wal.len() {
        let files = Files {
            wal: last_files.wal[..cut].to_vec(),
            ..last_files.clone()
        };
        let prefix = recovered_prefix(&files, &crash_dir, &steps);
        assert!(
            prefix >= last,
            "final log cut at {cut}: {prefix} after {last}"
        );
        last = prefix;
    }
    assert_eq!(last, steps.len() - 1);

    for dir in [main_dir, twin_dir, crash_dir] {
        fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn a_commit_logs_what_it_writes_however_large_the_database() {
    // One overwritten mask costs its pages plus a delta naming it, one
    // deleted mask a delta alone — not the directory of everything stored.
    let logged = |stored: u64| {
        let dir = temp_dir(&format!("delta-bytes-{stored}"));
        let db = MaskDb::open(&dir, config()).unwrap();
        for first in (0..stored).step_by(64) {
            let batch: Vec<(MaskRecord, Mask)> = (first..first + 64)
                .map(|i| (record(i), mask(i as u32)))
                .collect();
            db.insert_masks(&batch).unwrap();
        }
        assert_eq!(db.store().len() as u64, stored);
        let wal_bytes = || db.ingest_stats().wal_bytes;
        let start = wal_bytes();
        db.insert_masks(&[(record(5), mask(99))]).unwrap();
        let overwrite = wal_bytes() - start;
        db.delete_masks(&[MaskId::new(6)]).unwrap();
        let delete = wal_bytes() - start - overwrite;
        assert_eq!(db.store().get(MaskId::new(5)).unwrap(), mask(99));
        assert!(!db.store().contains(MaskId::new(6)));
        fs::remove_dir_all(&dir).unwrap();
        (overwrite, delete)
    };
    let small = logged(64);
    assert_eq!(small, logged(2048));
    let (overwrite, delete) = small;
    // 128-byte pages: a 4x4 mask is one page; a delete logs none.
    assert!(delete < 128, "a delete logged {delete} bytes");
    assert!(overwrite < 3 * 128, "an overwrite logged {overwrite} bytes");
}

/// The index file of `dir` parsed back, with the length of its valid
/// prefix.
fn load_index_file(dir: &Path) -> (masksearch_index::ChiStore, usize) {
    masksearch_index::ChiStore::from_segments(&fs::read(dir.join(CHI_FILE)).unwrap()).unwrap()
}

#[test]
fn index_files_grow_by_appends_survive_a_torn_segment_and_compact_on_checkpoint() {
    let dir = temp_dir("segments");
    let config = config().checkpoint_wal_bytes(1500);
    let mut model: BTreeMap<MaskId, Mask> = BTreeMap::new();
    let mut next = 0u64;
    // Inserts two fresh masks per commit until `target` automatic
    // checkpoints have run; stops right after one, so the log is empty.
    let mut insert_until =
        |store: &DurableMaskStore, model: &mut BTreeMap<MaskId, Mask>, target: u64| {
            let mut snapshots: Vec<Files> = Vec::new();
            let mut seen = store.ingest_stats().unwrap().checkpoints;
            while seen < target {
                let batch: Vec<(MaskRecord, Mask)> = (next..next + 2)
                    .map(|i| (record(i), mask(i as u32 * 3)))
                    .collect();
                next += 2;
                store.insert_masks(&batch).unwrap();
                model.extend(batch.into_iter().map(|(r, m)| (r.mask_id, m)));
                let now = store.ingest_stats().unwrap().checkpoints;
                if now > seen {
                    seen = now;
                    snapshots.push(Files::read(&dir));
                }
            }
            snapshots
        };

    let store = DurableMaskStore::open(&dir, config).unwrap();
    let snapshots = insert_until(&store, &mut model, 4);
    drop(store);
    // Appends only: each checkpoint's files extend the previous one's, byte
    // for byte, and hold every mask.
    for pair in snapshots.windows(2) {
        assert!(pair[1].chi.len() > pair[0].chi.len() && pair[1].chi.starts_with(&pair[0].chi));
    }
    let (chi, chi_len) = load_index_file(&dir);
    let last = snapshots.last().unwrap();
    assert_eq!(chi_len, last.chi.len());
    assert_eq!(chi.len(), model.len());
    assert_eq!(
        last.wal[12], 0,
        "the last commit checkpointed: its log is recycled"
    );

    // Tear the file's last segment. The log is empty, so nothing but the
    // file's own checksums says those entries are gone: they are dropped,
    // and their masks re-indexed from pixels.
    let before_last = &snapshots[snapshots.len() - 2];
    fs::write(dir.join(CHI_FILE), &last.chi[..last.chi.len() - 3]).unwrap();
    let (chi, chi_len) = load_index_file(&dir);
    assert_eq!(chi_len, before_last.chi.len());
    assert!(chi.len() < model.len());
    let store = DurableMaskStore::open(&dir, config).unwrap();
    assert_state_matches(&store, &model);

    // The next automatic checkpoint appends where the valid prefix ended,
    // not behind the torn bytes, and its segment holds the rebuilt entries.
    insert_until(&store, &mut model, 1);
    let (chi, chi_len) = load_index_file(&dir);
    let files = Files::read(&dir);
    assert_eq!(chi_len, files.chi.len());
    assert!(files.chi.starts_with(&before_last.chi));
    assert_eq!(chi.len(), model.len());

    // Deletes and overwrites leave dead entries behind; an explicit
    // checkpoint leaves none: the file is the store's one-segment image.
    store
        .delete_masks(&[MaskId::new(0), MaskId::new(3)])
        .unwrap();
    model.remove(&MaskId::new(0));
    model.remove(&MaskId::new(3));
    store.insert_masks(&[(record(1), mask(100))]).unwrap();
    model.insert(MaskId::new(1), mask(100));
    store.checkpoint().unwrap();
    let files = Files::read(&dir);
    assert!(files.chi == store.chi_store().to_bytes());
    let (chi, chi_len) = load_index_file(&dir);
    assert_eq!(chi_len, files.chi.len());
    assert_eq!(chi.len(), store.len());
    assert_eq!(chi.ids(), store.ids());
    drop(store);
    let store = DurableMaskStore::open(&dir, config).unwrap();
    assert_state_matches(&store, &model);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn overwrite_churn_rewrites_index_files_before_dead_entries_outweigh_live_ones() {
    let dir = temp_dir("churn");
    let store = DurableMaskStore::open(&dir, config().checkpoint_wal_bytes(1500)).unwrap();
    let mut model: BTreeMap<MaskId, Mask> = BTreeMap::new();
    let mut largest = 0u64;
    for round in 0..60u32 {
        let batch: Vec<(MaskRecord, Mask)> = (0..6u64)
            .map(|i| (record(i), mask(i as u32 + round)))
            .collect();
        store.insert_masks(&batch).unwrap();
        model.extend(batch.into_iter().map(|(r, m)| (r.mask_id, m)));
        largest = largest.max(Files::read(&dir).chi.len() as u64);
    }
    assert!(store.ingest_stats().unwrap().checkpoints >= 10);
    // Without rewrites ten-odd checkpoints of six entries each would have
    // piled up; with them the file never reaches twice its live content plus
    // the segment that tipped it over.
    let live = store.chi_store().encoded_len();
    assert!(
        largest < 2 * live,
        "chi file reached {largest} of {live} live bytes"
    );
    drop(store);
    let store = DurableMaskStore::open(&dir, config()).unwrap();
    assert_state_matches(&store, &model);
    fs::remove_dir_all(&dir).unwrap();
}

/// Copies a database written by the previous format's build (`WAL_VERSION`
/// 1, `DB_FORMAT_VERSION` 1, a bare `MSKI` v1 index image, and the `MSKT` v2
/// tile-summary file builds of that time kept) out of `tests/fixtures/`
/// into a scratch directory.
fn v1_fixture(name: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let dst = temp_dir(&format!("fixture-{name}"));
    fs::create_dir_all(&dst).unwrap();
    for entry in fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

fn format_version(dir: &Path, file: &str) -> u16 {
    let bytes = fs::read(dir.join(file)).unwrap();
    u16::from_le_bytes([bytes[4], bytes[5]])
}

#[test]
fn version_1_databases_open_replay_their_log_and_are_upgraded_in_place() {
    // Both fixtures: masks 0..5 inserted and checkpointed, then masks 1 and
    // 3 overwritten, mask 0 deleted, mask 7 inserted. `v1_with_wal` stops
    // there — three committed transactions in a version 1 log over index
    // files stale for them; `v1_checkpointed` checkpointed once more.
    let mut expected: BTreeMap<MaskId, Mask> = [
        (MaskId::new(1), mask(50)),
        (MaskId::new(2), mask(2)),
        (MaskId::new(3), mask(51)),
        (MaskId::new(4), mask(4)),
        (MaskId::new(7), mask(52)),
    ]
    .into_iter()
    .collect();
    for (name, logged_frames) in [("v1_with_wal", true), ("v1_checkpointed", false)] {
        let dir = v1_fixture(name);
        for file in [DB_FILE, WAL_FILE, CHI_FILE] {
            assert_eq!(
                format_version(&dir, file),
                1,
                "{name}/{file} is not a v1 fixture"
            );
        }
        assert_eq!(format_version(&dir, TILES_FILE), 2);
        assert_eq!(
            fs::read(dir.join(WAL_FILE)).unwrap().len() > 12,
            logged_frames
        );
        {
            // The v1 log's transactions replay (under their own checksum)
            // and the log is a version 3 log from here on.
            let store = DurableMaskStore::open(&dir, config()).unwrap();
            assert_state_matches(&store, &expected);
            assert_eq!(format_version(&dir, WAL_FILE), 3);
            assert_eq!(store.wal_bytes() > 12, logged_frames);
            // New commits (delta frames) land on top, checkpoint or not.
            store
                .insert_masks(&[(record(9), mask(9)), (record(2), mask(60))])
                .unwrap();
            store.delete_masks(&[MaskId::new(4)]).unwrap();
        }
        let mut expected = expected.clone();
        expected.insert(MaskId::new(9), mask(9));
        expected.insert(MaskId::new(2), mask(60));
        expected.remove(&MaskId::new(4));
        {
            let store = DurableMaskStore::open(&dir, config()).unwrap();
            assert_state_matches(&store, &expected);
            // The first checkpoint writes every file in the current format,
            // which a v1 build refuses to open, and removes the tile file.
            assert!(dir.join(TILES_FILE).exists());
            store.checkpoint().unwrap();
        }
        assert_eq!(format_version(&dir, DB_FILE), 2);
        assert_eq!(format_version(&dir, WAL_FILE), 3);
        assert_eq!(format_version(&dir, CHI_FILE), 3);
        assert!(!dir.join(TILES_FILE).exists());
        let store = DurableMaskStore::open(&dir, config()).unwrap();
        assert_state_matches(&store, &expected);
        let (chi, chi_len) = load_index_file(&dir);
        assert_eq!(chi_len, fs::read(dir.join(CHI_FILE)).unwrap().len());
        assert_eq!(chi.len(), expected.len());
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
    expected.clear();
}

/// The version 1 fixtures hold a `masks.tiles` file. It is ignored on open:
/// every statement answers as a session over the same masks in memory does
/// (which counts by the reference scan), and verification takes the cell
/// kernel; the next checkpoint removes the file.
#[test]
fn databases_holding_a_tile_file_answer_identically_and_drop_it_at_the_next_checkpoint() {
    use masksearch_core::{PixelRange, Roi};
    use masksearch_query::{IndexingMode, Query, Session, SessionConfig};
    use masksearch_storage::{Catalog, MemoryMaskStore};
    use std::sync::Arc;

    let queries = || {
        let roi = Roi::new(1, 0, 4, 3).unwrap();
        [0.1f32, 0.3, 0.5, 0.62].into_iter().flat_map(move |lo| {
            let range = PixelRange::new(lo, 0.95).unwrap();
            [
                Query::filter_cp_gt(roi, range, 2.0),
                Query::top_k_cp(roi, range, 3, masksearch_query::Order::Desc),
            ]
        })
    };
    for name in ["v1_with_wal", "v1_checkpointed"] {
        let dir = v1_fixture(name);
        assert!(dir.join(TILES_FILE).exists(), "{name} holds no tile file");
        let db = MaskDb::open(&dir, config()).unwrap();
        let config = SessionConfig::new(ChiConfig::new(2, 2, 4).unwrap())
            .threads(1)
            .indexing_mode(IndexingMode::Eager);
        let session = Session::with_store_maintained_index(
            db.mask_store(),
            db.catalog(),
            config,
            db.chi_store(),
        );
        let memory = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        for id in db.store().ids() {
            memory.put(id, &db.store().get(id).unwrap()).unwrap();
            catalog.insert(record(id.raw()));
        }
        let reference = Session::new(memory as Arc<dyn MaskStore>, catalog, config).unwrap();
        let mut counted = 0;
        for query in queries() {
            let out = session.execute(&query).unwrap();
            assert_eq!(out.rows, reference.execute(&query).unwrap().rows, "{name}");
            assert_eq!(out.stats.planner_kernel_off, 0, "{name}");
            counted += out.stats.planner_kernel_on;
        }
        assert!(counted > 0, "{name}: no statement verified a mask");
        db.checkpoint().unwrap();
        assert!(!dir.join(TILES_FILE).exists(), "{name}");
        drop((session, db));
        fs::remove_dir_all(&dir).unwrap();
    }
}
