//! Recycled-log crash suite. An automatic checkpoint keeps `masks.wal`'s
//! blocks: it zeroes the first frame's header and the next commits write
//! over the old frames from the head, so past the live tail the file still
//! holds the previous generation's frames. A crash at any byte of the new
//! generation must recover exactly the prefix of it that committed — never
//! a transaction of the old one.

use masksearch_core::{ImageId, Mask, MaskId, MaskRecord};
use masksearch_db::{DbConfig, DurableMaskStore, CHI_FILE, DB_FILE, WAL_FILE};
use masksearch_index::ChiConfig;
use masksearch_storage::MaskStore;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-recycle-test-{}-{}",
        name,
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// 128-byte pages hold one 4x4 mask each; the log is recycled every few
/// commits.
fn config() -> DbConfig {
    DbConfig::default()
        .page_size(128)
        .chi_config(ChiConfig::new(2, 2, 4).unwrap())
        .checkpoint_wal_bytes(2500)
}

fn mask(seed: u64) -> Mask {
    Mask::from_fn(4, 4, move |x, y| {
        ((x as u64 * 5 + y as u64 * 3 + seed) % 11) as f32 / 11.0
    })
}

fn record(id: u64) -> MaskRecord {
    MaskRecord::builder(MaskId::new(id))
        .image_id(ImageId::new(id / 2))
        .shape(4, 4)
        .build()
}

type State = BTreeMap<MaskId, Mask>;

/// The files recovery reads, as they were at one instant.
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

    /// Writes the files into a fresh `dir` and opens the database there.
    fn reopen(&self, dir: &Path) -> DurableMaskStore {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        for (name, bytes) in [
            (DB_FILE, &self.db),
            (WAL_FILE, &self.wal),
            (CHI_FILE, &self.chi),
        ] {
            fs::write(dir.join(name), bytes).unwrap();
        }
        DurableMaskStore::open(dir, config()).unwrap()
    }
}

fn same_state(store: &DurableMaskStore, state: &State) -> bool {
    store.ids() == state.keys().copied().collect::<Vec<_>>()
        && state
            .iter()
            .all(|(id, mask)| store.get(*id).unwrap() == *mask)
}

/// Commits one batch inserting `ids` (pixels seeded by `salt`) into the
/// store and the model; returns the log's length after it.
fn commit(store: &DurableMaskStore, model: &mut State, ids: &[u64], salt: u64) -> usize {
    let batch: Vec<(MaskRecord, Mask)> = ids
        .iter()
        .map(|&id| (record(id), mask(id + salt)))
        .collect();
    store.insert_masks(&batch).unwrap();
    model.extend(batch.into_iter().map(|(r, m)| (r.mask_id, m)));
    store.wal_bytes() as usize
}

/// Commits batches of two new masks until one crosses the threshold and
/// its checkpoint recycles the log. Returns where each transaction before
/// that one ends, as offsets into the log (from 12, the log's start).
fn fill_generation(store: &DurableMaskStore, model: &mut State, next: &mut u64) -> Vec<usize> {
    let mut ends = vec![12];
    let checkpoints = store.ingest_stats().unwrap().checkpoints;
    loop {
        let len = commit(store, model, &[*next, *next + 1], 0);
        *next += 2;
        if store.ingest_stats().unwrap().checkpoints > checkpoints {
            return ends;
        }
        ends.push(len);
    }
}

/// Writes generation A — commits of two new masks each, after a first
/// generation that began with the database's bootstrap — then a shorter
/// generation B of commits inserting `b_ids_per_commit` masks each, and
/// cuts B at every byte, leaving A's bytes after the cut. Returns how many
/// of B's commit ends fell on one of A's transaction boundaries.
fn crash_every_byte_of_a_recycled_generation(name: &str, b_ids_per_commit: u64) -> usize {
    let dir = temp_dir(name);
    let crash_dir = temp_dir(&format!("{name}-crash"));
    let store = DurableMaskStore::open(&dir, config()).unwrap();
    let mut model = State::new();
    let mut next = 0u64;
    fill_generation(&store, &mut model, &mut next);
    let a_ends = fill_generation(&store, &mut model, &mut next);
    let recycled = Files::read(&dir);
    assert_eq!(store.wal_bytes(), 12);
    assert!(
        recycled.wal[12..41].iter().all(|&byte| byte == 0),
        "the checkpoint did not zero the first frame's header"
    );
    assert!(recycled.wal.len() > *a_ends.last().unwrap());

    // A recycled log with no new frame is the checkpointed state; opening
    // it cuts the old generation off.
    let reopened = recycled.reopen(&crash_dir);
    assert!(same_state(&reopened, &model));
    assert_eq!(fs::metadata(crash_dir.join(WAL_FILE)).unwrap().len(), 12);
    drop(reopened);

    // Generation B, shorter than A, over A's bytes.
    let mut states = vec![model.clone()];
    let mut b_ends = vec![12];
    for round in 0..a_ends.len() as u64 - 2 {
        let ids: Vec<u64> = (next..next + b_ids_per_commit).collect();
        next += b_ids_per_commit;
        b_ends.push(commit(&store, &mut model, &ids, 100 + round));
        states.push(model.clone());
    }
    assert_eq!(store.ingest_stats().unwrap().checkpoints, 2);
    drop(store);
    let written = Files::read(&dir);
    let live = *b_ends.last().unwrap();
    assert_eq!(written.wal.len(), recycled.wal.len());
    assert!(written.wal[live..] == recycled.wal[live..]);
    assert!(written.db == recycled.db && written.chi == recycled.chi);

    for cut in 12..=live {
        let mut wal = written.wal[..cut].to_vec();
        wal.extend_from_slice(&recycled.wal[cut..]);
        let store = Files {
            wal,
            ..written.clone()
        }
        .reopen(&crash_dir);
        // Exactly B's transactions wholly before the cut, nothing of A's.
        let committed = b_ends.iter().filter(|&&end| end <= cut).count() - 1;
        assert!(
            same_state(&store, &states[committed]),
            "{name}: cut at {cut} did not recover B's first {committed} commits"
        );
        assert_eq!(
            store.wal_bytes() as usize,
            b_ends[committed],
            "cut at {cut}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
    b_ends[1..]
        .iter()
        .filter(|end| a_ends.contains(end))
        .count()
}

/// B's commits have A's shape, so each of B's tails lands exactly where one
/// of A's transactions begins: a whole, intact transaction with a smaller
/// id follows every cut at a commit boundary.
#[test]
fn cuts_on_the_old_generation_s_boundaries_recover_only_the_new_one() {
    let aligned = crash_every_byte_of_a_recycled_generation("aligned", 2);
    assert!(
        aligned >= 3,
        "only {aligned} of B's tails fell on A's boundaries"
    );
}

/// B's commits are shorter than A's, so its tails land inside A's frames
/// and transactions.
#[test]
fn cuts_inside_the_old_generation_s_frames_recover_only_the_new_one() {
    crash_every_byte_of_a_recycled_generation("misaligned", 1);
}

/// Recycling keeps working across generations, and an explicit checkpoint
/// still leaves a bare header behind.
#[test]
fn many_generations_recover_the_last_and_an_explicit_checkpoint_truncates() {
    let dir = temp_dir("generations");
    let mut model = State::new();
    {
        let store = DurableMaskStore::open(&dir, config()).unwrap();
        for round in 0..40u64 {
            // Overwrites keep the database small while generations pass.
            commit(&store, &mut model, &[round % 7, 7 + round % 3], round);
        }
        assert!(store.ingest_stats().unwrap().checkpoints >= 5);
        assert!(store.take_checkpoint_error().is_none());
    }
    let store = DurableMaskStore::open(&dir, config()).unwrap();
    assert!(same_state(&store, &model));
    store.checkpoint().unwrap();
    drop(store);
    assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 12);
    let store = DurableMaskStore::open(&dir, config()).unwrap();
    assert!(same_state(&store, &model));
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}
