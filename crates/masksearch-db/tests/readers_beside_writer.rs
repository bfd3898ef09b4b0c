//! Readers beside a writer that checkpoints every few commits.
//!
//! Loads read a mask's extent from the pager's dirty table and the page
//! file without any clean-page cache in between, so their correctness rests
//! on two orderings: a checkpoint empties the dirty table only *after* the
//! page file holds the pages, and a reader resolves the directory entry and
//! reads the extent under one state guard. Break either and a reader gets
//! pages of another mask, another version, or a mix; this test reads
//! version-stamped masks fast enough to land inside those windows. Every
//! read also reports the commit stamp of its pixels, and a CHI carrying that
//! stamp must be the index of exactly those pixels.

use masksearch_core::{Mask, MaskId, MaskRecord, PixelRange, Roi};
use masksearch_db::{DbConfig, DurableMaskStore};
use masksearch_index::{Chi, ChiConfig};
use masksearch_query::eval::CompiledBounds;
use masksearch_query::{Expr, Interval};
use masksearch_storage::{MaskEncoding, MaskStore};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

const IDS: u64 = 32;
const SIDE: u32 = 16;
const PIXELS: usize = (SIDE * SIDE) as usize;
const READERS: usize = 4;
const COMMITS: u64 = 400;
const BATCH: u64 = 4;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-readers-writer-{}-{}",
        name,
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Version `version` of mask `id`. The last pixel carries the version; a
/// version-dependent prefix is noisy and the rest flat, so the compressed
/// blob — and with it the extent's page count — changes from version to
/// version and freed extents get reused by other masks.
fn stamped(id: u64, version: u64) -> Mask {
    let noisy = (version % 4) as usize * 64;
    let flat = ((id * 37 + version * 11) % 199) as f32 / 200.0;
    let mut data: Vec<f32> = (0..PIXELS)
        .map(|i| {
            if i < noisy {
                ((i as u64 * 7919 + id * 104_729 + version * 1_299_709) % 65_521) as f32 / 65_536.0
            } else {
                flat
            }
        })
        .collect();
    data[PIXELS - 1] = version as f32 / 65_536.0;
    Mask::new(SIDE, SIDE, data).unwrap()
}

fn version_of(mask: &Mask) -> u64 {
    (mask.data()[PIXELS - 1] * 65_536.0) as u64
}

fn record(id: u64) -> MaskRecord {
    MaskRecord::builder(MaskId::new(id))
        .shape(SIDE, SIDE)
        .build()
}

fn versions(
    ids: impl Iterator<Item = u64>,
    version: impl Fn(u64) -> u64,
) -> Vec<(MaskRecord, Mask)> {
    ids.map(|id| (record(id), stamped(id, version(id))))
        .collect()
}

#[test]
fn every_read_is_exactly_one_committed_version() {
    let dir = temp_dir("versions");
    let config = DbConfig::default()
        .page_size(256)
        .fsync(false)
        .encoding(MaskEncoding::Compressed)
        .chi_config(ChiConfig::new(4, 4, 4).unwrap())
        // A commit logs 6-8 KB (4 blobs + the directory): a checkpoint
        // every two or three commits.
        .checkpoint_wal_bytes(16 * 1024);
    let store = DurableMaskStore::open(&dir, config).unwrap();
    store.insert_masks(&versions(0..IDS, |_| 1)).unwrap();

    // Per id: the version whose commit has started, and the version whose
    // commit has returned. A read that starts after `committed` says v and
    // ends before `started` says w must return a version in v..=w.
    let started: Vec<AtomicU64> = (0..IDS).map(|_| AtomicU64::new(1)).collect();
    let committed: Vec<AtomicU64> = (0..IDS).map(|_| AtomicU64::new(1)).collect();
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(READERS + 1);

    let (reads, indexed) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let (store, started, committed, done, barrier) =
                    (&store, &started, &committed, &done, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let (mut reads, mut indexed) = (0u64, 0u64);
                    let mut next = reader as u64 * 7;
                    while !done.load(Ordering::SeqCst) {
                        next = (next + 5) % IDS;
                        let id = next;
                        let at_least = committed[id as usize].load(Ordering::SeqCst);
                        let mask = if reads % 2 == 0 {
                            store.get(MaskId::new(id)).unwrap()
                        } else {
                            let (mask, stamp) = store.get_stamped(MaskId::new(id)).unwrap();
                            let chi = store.chi_store().reader();
                            if let Some((index, installed)) = chi.get_stamped(MaskId::new(id)) {
                                if installed == stamp {
                                    indexed += 1;
                                    assert!(
                                        index.to_chi() == Chi::build(&mask, &config.chi_config),
                                        "mask {id}: a CHI of the pixels' stamp summarises others"
                                    );
                                }
                            }
                            mask
                        };
                        let at_most = started[id as usize].load(Ordering::SeqCst);
                        let version = version_of(&mask);
                        assert!(
                            mask == stamped(id, version),
                            "mask {id}: pixels are not version {version} of it"
                        );
                        assert!(
                            (at_least..=at_most).contains(&version),
                            "mask {id}: read version {version}, committed {at_least}..={at_most}"
                        );
                        reads += 1;
                    }
                    (reads, indexed)
                })
            })
            .collect();

        barrier.wait();
        for commit in 0..COMMITS {
            let ids = (0..BATCH).map(|k| (commit * 3 + k * 9) % IDS);
            let batch = versions(ids, |id| {
                let version = started[id as usize].load(Ordering::SeqCst) + 1;
                started[id as usize].store(version, Ordering::SeqCst);
                version
            });
            store.insert_masks(&batch).unwrap();
            for (record, mask) in &batch {
                committed[record.mask_id.raw() as usize].store(version_of(mask), Ordering::SeqCst);
            }
        }
        done.store(true, Ordering::SeqCst);
        readers
            .into_iter()
            .map(|reader| reader.join().expect("reader panicked"))
            .fold((0, 0), |(r, i), (reads, indexed)| (r + reads, i + indexed))
    });

    let checkpoints = store.ingest_stats().unwrap().checkpoints;
    assert!(store.take_checkpoint_error().is_none());
    assert!(
        checkpoints >= COMMITS / 8,
        "only {checkpoints} checkpoints in {COMMITS} commits"
    );
    assert!(
        reads >= checkpoints && indexed > 0,
        "{reads} reads ({indexed} with their CHI) beside {checkpoints} checkpoints"
    );

    // The final state, from memory and again from the files alone.
    let check_final = |store: &DurableMaskStore| {
        for id in 0..IDS {
            let version = committed[id as usize].load(Ordering::SeqCst);
            assert_eq!(store.get(MaskId::new(id)).unwrap(), stamped(id, version));
        }
        assert_eq!(store.verify_indexes().unwrap(), IDS as usize);
    };
    check_final(&store);
    drop(store);
    check_final(&DurableMaskStore::open(&dir, config).unwrap());
    fs::remove_dir_all(&dir).unwrap();
}

/// The same race for ranged reads (`MaskStore::read_rows`, what in-place
/// verification reads): raw blobs, readers asking for row bands beside the
/// 400 commits and their checkpoints. A band is read under the state guard
/// a whole load takes, so its bytes must be those rows of exactly one
/// version, committed no earlier than the read began and started no later
/// than it ended — never a mix of two versions' pages, never another mask.
/// Half the reads ask for two bands at once: both of the one version.
#[test]
fn every_band_is_exactly_one_committed_version() {
    let dir = temp_dir("bands");
    let config = DbConfig::default()
        .page_size(256)
        .fsync(false)
        .chi_config(ChiConfig::new(4, 4, 4).unwrap())
        // A raw 16x16 blob is five pages: a checkpoint every few commits.
        .checkpoint_wal_bytes(16 * 1024);
    let store = DurableMaskStore::open(&dir, config).unwrap();
    store.insert_masks(&versions(0..IDS, |_| 1)).unwrap();

    let started: Vec<AtomicU64> = (0..IDS).map(|_| AtomicU64::new(1)).collect();
    let committed: Vec<AtomicU64> = (0..IDS).map(|_| AtomicU64::new(1)).collect();
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(READERS + 1);
    let rows_of = |mask: &Mask, rows: std::ops::Range<u32>| -> Vec<u8> {
        mask.data()[(rows.start * SIDE) as usize..(rows.end * SIDE) as usize]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    };

    let reads = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let (store, started, committed, done, barrier) =
                    (&store, &started, &committed, &done, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut reads = 0u64;
                    let mut next = reader as u64 * 7;
                    let mut band = Vec::new();
                    while !done.load(Ordering::SeqCst) {
                        next = (next + 5) % IDS;
                        let id = next;
                        // Bands of one to five rows at every height; a row
                        // is 64 bytes, so they start and end mid-page.
                        let y0 = (reads * 3 + id) as u32 % SIDE;
                        let rows = y0..(y0 + 1 + reads as u32 % 5).min(SIDE);
                        let bands = match (reads % 2, rows.end + 2 < SIDE) {
                            (1, true) => vec![rows.clone(), rows.end + 1..SIDE],
                            _ => vec![rows.clone()],
                        };
                        let at_least = committed[id as usize].load(Ordering::SeqCst);
                        let read = store
                            .read_rows(MaskId::new(id), &bands, &mut band)
                            .unwrap()
                            .expect("raw blobs serve rows");
                        let at_most = started[id as usize].load(Ordering::SeqCst);
                        assert_eq!((read.width, read.height), (SIDE, SIDE));
                        let of = |version| {
                            let mask = stamped(id, version);
                            bands
                                .iter()
                                .flat_map(|rows| rows_of(&mask, rows.clone()))
                                .collect::<Vec<_>>()
                        };
                        assert!(
                            (at_least..=at_most).any(|version| band == of(version)),
                            "mask {id} bands {bands:?}: not a version in {at_least}..={at_most}"
                        );
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();

        barrier.wait();
        for commit in 0..COMMITS {
            let ids = (0..BATCH).map(|k| (commit * 3 + k * 9) % IDS);
            let batch = versions(ids, |id| {
                let version = started[id as usize].load(Ordering::SeqCst) + 1;
                started[id as usize].store(version, Ordering::SeqCst);
                version
            });
            store.insert_masks(&batch).unwrap();
            for (record, mask) in &batch {
                committed[record.mask_id.raw() as usize].store(version_of(mask), Ordering::SeqCst);
            }
        }
        done.store(true, Ordering::SeqCst);
        readers
            .into_iter()
            .map(|reader| reader.join().expect("reader panicked"))
            .sum::<u64>()
    });

    let checkpoints = store.ingest_stats().unwrap().checkpoints;
    assert!(store.take_checkpoint_error().is_none());
    assert!(
        checkpoints >= COMMITS / 8 && reads >= checkpoints,
        "{reads} band reads beside {checkpoints} checkpoints in {COMMITS} commits"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The same race for the filter stage: readers bound masks through the CHI
/// store's views — the compiled bounds the executors run — beside a writer
/// that overwrites and deletes. A mask's cells live in a slab run that the
/// next index of that length reuses, so a commit of four masks hands their
/// runs round; a view is taken and read under the store's guard, so the
/// bounds a reader computes must be those of exactly one version of *that*
/// mask, committed no earlier than the read began and started no later than
/// it ended — or the mask has no index just then (deleted, or between an
/// overwrite's eviction and its re-index).
#[test]
fn every_bound_is_of_exactly_one_committed_version() {
    let dir = temp_dir("bounds");
    let chi_config = ChiConfig::new(4, 4, 4).unwrap();
    let config = DbConfig::default()
        .page_size(256)
        .fsync(false)
        .chi_config(chi_config)
        .checkpoint_wal_bytes(64 * 1024);
    let store = DurableMaskStore::open(&dir, config).unwrap();
    store.insert_masks(&versions(0..IDS, |_| 1)).unwrap();

    // Every fifth version of a mask is its absence.
    let deleted = |version: u64| version.is_multiple_of(5);
    let started: Vec<AtomicU64> = (0..IDS).map(|_| AtomicU64::new(1)).collect();
    let committed: Vec<AtomicU64> = (0..IDS).map(|_| AtomicU64::new(1)).collect();
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(READERS + 1);
    let exprs = [
        Expr::cp(
            Roi::new(3, 1, 14, 9).unwrap(),
            PixelRange::new(0.3, 1.0).unwrap(),
        ),
        Expr::cp_full(PixelRange::new(0.5, 0.75).unwrap()),
        Expr::cp(Roi::new(0, 8, 16, 16).unwrap(), PixelRange::full()),
    ];

    let (bounded, absent) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let (store, started, committed, done, barrier, exprs) =
                    (&store, &started, &committed, &done, &barrier, &exprs);
                scope.spawn(move || {
                    barrier.wait();
                    let mut compiled: Vec<CompiledBounds<'_>> = exprs
                        .iter()
                        .map(|expr| CompiledBounds::expr(expr, false))
                        .collect();
                    let (mut bounded, mut absent) = (0u64, 0u64);
                    let mut next = reader as u64 * 7;
                    while !done.load(Ordering::SeqCst) {
                        next = (next + 5) % IDS;
                        let id = next;
                        let at_least = committed[id as usize].load(Ordering::SeqCst);
                        let seen = {
                            let chis = store.chi_store().reader();
                            chis.get(MaskId::new(id)).map(|chi| {
                                let bounds: Vec<Interval> = compiled
                                    .iter_mut()
                                    .map(|c| c.interval(&record(id), chi).unwrap())
                                    .collect();
                                (bounds, chi.to_chi())
                            })
                        };
                        let at_most = started[id as usize].load(Ordering::SeqCst);
                        let Some((bounds, cells)) = seen else {
                            assert!(
                                at_most > at_least || deleted(at_least),
                                "mask {id}: no index at settled version {at_least}"
                            );
                            absent += 1;
                            continue;
                        };
                        let version = (at_least..=at_most)
                            .filter(|version| !deleted(*version))
                            .find(|version| {
                                Chi::build(&stamped(id, *version), &chi_config) == cells
                            })
                            .unwrap_or_else(|| {
                                panic!("mask {id}: cells of no version in {at_least}..={at_most}")
                            });
                        let owned = Chi::build(&stamped(id, version), &chi_config);
                        for (expr, got) in exprs.iter().zip(bounds) {
                            let expected = CompiledBounds::expr(expr, false)
                                .interval(&record(id), owned.view())
                                .unwrap();
                            assert_eq!(got, expected, "mask {id} version {version}");
                        }
                        bounded += 1;
                    }
                    (bounded, absent)
                })
            })
            .collect();

        barrier.wait();
        for commit in 0..COMMITS {
            let ids: Vec<u64> = (0..BATCH).map(|k| (commit * 3 + k * 9) % IDS).collect();
            let mut upserts = Vec::new();
            let mut removals = Vec::new();
            for &id in &ids {
                let version = started[id as usize].load(Ordering::SeqCst) + 1;
                started[id as usize].store(version, Ordering::SeqCst);
                if deleted(version) {
                    removals.push(MaskId::new(id));
                } else {
                    upserts.push((record(id), stamped(id, version)));
                }
            }
            store.insert_masks(&upserts).unwrap();
            if !removals.is_empty() {
                store.delete_masks(&removals).unwrap();
            }
            for &id in &ids {
                let version = started[id as usize].load(Ordering::SeqCst);
                committed[id as usize].store(version, Ordering::SeqCst);
            }
        }
        done.store(true, Ordering::SeqCst);
        readers
            .into_iter()
            .map(|reader| reader.join().expect("reader panicked"))
            .fold((0, 0), |(b, a), (bounded, absent)| {
                (b + bounded, a + absent)
            })
    });
    assert!(
        bounded >= COMMITS && absent > 0,
        "{bounded} bounds and {absent} absences beside {COMMITS} commits"
    );

    // Settled: every index is its mask's last version, or gone with it.
    for id in 0..IDS {
        let version = committed[id as usize].load(Ordering::SeqCst);
        let expected = (!deleted(version)).then(|| Chi::build(&stamped(id, version), &chi_config));
        assert_eq!(
            store.chi_store().get(MaskId::new(id)).as_deref(),
            expected.as_ref()
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}
