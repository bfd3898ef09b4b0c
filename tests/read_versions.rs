//! Read versions: what a statement sees while writers commit beside it.
//!
//! A session publishes its catalog and CHI indexes as one immutable version
//! after every write batch, and a statement reads only the version it
//! pinned. These tests hold that version to its word — its candidates,
//! records and bounds do not move under later commits, and its superseded
//! state is freed when the last pin drops — and hold writers to theirs: a
//! commit never waits for a reader. A race of every single-node query shape
//! against an INSERT-only writer checks each answer against `BruteForce` on
//! the committed prefix its version names, and two statements overlapping
//! on a cold cache each report only their own loads.

use masksearch::baselines::BruteForce;
use masksearch::core::{ImageId, Mask, MaskAgg, MaskId, MaskRecord, ModelId, PixelRange, Roi};
use masksearch::index::ChiConfig;
use masksearch::query::{
    CpTerm, Expr, IndexingMode, MaskUpdate, Order, Predicate, Query, QueryKind, ResultRow, RowKey,
    ScalarAgg, Selection, Session, SessionConfig,
};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const SIDE: u32 = 16;
/// Masks per image: one per model.
const MODELS: u64 = 2;

fn chi() -> ChiConfig {
    ChiConfig::new(4, 4, 8).unwrap()
}

fn range(lo: f32, hi: f32) -> PixelRange {
    PixelRange::new(lo, hi).unwrap()
}

fn roi() -> Roi {
    Roi::new(2, 2, 14, 12).unwrap()
}

/// A blob whose size and brightness vary with `seed`, so bounds decide some
/// masks and leave others to verification.
fn mask(seed: u64) -> Mask {
    let radius = 1.0 + (seed * 7 % 13) as f32 * 0.5;
    let level = 0.35 + (seed * 5 % 7) as f32 * 0.09;
    Mask::from_fn(SIDE, SIDE, move |x, y| {
        let (dx, dy) = (x as f32 - 8.0, y as f32 - 7.0);
        if (dx * dx + dy * dy).sqrt() < radius {
            level
        } else {
            0.05 + ((x * 3 + y) % 5) as f32 * 0.02
        }
    })
}

/// The masks of `images` consecutive images from `first_image`, one per
/// model, ids `image · MODELS + model`.
fn images(first_image: u64, images: u64) -> Vec<(MaskRecord, Mask)> {
    (first_image..first_image + images)
        .flat_map(|image| {
            (0..MODELS).map(move |model| {
                let id = image * MODELS + model;
                let record = MaskRecord::builder(MaskId::new(id))
                    .image_id(ImageId::new(image))
                    .model_id(ModelId::new(model + 1))
                    .shape(SIDE, SIDE)
                    .object_box(Roi::new(1, 1, 15, 15).unwrap())
                    .build();
                (record, mask(id))
            })
        })
        .collect()
}

fn catalog_of(data: &[(MaskRecord, Mask)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (record, _) in data {
        catalog.insert(record.clone());
    }
    catalog
}

/// A session over `data` in a memory store.
fn session_over(
    store: Arc<dyn MaskStore>,
    data: &[(MaskRecord, Mask)],
    mode: IndexingMode,
) -> Session {
    store.apply_batch(data, &[]).unwrap();
    let config = SessionConfig::new(chi()).threads(1).indexing_mode(mode);
    Session::new(store, catalog_of(data), config).unwrap()
}

fn oracle(data: &[(MaskRecord, Mask)], query: &Query) -> Vec<ResultRow> {
    let catalog = catalog_of(data);
    let mut bf = BruteForce::new(&catalog, query);
    for (record, mask) in data {
        bf.consume(record.mask_id, mask).unwrap();
    }
    bf.finish().unwrap()
}

/// Rows with their values as bits.
fn bits(rows: &[ResultRow]) -> Vec<(RowKey, Option<u64>)> {
    rows.iter()
        .map(|r| (r.key, r.value.map(f64::to_bits)))
        .collect()
}

/// One statement of every single-node shape the executors bound: a filter,
/// a top-k, a grouped top-k and a `MASK_AGG` filter.
fn statements() -> Vec<Query> {
    let cp = Expr::cp(roi(), range(0.3, 1.0));
    let grouped = Query {
        selection: Selection::all(),
        kind: QueryKind::Aggregate {
            expr: cp.clone(),
            agg: ScalarAgg::Avg,
            having: None,
            top_k: Some((4, Order::Desc)),
        },
    };
    let mut mask_agg = Query::mask_aggregate(
        MaskAgg::IntersectThreshold { threshold: 0.3 },
        CpTerm::constant_roi(roi(), range(0.5, 1.0)),
    );
    if let QueryKind::MaskAggregate { having, .. } = &mut mask_agg.kind {
        *having = Some((masksearch::query::CmpOp::Gt, 3.0));
    }
    vec![
        Query::filter(Predicate::gt(cp.clone(), 12.0)),
        Query::top_k(cp, 5, Order::Desc),
        grouped,
        mask_agg,
    ]
}

#[test]
fn a_pinned_version_is_unchanged_by_later_commits() {
    let base = images(0, 12);
    let store: Arc<dyn MaskStore> = Arc::new(MemoryMaskStore::for_tests());
    let session = session_over(store, &base, IndexingMode::Eager);
    let pinned = session.read_version();

    // What the version answers: candidate sets by scan and by secondary
    // index, every record, and every mask's CHI bounds and cells.
    let model_two = Selection::all().with_model(ModelId::new(2));
    let observe = |version: &masksearch::query::ReadVersion| {
        let catalog = version.catalog();
        let scanned = catalog.filter(|r| model_two.matches(r));
        let listed = catalog.masks_of_model(ModelId::new(2));
        let records: Vec<MaskRecord> = catalog.records().cloned().collect();
        let chis = version.chi().expect("eager indexing");
        let bounds: Vec<(MaskId, u64, u64, Vec<u32>)> = catalog
            .mask_ids()
            .into_iter()
            .map(|id| {
                let chi = chis.get(id).expect("every mask is indexed");
                let b = chi.cp_bounds(&roi(), &range(0.3, 1.0));
                (id, b.lower, b.upper, chi.cells().to_wide())
            })
            .collect();
        (scanned, listed, records, bounds, version.writes())
    };
    let before = observe(&pinned);

    // An INSERT, an UPDATE of pixels and metadata, a DELETE and a
    // transaction, each committed while the version is held.
    session.insert_masks(&images(12, 3)).unwrap();
    session
        .update_masks(&[MaskUpdate {
            mask_id: MaskId::new(3),
            pixels: Some(mask(901).data().to_vec()),
            model_id: Some(ModelId::new(7)),
            ..MaskUpdate::of(MaskId::new(3))
        }])
        .unwrap();
    session
        .delete_masks(&[MaskId::new(5), MaskId::new(8)])
        .unwrap();
    session
        .apply_transaction(&[
            masksearch::query::Mutation::Delete(vec![MaskId::new(9)]),
            masksearch::query::Mutation::Insert(images(20, 1)),
        ])
        .unwrap();

    assert_eq!(observe(&pinned), before);
    // The session itself moved on.
    let now = session.read_version();
    assert_eq!(now.writes(), pinned.writes() + 4);
    assert!(now.catalog().get(MaskId::new(5)).is_none());
    assert_eq!(
        now.catalog().get(MaskId::new(3)).unwrap().model_id,
        ModelId::new(7)
    );
    assert!(now.chi().unwrap().get(MaskId::new(41)).is_some());
    assert_eq!(
        now.chi().unwrap().get(MaskId::new(3)).unwrap().to_chi(),
        masksearch::index::Chi::build(&mask(901), &chi())
    );
}

#[test]
fn writers_commit_while_a_version_is_pinned_on_another_thread() {
    let base = images(0, 8);
    let store: Arc<dyn MaskStore> = Arc::new(MemoryMaskStore::for_tests());
    let session = Arc::new(session_over(store, &base, IndexingMode::Eager));
    let (pinned_tx, pinned_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            // A statement's version and a CHI reader, both held across
            // every commit below.
            let version = session.read_version();
            let reader = session.chi_store().reader();
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            (version.catalog().len(), reader.len())
        })
    };
    pinned_rx.recv().unwrap();

    // Each write runs on a thread of its own and must finish within the
    // bound while the holder still has its pins.
    let commit = |write: Box<dyn FnOnce(&Session) + Send>| {
        let (done_tx, done_rx) = mpsc::channel();
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            write(&session);
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a commit waited for a pinned reader");
    };
    commit(Box::new(|s| {
        s.insert_masks(&images(8, 2)).unwrap();
    }));
    commit(Box::new(|s| {
        s.update_masks(&[MaskUpdate {
            pixels: Some(mask(77).data().to_vec()),
            ..MaskUpdate::of(MaskId::new(1))
        }])
        .unwrap();
    }));
    commit(Box::new(|s| {
        s.delete_masks(&[MaskId::new(2), MaskId::new(3)]).unwrap();
    }));

    release_tx.send(()).unwrap();
    // The holder's version never saw any of it.
    assert_eq!(holder.join().unwrap(), (16, 16));
    assert_eq!(session.catalog_len(), 18);
}

#[test]
fn a_superseded_version_is_freed_when_its_last_pin_drops() {
    let base = images(0, 8);
    let store: Arc<dyn MaskStore> = Arc::new(MemoryMaskStore::for_tests());
    let session = session_over(store, &base, IndexingMode::Eager);
    let pinned = session.read_version();
    let chi_version = Arc::downgrade(&session.chi_store().reader());
    let version = Arc::downgrade(&pinned);

    session.insert_masks(&images(8, 1)).unwrap();
    session
        .update_masks(&[MaskUpdate {
            pixels: Some(mask(99).data().to_vec()),
            ..MaskUpdate::of(MaskId::new(0))
        }])
        .unwrap();
    // Still pinned: the superseded version and the CHI version it holds
    // are alive, and answer as they did.
    assert!(version.upgrade().is_some() && chi_version.upgrade().is_some());
    assert_eq!(
        pinned.chi().unwrap().get(MaskId::new(0)).unwrap().to_chi(),
        masksearch::index::Chi::build(&mask(0), &chi())
    );
    drop(pinned);
    assert!(
        version.upgrade().is_none(),
        "the read version outlived its last pin"
    );
    assert!(
        chi_version.upgrade().is_none(),
        "the CHI version outlived the last read version that held it"
    );
}

#[test]
fn readers_racing_an_insert_only_writer_answer_on_their_version() {
    const BATCHES: u64 = 30;
    const BATCH_IMAGES: u64 = 2;
    const READERS: usize = 2;
    let base = images(0, 10);
    let batches: Vec<Vec<(MaskRecord, Mask)>> = (0..BATCHES)
        .map(|b| images(10 + b * BATCH_IMAGES, BATCH_IMAGES))
        .collect();
    let store: Arc<dyn MaskStore> = Arc::new(MemoryMaskStore::for_tests());
    let session = session_over(store, &base, IndexingMode::Eager);
    let queries = statements();
    let done = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);

    let answers = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let (session, queries, done, start) = (&session, &queries, &done, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut answers = Vec::new();
                    let mut turn = reader;
                    while !done.load(Ordering::SeqCst) || answers.len() < queries.len() {
                        let version = session.read_version();
                        let index = turn % queries.len();
                        turn += 1;
                        let output = session.execute_at(&version, &queries[index]).unwrap();
                        answers.push((version.writes(), index, output.rows));
                    }
                    answers
                })
            })
            .collect();
        start.wait();
        for batch in &batches {
            session.insert_masks(batch).unwrap();
        }
        done.store(true, Ordering::SeqCst);
        readers
            .into_iter()
            .flat_map(|reader| reader.join().expect("reader panicked"))
            .collect::<Vec<_>>()
    });

    // Every answer is the oracle's on the prefix its version names.
    let mut prefixes_seen = std::collections::BTreeSet::new();
    for (writes, index, rows) in answers {
        let query = &queries[index];
        let mut prefix = base.clone();
        prefix.extend(batches[..writes as usize].iter().flatten().cloned());
        assert_eq!(
            bits(&rows),
            bits(&oracle(&prefix, query)),
            "{query:?} at version {writes}"
        );
        prefixes_seen.insert(writes);
    }
    assert!(
        prefixes_seen.len() > 1,
        "every answer saw one version: no race"
    );
}

/// A memory store whose loads pass a barrier of two while `gated`: two
/// statements loading at once proceed in lockstep, so their loads overlap.
struct GatedStore {
    inner: MemoryMaskStore,
    gated: AtomicBool,
    barrier: Barrier,
}

impl MaskStore for GatedStore {
    fn apply_batch(
        &self,
        inserts: &[(MaskRecord, Mask)],
        deletes: &[MaskId],
    ) -> masksearch::storage::StorageResult<masksearch::storage::Stamp> {
        self.inner.apply_batch(inserts, deletes)
    }
    fn get_stamped(
        &self,
        id: MaskId,
    ) -> masksearch::storage::StorageResult<(Mask, masksearch::storage::Stamp)> {
        if self.gated.load(Ordering::SeqCst) {
            self.barrier.wait();
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
    fn io_stats(&self) -> Arc<masksearch::storage::IoStats> {
        self.inner.io_stats()
    }
}

#[test]
fn overlapping_statements_each_count_only_their_own_reads() {
    let data = images(0, 10);
    let store = Arc::new(GatedStore {
        inner: MemoryMaskStore::for_tests(),
        gated: AtomicBool::new(false),
        barrier: Barrier::new(2),
    });
    // No index and no cache: every candidate of either statement is
    // loaded, the same number for each.
    let session = session_over(store.clone(), &data, IndexingMode::Disabled);
    let of_model = |model| {
        Query::filter(Predicate::gt(Expr::cp(roi(), range(0.3, 1.0)), 12.0))
            .with_selection(Selection::all().with_model(ModelId::new(model)))
    };
    let (first, second) = (of_model(1), of_model(2));
    let reads = |query: &Query| {
        let stats = session.execute(query).unwrap().stats;
        (stats.masks_loaded, stats.bytes_read, stats.io_virtual)
    };
    let alone = (reads(&first), reads(&second));
    assert_eq!(alone.0 .0, 10);
    assert!(alone.0 .1 > 0 && alone.1 .1 > 0);

    store.gated.store(true, Ordering::SeqCst);
    let together = std::thread::scope(|scope| {
        let a = scope.spawn(|| reads(&first));
        let b = scope.spawn(|| reads(&second));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(together, alone);
}
