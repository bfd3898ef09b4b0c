//! Session-level oracle for in-place verification on the durable store.
//!
//! A verify that misses the mask cache reads only the rows of the CHI cells
//! its index leaves undecided (at most the rows its ROIs span) and counts
//! them where the store holds them. Every query shape of the
//! benchmark mix — ROI filter, object-box filter, compound predicate,
//! top-k, grouped `AVG` top-k, plus pair and `MASK_AGG` statements on the
//! untouched whole-mask path — must stay byte-identical to [`BruteForce`]
//! with the cache disabled, too small for the scan, and larger than the
//! data, lap after lap while masks move from "verified in place" to
//! "admitted" to "resident". Compressed blobs and incremental indexing take
//! the whole-mask path and match too.

use masksearch::baselines::BruteForce;
use masksearch::core::{ImageId, Mask, MaskId, MaskRecord, ModelId, PixelRange, Roi};
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::ChiConfig;
use masksearch::query::{
    Expr, IndexingMode, MaskJoin, Order, Query, QueryError, ResultRow, RoiSpec, Selection, Session,
    SessionConfig,
};
use masksearch::sql::compile;
use masksearch::storage::{Catalog, MaskEncoding, MaskStore};
use std::path::PathBuf;

const W: u32 = 48;
const H: u32 = 40;
const IMAGES: u64 = 40;
const PIXEL_BYTES: u64 = IMAGES * 2 * (W * H * 4) as u64;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-verify-in-place-{}-{}",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chi() -> ChiConfig {
    ChiConfig::new(8, 8, 16).unwrap()
}

/// Two models' masks per image: a blob whose centre and height vary with
/// the image over a hash-noise floor, so CHI bounds decide some candidates
/// of every query and leave the rest to the pixels.
fn dataset() -> Vec<(MaskRecord, Mask)> {
    (0..IMAGES * 2)
        .map(|id| {
            let (image, model) = (id / 2, id % 2 + 1);
            let cx = 10.0 + ((image * 7 + model * 5) % 28) as f32;
            let cy = 8.0 + ((image * 11 + model * 3) % 24) as f32;
            let peak = 0.55 + ((image * 13 + model) % 9) as f32 * 0.05;
            let mask = Mask::from_fn(W, H, move |x, y| {
                let (dx, dy) = (x as f32 - cx, y as f32 - cy);
                let noise = ((x * 31 + y * 17 + id as u32 * 7) % 23) as f32 / 100.0;
                (peak * (-(dx * dx + dy * dy) / 90.0).exp() + noise).min(0.999)
            });
            let x0 = (cx as u32).saturating_sub(9);
            let y0 = (cy as u32).saturating_sub(7);
            let record = MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(image))
                .model_id(ModelId::new(model))
                .shape(W, H)
                .object_box(Roi::new(x0, y0, (x0 + 18).min(W), (y0 + 14).min(H)).unwrap())
                .build();
            (record, mask)
        })
        .collect()
}

fn db_config() -> DbConfig {
    DbConfig::default().page_size(1024).chi_config(chi())
}

/// A database of [`dataset`], checkpointed and reopened so reads come from
/// the page file.
fn build_db(name: &str, config: DbConfig) -> (PathBuf, MaskDb) {
    let dir = temp_dir(name);
    {
        let db = MaskDb::open(&dir, config).unwrap();
        db.insert_masks(&dataset()).unwrap();
        db.checkpoint().unwrap();
    }
    let db = MaskDb::open(&dir, config).unwrap();
    (dir, db)
}

fn session(db: &MaskDb, cache_bytes: u64) -> Session {
    Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        SessionConfig::new(chi())
            .threads(2)
            .cache_bytes(cache_bytes)
            .indexing_mode(IndexingMode::Eager),
        db.chi_store(),
    )
}

/// The single-mask shapes, whose verifies can run in place.
fn single_mask_queries() -> Vec<(&'static str, Query)> {
    let sql = |s: &str| compile(s).unwrap_or_else(|e| panic!("{s}: {e}"));
    vec![
        (
            "roi filter",
            sql("SELECT mask_id FROM masks WHERE CP(mask, (12, 15, 36, 25), (0.5, 1.0)) > 60"),
        ),
        (
            "roi filter, clipped roi, one model",
            sql("SELECT mask_id FROM masks \
                 WHERE CP(mask, (30, 22, 90, 90), (0.3, 1.0)) > 40 AND model_id = 2"),
        ),
        (
            "object filter",
            sql("SELECT mask_id FROM masks WHERE CP(mask, object, (0.55, 1.0)) > 70"),
        ),
        (
            "compound: two rois and a ratio",
            sql("SELECT mask_id FROM masks \
                 WHERE CP(mask, (0, 2, 20, 9), (0.2, 1.0)) > 25 \
                 AND CP(mask, (28, 33, 48, 40), (0.1, 0.6)) < 120 \
                 AND CP(mask, object, (0.5, 1.0)) / CP(mask, full, (0.5, 1.0)) > 0.45"),
        ),
        (
            "top-k",
            sql(
                "SELECT mask_id, CP(mask, object, (0.5, 1.0)) AS c FROM masks \
                 ORDER BY c DESC LIMIT 10",
            ),
        ),
        (
            "top-k ascending on a rectangle",
            sql(
                "SELECT mask_id, CP(mask, (8, 10, 40, 30), (0.45, 1.0)) AS c FROM masks \
                 WHERE model_id = 1 ORDER BY c ASC LIMIT 7",
            ),
        ),
        (
            "grouped avg top-k",
            sql(
                "SELECT image_id, AVG(CP(mask, object, (0.5, 1.0))) AS s FROM masks \
                 GROUP BY image_id ORDER BY s DESC LIMIT 8",
            ),
        ),
    ]
}

/// Shapes that keep the whole-mask load.
fn whole_mask_queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "mask_agg",
            compile(
                "SELECT image_id, CP(INTERSECT(mask > 0.5), object, (0.5, 1.0)) AS s \
                 FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 8",
            )
            .unwrap(),
        ),
        (
            "pair",
            Query::pair_top_k(
                MaskJoin::new(
                    Selection::all().with_model(ModelId::new(1)),
                    Selection::all().with_model(ModelId::new(2)),
                ),
                Expr::iou(RoiSpec::FullMask, PixelRange::new(0.5, 1.0).unwrap()),
                6,
                Order::Desc,
            ),
        ),
    ]
}

fn oracle_rows(store: &dyn MaskStore, catalog: &Catalog, query: &Query) -> Vec<ResultRow> {
    let mut bf = BruteForce::new(catalog, query);
    for id in store.ids() {
        bf.consume(id, &store.get(id).unwrap()).unwrap();
    }
    bf.finish().unwrap()
}

/// Runs every query for three laps and checks each answer against the
/// oracle. Returns the masks verified in place over all of it.
fn laps_match_the_oracle(session: &Session, db: &MaskDb, what: &str) -> u64 {
    let (store, catalog) = (db.mask_store(), db.catalog());
    let queries: Vec<_> = single_mask_queries()
        .into_iter()
        .chain(whole_mask_queries())
        .collect();
    let expected: Vec<Vec<ResultRow>> = queries
        .iter()
        .map(|(_, q)| oracle_rows(store.as_ref(), &catalog, q))
        .collect();
    let mut in_place = 0;
    for lap in 0..3 {
        for ((name, query), expected) in queries.iter().zip(&expected) {
            let out = session.execute(query).unwrap();
            assert_eq!(&out.rows, expected, "{what}, lap {lap}: {name}");
            assert!(
                out.stats.verified_in_place <= out.stats.masks_loaded,
                "{what}, lap {lap}: {name}: {:?}",
                out.stats
            );
            in_place += out.stats.verified_in_place;
        }
    }
    in_place
}

#[test]
fn every_shape_matches_brute_force_at_every_cache_size() {
    let (dir, db) = build_db("shapes", db_config());
    for (what, cache_bytes) in [
        ("cache disabled", 0),
        ("cache 5% of pixel bytes", PIXEL_BYTES / 20),
        ("cache 2x pixel bytes", PIXEL_BYTES * 2),
    ] {
        let session = session(&db, cache_bytes);
        let in_place = laps_match_the_oracle(&session, &db, what);
        assert!(in_place > 0, "{what}: nothing was verified in place");
    }

    // With no cache every verify of a single-mask shape that reads is in
    // place, by CHI cell: each loaded mask cost its header and at most its
    // ROI rows, never the whole blob.
    let session = session(&db, 0);
    let blob_bytes = 32 + (W * H * 4) as u64;
    for (name, query) in single_mask_queries() {
        let stats = session.execute(&query).unwrap().stats;
        assert!(stats.masks_loaded > 0, "{name}: bounds decided everything");
        assert_eq!(stats.verified_in_place, stats.masks_loaded, "{name}");
        assert_eq!(stats.planner_kernel_off, 0, "{name}");
        assert!(stats.tiles_scanned > 0, "{name}");
        // At most rows 15..25 of 48 pixels for the first shape; never more
        // than the blob (the compound's `full` term spans every row).
        let rows_15_to_25 = 32 + 10 * (W * 4) as u64;
        if name == "roi filter" {
            assert!(stats.bytes_read <= stats.masks_loaded * rows_15_to_25);
        }
        assert!(
            stats.bytes_read <= stats.masks_loaded * blob_bytes,
            "{name}"
        );
    }
    for (name, query) in whole_mask_queries() {
        let stats = session.execute(&query).unwrap().stats;
        assert_eq!(stats.verified_in_place, 0, "{name}");
    }
    // The plan shows the count beside `loaded`.
    let (name, query) = &single_mask_queries()[0];
    let (plan, out) = session.explain_analyze(query).unwrap();
    let verify = plan.find("verify").expect("verify node");
    assert_eq!(
        verify.counter("in_place"),
        Some(out.stats.verified_in_place),
        "{name}"
    );
    assert!(plan.render().iter().any(|line| line.contains("in_place=")));
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn admission_follows_reuse_not_arrival() {
    let (dir, db) = build_db("admission", db_config());
    // Verifies most of the 80 masks: 20x what a 5% cache holds.
    let scan =
        compile("SELECT mask_id FROM masks WHERE CP(mask, (4, 4, 44, 36), (0.33, 1.0)) > 300")
            .unwrap();
    let expected = oracle_rows(db.mask_store().as_ref(), &db.catalog(), &scan);

    // A scan the cache cannot hold: nothing is admitted, so nothing is
    // evicted, however often it repeats.
    let cold = session(&db, PIXEL_BYTES / 20);
    for lap in 0..4 {
        let out = cold.execute(&scan).unwrap();
        assert_eq!(out.rows, expected);
        assert!(out.stats.verified > 20, "lap {lap}: {:?}", out.stats);
        assert_eq!(out.stats.verified_in_place, out.stats.verified, "lap {lap}");
    }
    assert!(cold.cache().is_empty());
    assert_eq!(cold.cache().stats().evictions, 0);
    assert_eq!(cold.cache().stats().hits, 0);

    // A working set that fits: verified in place on its first lap, loaded
    // whole and admitted on its second, all hits from the third.
    let hot = session(&db, PIXEL_BYTES * 2);
    let laps: Vec<_> = (0..4)
        .map(|_| {
            let out = hot.execute(&scan).unwrap();
            assert_eq!(out.rows, expected);
            out.stats
        })
        .collect();
    let verified = laps[0].verified;
    assert_eq!(laps[0].verified_in_place, verified);
    assert_eq!(
        (laps[1].masks_loaded, laps[1].verified_in_place),
        (verified, 0)
    );
    for stats in &laps[2..] {
        assert_eq!((stats.masks_loaded, stats.verified_in_place), (0, 0));
    }
    assert_eq!(hot.cache().len() as u64, verified);
    assert_eq!(hot.cache().stats().evictions, 0);

    // Explicit loads are admitted unconditionally, as before.
    let warmed = session(&db, PIXEL_BYTES * 2);
    for id in db.catalog().mask_ids() {
        warmed.load_mask(id).unwrap();
    }
    let out = warmed.execute(&scan).unwrap();
    assert_eq!(out.rows, expected);
    assert_eq!(out.stats.masks_loaded, 0);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn whole_mask_fallbacks_still_match() {
    // Compressed blobs cannot serve rows.
    let (dir, db) = build_db("compressed", db_config().encoding(MaskEncoding::Compressed));
    let compressed = session(&db, 0);
    assert_eq!(laps_match_the_oracle(&compressed, &db, "compressed"), 0);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();

    let (dir, db) = build_db("fallbacks", db_config());
    // Incremental indexing builds a mask's CHI from its whole pixels the
    // first time it is verified; once it has one, later verifies run in
    // place.
    let incremental = Session::new(
        db.mask_store(),
        db.catalog(),
        SessionConfig::new(chi())
            .threads(2)
            .indexing_mode(IndexingMode::Incremental),
    )
    .unwrap();
    let (_, first) = &single_mask_queries()[0];
    let stats = incremental.execute(first).unwrap().stats;
    assert_eq!(stats.indexes_built, IMAGES * 2);
    assert_eq!(stats.verified_in_place, 0);
    assert!(laps_match_the_oracle(&incremental, &db, "incremental") > 0);
    assert_eq!(incremental.indexed_masks() as u64, IMAGES * 2);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stored pixel outside `[0, 1)` is reported by an in-place verify
/// exactly as by a whole-mask load when it lies in the rows that are read —
/// and is not read otherwise.
#[test]
fn a_corrupt_pixel_in_the_band_is_the_whole_mask_loads_error() {
    let dir = temp_dir("corrupt");
    let victim = MaskId::new(5);
    {
        let db = MaskDb::open(&dir, db_config()).unwrap();
        let mut batch = dataset();
        // A sentinel value at (7, 20) of one mask, found again in the file.
        let mut pixels = batch[5].1.data().to_vec();
        pixels[(20 * W + 7) as usize] = 0.123_456_79;
        batch[5].1 = Mask::new(W, H, pixels).unwrap();
        db.insert_masks(&batch).unwrap();
        db.checkpoint().unwrap();
    }
    let file = dir.join("masks.db");
    let mut bytes = std::fs::read(&file).unwrap();
    let sentinel = 0.123_456_79f32.to_le_bytes();
    let at: Vec<usize> = (0..bytes.len() - 4)
        .filter(|&i| bytes[i..i + 4] == sentinel)
        .collect();
    assert_eq!(at.len(), 1, "the sentinel is unique in the page file");
    bytes[at[0]..at[0] + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    std::fs::write(&file, bytes).unwrap();

    let db = MaskDb::open(&dir, db_config()).unwrap();
    let session = session(&db, 0);
    let whole = QueryError::from(db.mask_store().get(victim).unwrap_err()).to_string();
    assert!(whole.contains("mask 5") && whole.contains("NaN"), "{whole}");
    // Row 20 is read: same error, same pixel index.
    let undecided = compile(
        "SELECT mask_id FROM masks WHERE CP(mask, (0, 18, 48, 24), (0.2, 0.9)) > 150 \
         AND mask_id IN (5)",
    )
    .unwrap();
    let err = session.execute(&undecided).unwrap_err().to_string();
    assert_eq!(err, whole);
    // Rows 30..38 only: the NaN is never read.
    let elsewhere = compile(
        "SELECT mask_id, CP(mask, (0, 30, 48, 38), (0.2, 0.9)) AS c FROM masks \
         WHERE mask_id IN (5) ORDER BY c DESC LIMIT 1",
    )
    .unwrap();
    let out = session.execute(&elsewhere).unwrap();
    assert_eq!(out.stats.verified_in_place, 1);
    assert_eq!(out.rows.len(), 1);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cold verify reads only the row bands of the CHI cells its index leaves
/// undecided: on a mask whose top half the range misses entirely and whose
/// bottom half straddles the range's lower edge inside one bin, the filter
/// bounds decide nothing, and the verify reads the bottom half's rows — not
/// the rows the ROI spans.
#[test]
fn a_cold_verify_reads_only_the_rows_of_undecided_cells() {
    let dir = temp_dir("undecided-rows");
    let (w, h) = (48u32, 48u32);
    let mask = Mask::from_fn(w, h, |x, y| {
        if y < h / 2 {
            0.1
        } else {
            // Bin 8 of 16, [0.5, 0.5625), around the range's edge 0.52.
            0.5 + ((x * 7 + y * 13) % 9) as f32 * 0.007
        }
    });
    let record = MaskRecord::builder(MaskId::new(1))
        .image_id(ImageId::new(1))
        .shape(w, h)
        .build();
    let roi = Roi::new(0, 0, w, h).unwrap();
    let range = PixelRange::new(0.52, 1.0).unwrap();
    let exact = mask.count_pixels(&roi, &range);
    {
        let db = MaskDb::open(&dir, db_config()).unwrap();
        db.insert_masks(&[(record, mask)]).unwrap();
        db.checkpoint().unwrap();
    }
    let db = MaskDb::open(&dir, db_config()).unwrap();
    let session = session(&db, 0);
    for (threshold, hit) in [(exact as f64 - 1.0, true), (exact as f64, false)] {
        let out = session
            .execute(&Query::filter_cp_gt(roi, range, threshold))
            .unwrap();
        assert_eq!(out.rows.len(), usize::from(hit));
        let s = &out.stats;
        assert_eq!((s.verified, s.verified_in_place, s.masks_loaded), (1, 1, 1));
        let row_bytes = u64::from(w) * 4;
        let roi_band = 32 + u64::from(h) * row_bytes;
        assert_eq!(s.bytes_read, 32 + u64::from(h / 2) * row_bytes);
        assert!(s.bytes_read < roi_band);
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A writer re-masks the masks a reader's filter and top-k statements
/// target after the statements pinned their version (catalog and CHI) and
/// before they verify, on the cold path (no cache: verified in place) and
/// the hot one (every mask resident, refreshed by the writes). The index a
/// statement holds then summarises pixels that are gone; every value it
/// returns must still be the exact count over one committed version of
/// that mask's pixels, and every row it returns must pass its predicate on
/// one of them.
#[test]
fn update_racing_verify_counts_one_version_of_the_pixels() {
    use masksearch::query::{MaskUpdate, RowKey};

    const MASKS: u64 = 12;
    // Two versions per mask, a blob on the left and one on the right: an
    // index of one and the pixels of the other disagree in most cells.
    let version = |id: u64, right: bool| {
        let cx = if right { 36.0 } else { 12.0 } + (id % 3) as f32;
        Mask::from_fn(W, H, move |x, y| {
            let (dx, dy) = (x as f32 - cx, y as f32 - 20.0);
            let noise = ((x * 31 + y * 17 + id as u32 * 7) % 23) as f32 / 100.0;
            (0.8 * (-(dx * dx + dy * dy) / 60.0).exp() + noise).min(0.999)
        })
    };
    let roi = Roi::new(4, 6, 44, 34).unwrap();
    let range = PixelRange::new(0.33, 0.9).unwrap();
    let counts: Vec<[u64; 2]> = (0..MASKS)
        .map(|id| [false, true].map(|right| version(id, right).count_pixels(&roi, &range)))
        .collect();
    let threshold = 100.0;
    let queries = [
        Query::filter_cp_gt(roi, range, threshold),
        Query::top_k_cp(roi, range, MASKS as usize, Order::Desc),
    ];

    for (what, cache_bytes) in [("cold", 0), ("hot", PIXEL_BYTES * 4)] {
        let dir = temp_dir(&format!("update-race-{what}"));
        let db = MaskDb::open(&dir, db_config().fsync(false)).unwrap();
        let batch: Vec<(MaskRecord, Mask)> = (0..MASKS)
            .map(|id| {
                let record = MaskRecord::builder(MaskId::new(id))
                    .image_id(ImageId::new(id))
                    .shape(W, H)
                    .build();
                (record, version(id, false))
            })
            .collect();
        db.insert_masks(&batch).unwrap();
        let session = session(&db, cache_bytes);
        let mut verified = 0;
        for round in 0..4u64 {
            for id in 0..MASKS {
                session.load_mask(MaskId::new(id)).unwrap();
            }
            let pinned = session.read_version();
            // Round r moves the blobs of every mask to side (r + 1) % 2,
            // and the statements verify against the index of side r % 2.
            let updates: Vec<MaskUpdate> = (0..MASKS)
                .map(|id| {
                    let mut update = MaskUpdate::of(MaskId::new(id));
                    update.pixels = Some(version(id, round % 2 == 0).into_data());
                    update
                })
                .collect();
            session.update_masks(&updates).unwrap();
            for query in &queries {
                let out = session.execute_at(&pinned, query).unwrap();
                verified += out.stats.verified;
                for row in &out.rows {
                    let RowKey::Mask(id) = row.key else {
                        panic!("a mask statement returned {row:?}");
                    };
                    let [left, right] = counts[id.raw() as usize];
                    match row.value {
                        Some(value) => assert!(
                            value == left as f64 || value == right as f64,
                            "{what}, round {round}: mask {id} counted {value}, not {left} or {right}"
                        ),
                        None => assert!(
                            left as f64 > threshold || right as f64 > threshold,
                            "{what}, round {round}: mask {id} passes on neither version"
                        ),
                    }
                }
            }
        }
        assert!(verified > 0, "{what}: nothing was verified");
        drop((session, db));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
