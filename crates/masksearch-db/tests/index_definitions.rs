//! Secondary-index definition files (`masks.idx.<col>`) and the files older
//! builds left behind: a checkpoint writes only the page file, the log and
//! the two index files; a version 1 definition file (with posting lists) and
//! a `masks.stats` from the version 1 fixtures are upgraded and removed on
//! open.

use masksearch_core::{ImageId, Mask, MaskId, MaskRecord, ModelId};
use masksearch_db::store::meta_index_file;
use masksearch_db::{DbConfig, DurableMaskStore, MaskDb, CHI_FILE, DB_FILE, WAL_FILE};
use masksearch_index::ChiConfig;
use masksearch_query::{Session, SessionConfig};
use masksearch_storage::codec::Writer;
use masksearch_storage::meta_index::{definition_bytes, META_INDEX_MAGIC};
use masksearch_storage::{MaskStore, MetaColumn, MetaIndexDef};
use std::collections::BTreeSet;
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-idx-def-test-{}-{}",
        name,
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The configuration the version 1 fixtures were written with.
fn config() -> DbConfig {
    DbConfig::default()
        .page_size(128)
        .chi_config(ChiConfig::new(2, 2, 4).unwrap())
        .checkpoint_wal_bytes(0)
}

fn batch(ids: std::ops::Range<u64>) -> Vec<(MaskRecord, Mask)> {
    ids.map(|id| {
        let record = MaskRecord::builder(MaskId::new(id))
            .image_id(ImageId::new(id / 2))
            .model_id(ModelId::new(id % 3))
            .shape(4, 4)
            .build();
        let mask = Mask::from_fn(4, 4, move |x, y| {
            ((x * 5 + y * 3 + id as u32) % 11) as f32 / 11.0
        });
        (record, mask)
    })
    .collect()
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// A version 1 definition file, as older builds wrote it: the header, then
/// the column's `(value, mask ids)` posting lists, with no checksum.
fn v1_file(def: &MetaIndexDef, postings: &[(u64, Vec<u64>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_bytes(&META_INDEX_MAGIC);
    w.write_u16(1);
    w.write_u16(def.column.to_code());
    w.write_string(&def.name);
    w.write_u64(postings.len() as u64);
    for (key, ids) in postings {
        w.write_u64(*key);
        w.write_u64(ids.len() as u64);
        for id in ids {
            w.write_u64(*id);
        }
    }
    w.into_bytes()
}

#[test]
fn a_checkpoint_writes_no_definition_file() {
    let dir = temp_dir("checkpoint");
    let db = MaskDb::open(&dir, config()).unwrap();
    let session = Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        SessionConfig::new(ChiConfig::new(2, 2, 4).unwrap()),
        db.chi_store(),
    );
    session.insert_masks(&batch(0..6)).unwrap();
    assert!(session
        .create_index("by_model", MetaColumn::ModelId, false)
        .unwrap());
    let idx_path = dir.join(meta_index_file(MetaColumn::ModelId));
    let written = fs::read(&idx_path).unwrap();
    let def = MetaIndexDef {
        name: "by_model".to_string(),
        column: MetaColumn::ModelId,
    };
    assert_eq!(written, definition_bytes(&def));
    let inode = fs::metadata(&idx_path).unwrap().ino();

    session.insert_masks(&batch(6..10)).unwrap();
    db.checkpoint().unwrap();
    session.delete_masks(&[MaskId::new(2)]).unwrap();
    db.checkpoint().unwrap();

    let expected: BTreeSet<String> = [DB_FILE, WAL_FILE, CHI_FILE]
        .into_iter()
        .map(String::from)
        .chain([meta_index_file(MetaColumn::ModelId)])
        .collect();
    assert_eq!(file_names(&dir), expected);
    // Untouched: the same bytes in the same file, never replaced.
    assert_eq!(fs::read(&idx_path).unwrap(), written);
    assert_eq!(fs::metadata(&idx_path).unwrap().ino(), inode);
    drop(session);
    drop(db);

    let store = DurableMaskStore::open(&dir, config()).unwrap();
    assert_eq!(store.meta_indexes().unwrap().list(), vec![def]);
    assert_eq!(fs::read(&idx_path).unwrap(), written);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_1_definitions_and_shape_statistics_are_upgraded_on_open() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for name in ["v1_with_wal", "v1_checkpointed"] {
        let dir = temp_dir(name);
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(fixtures.join(name)).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        assert!(
            dir.join("masks.stats").exists(),
            "{name} has no masks.stats"
        );
        let by_model = MetaIndexDef {
            name: "by_model".to_string(),
            column: MetaColumn::ModelId,
        };
        let by_image = MetaIndexDef {
            name: "by_image".to_string(),
            column: MetaColumn::ImageId,
        };
        // Postings that are stale for the fixture's data: they are never
        // read, so they cannot matter.
        let model_path = dir.join(meta_index_file(MetaColumn::ModelId));
        let image_path = dir.join(meta_index_file(MetaColumn::ImageId));
        fs::write(&model_path, v1_file(&by_model, &[(0, vec![1, 2, 99])])).unwrap();
        fs::write(
            &image_path,
            v1_file(&by_image, &[(0, vec![0, 1]), (1, vec![2, 3])]),
        )
        .unwrap();

        let store = DurableMaskStore::open(&dir, config()).unwrap();
        assert_eq!(
            store.meta_indexes().unwrap().list(),
            vec![by_image.clone(), by_model.clone()]
        );
        assert_eq!(store.len(), 5);
        drop(store);
        assert!(!dir.join("masks.stats").exists(), "{name}");
        assert_eq!(fs::read(&model_path).unwrap(), definition_bytes(&by_model));
        assert_eq!(fs::read(&image_path).unwrap(), definition_bytes(&by_image));

        // The upgraded files open as they are.
        let store = DurableMaskStore::open(&dir, config()).unwrap();
        assert_eq!(store.meta_indexes().unwrap().len(), 2);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}
