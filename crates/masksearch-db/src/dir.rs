//! The mask directory: where each mask's pages live, plus its catalog
//! record.
//!
//! The directory is the database's only piece of variable-size metadata. A
//! commit logs what it changes as a [`DirDelta`] in the same WAL transaction
//! as the pixels, so a mask's pixels and its metadata can never be separated
//! by a crash; the whole directory is serialised into its own page extent
//! (pointed to by the meta page) once per checkpoint. Embedding the full
//! [`MaskRecord`] also lets [`crate::MaskDb::catalog`] rebuild the query
//! layer's catalog after recovery.

use crate::page::PageNo;
use masksearch_core::{MaskId, MaskRecord};
use masksearch_storage::catalog::{read_record, write_record};
use masksearch_storage::codec::{Reader, Writer};
use masksearch_storage::{StorageError, StorageResult};
use std::collections::BTreeMap;

/// Magic bytes prefixing a serialised directory.
pub const DIR_MAGIC: [u8; 4] = *b"MSDE";
/// Magic bytes prefixing a serialised directory delta.
pub const DELTA_MAGIC: [u8; 4] = *b"MSDD";

/// Location and metadata of one stored mask.
#[derive(Debug, Clone, PartialEq)]
pub struct BlobEntry {
    /// First page of the blob extent.
    pub start: PageNo,
    /// Number of contiguous pages in the extent.
    pub pages: u32,
    /// Meaningful byte length of the encoded mask blob.
    pub bytes: u64,
    /// The mask's catalog record.
    pub record: MaskRecord,
}

/// Map from mask id to blob location, serialisable into the directory
/// extent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Directory {
    /// All stored masks, keyed by id.
    pub entries: BTreeMap<MaskId, BlobEntry>,
}

fn write_entry(w: &mut Writer, entry: &BlobEntry) {
    w.write_u64(entry.start);
    w.write_u32(entry.pages);
    w.write_u64(entry.bytes);
    write_record(w, &entry.record);
}

fn read_entry(r: &mut Reader<'_>) -> StorageResult<BlobEntry> {
    Ok(BlobEntry {
        start: r.read_u64()?,
        pages: r.read_u32()?,
        bytes: r.read_u64()?,
        record: read_record(r)?,
    })
}

fn expect_magic(r: &mut Reader<'_>, expected: [u8; 4], what: &str) -> StorageResult<()> {
    let found = r.read_magic()?;
    if found != expected {
        return Err(StorageError::BadMagic {
            path: format!("<{what}>"),
            found,
        });
    }
    Ok(())
}

/// What one commit changes in the directory: the payload of a WAL delta
/// frame. Applying a log's deltas in order to the directory they started
/// from — or to any later state of the same history — ends in the state the
/// last one left, which is what lets recovery replay a log over a page file
/// that a checkpoint had already brought up to date.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirDelta {
    /// Ids whose entries the commit removed (applied before `upserts`, so a
    /// delete and re-insert of one id in one batch keeps the insert).
    pub removed: Vec<MaskId>,
    /// Entries the commit inserted or replaced.
    pub upserts: Vec<BlobEntry>,
    /// Pages the database logically spans after the commit.
    pub page_count: u64,
}

impl DirDelta {
    /// Serialises the delta.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_bytes(&DELTA_MAGIC);
        w.write_u64(self.page_count);
        w.write_u32(self.removed.len() as u32);
        for id in &self.removed {
            w.write_u64(id.raw());
        }
        w.write_u32(self.upserts.len() as u32);
        for entry in &self.upserts {
            write_entry(&mut w, entry);
        }
        w.into_bytes()
    }

    /// Deserialises a delta written by [`DirDelta::encode`].
    pub fn decode(bytes: &[u8]) -> StorageResult<Self> {
        let mut r = Reader::new(bytes, "mask database directory delta");
        expect_magic(&mut r, DELTA_MAGIC, "mask database directory delta")?;
        let page_count = r.read_u64()?;
        let removed = (0..r.read_u32()?)
            .map(|_| r.read_u64().map(MaskId::new))
            .collect::<StorageResult<_>>()?;
        let upserts = (0..r.read_u32()?)
            .map(|_| read_entry(&mut r))
            .collect::<StorageResult<_>>()?;
        if r.remaining() != 0 {
            return Err(StorageError::corrupt(
                "trailing bytes after a directory delta",
            ));
        }
        Ok(Self {
            removed,
            upserts,
            page_count,
        })
    }
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one commit's changes. Removing an id that is not there is
    /// not an error: recovery may replay a delta over a directory that
    /// already reflects it.
    pub fn apply(&mut self, delta: DirDelta) {
        for id in &delta.removed {
            self.entries.remove(id);
        }
        for entry in delta.upserts {
            self.entries.insert(entry.record.mask_id, entry);
        }
    }

    /// Serialises the directory.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_bytes(&DIR_MAGIC);
        w.write_u64(self.entries.len() as u64);
        for (id, entry) in &self.entries {
            debug_assert_eq!(*id, entry.record.mask_id);
            write_entry(&mut w, entry);
        }
        w.into_bytes()
    }

    /// Deserialises a directory written by [`Directory::encode`].
    pub fn decode(bytes: &[u8]) -> StorageResult<Self> {
        let mut r = Reader::new(bytes, "mask database directory");
        expect_magic(&mut r, DIR_MAGIC, "mask database directory")?;
        let count = r.read_u64()?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let entry = read_entry(&mut r)?;
            entries.insert(entry.record.mask_id, entry);
        }
        Ok(Self { entries })
    }

    /// Total bytes of all stored blobs.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{ImageId, Roi};

    fn entry(id: u64, start: PageNo, pages: u32, bytes: u64) -> BlobEntry {
        BlobEntry {
            start,
            pages,
            bytes,
            record: MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(id / 2))
                .shape(16, 16)
                .object_box(Roi::new(1, 1, 9, 9).unwrap())
                .build(),
        }
    }

    #[test]
    fn directory_round_trips() {
        let mut dir = Directory::new();
        dir.entries.insert(MaskId::new(3), entry(3, 1, 2, 500));
        dir.entries.insert(MaskId::new(7), entry(7, 3, 1, 96));
        let decoded = Directory::decode(&dir.encode()).unwrap();
        assert_eq!(decoded, dir);
        assert_eq!(decoded.total_bytes(), 596);
    }

    #[test]
    fn delta_round_trips_and_replays_idempotently() {
        let mut dir = Directory::new();
        dir.entries.insert(MaskId::new(3), entry(3, 1, 2, 500));
        dir.entries.insert(MaskId::new(7), entry(7, 3, 1, 96));
        let deltas = [
            DirDelta {
                removed: vec![MaskId::new(7)],
                upserts: vec![entry(3, 4, 2, 480), entry(9, 6, 1, 90)],
                page_count: 7,
            },
            // Deletes and re-inserts id 9 in one batch: the insert wins.
            DirDelta {
                removed: vec![MaskId::new(9), MaskId::new(3)],
                upserts: vec![entry(9, 1, 1, 70)],
                page_count: 7,
            },
        ];
        for delta in &deltas {
            assert_eq!(&DirDelta::decode(&delta.encode()).unwrap(), delta);
            let bytes = delta.encode();
            assert!(DirDelta::decode(&bytes[..bytes.len() - 1]).is_err());
        }
        for delta in deltas.iter().cloned() {
            dir.apply(delta);
        }
        let mut expected = Directory::new();
        expected.entries.insert(MaskId::new(9), entry(9, 1, 1, 70));
        assert_eq!(dir, expected);
        // Replaying the whole sequence over its own result changes nothing.
        for delta in deltas {
            dir.apply(delta);
        }
        assert_eq!(dir, expected);
    }

    #[test]
    fn empty_directory_round_trips() {
        let dir = Directory::new();
        assert_eq!(Directory::decode(&dir.encode()).unwrap(), dir);
    }

    #[test]
    fn corrupt_directory_is_rejected() {
        let mut dir = Directory::new();
        dir.entries.insert(MaskId::new(1), entry(1, 1, 1, 10));
        let mut bytes = dir.encode();
        bytes[0] = b'Z';
        assert!(matches!(
            Directory::decode(&bytes),
            Err(StorageError::BadMagic { .. })
        ));
        let bytes = dir.encode();
        assert!(Directory::decode(&bytes[..bytes.len() - 3]).is_err());
    }
}
