//! Page-level constants, the meta page, and the checksum used to detect torn
//! WAL records.

pub use masksearch_storage::codec::checksum64;
use masksearch_storage::codec::{Reader, Writer};
use masksearch_storage::{StorageError, StorageResult};

/// A page number. Page 0 is the meta page.
pub type PageNo = u64;

/// The page holding the database header.
pub const META_PAGE: PageNo = 0;

/// Magic bytes identifying a mask database file.
pub const DB_MAGIC: [u8; 4] = *b"MSDB";

/// Database file format version.
///
/// History: v1 — every commit rewrote the directory extent and this page;
/// v2 — same layout, but the directory extent is as of the last checkpoint
/// and the WAL carries directory deltas on top of it (see [`crate::wal`]).
/// The bump exists so a v1 build, which cannot replay deltas, refuses a v2
/// database instead of serving a stale directory. v1 files open as they
/// are and become v2 at their first checkpoint.
pub const DB_FORMAT_VERSION: u16 = 2;

/// Smallest supported page size. The meta page must fit in one page, and
/// pages this small keep the kill-at-every-byte recovery tests fast.
pub const MIN_PAGE_SIZE: u32 = 128;

/// The decoded meta page: everything needed to locate the rest of the
/// database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Page size the file was written with.
    pub page_size: u32,
    /// Number of pages the database logically spans (the file may be shorter
    /// when recent pages live only in the WAL).
    pub page_count: u64,
    /// Next transaction id to assign.
    pub next_txn_id: u64,
    /// First page of the directory extent.
    pub dir_start: PageNo,
    /// Number of pages in the directory extent.
    pub dir_pages: u32,
    /// Meaningful byte length of the directory payload.
    pub dir_bytes: u64,
}

impl Meta {
    /// Serialises the meta block into a full zero-padded page image.
    pub fn encode_page(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.page_size as usize);
        w.write_bytes(&DB_MAGIC);
        w.write_u16(DB_FORMAT_VERSION);
        w.write_u16(0);
        w.write_u32(self.page_size);
        w.write_u64(self.page_count);
        w.write_u64(self.next_txn_id);
        w.write_u64(self.dir_start);
        w.write_u32(self.dir_pages);
        w.write_u64(self.dir_bytes);
        let mut page = w.into_bytes();
        page.resize(self.page_size as usize, 0);
        page
    }

    /// Decodes a meta page, validating magic, version, and page size.
    pub fn decode_page(bytes: &[u8], expected_page_size: u32) -> StorageResult<Self> {
        let mut r = Reader::new(bytes, "mask database meta page");
        let magic = r.read_magic()?;
        if magic != DB_MAGIC {
            return Err(StorageError::BadMagic {
                path: "<mask database>".to_string(),
                found: magic,
            });
        }
        let version = r.read_u16()?;
        if version > DB_FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion {
                found: version,
                supported: DB_FORMAT_VERSION,
            });
        }
        let _reserved = r.read_u16()?;
        let page_size = r.read_u32()?;
        if page_size != expected_page_size {
            return Err(StorageError::corrupt(format!(
                "database was written with page size {page_size}, opened with {expected_page_size}"
            )));
        }
        Ok(Meta {
            page_size,
            page_count: r.read_u64()?,
            next_txn_id: r.read_u64()?,
            dir_start: r.read_u64()?,
            dir_pages: r.read_u32()?,
            dir_bytes: r.read_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips_through_a_page_image() {
        let meta = Meta {
            page_size: 256,
            page_count: 17,
            next_txn_id: 9,
            dir_start: 3,
            dir_pages: 2,
            dir_bytes: 301,
        };
        let page = meta.encode_page();
        assert_eq!(page.len(), 256);
        assert_eq!(Meta::decode_page(&page, 256).unwrap(), meta);
    }

    #[test]
    fn meta_rejects_bad_magic_and_mismatched_page_size() {
        let meta = Meta {
            page_size: 256,
            page_count: 1,
            next_txn_id: 1,
            dir_start: 0,
            dir_pages: 0,
            dir_bytes: 0,
        };
        let mut page = meta.encode_page();
        assert!(matches!(
            Meta::decode_page(&page, 512),
            Err(StorageError::Corrupt { .. })
        ));
        page[0] = b'Z';
        assert!(matches!(
            Meta::decode_page(&page, 256),
            Err(StorageError::BadMagic { .. })
        ));
    }

    #[test]
    fn checksum_differs_on_any_flipped_byte() {
        let base = checksum64(&[b"hello", b"world"]);
        assert_eq!(base, checksum64(&[b"hello", b"world"]));
        assert_ne!(base, checksum64(&[b"hellO", b"world"]));
        assert_ne!(base, checksum64(&[b"hello", b"worlD"]));
    }
}
