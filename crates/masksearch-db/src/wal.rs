//! The write-ahead log: commit durability and crash recovery.
//!
//! A commit appends one *page frame* per page it writes (the full
//! after-image of a mask extent's page), one *delta frame* saying what it
//! changes in the directory, and a *commit frame*, then optionally fsyncs.
//! A checkpoint — and the bootstrap of an empty database — instead logs the
//! whole directory as page frames (directory extent + meta page 0) with no
//! delta. A transaction is durable exactly when its commit frame is fully on
//! disk:
//!
//! ```text
//! wal file     = header , frame*
//! header       = "MSWL" , version u16 , reserved u16 , page_size u32
//! page frame   = 0x01 , txn_id u64 , page_no u64 , len u32 , checksum u64 , payload
//! delta frame  = 0x03 , txn_id u64 , len u32 , checksum u64 , payload   (a `DirDelta`)
//! commit frame = 0x02 , txn_id u64 , frame_count u32 , checksum u64
//! ```
//!
//! All checksums are [`checksum64`] over the frame's header fields and
//! payload. Recovery scans the log from the start and replays only
//! transactions whose every frame (including the commit frame) is intact;
//! the first torn, checksum-mismatched, or unknown record ends the scan, and
//! the file is truncated back to the last committed boundary so later
//! appends can never hide behind garbage.
//!
//! A commit writes its frames with vectored writes: each page frame's
//! header is computed beside the caller's extent buffer and the pages are
//! gathered straight from it ([`Wal::append_extents`]), never copied into a
//! staging buffer.
//!
//! ## Recycling
//!
//! An automatic checkpoint does not give the log's blocks back: it zeroes
//! the first frame's header (its kind byte first: an unknown kind ends the
//! scan), syncs, and the next commits overwrite the file from offset 12 on,
//! so their fdatasyncs rewrite blocks the file already owns instead of
//! allocating new ones ([`Wal::recycle`]). Zeroing the whole header, not
//! just the kind, means no partly written new frame can complete the old
//! one's header and checksum and bring the previous generation back. Frames
//! of earlier generations stay in the file past the live tail. One scan
//! rule keeps them out: **transaction ids only increase** within a log (the
//! store's ids survive checkpoints), so a committed transaction whose id is
//! not greater than the previous one ends the scan, and inside a
//! transaction a frame of another id already does. Opening the log still
//! cuts everything past its last committed transaction, a failed append
//! still truncates, and an explicit checkpoint still empties the file
//! ([`Wal::reset`]).
//!
//! Version 1 logs (no delta frames, every transaction carries the directory
//! extent and page 0, FNV-1a checksums) are scanned with their own checksum
//! and rewritten in the current version when opened — their transactions
//! replay under the same rule as a checkpoint's. Version 2 logs were never
//! recycled; they open as they are and are relabelled version 3, the
//! version whose files may hold stale frames, so a version 2 build refuses
//! them instead of replaying those. A build refuses any newer log.

use crate::atomic::replace_file;
use crate::dir::DirDelta;
use crate::page::{checksum64, PageNo};
use masksearch_storage::{StorageError, StorageResult};
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Magic bytes identifying a WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"MSWL";
/// WAL format version.
pub const WAL_VERSION: u16 = 3;
/// Byte length of the WAL file header.
pub const WAL_HEADER_LEN: u64 = 12;

const FRAME_PAGE: u8 = 1;
const FRAME_COMMIT: u8 = 2;
const FRAME_DELTA: u8 = 3;
/// Bytes of a page frame before its payload: kind, txn id, page number,
/// length, checksum.
const PAGE_FRAME_HEADER_LEN: usize = 29;

type Checksum = fn(&[&[u8]]) -> u64;

/// The checksum of version 1 logs: byte-serial 64-bit FNV-1a.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in *part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One committed transaction recovered from the log, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedTxn {
    /// Transaction id recorded in the frames.
    pub txn_id: u64,
    /// Page after-images, in append order.
    pub pages: Vec<(PageNo, Vec<u8>)>,
    /// The commit's directory changes. `None` for a transaction that carries
    /// the whole directory instead (its pages include page 0).
    pub delta: Option<DirDelta>,
}

/// An open write-ahead log positioned for appending.
pub struct Wal {
    file: File,
    path: PathBuf,
    page_size: u32,
    len: u64,
}

impl Wal {
    /// Opens (creating if needed) the WAL at `path`, recovers every committed
    /// transaction, truncates any torn tail, and returns the log positioned
    /// for appending together with the recovered transactions.
    pub fn open(
        path: impl Into<PathBuf>,
        page_size: u32,
    ) -> StorageResult<(Self, Vec<CommittedTxn>)> {
        let path = path.into();
        let open = |path: &Path| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)
                .map_err(|e| StorageError::io(format!("opening wal {}", path.display()), e))
        };
        let mut file = open(&path)?;
        let mut file_len = file
            .metadata()
            .map_err(|e| StorageError::io("reading wal metadata", e))?
            .len();

        let (committed, valid_len) = if file_len < WAL_HEADER_LEN {
            // Empty or torn-before-header: start fresh.
            write_header(&mut file, page_size, &path)?;
            (Vec::new(), WAL_HEADER_LEN)
        } else {
            let mut bytes = Vec::with_capacity(file_len as usize);
            file.seek(SeekFrom::Start(0))
                .and_then(|_| file.read_to_end(&mut bytes))
                .map_err(|e| StorageError::io(format!("reading wal {}", path.display()), e))?;
            let (version, stored) = read_header(&bytes)?;
            if stored != page_size {
                return Err(StorageError::corrupt(format!(
                    "wal was written with page size {stored}, opened with {page_size}"
                )));
            }
            let checksum: Checksum = if version < 2 { fnv1a64 } else { checksum64 };
            let (committed, consumed) =
                scan(&bytes[WAL_HEADER_LEN as usize..], page_size, checksum);
            if version < 2 {
                // Upgrade in place: the same transactions under the current
                // header and checksum, swapped in atomically.
                let mut image = header_bytes(page_size);
                for txn in &committed {
                    encode_txn(&mut image, txn.txn_id, &txn.pages, txn.delta.as_ref());
                }
                replace_file(&path, &image, "upgraded wal", true)?;
                file = open(&path)?;
                file_len = image.len() as u64;
                (committed, file_len)
            } else {
                if version < WAL_VERSION {
                    file.write_all_at(&WAL_VERSION.to_le_bytes(), 4)
                        .and_then(|()| file.sync_data())
                        .map_err(|e| StorageError::io("relabelling a version 2 wal", e))?;
                }
                (committed, WAL_HEADER_LEN + consumed as u64)
            }
        };

        // Drop the torn tail so future appends are reachable by recovery.
        if valid_len < file_len {
            file.set_len(valid_len)
                .map_err(|e| StorageError::io("truncating torn wal tail", e))?;
            file.sync_all()
                .map_err(|e| StorageError::io("syncing wal after tail truncation", e))?;
        }
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| StorageError::io("seeking wal append position", e))?;

        Ok((
            Self {
                file,
                path,
                page_size,
                len: valid_len,
            },
            committed,
        ))
    }

    /// Bytes currently in the log (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    /// Appends one transaction — a page frame for every page of `extents`
    /// (each a first page and a whole number of pages), the directory delta
    /// if there is one, and the commit frame — and, when `fsync` is set,
    /// makes it durable before returning. Returns the number of bytes
    /// appended.
    ///
    /// The frames are the same bytes as page images of those pages would
    /// give ([`Wal::append_txn`]): headers are computed here, the pages are
    /// gathered straight from `extents` by vectored writes.
    pub fn append_extents(
        &mut self,
        txn_id: u64,
        extents: &[(PageNo, &[u8])],
        delta: Option<&DirDelta>,
        fsync: bool,
    ) -> StorageResult<u64> {
        let page_size = self.page_size as usize;
        assert!(
            extents
                .iter()
                .all(|(_, bytes)| !bytes.is_empty() && bytes.len().is_multiple_of(page_size)),
            "wal extents must be whole pages"
        );
        let pages = || {
            extents
                .iter()
                .flat_map(move |&(start, bytes)| (start..).zip(bytes.chunks_exact(page_size)))
        };
        let page_count = extents.iter().map(|(_, b)| b.len() / page_size).sum();
        let mut headers = Vec::with_capacity(page_count * PAGE_FRAME_HEADER_LEN);
        for (page_no, image) in pages() {
            push_page_frame_header(&mut headers, txn_id, page_no, image);
        }
        let mut tail = Vec::new();
        push_txn_end(&mut tail, txn_id, page_count, delta);
        let mut slices: Vec<IoSlice<'_>> = headers
            .chunks_exact(PAGE_FRAME_HEADER_LEN)
            .zip(pages())
            .flat_map(|(header, (_, image))| [IoSlice::new(header), IoSlice::new(image)])
            .chain([IoSlice::new(&tail)])
            .collect();
        let len = (headers.len() + page_count * page_size + tail.len()) as u64;
        let written = write_all_vectored(&mut self.file, &mut slices)
            .map_err(|e| StorageError::io("appending wal transaction", e))
            .and_then(|()| match fsync {
                true => self
                    .file
                    .sync_data()
                    .map_err(|e| StorageError::io("fsyncing wal commit", e)),
                false => Ok(()),
            });
        if let Err(e) = written {
            // The caller will treat the transaction as not committed, so it
            // must not stay in the log (whole or in part) for recovery to
            // replay or for the next append to hide behind.
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            return Err(e);
        }
        self.len += len;
        Ok(len)
    }

    /// [`Wal::append_extents`] of one-page extents: the form for page
    /// images (the bootstrap, a checkpoint's directory and meta page).
    pub fn append_txn(
        &mut self,
        txn_id: u64,
        pages: &[(PageNo, Vec<u8>)],
        delta: Option<&DirDelta>,
        fsync: bool,
    ) -> StorageResult<u64> {
        debug_assert!(pages
            .iter()
            .all(|(_, image)| image.len() == self.page_size as usize));
        let extents: Vec<(PageNo, &[u8])> = pages
            .iter()
            .map(|(page_no, image)| (*page_no, image.as_slice()))
            .collect();
        self.append_extents(txn_id, &extents, delta, fsync)
    }

    /// Starts the log over in the blocks it already owns (the automatic
    /// checkpoint's step; see the module docs): zeroes the first frame's
    /// header, syncs, and appends from offset 12 on again. The caller must
    /// have made the database file durable first.
    pub fn recycle(&mut self) -> StorageResult<()> {
        // A log with no live frame ends at its header or at a zero byte.
        // One with a live transaction holds more than a page frame's header.
        if self.len > WAL_HEADER_LEN {
            self.file
                .write_all_at(&[0; PAGE_FRAME_HEADER_LEN], WAL_HEADER_LEN)
                .and_then(|()| self.file.sync_data())
                .map_err(|e| StorageError::io("recycling wal at checkpoint", e))?;
        }
        self.file
            .seek(SeekFrom::Start(WAL_HEADER_LEN))
            .map_err(|e| StorageError::io("seeking recycled wal", e))?;
        self.len = WAL_HEADER_LEN;
        Ok(())
    }

    /// Empties the log back to a bare header (the explicit checkpoint's
    /// step). The caller must have made the database file durable first.
    pub fn reset(&mut self) -> StorageResult<()> {
        self.file
            .set_len(0)
            .map_err(|e| StorageError::io("truncating wal at checkpoint", e))?;
        write_header(&mut self.file, self.page_size, &self.path)?;
        self.len = WAL_HEADER_LEN;
        Ok(())
    }
}

fn header_bytes(page_size: u32) -> Vec<u8> {
    let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
    header.extend_from_slice(&WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes());
    header.extend_from_slice(&page_size.to_le_bytes());
    header
}

fn write_header(file: &mut File, page_size: u32, path: &Path) -> StorageResult<()> {
    file.seek(SeekFrom::Start(0))
        .map_err(|e| StorageError::io("seeking wal header", e))?;
    file.write_all(&header_bytes(page_size))
        .and_then(|_| file.sync_data())
        .map_err(|e| StorageError::io(format!("writing wal header {}", path.display()), e))
}

/// Appends a frame's header: kind, transaction id, the kind's own header
/// fields, and the checksum over all of those plus the payload that must
/// follow it.
fn push_frame_header(buf: &mut Vec<u8>, kind: u8, txn_id: u64, fields: &[u8], payload: &[u8]) {
    let start = buf.len();
    buf.push(kind);
    buf.extend_from_slice(&txn_id.to_le_bytes());
    buf.extend_from_slice(fields);
    let checksum = checksum64(&[&buf[start..], payload]);
    buf.extend_from_slice(&checksum.to_le_bytes());
}

/// Appends the header of the page frame carrying `image` as page `page_no`.
fn push_page_frame_header(buf: &mut Vec<u8>, txn_id: u64, page_no: PageNo, image: &[u8]) {
    let mut fields = [0u8; 12];
    fields[..8].copy_from_slice(&page_no.to_le_bytes());
    fields[8..].copy_from_slice(&(image.len() as u32).to_le_bytes());
    push_frame_header(buf, FRAME_PAGE, txn_id, &fields, image);
}

/// Appends what follows a transaction's `pages` page frames: its delta
/// frame, if any, and its commit frame.
fn push_txn_end(buf: &mut Vec<u8>, txn_id: u64, pages: usize, delta: Option<&DirDelta>) {
    if let Some(delta) = delta {
        let payload = delta.encode();
        let fields = (payload.len() as u32).to_le_bytes();
        push_frame_header(buf, FRAME_DELTA, txn_id, &fields, &payload);
        buf.extend_from_slice(&payload);
    }
    let frames = pages as u32 + delta.is_some() as u32;
    push_frame_header(buf, FRAME_COMMIT, txn_id, &frames.to_le_bytes(), &[]);
}

/// Appends the frames of one whole transaction to `buf`.
fn encode_txn(
    buf: &mut Vec<u8>,
    txn_id: u64,
    pages: &[(PageNo, Vec<u8>)],
    delta: Option<&DirDelta>,
) {
    for (page_no, image) in pages {
        push_page_frame_header(buf, txn_id, *page_no, image);
        buf.extend_from_slice(image);
    }
    push_txn_end(buf, txn_id, pages.len(), delta);
}

/// Writes every byte of `slices` at the file's position, however many
/// vectored writes that takes (each takes at most the system's iovec limit,
/// and may stop short).
fn write_all_vectored(file: &mut File, mut slices: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !slices.is_empty() {
        match file.write_vectored(slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(written) => IoSlice::advance_slices(&mut slices, written),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Validates magic and version of a WAL byte image; returns the version and
/// the page size it was written with.
fn read_header(bytes: &[u8]) -> StorageResult<(u16, u32)> {
    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(StorageError::corrupt(
            "wal shorter than its header".to_string(),
        ));
    }
    if bytes[0..4] != WAL_MAGIC {
        return Err(StorageError::BadMagic {
            path: "<wal>".to_string(),
            found: [bytes[0], bytes[1], bytes[2], bytes[3]],
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version == 0 || version > WAL_VERSION {
        return Err(StorageError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let page_size = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    Ok((version, page_size))
}

/// Scans WAL frames (`bytes` starts at a frame boundary: the log's body)
/// for committed transactions, checking each frame with `checksum`, and
/// returns them in commit order together with the number of bytes up to
/// the end of the last committed one. Anything after that — an unfinished
/// transaction, a torn record, random garbage — is ignored, so a crash at
/// *any* byte boundary recovers to a committed prefix.
fn scan(bytes: &[u8], page_size: u32, checksum: Checksum) -> (Vec<CommittedTxn>, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    // The frame at `pos` with a `header_len`-byte header (whose u32 at
    // `len_at`, if any, is the payload's length) and a stored checksum, if
    // it is whole and intact: its payload and the offset just past it.
    let frame = |pos: usize, header_len: usize, len_at: Option<usize>| {
        let header = bytes.get(pos..pos + header_len + 8)?;
        let payload_len = len_at.map_or(0, |at| u32_at(pos + at) as usize);
        let payload_at = pos + header_len + 8;
        let payload = bytes.get(payload_at..payload_at.checked_add(payload_len)?)?;
        (checksum(&[&header[..header_len], payload]) == u64_at(pos + header_len))
            .then_some((payload, payload_at + payload_len))
    };

    let mut committed: Vec<CommittedTxn> = Vec::new();
    let mut pos = 0usize;
    let mut valid_len = 0usize;
    let mut pages: Vec<(PageNo, Vec<u8>)> = Vec::new();
    let mut delta: Option<DirDelta> = None;
    let mut pending_txn: Option<u64> = None;

    while let Some(&frame_type) = bytes.get(pos) {
        // A frame of another transaction before the pending one committed:
        // the writer never interleaves, so this is corruption — stop.
        let joins_pending = |txn_id: u64| pending_txn.is_none_or(|t| t == txn_id);
        match frame_type {
            FRAME_PAGE => {
                let Some((payload, end)) = frame(pos, 21, Some(17)) else {
                    break;
                };
                let txn_id = u64_at(pos + 1);
                if payload.len() != page_size as usize || !joins_pending(txn_id) || delta.is_some()
                {
                    break;
                }
                pending_txn = Some(txn_id);
                pages.push((u64_at(pos + 9), payload.to_vec()));
                pos = end;
            }
            FRAME_DELTA => {
                let Some((payload, end)) = frame(pos, 13, Some(9)) else {
                    break;
                };
                let txn_id = u64_at(pos + 1);
                let Ok(decoded) = DirDelta::decode(payload) else {
                    break;
                };
                if !joins_pending(txn_id) || delta.is_some() {
                    break;
                }
                pending_txn = Some(txn_id);
                delta = Some(decoded);
                pos = end;
            }
            FRAME_COMMIT => {
                let Some((_, end)) = frame(pos, 13, None) else {
                    break;
                };
                let frames = pages.len() + delta.is_some() as usize;
                let txn_id = u64_at(pos + 1);
                // Ids only increase: one that does not is a transaction of
                // an earlier generation of a recycled log.
                let stale = committed.last().is_some_and(|last| last.txn_id >= txn_id);
                if pending_txn != Some(txn_id) || u32_at(pos + 9) as usize != frames || stale {
                    break;
                }
                committed.push(CommittedTxn {
                    txn_id,
                    pages: std::mem::take(&mut pages),
                    delta: delta.take(),
                });
                pending_txn = None;
                pos = end;
                valid_len = pos;
            }
            _ => break,
        }
    }
    (committed, valid_len)
}

#[cfg(test)]
impl Wal {
    /// A log on a full disk: every append fails with `ENOSPC`.
    pub(crate) fn on_full_disk(page_size: u32) -> Self {
        let path = PathBuf::from("/dev/full");
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        Self {
            file,
            path,
            page_size,
            len: WAL_HEADER_LEN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "masksearch-wal-test-{}-{}.wal",
            name,
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn page(fill: u8, size: usize) -> Vec<u8> {
        vec![fill; size]
    }

    #[test]
    fn append_and_recover_round_trip() {
        let path = temp_wal("roundtrip");
        {
            let (mut wal, committed) = Wal::open(&path, 64).unwrap();
            assert!(committed.is_empty());
            assert!(wal.is_empty());
            wal.append_txn(1, &[(0, page(0xaa, 64)), (3, page(0xbb, 64))], None, true)
                .unwrap();
            wal.append_txn(2, &[(3, page(0xcc, 64))], None, true)
                .unwrap();
        }
        let (wal, committed) = Wal::open(&path, 64).unwrap();
        assert!(!wal.is_empty());
        assert_eq!(committed.len(), 2);
        assert_eq!(committed[0].txn_id, 1);
        assert_eq!(committed[0].pages.len(), 2);
        assert_eq!(committed[1].pages, vec![(3, page(0xcc, 64))]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncation_point_recovers_a_committed_prefix() {
        let path = temp_wal("prefix");
        {
            let (mut wal, _) = Wal::open(&path, 32).unwrap();
            wal.append_txn(1, &[(0, page(1, 32))], None, true).unwrap();
            wal.append_txn(2, &[(1, page(2, 32)), (2, page(3, 32))], None, true)
                .unwrap();
            wal.append_txn(3, &[(0, page(4, 32))], None, true).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let mut seen_counts = std::collections::BTreeSet::new();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, committed) = Wal::open(&path, 32).unwrap();
            // The recovered history is always a prefix of [txn 1, 2, 3].
            let ids: Vec<u64> = committed.iter().map(|t| t.txn_id).collect();
            assert_eq!(ids, (1..=committed.len() as u64).collect::<Vec<_>>());
            seen_counts.insert(committed.len());
        }
        // Every prefix length is reachable, including none and all.
        assert_eq!(seen_counts, (0..=3).collect());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_tail_bytes_are_discarded() {
        let path = temp_wal("corrupt");
        {
            let (mut wal, _) = Wal::open(&path, 32).unwrap();
            wal.append_txn(1, &[(0, page(1, 32))], None, true).unwrap();
            wal.append_txn(2, &[(1, page(2, 32))], None, true).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the second transaction.
        let second_txn_start = WAL_HEADER_LEN as usize + 29 + 32 + 21;
        let idx = second_txn_start + 40;
        bytes[idx] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, committed) = Wal::open(&path, 32).unwrap();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].txn_id, 1);
        // The torn tail was truncated: reopening again sees the same prefix.
        let (_, committed) = Wal::open(&path, 32).unwrap();
        assert_eq!(committed.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_after_tail_truncation_are_recoverable() {
        let path = temp_wal("append-after-trunc");
        {
            let (mut wal, _) = Wal::open(&path, 32).unwrap();
            wal.append_txn(1, &[(0, page(1, 32))], None, true).unwrap();
            wal.append_txn(2, &[(1, page(2, 32))], None, true).unwrap();
        }
        // Tear the second transaction's tail, reopen, append a third.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        {
            let (mut wal, committed) = Wal::open(&path, 32).unwrap();
            assert_eq!(committed.len(), 1);
            wal.append_txn(2, &[(7, page(9, 32))], None, true).unwrap();
        }
        let (_, committed) = Wal::open(&path, 32).unwrap();
        assert_eq!(committed.len(), 2);
        assert_eq!(committed[1].pages, vec![(7, page(9, 32))]);
        std::fs::remove_file(&path).unwrap();
    }

    fn delta(ids: &[u64], page_count: u64) -> DirDelta {
        DirDelta {
            removed: ids
                .iter()
                .map(|&id| masksearch_core::MaskId::new(id))
                .collect(),
            upserts: Vec::new(),
            page_count,
        }
    }

    #[test]
    fn delta_frames_round_trip_and_tear_with_their_transaction() {
        let path = temp_wal("delta");
        {
            let (mut wal, _) = Wal::open(&path, 32).unwrap();
            wal.append_txn(1, &[(3, page(1, 32))], Some(&delta(&[], 4)), true)
                .unwrap();
            // A delete-only commit logs no page at all.
            wal.append_txn(2, &[], Some(&delta(&[7, 9], 4)), true)
                .unwrap();
            wal.append_txn(3, &[(0, page(2, 32))], None, true).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let (_, committed) = Wal::open(&path, 32).unwrap();
        assert_eq!(committed.len(), 3);
        assert_eq!(committed[0].delta, Some(delta(&[], 4)));
        assert_eq!(committed[1].pages, vec![]);
        assert_eq!(committed[1].delta, Some(delta(&[7, 9], 4)));
        assert_eq!(committed[2].delta, None);
        // The body scanned from any committed boundary.
        let body = &full[WAL_HEADER_LEN as usize..];
        let (all, consumed) = scan(body, 32, checksum64);
        assert_eq!((all.len(), consumed), (3, body.len()));
        let first_len = 29 + 32 + 21 + delta(&[], 4).encode().len() + 21;
        let (rest, consumed) = scan(&body[first_len..], 32, checksum64);
        assert_eq!(rest, committed[1..]);
        assert_eq!(consumed, body.len() - first_len);
        // Flipping any byte of the delete-only transaction loses it (and
        // what follows), never half of it.
        let second_len = 21 + delta(&[7, 9], 4).encode().len() + 21;
        for at in first_len..first_len + second_len {
            let mut corrupt = body.to_vec();
            corrupt[at] ^= 0x81;
            let (txns, consumed) = scan(&corrupt, 32, checksum64);
            assert_eq!(txns, committed[..1], "flip at {at}");
            assert_eq!(consumed, first_len);
        }
        std::fs::remove_file(&path).unwrap();
    }

    type V1Txn = (u64, Vec<(PageNo, Vec<u8>)>);

    /// A version 1 log as the previous build wrote it: FNV-1a checksums,
    /// version 1 in the header, every transaction carrying page 0.
    fn v1_log(page_size: u32, txns: &[V1Txn]) -> Vec<u8> {
        let mut log = header_bytes(page_size);
        log[4..6].copy_from_slice(&1u16.to_le_bytes());
        for (txn_id, pages) in txns {
            for (page_no, image) in pages {
                let mut header = vec![FRAME_PAGE];
                header.extend_from_slice(&txn_id.to_le_bytes());
                header.extend_from_slice(&page_no.to_le_bytes());
                header.extend_from_slice(&(image.len() as u32).to_le_bytes());
                let checksum = fnv1a64(&[&header, image]);
                log.extend_from_slice(&header);
                log.extend_from_slice(&checksum.to_le_bytes());
                log.extend_from_slice(image);
            }
            let mut commit = vec![FRAME_COMMIT];
            commit.extend_from_slice(&txn_id.to_le_bytes());
            commit.extend_from_slice(&(pages.len() as u32).to_le_bytes());
            let checksum = fnv1a64(&[&commit]);
            log.extend_from_slice(&commit);
            log.extend_from_slice(&checksum.to_le_bytes());
        }
        log
    }

    #[test]
    fn version_1_logs_replay_and_are_rewritten_as_the_current_version() {
        let path = temp_wal("v1");
        let txns = vec![
            (1, vec![(4, page(1, 32)), (0, page(2, 32))]),
            (2, vec![(5, page(3, 32)), (0, page(4, 32))]),
        ];
        let log = v1_log(32, &txns);
        // Torn anywhere, a v1 log still recovers a committed prefix of its
        // transactions — checked with its own checksum, never the new one.
        for cut in (WAL_HEADER_LEN as usize..=log.len()).rev() {
            std::fs::write(&path, &log[..cut]).unwrap();
            let (wal, committed) = Wal::open(&path, 32).unwrap();
            let txn_len = 2 * (29 + 32) + 21;
            let expected = (cut - WAL_HEADER_LEN as usize) / txn_len;
            assert_eq!(committed.len(), expected, "cut {cut}");
            for (txn, (txn_id, pages)) in committed.iter().zip(&txns) {
                assert_eq!(
                    (txn.txn_id, &txn.pages, &txn.delta),
                    (*txn_id, pages, &None)
                );
            }
            // The file is now a current-version log of the same transactions.
            drop(wal);
            let upgraded = std::fs::read(&path).unwrap();
            assert_eq!(read_header(&upgraded).unwrap(), (WAL_VERSION, 32));
            let (again, consumed) = scan(&upgraded[WAL_HEADER_LEN as usize..], 32, checksum64);
            assert_eq!(again, committed);
            assert_eq!(consumed, upgraded.len() - WAL_HEADER_LEN as usize);
        }
        // The source log stays version 1, and nobody reads a newer one.
        assert_eq!(read_header(&log).unwrap(), (1, 32));
        let mut future = log.clone();
        future[4..6].copy_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            Wal::open(&path, 32),
            Err(StorageError::UnsupportedVersion { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// A version 2 log was never recycled: it opens as it is, and is
    /// relabelled version 3 so that a version 2 build refuses it from then
    /// on.
    #[test]
    fn version_2_logs_open_as_they_are_and_are_relabelled() {
        let path = temp_wal("v2");
        let mut log = header_bytes(32);
        log[4..6].copy_from_slice(&2u16.to_le_bytes());
        encode_txn(&mut log, 1, &[(0, page(1, 32))], None);
        encode_txn(&mut log, 2, &[], Some(&delta(&[7], 4)));
        std::fs::write(&path, &log).unwrap();
        let (wal, committed) = Wal::open(&path, 32).unwrap();
        let ids: Vec<u64> = committed.iter().map(|txn| txn.txn_id).collect();
        assert_eq!(ids, [1, 2]);
        assert_eq!(wal.len(), log.len() as u64);
        drop(wal);
        let mut relabelled = log.clone();
        relabelled[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
        assert!(std::fs::read(&path).unwrap() == relabelled);
        assert_eq!(read_header(&relabelled).unwrap(), (WAL_VERSION, 32));
        std::fs::remove_file(&path).unwrap();
    }

    /// Extents appended as they are give the file `append_txn` gives over
    /// their page images, and both are the frames `encode_txn` builds: for
    /// multi-page extents with a delta, a delete-only delta, a one-page meta
    /// transaction, and more pages than one vectored write takes.
    #[test]
    fn appending_extents_writes_the_frames_of_their_page_images() {
        let ps = 32usize;
        let extent = |start: PageNo, pages: usize| -> (PageNo, Vec<u8>) {
            let bytes = (0..pages * ps).map(|i| (i * 7 + start as usize) as u8);
            (start, bytes.collect())
        };
        type Txn = (u64, Vec<(PageNo, Vec<u8>)>, Option<DirDelta>);
        let txns: Vec<Txn> = vec![
            (
                1,
                vec![extent(3, 2), extent(9, 1), extent(5, 3)],
                Some(delta(&[], 12)),
            ),
            (2, vec![], Some(delta(&[7, 9], 12))),
            (3, vec![(0, page(4, ps))], None),
            (4, vec![extent(20, 700)], Some(delta(&[1], 720))),
        ];
        let (extents_path, pages_path) = (temp_wal("by-extents"), temp_wal("by-pages"));
        let mut expected = header_bytes(ps as u32);
        {
            let (mut by_extents, _) = Wal::open(&extents_path, ps as u32).unwrap();
            let (mut by_pages, _) = Wal::open(&pages_path, ps as u32).unwrap();
            for (txn_id, extents, delta) in &txns {
                let slices: Vec<(PageNo, &[u8])> = extents
                    .iter()
                    .map(|(start, bytes)| (*start, bytes.as_slice()))
                    .collect();
                let pages: Vec<(PageNo, Vec<u8>)> = extents
                    .iter()
                    .flat_map(|(start, bytes)| (*start..).zip(bytes.chunks(ps).map(<[u8]>::to_vec)))
                    .collect();
                let from = expected.len();
                encode_txn(&mut expected, *txn_id, &pages, delta.as_ref());
                let framed = (expected.len() - from) as u64;
                let appended = by_extents.append_extents(*txn_id, &slices, delta.as_ref(), false);
                assert_eq!(appended.unwrap(), framed);
                let appended = by_pages.append_txn(*txn_id, &pages, delta.as_ref(), true);
                assert_eq!(appended.unwrap(), framed);
            }
            assert_eq!(by_extents.len(), expected.len() as u64);
        }
        assert!(std::fs::read(&extents_path).unwrap() == expected);
        assert!(std::fs::read(&pages_path).unwrap() == expected);
        let (_, committed) = Wal::open(&extents_path, ps as u32).unwrap();
        assert_eq!(committed.len(), txns.len());
        assert_eq!(committed[3].pages.len(), 700);
        std::fs::remove_file(&extents_path).unwrap();
        std::fs::remove_file(&pages_path).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("reset");
        let (mut wal, _) = Wal::open(&path, 32).unwrap();
        wal.append_txn(1, &[(0, page(1, 32))], None, true).unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.len(), WAL_HEADER_LEN);
        drop(wal);
        let (_, committed) = Wal::open(&path, 32).unwrap();
        assert!(committed.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_page_size_is_rejected() {
        let path = temp_wal("pagesize");
        drop(Wal::open(&path, 32).unwrap());
        assert!(matches!(
            Wal::open(&path, 64),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
