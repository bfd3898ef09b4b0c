//! Fixed-size-page file I/O with a write-back table of dirty extents.
//!
//! The pager sits between the durable store and the database file. Writes
//! enter the **dirty table** and reach the file only at checkpoint, when
//! [`Pager::flush`] writes every table entry, fsyncs, and only then empties
//! the table. This is the log-ahead rule — the database file must never see
//! a page whose WAL record might not be durable (commits may run with
//! `fsync` off), so nothing reaches the file until the checkpoint has synced
//! the log first. The store bounds the table by checkpointing on a WAL-size
//! threshold.
//!
//! The table holds each written extent as the one buffer of whole pages it
//! was committed in, keyed by its first page — the buffer the WAL framed,
//! moved in rather than copied ([`Pager::write_extent`]; a page is the
//! one-page case). Entries never overlap: a new extent **drops every dirty
//! extent it overlaps**, whole. That is sound only because the dropped ones
//! are dead — the store's allocator hands out only pages that no extent of
//! the current directory holds, so an extent overlapped by a new one was
//! freed, and none of its pages will be read again before being rewritten.
//!
//! There is no cache of clean pages: the OS page cache sits below the pager
//! and the decoded-mask cache above it. [`Pager::read_extent`] assembles a
//! contiguous extent from the table (dirty extents) and the file (everything
//! else, one positioned read per gap between them);
//! [`Pager::read_extent_at`] does the same for any byte range of an extent
//! into a caller's buffer — what a verification that needs only a mask's
//! ROI rows reads — touching only the pages the range covers. Because `flush`
//! empties the table only after the file is durable, a page missing from the
//! table is always current in the file. Readers share the table lock, so
//! they run in parallel with each other and with a flush's file writes.
//!
//! A page neither in the table nor backed by the file reads as zeros — that
//! is what a freshly allocated, never-written page looks like.

use crate::page::PageNo;
use masksearch_obs::counters;
use masksearch_storage::{StorageError, StorageResult};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

struct Table {
    /// Extents written since the last flush, by first page: each a whole
    /// number of pages, no two overlapping.
    dirty: BTreeMap<PageNo, Vec<u8>>,
    /// Pages currently backed by the file (its length / page size).
    file_pages: u64,
}

/// A page file plus the table of dirty extents awaiting checkpoint.
pub struct Pager {
    file: File,
    path: PathBuf,
    page_size: usize,
    table: RwLock<Table>,
}

impl Pager {
    /// Opens (creating if needed) the page file at `path`.
    pub fn open(path: impl Into<PathBuf>, page_size: u32) -> StorageResult<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StorageError::io(format!("opening page file {}", path.display()), e))?;
        let len = file
            .metadata()
            .map_err(|e| StorageError::io("reading page file metadata", e))?
            .len();
        Ok(Self {
            file,
            path,
            page_size: page_size as usize,
            table: RwLock::new(Table {
                dirty: BTreeMap::new(),
                file_pages: len / page_size as u64,
            }),
        })
    }

    /// Number of pages currently backed by the file.
    pub fn file_pages(&self) -> u64 {
        self.table.read().file_pages
    }

    /// Number of dirty pages waiting for a checkpoint.
    pub fn dirty_pages(&self) -> usize {
        let bytes: usize = self.table.read().dirty.values().map(Vec::len).sum();
        bytes / self.page_size
    }

    /// Reads the first `bytes` bytes of the `pages`-page extent at `start`
    /// (see [`Pager::read_extent_at`]).
    pub fn read_extent(&self, start: PageNo, pages: u32, bytes: u64) -> StorageResult<Vec<u8>> {
        // Checked before allocating: `bytes` comes from a directory entry.
        self.extent_base(start, pages, 0, bytes)?;
        let mut buf = vec![0u8; bytes as usize];
        self.read_extent_at(start, pages, 0, &mut buf)?;
        Ok(buf)
    }

    /// Fills `out` with the bytes at `offset..offset + out.len()` of the
    /// `pages`-page extent at `start`: what dirty extents hold of the range
    /// is copied from the table, every gap between them comes from the file
    /// in one positioned read. Only the pages the range touches are looked
    /// at.
    pub fn read_extent_at(
        &self,
        start: PageNo,
        pages: u32,
        offset: u64,
        out: &mut [u8],
    ) -> StorageResult<()> {
        let page_size = self.page_size as u64;
        let base = self.extent_base(start, pages, offset, out.len() as u64)?;
        // The range as file positions, and the pages it touches.
        let (lo, hi) = (base + offset, base + offset + out.len() as u64);
        let (first, last) = (lo / page_size, hi.div_ceil(page_size));
        let table = self.table.read();
        let file_len = table.file_pages * page_size;
        // The one extent that may start before the range and reach into it.
        let straddling = table
            .dirty
            .range(..first)
            .next_back()
            .filter(|(&at, bytes)| at * page_size + bytes.len() as u64 > lo);
        // File position up to which `out` is filled.
        let mut filled = lo;
        for (&at, bytes) in straddling.into_iter().chain(table.dirty.range(first..last)) {
            let at = at * page_size;
            let (from, to) = (at.max(lo), (at + bytes.len() as u64).min(hi));
            let gap = &mut out[(filled - lo) as usize..(from - lo) as usize];
            self.read_file(filled, gap, file_len)?;
            out[(from - lo) as usize..(to - lo) as usize]
                .copy_from_slice(&bytes[(from - at) as usize..(to - at) as usize]);
            filled = to;
        }
        self.read_file(filled, &mut out[(filled - lo) as usize..], file_len)
    }

    /// The file offset of the extent at `start`, after checking that its
    /// `pages` pages hold bytes `offset..offset + len` and that no file
    /// position in that range overflows.
    fn extent_base(&self, start: PageNo, pages: u32, offset: u64, len: u64) -> StorageResult<u64> {
        let page_size = self.page_size as u64;
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= pages as u64 * page_size && usize::try_from(end).is_ok());
        match (start.checked_mul(page_size), end) {
            (Some(base), Some(end)) if base.checked_add(end).is_some() => Ok(base),
            _ => Err(StorageError::corrupt(format!(
                "extent of {pages} pages at page {start} cannot hold \
                 {len} bytes at offset {offset}"
            ))),
        }
    }

    /// Fills `out` from the file at byte `offset` with one positioned read;
    /// bytes past `file_len` are zeros.
    fn read_file(&self, offset: u64, out: &mut [u8], file_len: u64) -> StorageResult<()> {
        let in_file = file_len.saturating_sub(offset).min(out.len() as u64) as usize;
        out[in_file..].fill(0);
        if in_file == 0 {
            return Ok(());
        }
        counters::incr(&counters::PAGER_READS);
        counters::add(&counters::PAGER_READ_BYTES, in_file as u64);
        self.file
            .read_exact_at(&mut out[..in_file], offset)
            .map_err(|e| {
                StorageError::io(
                    format!(
                        "reading {in_file} bytes at offset {offset} of {}",
                        self.path.display()
                    ),
                    e,
                )
            })
    }

    /// Records a full page image as dirty: [`Pager::write_extent`] of one
    /// page.
    pub fn write_page(&mut self, page_no: PageNo, data: Vec<u8>) {
        assert_eq!(data.len(), self.page_size, "page image of the wrong size");
        self.write_extent(page_no, data);
    }

    /// Records `data`, a whole number of pages, as the dirty extent starting
    /// at page `start`, dropping every dirty extent it overlaps (dead, see
    /// the module docs). It reaches the database file only at the next
    /// [`Pager::flush`] (after the caller has synced the WAL) — never
    /// earlier, to uphold the log-ahead rule.
    pub fn write_extent(&mut self, start: PageNo, data: Vec<u8>) {
        let pages = (data.len() / self.page_size) as u64;
        assert!(
            pages > 0 && data.len().is_multiple_of(self.page_size),
            "extent of {} bytes is not a whole number of pages",
            data.len()
        );
        counters::add(&counters::PAGER_WRITES, pages);
        let page_size = self.page_size;
        let dirty = &mut self.table.get_mut().dirty;
        // Extents are disjoint, so those ending after `start` among the ones
        // starting before the new end are consecutive from the last.
        while let Some((&at, bytes)) = dirty.range(..start + pages).next_back() {
            if at + (bytes.len() / page_size) as u64 <= start {
                break;
            }
            dirty.remove(&at);
        }
        dirty.insert(start, data);
    }

    /// Writes every dirty extent to the file with one positioned write
    /// each, fsyncs, and then empties the table (the checkpoint step).
    /// Readers keep running throughout: until the table is emptied they take
    /// dirty extents from it, afterwards from the now-durable file.
    pub fn flush(&self) -> StorageResult<()> {
        let page_size = self.page_size as u64;
        let file_pages = {
            let table = self.table.read();
            for (&start, bytes) in &table.dirty {
                self.file
                    .write_all_at(bytes, start * page_size)
                    .map_err(|e| {
                        StorageError::io(
                            format!(
                                "writing {} pages at page {start} of {}",
                                bytes.len() as u64 / page_size,
                                self.path.display()
                            ),
                            e,
                        )
                    })?;
            }
            // fdatasync: a grown file's length is still made durable, the
            // mtime-only metadata is not.
            self.file
                .sync_data()
                .map_err(|e| StorageError::io("fsyncing page file", e))?;
            table
                .dirty
                .iter()
                .next_back()
                .map_or(0, |(&start, bytes)| start + bytes.len() as u64 / page_size)
        };
        // `write_extent` takes `&mut self`, so no extent joined the table
        // since the read guard above was released.
        let mut table = self.table.write();
        table.file_pages = table.file_pages.max(file_pages);
        table.dirty.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_db(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "masksearch-pager-test-{}-{}.db",
            name,
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn read_page(pager: &Pager, page_no: PageNo) -> Vec<u8> {
        pager
            .read_extent(page_no, 1, pager.page_size as u64)
            .unwrap()
    }

    #[test]
    fn pages_round_trip_through_table_and_file() {
        let path = temp_db("roundtrip");
        {
            let mut pager = Pager::open(&path, 64).unwrap();
            pager.write_page(0, vec![1; 64]);
            pager.write_page(5, vec![5; 64]);
            assert_eq!(pager.dirty_pages(), 2);
            assert_eq!(read_page(&pager, 5), vec![5; 64]);
            // Unwritten page within a sparse file reads as zeros.
            assert_eq!(read_page(&pager, 3), vec![0; 64]);
            pager.flush().unwrap();
            assert_eq!(pager.dirty_pages(), 0);
            assert_eq!(read_page(&pager, 3), vec![0; 64]);
        }
        let pager = Pager::open(&path, 64).unwrap();
        assert_eq!(pager.file_pages(), 6);
        assert_eq!(read_page(&pager, 0), vec![1; 64]);
        assert_eq!(read_page(&pager, 5), vec![5; 64]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reads_past_eof_are_zero_pages() {
        let path = temp_db("eof");
        let mut pager = Pager::open(&path, 32).unwrap();
        assert_eq!(read_page(&pager, 100), vec![0; 32]);
        // An extent that straddles the end of the file: backed pages come
        // from the file, the rest are zeros.
        pager.write_page(0, vec![7; 32]);
        pager.write_page(1, vec![8; 32]);
        pager.flush().unwrap();
        let mut expected = vec![7; 32];
        expected.extend_from_slice(&[8; 32]);
        expected.extend_from_slice(&[0; 40]);
        assert_eq!(pager.read_extent(0, 4, 104).unwrap(), expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dirty_pages_are_pinned_until_flush() {
        let path = temp_db("pinned");
        let mut pager = Pager::open(&path, 32).unwrap();
        // However many pages are dirty, the file must stay untouched — the
        // log-ahead rule forbids writing pages before the WAL is synced.
        for i in 0..24u64 {
            pager.write_page(i, vec![i as u8; 32]);
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        for i in 0..24u64 {
            assert_eq!(read_page(&pager, i), vec![i as u8; 32], "page {i}");
        }
        // A flush moves them to the file and empties the table; the same
        // reads are now served from the file.
        pager.flush().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 24 * 32);
        assert_eq!(pager.dirty_pages(), 0);
        for i in 0..24u64 {
            assert_eq!(read_page(&pager, i), vec![i as u8; 32], "page {i}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_byte_counts_are_rejected() {
        let path = temp_db("oversized");
        let pager = Pager::open(&path, 32).unwrap();
        assert!(pager.read_extent(1, 2, 64).is_ok());
        assert!(pager.read_extent(1, 2, 65).is_err());
        assert!(pager.read_extent(1, 0, 1).is_err());
        assert!(pager.read_extent(1, 1, u64::MAX).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// The extent read over every layout the store produces — all pages
    /// dirty, none, or a mix with the dirty page first / in the middle /
    /// last — with a byte length that is and is not a page multiple, must
    /// equal page-by-page assembly, before and after a flush.
    #[test]
    fn extent_reads_equal_page_by_page_assembly() {
        for page_size in [256u32, 4096] {
            let ps = page_size as usize;
            for pages in [1u32, 2, 5] {
                let page_image = |page_no: u64, version: u8| -> Vec<u8> {
                    (0..ps)
                        .map(|i| (i as u64 * 31 + page_no * 7 + version as u64) as u8)
                        .collect()
                };
                // Which pages of the extent are rewritten (dirty) after the
                // first flush made all of them clean.
                let layouts: Vec<Vec<u32>> = vec![
                    vec![],
                    (0..pages).collect(),
                    vec![0],
                    vec![pages / 2],
                    vec![pages - 1],
                    vec![0, pages - 1],
                ];
                for (case, dirty) in layouts.iter().enumerate() {
                    let path = temp_db(&format!("extent-{page_size}-{pages}-{case}"));
                    let mut pager = Pager::open(&path, page_size).unwrap();
                    let start: PageNo = 3;
                    for p in 0..pages as u64 {
                        pager.write_page(start + p, page_image(start + p, 1));
                    }
                    // All-dirty extent straight after the writes.
                    let full: Vec<u8> = (0..pages as u64)
                        .flat_map(|p| page_image(start + p, 1))
                        .collect();
                    assert_eq!(
                        pager.read_extent(start, pages, full.len() as u64).unwrap(),
                        full
                    );
                    pager.flush().unwrap();
                    for &p in dirty {
                        pager.write_page(start + p as u64, page_image(start + p as u64, 2));
                    }
                    let by_page: Vec<u8> = (0..pages as u64)
                        .flat_map(|p| read_page(&pager, start + p))
                        .collect();
                    let expected: Vec<u8> = (0..pages)
                        .flat_map(|p| page_image(start + p as u64, 1 + dirty.contains(&p) as u8))
                        .collect();
                    assert_eq!(by_page, expected);
                    let extent_reads_match = |pager: &Pager, when: &str| {
                        for bytes in [pages as usize * ps, pages as usize * ps - ps / 3, 1] {
                            assert_eq!(
                                pager.read_extent(start, pages, bytes as u64).unwrap(),
                                by_page[..bytes],
                                "{when}: page size {page_size}, {pages} pages, \
                                 dirty {dirty:?}, {bytes} bytes"
                            );
                        }
                    };
                    extent_reads_match(&pager, "before flush");
                    pager.flush().unwrap();
                    assert_eq!(pager.dirty_pages(), 0);
                    extent_reads_match(&pager, "after flush");
                    // The run-wise writes left exactly these bytes in the
                    // file: zeros up to the extent, then its pages.
                    let mut file_bytes = vec![0u8; start as usize * ps];
                    file_bytes.extend_from_slice(&by_page);
                    assert_eq!(
                        std::fs::read(&path).unwrap(),
                        file_bytes,
                        "file after flush: page size {page_size}, {pages} pages, dirty {dirty:?}"
                    );
                    std::fs::remove_file(&path).unwrap();
                }
            }
        }
    }

    /// A ranged read into a reused (non-zero) buffer equals the same slice
    /// of the whole-extent read — ranges inside one page, across page
    /// boundaries, ending mid-page and reaching past the end of the file —
    /// over clean, all-dirty and dirty-first / -middle / -last extents,
    /// before and after a flush.
    #[test]
    fn ranged_reads_equal_slices_of_the_whole_extent() {
        let ps = 256usize;
        for pages in [1u32, 2, 5] {
            let layouts: Vec<Vec<u32>> = vec![
                vec![],
                (0..pages).collect(),
                vec![0],
                vec![pages / 2],
                vec![pages - 1],
            ];
            for (case, dirty) in layouts.iter().enumerate() {
                let path = temp_db(&format!("ranged-{pages}-{case}"));
                let mut pager = Pager::open(&path, ps as u32).unwrap();
                let start: PageNo = 2;
                let image = |p: u64, version: u8| -> Vec<u8> {
                    (0..ps)
                        .map(|i| (i as u64 * 29 + p * 11 + version as u64) as u8)
                        .collect()
                };
                // All but the last page reach the file; the last one only
                // when rewritten, so clean layouts also read past the end.
                let flushed = (pages - 1).max(1);
                for p in 0..flushed as u64 {
                    pager.write_page(start + p, image(p, 1));
                }
                pager.flush().unwrap();
                for &p in dirty {
                    pager.write_page(start + p as u64, image(p as u64, 2));
                }
                let len = pages as usize * ps;
                let whole: Vec<u8> = (0..pages)
                    .flat_map(|p| match (dirty.contains(&p), p < flushed) {
                        (true, _) => image(p as u64, 2),
                        (false, true) => image(p as u64, 1),
                        (false, false) => vec![0; ps],
                    })
                    .collect();
                let ranged_reads_match = |pager: &Pager, when: &str| {
                    assert_eq!(pager.read_extent(start, pages, len as u64).unwrap(), whole);
                    let mut out = Vec::new();
                    for (offset, bytes) in [
                        (0, len),
                        (0, 1),
                        (len - 1, 1),
                        (32, ps / 2),
                        (ps - 7, 20.min(len - (ps - 7))),
                        (len / 3, len / 2),
                        (ps.min(len - 1), len - ps.min(len - 1)),
                    ] {
                        out.clear();
                        out.resize(bytes, 0xAA);
                        pager
                            .read_extent_at(start, pages, offset as u64, &mut out)
                            .unwrap();
                        assert_eq!(
                            out,
                            whole[offset..offset + bytes],
                            "{when}: {pages} pages, dirty {dirty:?}, {bytes} bytes at {offset}"
                        );
                    }
                    let mut past = [0u8; 2];
                    assert!(pager
                        .read_extent_at(start, pages, len as u64 - 1, &mut past)
                        .is_err());
                };
                ranged_reads_match(&pager, "before flush");
                pager.flush().unwrap();
                ranged_reads_match(&pager, "after flush");
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    /// An extent of several MiB, extents of one page, and gaps between
    /// them all land where they belong.
    #[test]
    fn flush_writes_long_runs_and_gaps_byte_exactly() {
        let path = temp_db("flush-runs");
        let ps = 4096usize;
        let mut pager = Pager::open(&path, ps as u32).unwrap();
        let long = 2 * 256 + 3;
        let dirty: Vec<PageNo> = (0..long).chain([long + 2, long + 4, long + 5]).collect();
        let image =
            |p: PageNo| -> Vec<u8> { (0..ps).map(|i| (i as u64 * 13 + p * 5) as u8).collect() };
        pager.write_extent(0, (0..long).flat_map(image).collect());
        for &p in &dirty[long as usize..] {
            pager.write_page(p, image(p));
        }
        assert_eq!(pager.dirty_pages(), dirty.len());
        pager.flush().unwrap();
        let file = std::fs::read(&path).unwrap();
        assert_eq!(file.len(), (long as usize + 6) * ps);
        for p in 0..long + 6 {
            let expected = match dirty.contains(&p) {
                true => image(p),
                false => vec![0; ps],
            };
            assert_eq!(file[p as usize * ps..][..ps], expected, "page {p}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    fn versioned_page(ps: usize, page_no: PageNo, version: u8) -> Vec<u8> {
        (0..ps)
            .map(|i| (i as u64 * 7 + page_no * 13 + version as u64 * 101) as u8)
            .collect()
    }

    /// Pages `start..start + pages` at `version`, as one buffer.
    fn versioned_extent(ps: usize, start: PageNo, pages: u64, version: u8) -> Vec<u8> {
        (start..start + pages)
            .flat_map(|p| versioned_page(ps, p, version))
            .collect()
    }

    /// Writes pages `0..16`, flushes them (version 1), then writes each of
    /// `extents` (first page, pages, version) as one dirty extent. Returns
    /// the pager and the version each page must read as.
    fn pager_over_clean_pages(
        name: &str,
        ps: usize,
        extents: &[(PageNo, u64, u8)],
    ) -> (Pager, PathBuf, Vec<u8>) {
        let path = temp_db(name);
        let mut pager = Pager::open(&path, ps as u32).unwrap();
        pager.write_extent(0, versioned_extent(ps, 0, 16, 1));
        pager.flush().unwrap();
        let mut versions = vec![1u8; 16];
        for &(start, pages, version) in extents {
            pager.write_extent(start, versioned_extent(ps, start, pages, version));
            versions[start as usize..(start + pages) as usize].fill(version);
        }
        (pager, path, versions)
    }

    /// Ranged reads over dirty extents that start before the requested
    /// range, inside it, and reach across it — beside clean pages — equal
    /// page-by-page assembly, before and after a flush, whichever extent the
    /// range is asked through.
    #[test]
    fn reads_over_dirty_extents_equal_page_by_page_assembly() {
        let ps = 64usize;
        let extents = [(2, 3, 2), (6, 1, 3), (8, 5, 4), (14, 2, 5)];
        let (pager, path, versions) = pager_over_clean_pages("dirty-extents", ps, &extents);
        let expected: Vec<u8> = (0..16u64)
            .flat_map(|p| versioned_page(ps, p, versions[p as usize]))
            .collect();
        let by_page =
            |pager: &Pager| -> Vec<u8> { (0..16).flat_map(|p| read_page(pager, p)).collect() };
        assert_eq!(by_page(&pager), expected);
        let reads_match = |pager: &Pager, when: &str| {
            let mut out = Vec::new();
            // Asked through extents starting on a clean page, at the start
            // of a dirty extent and inside one.
            for (start, pages) in [(0u64, 16u32), (3, 10), (8, 5), (10, 6), (1, 2)] {
                let len = pages as usize * ps;
                let base = start as usize * ps;
                for offset in (0..len).step_by(ps / 2 - 5) {
                    for bytes in [1, ps - 1, ps, 3 * ps + 7, len - offset] {
                        let bytes = bytes.min(len - offset);
                        out.clear();
                        out.resize(bytes, 0xAA);
                        pager
                            .read_extent_at(start, pages, offset as u64, &mut out)
                            .unwrap();
                        assert!(
                            out[..] == expected[base + offset..][..bytes],
                            "{when}: extent ({start}, {pages}), {bytes} bytes at {offset}"
                        );
                    }
                }
            }
        };
        reads_match(&pager, "before flush");
        pager.flush().unwrap();
        assert_eq!(by_page(&pager), expected);
        reads_match(&pager, "after flush");
        std::fs::remove_file(&path).unwrap();
    }

    /// A new extent drops, whole, the dirty extents it overlaps — one
    /// starting before it, one inside it, one reaching past it — and keeps
    /// the ones that only touch them or it. The dropped extents' other pages
    /// read from the file again, and a flush writes none of their bytes.
    #[test]
    fn a_new_extent_drops_the_dead_extents_it_overlaps() {
        let ps = 64usize;
        let dead = [(3, 2, 2), (5, 1, 2), (7, 3, 2)];
        let live = [(1, 2, 4), (10, 2, 4)];
        let (mut pager, path, _) =
            pager_over_clean_pages("drop-dead", ps, &[dead.as_slice(), &live].concat());
        assert_eq!(pager.dirty_pages(), 10);
        pager.write_extent(4, versioned_extent(ps, 4, 4, 3));
        assert_eq!(pager.dirty_pages(), 4 + 4);
        // Between the new extent and a live one: overlaps nothing.
        pager.write_extent(8, versioned_extent(ps, 8, 2, 5));
        assert_eq!(pager.dirty_pages(), 4 + 4 + 2);
        let version = |p: u64| match p {
            1..=2 | 10..=11 => 4,
            4..=7 => 3,
            8..=9 => 5,
            _ => 1,
        };
        let expected: Vec<u8> = (0..16u64)
            .flat_map(|p| versioned_page(ps, p, version(p)))
            .collect();
        for when in ["before flush", "after flush"] {
            let by_page: Vec<u8> = (0..16).flat_map(|p| read_page(&pager, p)).collect();
            assert!(by_page == expected, "{when}");
            assert_eq!(pager.read_extent(0, 16, 16 * ps as u64).unwrap(), expected);
            pager.flush().unwrap();
        }
        assert!(std::fs::read(&path).unwrap() == expected);
        std::fs::remove_file(&path).unwrap();
    }

    /// A clean extent costs exactly one positioned read, and a dirty page in
    /// the middle splits it in two.
    #[test]
    fn clean_extents_cost_one_read_and_dirty_pages_split_runs() {
        use std::sync::atomic::Ordering::Relaxed;
        let path = temp_db("read-count");
        let mut pager = Pager::open(&path, 64).unwrap();
        for p in 0..5u64 {
            pager.write_page(p, vec![p as u8; 64]);
        }
        pager.flush().unwrap();
        // The counter is process-global and other tests of this binary read
        // through pagers of their own in parallel: the smallest of several
        // deltas is the one nobody else added to.
        let min_reads = |pager: &Pager| {
            (0..20)
                .map(|_| {
                    let before = counters::PAGER_READS.load(Relaxed);
                    pager.read_extent(0, 5, 300).unwrap();
                    counters::PAGER_READS.load(Relaxed) - before
                })
                .min()
                .unwrap()
        };
        assert_eq!(min_reads(&pager), 1);
        pager.write_page(2, vec![9; 64]);
        assert_eq!(min_reads(&pager), 2);
        pager.write_page(0, vec![9; 64]);
        pager.write_page(4, vec![9; 64]);
        assert_eq!(min_reads(&pager), 2);
        for p in 0..5u64 {
            pager.write_page(p, vec![9; 64]);
        }
        assert_eq!(min_reads(&pager), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
