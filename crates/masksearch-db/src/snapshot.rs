//! The persisted index file (`masks.chi`) as the checkpoint writes it:
//! appended to while most of the file is live, rewritten as one segment when
//! it is not.
//!
//! The file is a sequence of checksummed segments in which a later entry
//! for a mask replaces an earlier one (see `masksearch_index`'s store
//! module). An entry is *dead* once a later segment replaced it or its mask
//! was deleted; dead entries cost disk and load time but are harmless —
//! recovery reconciles whatever it loads against the directory.

use crate::atomic::replace_file;
use masksearch_obs::counters;
use masksearch_storage::{StorageError, StorageResult};
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

/// An automatic checkpoint rewrites a file instead of appending to it once
/// the file would be at least this many times the size of its live content,
/// i.e. once its dead bytes reach its live bytes.
const REWRITE_AT_LIVE_MULTIPLE: u64 = 2;

/// One index file and the length of its valid content.
pub(crate) struct SnapshotFile {
    path: PathBuf,
    what: &'static str,
    /// Where the next segment goes. Anything in the file past this (a torn
    /// append, a pre-segment image or an older format that cannot be
    /// appended to) is cut off by the next write.
    len: u64,
}

impl SnapshotFile {
    /// The file at `path` whose first `len` bytes are valid segments.
    pub fn new(path: PathBuf, what: &'static str, len: u64) -> Self {
        Self { path, what, len }
    }

    /// Brings the file up to date with its index: appends `segment` (the
    /// entries that changed since the last call; `None` if none did), or —
    /// if `compact` is set or dead bytes would reach live bytes — replaces
    /// the file with `full()`, the whole index as one segment of `live_len`
    /// bytes. Durable on return either way.
    pub fn persist(
        &mut self,
        segment: Option<Vec<u8>>,
        live_len: u64,
        compact: bool,
        full: impl FnOnce() -> Vec<u8>,
    ) -> StorageResult<()> {
        let appended = self.len + segment.as_ref().map_or(0, |s| s.len() as u64);
        if compact || appended >= REWRITE_AT_LIVE_MULTIPLE * live_len {
            let bytes = full();
            replace_file(&self.path, &bytes, self.what, true)?;
            self.len = bytes.len() as u64;
            counters::incr(&counters::DB_INDEX_COMPACTIONS);
            counters::add(&counters::DB_INDEX_SEGMENT_BYTES, self.len);
        } else if let Some(segment) = segment {
            let io = |e| StorageError::io(format!("appending to {} file", self.what), e);
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)
                .map_err(io)?;
            file.set_len(self.len).map_err(io)?;
            file.write_all_at(&segment, self.len).map_err(io)?;
            file.sync_data().map_err(io)?;
            self.len = appended;
            counters::add(&counters::DB_INDEX_SEGMENT_BYTES, segment.len() as u64);
        }
        Ok(())
    }
}
