//! Whole-file replacement via temp file + rename, and durable removal.

use masksearch_storage::{StorageError, StorageResult};
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// Atomically replaces `path` with `bytes` via a temp file + rename, so a
/// crash leaves either the old file or the new one, never a torn mix.
///
/// With `durable` set the new content and the rename are fsynced before
/// returning — required wherever a later step (truncating the WAL) relies on
/// the new file being the one a crash leaves behind. Advisory files skip it.
pub(crate) fn replace_file(
    path: &Path,
    bytes: &[u8],
    what: &str,
    durable: bool,
) -> StorageResult<()> {
    // `masks.chi` -> `masks.chi.tmp` (keep the original extension so two
    // different files never share a temp name).
    let tmp = match path.extension() {
        Some(ext) => path.with_extension(format!("{}.tmp", ext.to_string_lossy())),
        None => path.with_extension("tmp"),
    };
    let write = || -> std::io::Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        if durable {
            file.sync_all()?;
        }
        Ok(())
    };
    write().map_err(|e| StorageError::io(format!("writing {what} file"), e))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        StorageError::io(format!("renaming {what} file"), e)
    })?;
    if durable {
        sync_parent(path, what)?;
    }
    Ok(())
}

/// Removes `path` and fsyncs its directory, so the removal survives a crash.
pub(crate) fn remove_file(path: &Path, what: &str) -> StorageResult<()> {
    fs::remove_file(path).map_err(|e| StorageError::io(format!("removing {what} file"), e))?;
    sync_parent(path, what)
}

fn sync_parent(path: &Path, what: &str) -> StorageResult<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    File::open(parent.unwrap_or(Path::new(".")))
        .and_then(|dir| dir.sync_all())
        .map_err(|e| StorageError::io(format!("syncing directory of {what} file"), e))
}
