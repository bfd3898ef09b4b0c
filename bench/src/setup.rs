//! Set-up: scratch directories, the free-disk guard, and building a durable
//! database from a [`DatasetSpec`] through the public `MaskDb` write path.

use crate::dataset::DatasetSpec;
use masksearch_core::{Mask, MaskRecord};
use masksearch_db::{DbConfig, MaskDb, CHI_FILE, DB_FILE, TILES_FILE};
use masksearch_index::ChiConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Masks per `MaskDb::insert_masks` call during set-up.
pub const SETUP_BATCH: usize = 32;
/// Histogram bins of the CHI.
const CHI_BINS: u32 = 16;
/// Free space a run needs: a few times the largest database it builds.
pub const MIN_FREE_DISK_BYTES: u64 = 2 << 30;

/// A directory that is removed when the value drops — on success, on an
/// error return, and while a panic unwinds.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates (emptying it first) `parent/name`.
    pub fn create(parent: &Path, name: &str) -> std::io::Result<Self> {
        let path = parent.join(name);
        match std::fs::remove_dir_all(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Removes the scratch directories (`tmp-<pid>`) of runs that were killed
/// before they could clean up: the process they name is gone.
pub fn sweep_stale_scratch(parent: &Path) {
    let Ok(entries) = std::fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let owner = name
            .to_string_lossy()
            .strip_prefix("tmp-")
            .map(str::to_owned);
        if let Some(pid) = owner.filter(|p| p.bytes().all(|b| b.is_ascii_digit())) {
            if !Path::new("/proc").join(&pid).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Free bytes on the file system holding `dir`, as `df -Pk` reports them.
/// `None` when `df` cannot be run or its output is not understood.
pub fn free_disk_bytes(dir: &Path) -> Option<u64> {
    let output = std::process::Command::new("df")
        .arg("-Pk")
        .arg(dir)
        .stdin(std::process::Stdio::null())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    parse_df(&String::from_utf8_lossy(&output.stdout))
}

/// The "Available" column of the second line of POSIX `df -Pk` output.
fn parse_df(text: &str) -> Option<u64> {
    let line = text.lines().nth(1)?;
    let available_kib: u64 = line.split_ascii_whitespace().nth(3)?.parse().ok()?;
    available_kib.checked_mul(1024)
}

/// Refuses to run on a nearly full disk: a benchmark that dies of `ENOSPC`
/// half way leaves no result and a confusing error.
pub fn check_free_disk(dir: &Path) -> Result<(), String> {
    match free_disk_bytes(dir) {
        Some(free) if free < MIN_FREE_DISK_BYTES => Err(format!(
            "only {} MiB free under {}, need {} MiB",
            free >> 20,
            dir.display(),
            MIN_FREE_DISK_BYTES >> 20
        )),
        _ => Ok(()),
    }
}

/// The CHI configuration the benchmark fixes: cell = side / 8, 16 bins.
pub fn chi_config(side: u32) -> ChiConfig {
    let cell = (side / 8).max(1);
    ChiConfig::new(cell, cell, CHI_BINS).expect("non-zero CHI parameters")
}

/// Product defaults everywhere except the CHI shape.
pub fn db_config(side: u32) -> DbConfig {
    DbConfig::default().chi_config(chi_config(side))
}

/// Wall-clock parts of one database build.
#[derive(Debug, Clone, Default)]
pub struct BuildTimings {
    /// `MaskDb::open` on the empty directory.
    pub open_s: f64,
    /// Generating the masks (benchmark-side, two threads).
    pub generate_s: f64,
    /// Each `insert_masks` call, in order, with its batch size.
    pub inserts: Vec<(usize, f64)>,
    /// The closing `checkpoint`.
    pub checkpoint_s: f64,
}

impl BuildTimings {
    /// Everything the build spent.
    pub fn total_s(&self) -> f64 {
        self.open_s + self.generate_s + self.insert_s() + self.checkpoint_s
    }

    /// Time inside `insert_masks`.
    pub fn insert_s(&self) -> f64 {
        self.inserts.iter().map(|(_, s)| s).sum()
    }

    /// Masks inserted.
    pub fn masks(&self) -> usize {
        self.inserts.iter().map(|(n, _)| n).sum()
    }
}

/// Builds a database in `dir` holding `records`, streaming batches of
/// [`SETUP_BATCH`] generated masks through `MaskDb::insert_masks`, then
/// checkpoints. `observe` sees every generated mask (outside the timers).
pub fn build_database(
    dir: &Path,
    spec: &DatasetSpec,
    records: &[MaskRecord],
    threads: usize,
    mut observe: impl FnMut(&MaskRecord, &Mask),
) -> Result<(MaskDb, BuildTimings), String> {
    let mut timings = BuildTimings::default();
    let started = Instant::now();
    let db = MaskDb::open(dir, db_config(spec.side)).map_err(|e| format!("open {dir:?}: {e}"))?;
    timings.open_s = started.elapsed().as_secs_f64();
    for chunk in records.chunks(SETUP_BATCH) {
        let started = Instant::now();
        let batch = spec.masks_of(chunk, threads);
        timings.generate_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        db.insert_masks(&batch)
            .map_err(|e| format!("insert batch: {e}"))?;
        timings
            .inserts
            .push((batch.len(), started.elapsed().as_secs_f64()));
        for (record, mask) in &batch {
            observe(record, mask);
        }
    }
    let started = Instant::now();
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    timings.checkpoint_s = started.elapsed().as_secs_f64();
    Ok((db, timings))
}

/// Sizes of a database directory's files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirBytes {
    /// Every file.
    pub total: u64,
    /// `masks.db`.
    pub pages: u64,
    /// `masks.chi` + `masks.tiles` + `masks.idx.*`.
    pub index: u64,
}

impl std::ops::Add for DirBytes {
    type Output = DirBytes;
    fn add(self, other: DirBytes) -> DirBytes {
        DirBytes {
            total: self.total + other.total,
            pages: self.pages + other.pages,
            index: self.index + other.index,
        }
    }
}

/// Measures a database directory.
pub fn dir_bytes(dir: &Path) -> std::io::Result<DirBytes> {
    let mut bytes = DirBytes::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let len = entry.metadata()?.len();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        bytes.total += len;
        if name == DB_FILE {
            bytes.pages += len;
        } else if name == CHI_FILE || name == TILES_FILE || name.starts_with("masks.idx.") {
            bytes.index += len;
        }
    }
    Ok(bytes)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kib(&status))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A scratch parent for this crate's tests, inside the package directory so
/// tests touch nothing outside the checkout.
#[cfg(test)]
pub fn test_dir(name: &str) -> ScratchDir {
    let parent = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    ScratchDir::create(&parent, &format!("test-{name}-{}", std::process::id()))
        .expect("create test directory")
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_storage::MaskStore;

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let kept;
        {
            let dir = test_dir("scratch-drop");
            kept = dir.path().to_path_buf();
            std::fs::write(kept.join("file"), b"x").unwrap();
            assert!(kept.exists());
        }
        assert!(!kept.exists());

        let path = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let seen = std::sync::Arc::clone(&path);
        let result = std::panic::catch_unwind(move || {
            let dir = test_dir("scratch-panic");
            *seen.lock().unwrap() = dir.path().to_path_buf();
            panic!("boom");
        });
        assert!(result.is_err());
        let path = path.lock().unwrap().clone();
        assert!(!path.as_os_str().is_empty() && !path.exists());
    }

    #[test]
    fn stale_scratch_of_dead_processes_is_swept() {
        let parent = test_dir("sweep");
        // No process has pid 0 in /proc; this one is alive.
        let dead = parent.path().join("tmp-0");
        let alive = parent.path().join(format!("tmp-{}", std::process::id()));
        let other = parent.path().join("trace-scan_cold.jsonl");
        for dir in [&dead, &alive] {
            std::fs::create_dir_all(dir.join("rep0-db0")).unwrap();
        }
        std::fs::write(&other, b"{}").unwrap();
        sweep_stale_scratch(parent.path());
        assert!(!dead.exists() && alive.exists() && other.exists());
    }

    #[test]
    fn df_and_proc_parsers() {
        let df = "Filesystem 1024-blocks Used Available Capacity Mounted on\n\
                  /dev/vda 263174212 14680064 18874368 44% /\n";
        assert_eq!(parse_df(df), Some(18_874_368 * 1024));
        assert_eq!(parse_df("garbage"), None);
        assert_eq!(
            parse_vm_hwm_kib("Name:\tx\nVmHWM:\t  20480 kB\n"),
            Some(20_480)
        );
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn build_streams_every_mask_and_sizes_add_up() {
        let scratch = test_dir("build");
        let spec = DatasetSpec {
            images: 20,
            side: 32,
            seed: 5,
        };
        let records = spec.records();
        let mut seen = 0;
        let (db, timings) =
            build_database(scratch.path(), &spec, &records, 2, |_, _| seen += 1).unwrap();
        assert_eq!(seen, 40);
        assert_eq!(timings.masks(), 40);
        assert_eq!(timings.inserts.len(), 2);
        assert!(timings.total_s() > 0.0);
        assert_eq!(db.catalog().len(), 40);
        assert_eq!(
            db.store().get(records[7].mask_id).unwrap(),
            spec.mask(&records[7])
        );
        let bytes = dir_bytes(scratch.path()).unwrap();
        assert!(bytes.pages >= spec.masks() * spec.mask_bytes());
        assert!(bytes.index > 0 && bytes.total >= bytes.pages + bytes.index);
    }
}
