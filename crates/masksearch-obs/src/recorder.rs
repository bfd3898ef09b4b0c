//! The query flight recorder: bounded, checksummed capture of every
//! executed statement to a binary log that a replay harness can re-execute.
//!
//! The recording is the substrate for workload-faithful regression testing:
//! a perf PR replays a captured production mix and compares per-shape
//! latencies instead of trusting synthetic benchmarks. The format is
//! append-only and WAL-like — a text magic line, then length-prefixed
//! frames each guarded by an FNV-1a checksum. Readers stop at the first
//! frame that fails validation, so a torn tail (crash mid-write) loses at
//! most the last statement, never the recording.
//!
//! Recording is controlled over the wire (`RECORD START/STOP/STATUS`) or by
//! service configuration; when inactive the capture path is a single
//! relaxed atomic load.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// First line of every recording file; version-bumps on format changes.
pub const RECORDER_MAGIC: &str = "masksearch-flight v1\n";

/// Upper bound on a single frame's payload; anything larger is treated as
/// corruption by the reader.
const MAX_FRAME_BYTES: usize = 16 << 20;

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Streaming FNV-1a 64-bit hasher, used for both frame checksums and the
/// response digests stored in recordings.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// How a recorded statement entered the service, which tells the replay
/// harness how to re-issue it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// A plain SQL statement (`execute_statement` / the wire SQL path).
    Statement = 0,
    /// A token-wrapped mutation (`TOKEN <t> <sql>`); replay issues a fresh
    /// token so dedup does not swallow the re-execution.
    Tokened = 1,
    /// An early-termination query (`PARTIAL K=<k> <sql>`); `aux` holds `k`.
    Partial = 2,
}

impl RecordKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Statement),
            1 => Some(Self::Tokened),
            2 => Some(Self::Partial),
            _ => None,
        }
    }
}

/// One captured statement execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedQuery {
    /// Microseconds since the engine started when the statement arrived.
    pub arrival_us: u64,
    /// Server-side wall time in microseconds.
    pub wall_us: u64,
    /// How the statement entered the service.
    pub kind: RecordKind,
    /// Whether execution succeeded.
    pub ok: bool,
    /// Result rows returned (0 for mutations and errors).
    pub rows: u64,
    /// Kind-specific extra value (`k` for [`RecordKind::Partial`]).
    pub aux: u64,
    /// Stage counters: candidates, pruned, verified, loaded, inserted,
    /// deleted.
    pub counters: [u64; 6],
    /// FNV-1a digest of the response frame with wall time excluded; replay
    /// compares this against the digest of the re-executed response.
    pub digest: u64,
    /// Query shape key (or a synthetic label such as `insert` / `error`).
    pub shape: String,
    /// The statement text as received.
    pub sql: String,
}

impl RecordedQuery {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(96 + self.shape.len() + self.sql.len());
        p.extend_from_slice(&self.arrival_us.to_le_bytes());
        p.extend_from_slice(&self.wall_us.to_le_bytes());
        p.extend_from_slice(&self.rows.to_le_bytes());
        p.extend_from_slice(&self.aux.to_le_bytes());
        p.extend_from_slice(&self.digest.to_le_bytes());
        for c in &self.counters {
            p.extend_from_slice(&c.to_le_bytes());
        }
        p.push(self.kind as u8);
        p.push(u8::from(self.ok));
        p.extend_from_slice(&(self.shape.len() as u32).to_le_bytes());
        p.extend_from_slice(self.shape.as_bytes());
        p.extend_from_slice(&(self.sql.len() as u32).to_le_bytes());
        p.extend_from_slice(self.sql.as_bytes());
        p
    }

    fn decode(payload: &[u8]) -> Option<Self> {
        let mut at = 0usize;
        let u64_at = |at: &mut usize| -> Option<u64> {
            let v = u64::from_le_bytes(payload.get(*at..*at + 8)?.try_into().ok()?);
            *at += 8;
            Some(v)
        };
        let arrival_us = u64_at(&mut at)?;
        let wall_us = u64_at(&mut at)?;
        let rows = u64_at(&mut at)?;
        let aux = u64_at(&mut at)?;
        let digest = u64_at(&mut at)?;
        let mut counters = [0u64; 6];
        for c in &mut counters {
            *c = u64_at(&mut at)?;
        }
        let kind = RecordKind::from_u8(*payload.get(at)?)?;
        let ok = match *payload.get(at + 1)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        at += 2;
        let string_at = |at: &mut usize| -> Option<String> {
            let len = u32::from_le_bytes(payload.get(*at..*at + 4)?.try_into().ok()?) as usize;
            *at += 4;
            let s = String::from_utf8(payload.get(*at..*at + len)?.to_vec()).ok()?;
            *at += len;
            Some(s)
        };
        let shape = string_at(&mut at)?;
        let sql = string_at(&mut at)?;
        if at != payload.len() {
            return None;
        }
        Some(Self {
            arrival_us,
            wall_us,
            kind,
            ok,
            rows,
            aux,
            counters,
            digest,
            shape,
            sql,
        })
    }
}

/// Point-in-time recorder state, the payload of `RECORD STATUS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderStatus {
    /// Whether a sink is currently attached.
    pub active: bool,
    /// Path of the current (or most recent) recording file.
    pub path: Option<PathBuf>,
    /// Frames written since this process last called `start`.
    pub records: u64,
    /// Total bytes in the recording file (including appended-to history).
    pub bytes: u64,
    /// Frames dropped because the byte budget was exhausted.
    pub dropped: u64,
}

#[derive(Debug)]
struct Inner {
    writer: Option<BufWriter<File>>,
    path: Option<PathBuf>,
    budget: u64,
}

/// A bounded flight recorder writing checksummed frames to a file.
///
/// `record` is safe to call from any thread; when recording is inactive it
/// is one relaxed atomic load.
#[derive(Debug)]
pub struct FlightRecorder {
    active: AtomicBool,
    records: AtomicU64,
    bytes: AtomicU64,
    dropped: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// An inactive recorder with no sink.
    pub fn new() -> Self {
        Self {
            active: AtomicBool::new(false),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                writer: None,
                path: None,
                budget: u64::MAX,
            }),
        }
    }

    /// Whether a sink is attached (the capture fast-path check).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Attaches a sink at `path` with a total byte budget. An existing
    /// recording is appended to (after its magic is verified), so a
    /// recording survives service restarts; a missing or empty file is
    /// initialized with the magic line.
    pub fn start(&self, path: &Path, budget: u64) -> io::Result<()> {
        let mut existing = 0u64;
        if let Ok(mut f) = File::open(path) {
            let mut head = vec![0u8; RECORDER_MAGIC.len()];
            match f.read_exact(&mut head) {
                Ok(()) if head == RECORDER_MAGIC.as_bytes() => {
                    existing = f.metadata()?.len();
                }
                Ok(()) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{} is not a masksearch recording", path.display()),
                    ));
                }
                // Shorter than the magic: treat as empty and rewrite.
                Err(_) => {}
            }
        }
        let mut inner = self.inner.lock().unwrap();
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if existing == 0 {
            file.set_len(0)?;
            file.write_all(RECORDER_MAGIC.as_bytes())?;
            existing = RECORDER_MAGIC.len() as u64;
        }
        inner.writer = Some(BufWriter::new(file));
        inner.path = Some(path.to_path_buf());
        inner.budget = budget;
        self.records.store(0, Ordering::Relaxed);
        self.bytes.store(existing, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        self.active.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes and detaches the sink. Status counters and the path survive
    /// for a final `RECORD STATUS`.
    pub fn stop(&self) -> io::Result<()> {
        self.active.store(false, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        if let Some(mut w) = inner.writer.take() {
            w.flush()?;
        }
        Ok(())
    }

    /// Flushes buffered frames without detaching the sink.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(w) = inner.writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }

    /// Current recorder state.
    pub fn status(&self) -> RecorderStatus {
        let inner = self.inner.lock().unwrap();
        RecorderStatus {
            active: self.active.load(Ordering::Relaxed),
            path: inner.path.clone(),
            records: self.records.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Captures one statement. No-op when inactive; frames past the byte
    /// budget are counted as dropped instead of growing the file.
    pub fn record(&self, query: &RecordedQuery) {
        if !self.is_active() {
            return;
        }
        let payload = query.encode();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut inner = self.inner.lock().unwrap();
        let budget = inner.budget;
        let Some(writer) = inner.writer.as_mut() else {
            return;
        };
        if self.bytes.load(Ordering::Relaxed) + frame.len() as u64 > budget {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if writer.write_all(&frame).is_ok() {
            self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
            self.records.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Reads a recording, validating the magic and every frame checksum.
/// Reading stops silently at the first torn or corrupt frame (WAL-style
/// tail tolerance); a missing or mislabeled file is an error.
pub fn read_recording(path: &Path) -> io::Result<Vec<RecordedQuery>> {
    let bytes = std::fs::read(path)?;
    let Some(body) = bytes.strip_prefix(RECORDER_MAGIC.as_bytes()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a masksearch recording", path.display()),
        ));
    };
    let mut records = Vec::new();
    let mut at = 0usize;
    while at + 12 <= body.len() {
        let len = u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(body[at + 4..at + 12].try_into().unwrap());
        if len > MAX_FRAME_BYTES || at + 12 + len > body.len() {
            break;
        }
        let payload = &body[at + 12..at + 12 + len];
        if fnv1a(payload) != checksum {
            break;
        }
        let Some(record) = RecordedQuery::decode(payload) else {
            break;
        };
        records.push(record);
        at += 12 + len;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> RecordedQuery {
        RecordedQuery {
            arrival_us: i * 1000,
            wall_us: 42 + i,
            kind: RecordKind::Statement,
            ok: i.is_multiple_of(2),
            rows: i,
            aux: 0,
            counters: [i, i + 1, i + 2, i + 3, 0, 0],
            digest: 0xdead_beef ^ i,
            shape: format!("filter gt {i}"),
            sql: format!("SELECT mask_id FROM masks WHERE cp(mask) > {i}"),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ms-recorder-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn round_trips_records() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new();
        assert!(!rec.is_active());
        rec.start(&path, u64::MAX).unwrap();
        for i in 0..5 {
            rec.record(&sample(i));
        }
        rec.stop().unwrap();
        let status = rec.status();
        assert!(!status.active);
        assert_eq!(status.records, 5);
        assert_eq!(status.dropped, 0);

        let back = read_recording(&path).unwrap();
        assert_eq!(back.len(), 5);
        for (i, r) in back.iter().enumerate() {
            assert_eq!(r, &sample(i as u64));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn restart_appends_to_existing_recording() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new();
        rec.start(&path, u64::MAX).unwrap();
        rec.record(&sample(0));
        rec.stop().unwrap();

        let rec2 = FlightRecorder::new();
        rec2.start(&path, u64::MAX).unwrap();
        rec2.record(&sample(1));
        rec2.stop().unwrap();

        let back = read_recording(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1], sample(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn byte_budget_drops_instead_of_growing() {
        let path = temp_path("budget");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new();
        // Room for the magic plus roughly one frame.
        rec.start(&path, 220).unwrap();
        rec.record(&sample(0));
        rec.record(&sample(1));
        rec.record(&sample(2));
        rec.stop().unwrap();
        let status = rec.status();
        assert!(status.records < 3);
        assert!(status.dropped >= 1);
        assert_eq!(read_recording(&path).unwrap().len() as u64, status.records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_and_corrupt_frame_stops_reading() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new();
        rec.start(&path, u64::MAX).unwrap();
        rec.record(&sample(0));
        rec.record(&sample(1));
        rec.stop().unwrap();

        // Truncate mid-frame: only the first record survives.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert_eq!(read_recording(&path).unwrap().len(), 1);

        // Flip a payload byte of the first frame: reading stops at zero.
        let mut corrupt = bytes.clone();
        let at = RECORDER_MAGIC.len() + 20;
        corrupt[at] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        assert_eq!(read_recording(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = temp_path("foreign");
        std::fs::write(
            &path,
            b"something else entirely, much longer than the magic",
        )
        .unwrap();
        assert!(read_recording(&path).is_err());
        let rec = FlightRecorder::new();
        assert!(rec.start(&path, u64::MAX).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
