//! Per-query-shape aggregate statistics.
//!
//! A query *shape* is a normalized description of a query's structure (kind,
//! number of CP terms, kernel on/off, ...) without its literal constants.
//! For each shape the registry accumulates the executor's observed counters
//! — how many candidates the CHI bounds pruned or accepted, how many masks
//! were verified and loaded, how the verification kernel's tiles
//! classified — as an observability record of the workload.
//!
//! The registry serializes to a line-oriented text format and is persisted
//! by the durable store at checkpoint, next to the CHI and tile files, so
//! the statistics survive restarts. Counters saturate, and loading keeps at
//! most `MAX_SHAPES` shapes, so a damaged file can neither wrap a sum nor
//! grow the registry without bound.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// The counters one executed query contributes to its shape's aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeObservation {
    /// Candidates considered by the filter stage.
    pub candidates: u64,
    /// Result rows produced.
    pub rows: u64,
    /// Candidates pruned by bounds alone.
    pub pruned: u64,
    /// Candidates accepted by bounds alone (no pixels loaded).
    pub accepted: u64,
    /// Candidates verified against pixels.
    pub verified: u64,
    /// Masks loaded from the store.
    pub masks_loaded: u64,
    /// Kernel tiles skipped entirely.
    pub tiles_pruned: u64,
    /// Kernel tiles answered from per-tile histograms.
    pub tiles_hist: u64,
    /// Kernel tiles scanned pixel-by-pixel.
    pub tiles_scanned: u64,
    /// Filter-stage wall time in microseconds.
    pub filter_wall_us: u64,
    /// Verification-stage wall time in microseconds.
    pub verify_wall_us: u64,
}

/// Accumulated statistics for one query shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeAggregate {
    /// Queries of this shape observed.
    pub queries: u64,
    /// Element-wise sums of every observation.
    pub sums: ShapeObservation,
}

impl ShapeAggregate {
    fn add(&mut self, o: &ShapeObservation) {
        self.queries = self.queries.saturating_add(1);
        let s = &mut self.sums;
        for (sum, value) in [
            (&mut s.candidates, o.candidates),
            (&mut s.rows, o.rows),
            (&mut s.pruned, o.pruned),
            (&mut s.accepted, o.accepted),
            (&mut s.verified, o.verified),
            (&mut s.masks_loaded, o.masks_loaded),
            (&mut s.tiles_pruned, o.tiles_pruned),
            (&mut s.tiles_hist, o.tiles_hist),
            (&mut s.tiles_scanned, o.tiles_scanned),
            (&mut s.filter_wall_us, o.filter_wall_us),
            (&mut s.verify_wall_us, o.verify_wall_us),
        ] {
            *sum = sum.saturating_add(value);
        }
    }
}

/// The format this registry writes.
const MAGIC: &str = "masksearch-shape-stats v1";
/// The format that added a `catalog` line of planner counters, still read
/// (the line is skipped).
const MAGIC_V2: &str = "masksearch-shape-stats v2";
/// Key of the v2 format's catalog line. Shape keys from `shape_key()`
/// always contain `/`, so the bare word cannot collide.
const CATALOG_KEY: &str = "catalog";
/// Numbers on the v2 catalog line.
const CATALOG_FIELDS: usize = 6;
/// Shapes tracked before new (never-seen) shapes are dropped instead of
/// recorded or loaded. Query shapes are structural, so real workloads
/// produce a few dozen; the cap is a backstop against a key-construction
/// bug or a damaged file consuming unbounded memory.
const MAX_SHAPES: usize = 4096;

/// A concurrent registry of per-shape aggregates.
#[derive(Debug, Default)]
pub struct ShapeStatsRegistry {
    shapes: Mutex<BTreeMap<String, ShapeAggregate>>,
}

impl ShapeStatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query's counters under `shape`. Whitespace in the key is
    /// replaced with `_` (the persisted format and the wire rendering are
    /// both line/space-delimited).
    pub fn record(&self, shape: &str, observation: &ShapeObservation) {
        let key = normalize_key(shape);
        let mut shapes = self.shapes.lock().unwrap_or_else(|e| e.into_inner());
        if shapes.len() >= MAX_SHAPES && !shapes.contains_key(&key) {
            return;
        }
        shapes.entry(key).or_default().add(observation);
    }

    /// Number of distinct shapes seen.
    pub fn len(&self) -> usize {
        self.shapes.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Returns `true` if no shape has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The aggregate for one shape, if recorded.
    pub fn get(&self, shape: &str) -> Option<ShapeAggregate> {
        self.shapes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&normalize_key(shape))
            .copied()
    }

    /// Every shape and its aggregate, sorted by shape key.
    pub fn snapshot(&self) -> Vec<(String, ShapeAggregate)> {
        self.shapes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Serializes the registry to its persisted format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::from(MAGIC);
        out.push('\n');
        for (key, a) in self.snapshot() {
            let s = a.sums;
            out.push_str(&format!(
                "{key} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                a.queries,
                s.candidates,
                s.rows,
                s.pruned,
                s.accepted,
                s.verified,
                s.masks_loaded,
                s.tiles_pruned,
                s.tiles_hist,
                s.tiles_scanned,
                s.filter_wall_us,
                s.verify_wall_us,
            ));
        }
        out.into_bytes()
    }

    /// Deserializes a registry from [`ShapeStatsRegistry::to_bytes`] output
    /// or from the v2 format, whose `catalog` line is checked and skipped.
    /// Shapes past `MAX_SHAPES` are dropped. Returns `None` on a
    /// magic/format mismatch (callers fall back to a fresh registry, exactly
    /// like a missing file).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        let magic = lines.next()?;
        if magic != MAGIC && magic != MAGIC_V2 {
            return None;
        }
        let mut shapes = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let key = parts.next()?.to_string();
            let mut next = || parts.next().and_then(|v| v.parse::<u64>().ok());
            if key == CATALOG_KEY {
                for _ in 0..CATALOG_FIELDS {
                    next()?;
                }
                continue;
            }
            let aggregate = ShapeAggregate {
                queries: next()?,
                sums: ShapeObservation {
                    candidates: next()?,
                    rows: next()?,
                    pruned: next()?,
                    accepted: next()?,
                    verified: next()?,
                    masks_loaded: next()?,
                    tiles_pruned: next()?,
                    tiles_hist: next()?,
                    tiles_scanned: next()?,
                    filter_wall_us: next()?,
                    verify_wall_us: next()?,
                },
            };
            if shapes.len() < MAX_SHAPES || shapes.contains_key(&key) {
                shapes.insert(key, aggregate);
            }
        }
        Some(Self {
            shapes: Mutex::new(shapes),
        })
    }
}

fn normalize_key(shape: &str) -> String {
    shape
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation(candidates: u64, rows: u64) -> ShapeObservation {
        ShapeObservation {
            candidates,
            rows,
            pruned: candidates.saturating_sub(rows + 2),
            accepted: 1,
            verified: 1,
            masks_loaded: 1,
            tiles_pruned: 10,
            tiles_hist: 5,
            tiles_scanned: 5,
            filter_wall_us: 100,
            verify_wall_us: 300,
        }
    }

    #[test]
    fn aggregates_accumulate_per_shape() {
        let reg = ShapeStatsRegistry::new();
        reg.record("filter/cp=1", &observation(100, 10));
        reg.record("filter/cp=1", &observation(100, 30));
        reg.record("topk/cp=2", &observation(50, 5));
        assert_eq!(reg.len(), 2);
        let a = reg.get("filter/cp=1").unwrap();
        assert_eq!(a.queries, 2);
        assert_eq!(a.sums.candidates, 200);
        assert_eq!(a.sums.rows, 40);
        assert_eq!(a.sums.tiles_scanned, 10);
    }

    #[test]
    fn round_trips_through_bytes() {
        let reg = ShapeStatsRegistry::new();
        reg.record("filter/cp=1/kernel=on", &observation(100, 10));
        reg.record("pair top-k", &observation(40, 4)); // whitespace in key
        let bytes = reg.to_bytes();
        assert!(bytes.starts_with(MAGIC.as_bytes()));
        let back = ShapeStatsRegistry::from_bytes(&bytes).expect("parse back");
        assert_eq!(back.snapshot(), reg.snapshot());
        assert!(back.get("pair_top-k").is_some());
    }

    #[test]
    fn v2_files_load_their_shapes_and_skip_the_catalog_line() {
        // A registry persisted with the catalog line of planner counters:
        // same row format under the v2 magic.
        let text = "masksearch-shape-stats v2\n\
                    catalog 7 5 2 3 1 450\n\
                    filter/cp=1 1 100 10 88 1 1 1 10 5 5 100 300\n";
        let back = ShapeStatsRegistry::from_bytes(text.as_bytes()).expect("v2 parses");
        assert_eq!(back.len(), 1);
        let a = back.get("filter/cp=1").unwrap();
        assert_eq!(
            (a.queries, a.sums.candidates, a.sums.verify_wall_us),
            (1, 100, 300)
        );
    }

    #[test]
    fn torn_catalog_lines_reject_the_file() {
        let text = format!("{MAGIC_V2}\n{CATALOG_KEY} 1 2 3\n");
        assert!(ShapeStatsRegistry::from_bytes(text.as_bytes()).is_none());
    }

    #[test]
    fn rejects_foreign_bytes() {
        assert!(ShapeStatsRegistry::from_bytes(b"not stats").is_none());
        assert!(ShapeStatsRegistry::from_bytes(&[0xFF, 0xFE]).is_none());
        // Truncated rows are rejected, not half-parsed.
        let text = format!("{MAGIC}\nkey 1 2 3\n");
        assert!(ShapeStatsRegistry::from_bytes(text.as_bytes()).is_none());
    }

    #[test]
    fn damaged_files_neither_overflow_sums_nor_exceed_the_shape_cap() {
        // Counters at u64::MAX: the next record saturates instead of
        // overflowing.
        let max = u64::MAX;
        let text = format!("{MAGIC}\nfilter/cp=1{}\n", format!(" {max}").repeat(12));
        let reg = ShapeStatsRegistry::from_bytes(text.as_bytes()).expect("parses");
        reg.record("filter/cp=1", &observation(100, 10));
        let a = reg.get("filter/cp=1").unwrap();
        assert_eq!(a.queries, max);
        assert_eq!(a.sums.candidates, max);
        assert_eq!(a.sums.verify_wall_us, max);

        // More shape lines than the cap: loading stops at the cap.
        let mut text = format!("{MAGIC}\n");
        for i in 0..MAX_SHAPES + 10 {
            text.push_str(&format!("shape/{i} 1 1 1 1 1 1 1 1 1 1 1 1\n"));
        }
        let reg = ShapeStatsRegistry::from_bytes(text.as_bytes()).expect("parses");
        assert_eq!(reg.len(), MAX_SHAPES);
    }
}
