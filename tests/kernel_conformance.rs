//! End-to-end conformance of the tiled verification kernel: the same query
//! workload — filter, top-k (with exact ties), and HAVING aggregates —
//! executed over TCP against the same `masksearch-db` store must produce
//! **byte-identical** result frames with the kernel enabled and disabled,
//! including row order, tie-breaks, float formatting, and every
//! deterministic summary counter. Only the `wall_us=` timing token is
//! masked before comparison.

use masksearch::core::{ImageId, Mask, MaskId, MaskRecord};
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::ChiConfig;
use masksearch::query::{KernelMode, Session, SessionConfig};
use masksearch::service::{Engine, Server, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

const W: u32 = 48;
const H: u32 = 48;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "masksearch-kernel-conformance-{}-{}",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Blob masks with varying radius; ids `i` and `i + 1` of every even pair
/// with the same radius are pixel-identical, forcing exact top-k ties that
/// only the deterministic id tie-break can order.
fn mask_for(id: u64) -> Mask {
    let radius = 3.0 + ((id / 2) * 5 % 13) as f32;
    Mask::from_fn(W, H, move |x, y| {
        let dx = x as f32 - 22.0;
        let dy = y as f32 - 26.0;
        if (dx * dx + dy * dy).sqrt() < radius {
            0.91
        } else {
            0.04 + ((x + y) % 3) as f32 * 0.01
        }
    })
}

fn record_for(id: u64) -> MaskRecord {
    MaskRecord::builder(MaskId::new(id))
        .image_id(ImageId::new(id / 2))
        .model_id(masksearch::core::ModelId::new(id % 2 + 1))
        .shape(W, H)
        .object_box(masksearch::core::Roi::new(10, 12, 36, 40).unwrap())
        .build()
}

fn workload() -> Vec<String> {
    vec![
        // Filter: selective range, compound predicate.
        format!(
            "SELECT mask_id FROM masks WHERE CP(mask, (5, 5, 40, 40), (0.5, 1.0)) > 60 \
             AND CP(mask, full, (0.0, 0.5)) > 100"
        ),
        // Filter with a bin-straddling range (histogram cannot answer).
        format!("SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.03, 0.91)) > 900"),
        // Top-k with exact ties (duplicate masks) in both directions.
        format!(
            "SELECT mask_id, CP(mask, object, (0.5, 1.0)) AS s FROM masks \
             ORDER BY s DESC LIMIT 9"
        ),
        format!(
            "SELECT mask_id, CP(mask, object, (0.5, 1.0)) / CP(mask, full, (0.5, 1.0)) AS r \
             FROM masks ORDER BY r ASC LIMIT 7"
        ),
        // HAVING aggregate over groups.
        format!(
            "SELECT image_id, AVG(CP(mask, object, (0.5, 1.0))) AS s FROM masks \
             GROUP BY image_id HAVING s > 120"
        ),
        // Grouped top-k aggregate.
        format!(
            "SELECT image_id, SUM(CP(mask, full, (0.5, 1.0))) AS s FROM masks \
             GROUP BY image_id ORDER BY s DESC LIMIT 5"
        ),
        // Mask aggregation.
        format!(
            "SELECT image_id, CP(INTERSECT(mask > 0.5), object, (0.5, 1.0)) AS s FROM masks \
             GROUP BY image_id ORDER BY s DESC LIMIT 4"
        ),
    ]
}

/// Reads one response frame (through the `END` marker) as raw lines.
fn read_frame(reader: &mut impl BufRead) -> Vec<String> {
    let mut frame = Vec::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed mid-frame"
        );
        let line = line.trim_end_matches(['\r', '\n']).to_string();
        let done = line == "END";
        frame.push(line);
        if done {
            return frame;
        }
    }
}

/// Masks the only nondeterministic token (`wall_us=<n>`) in a frame line.
fn normalize(line: &str) -> String {
    line.split_ascii_whitespace()
        .map(|token| {
            if token.starts_with("wall_us=") {
                "wall_us=X"
            } else {
                token
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Opens the store in `dir`, serves it over TCP with the kernel enabled or
/// disabled, runs the workload on a raw socket, and returns the normalized
/// frames.
fn run_workload(dir: &Path, kernel: bool) -> Vec<Vec<String>> {
    let db = MaskDb::open(dir, db_config()).unwrap();
    let session = Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap())
            .threads(2)
            .cache_bytes(1 << 20)
            .kernel_mode(if kernel {
                KernelMode::ForceOn
            } else {
                KernelMode::ForceOff
            }),
        db.chi_store(),
    );
    let engine = Engine::new(session, ServiceConfig::new(2));
    let server = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut frames = Vec::new();
    for statement in workload() {
        writeln!(&stream, "{statement}").unwrap();
        (&stream).flush().unwrap();
        let frame = read_frame(&mut reader);
        frames.push(frame.iter().map(|l| normalize(l)).collect());
    }
    writeln!(&stream, "QUIT").unwrap();
    drop(stream);
    server.shutdown();
    frames
}

fn db_config() -> DbConfig {
    DbConfig::default()
        .page_size(4096)
        .chi_config(ChiConfig::new(8, 8, 8).unwrap())
}

#[test]
fn kernel_enabled_and_disabled_produce_byte_identical_frames() {
    let dir = temp_dir("frames");
    // Ingest once; both runs then open the same durable store.
    {
        let db = MaskDb::open(&dir, db_config()).unwrap();
        let batch: Vec<(MaskRecord, Mask)> =
            (0..24).map(|i| (record_for(i), mask_for(i))).collect();
        db.insert_masks(&batch).unwrap();
        db.checkpoint().unwrap();
    }

    let enabled = run_workload(&dir, true);
    let disabled = run_workload(&dir, false);

    assert_eq!(enabled.len(), disabled.len());
    for (i, (a, b)) in enabled.iter().zip(&disabled).enumerate() {
        assert_eq!(a, b, "statement {i} produced differing frames");
        // Sanity: the frames carry real results, not errors.
        assert!(a[0].starts_with("OK "), "statement {i}: {}", a[0]);
        assert!(a.len() > 1, "statement {i} returned no rows");
    }

    // The kernel actually engaged: re-run one verification-heavy query with
    // the kernel forced on (the auto planner may legitimately choose the
    // scan for this shape) and confirm the serving metrics counted tiles.
    let db = MaskDb::open(&dir, db_config()).unwrap();
    let session = Session::with_store_maintained_index(
        db.mask_store(),
        db.catalog(),
        SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap())
            .threads(2)
            .kernel_mode(KernelMode::ForceOn),
        db.chi_store(),
    );
    let engine = Engine::new(session, ServiceConfig::new(1));
    let response = engine
        .execute_sql(&format!(
            "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.03, 0.91)) > 900"
        ))
        .unwrap();
    let stats = response.output.stats;
    assert!(
        stats.tiles_pruned + stats.tiles_hist + stats.tiles_scanned > 0,
        "kernel never classified a tile: {stats:?}"
    );
    let metrics = engine.metrics();
    assert_eq!(
        metrics.tiles_pruned + metrics.tiles_hist + metrics.tiles_scanned,
        stats.tiles_pruned + stats.tiles_hist + stats.tiles_scanned
    );
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
