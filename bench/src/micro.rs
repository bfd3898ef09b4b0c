//! Direct timings of single-layer public functions on a sample of stored
//! masks: the per-layer numbers that no statement-level call exposes.

use crate::dataset::mix;
use crate::metrics::Metrics;
use masksearch_core::{cp, MaskId, PixelRange, Roi, TileGrid, TiledMask};
use masksearch_index::{Chi, ChiConfig};
use masksearch_obs::counters;
use masksearch_storage::format::{decode_mask, encode_mask};
use masksearch_storage::{MaskEncoding, MaskStore};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Masks loaded for the store-read timing. Far more than the pager's pool
/// holds, and spread over the id space, so reads start from a cold pool.
const LOAD_SAMPLE: usize = 256;
/// Of those, masks kept for the in-memory kernels.
const KERNEL_SAMPLE: usize = 64;
/// `(ROI, range)` probes per mask for the two `CP` kernels.
const KERNEL_PROBES: usize = 8;

/// Value of one named counter in an `obs::counters::snapshot`.
pub fn counter(snapshot: &[(&'static str, u64)], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| *v)
}

/// Times `MaskStore::get`, `Chi::build`, `TileGrid::build`, the blob decoder
/// and both `CP` kernels on a seeded sample of `ids`.
pub fn measure(
    store: &dyn MaskStore,
    ids: &[MaskId],
    chi: &ChiConfig,
    seed: u64,
    out: &mut Metrics,
) -> Result<(), String> {
    if ids.is_empty() {
        return Err("no masks to sample".to_string());
    }
    let sample: Vec<MaskId> = (0..LOAD_SAMPLE.min(ids.len()))
        .map(|i| ids[(mix(seed, i as u64) % ids.len() as u64) as usize])
        .collect();

    let reads_before = counter(&counters::snapshot(), "pager_reads");
    let started = Instant::now();
    let mut masks = Vec::with_capacity(sample.len());
    for &id in &sample {
        masks.push(store.get(id).map_err(|e| format!("sample load: {e}"))?);
    }
    let load_s = started.elapsed().as_secs_f64();
    let reads = counter(&counters::snapshot(), "pager_reads") - reads_before;
    out.set("db.load_us_per_mask", load_s * 1e6 / sample.len() as f64);
    out.set(
        "db.pager_reads_per_load",
        reads as f64 / sample.len() as f64,
    );
    masks.truncate(KERNEL_SAMPLE);

    let started = Instant::now();
    for mask in &masks {
        black_box(Chi::build(black_box(mask), chi));
    }
    out.set(
        "index.chi_build_us_per_mask",
        started.elapsed().as_secs_f64() * 1e6 / masks.len() as f64,
    );

    let started = Instant::now();
    let grids: Vec<Arc<TileGrid>> = masks
        .iter()
        .map(|mask| Arc::new(TileGrid::build(black_box(mask))))
        .collect();
    out.set(
        "core.tile_build_us_per_mask",
        started.elapsed().as_secs_f64() * 1e6 / masks.len() as f64,
    );

    let blobs: Vec<Vec<u8>> = masks
        .iter()
        .zip(&sample)
        .map(|(mask, id)| encode_mask(*id, mask, MaskEncoding::Raw))
        .collect();
    let blob_bytes: usize = blobs.iter().map(Vec::len).sum();
    let started = Instant::now();
    for blob in &blobs {
        black_box(decode_mask(black_box(blob)).map_err(|e| format!("sample decode: {e}"))?);
    }
    out.set(
        "storage.decode_mb_per_s",
        blob_bytes as f64 / 1e6 / started.elapsed().as_secs_f64(),
    );

    // The same ROI / range mix for both kernels: rectangles of a quarter to
    // three quarters of the side, ranges on and off the tile-histogram bins.
    let side = masks[0].width().min(masks[0].height());
    let probes: Vec<(Roi, PixelRange)> = (0..KERNEL_PROBES as u64)
        .map(|i| {
            let w = side / 4 + (mix(seed, 100 + i) % u64::from(side / 2 + 1)) as u32;
            let x0 = (mix(seed, 200 + i) % u64::from(side - w + 1)) as u32;
            let y0 = (mix(seed, 300 + i) % u64::from(side - w + 1)) as u32;
            let lo = [0.5f32, 0.6, 0.75, 0.85][i as usize % 4];
            (
                Roi::new(x0, y0, x0 + w.max(1), y0 + w.max(1)).expect("probe inside mask"),
                PixelRange::new(lo, 1.0).expect("lo < 1"),
            )
        })
        .collect();
    let pixels: u64 = probes.iter().map(|(roi, _)| roi.area()).sum::<u64>() * masks.len() as u64;

    let started = Instant::now();
    let mut scan_total = 0u64;
    for mask in &masks {
        for (roi, range) in &probes {
            scan_total += cp(black_box(mask), roi, range);
        }
    }
    out.set(
        "core.cp_scan_mpix_per_s",
        pixels as f64 / 1e6 / started.elapsed().as_secs_f64(),
    );

    let tiled: Vec<TiledMask> = masks
        .into_iter()
        .zip(grids)
        .map(|(mask, grid)| TiledMask::with_grid(Arc::new(mask), grid))
        .collect();
    let started = Instant::now();
    let mut tiled_total = 0u64;
    for mask in &tiled {
        for (roi, range) in &probes {
            tiled_total += black_box(mask).cp(roi, range);
        }
    }
    out.set(
        "core.cp_tiled_mpix_per_s",
        pixels as f64 / 1e6 / started.elapsed().as_secs_f64(),
    );
    if scan_total != tiled_total {
        return Err(format!(
            "kernel disagreement on the sample: scan {scan_total}, tiled {tiled_total}"
        ));
    }
    Ok(())
}
