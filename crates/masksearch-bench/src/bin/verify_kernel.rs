//! Verification-kernel benchmark: exact `CP` throughput of the cell kernel
//! (every CHI cell decided from the mask's index where it can be, the ROI
//! pixels of the rest scanned) vs. the reference pixel scan, across range
//! selectivities, on a smooth (spatially coherent, the common saliency-map
//! case) and a noise (adversarial) mask, with cells of side/8 and 16 bins.
//! Every measured count is asserted byte-identical between the two paths.
//! Results are written to `BENCH_kernel.json`.
//!
//! ```text
//! cargo run --release --bin verify_kernel -- --side 1024 --iters 10
//! cargo run --release --bin verify_kernel -- --side 256 --iters 25 --check
//! ```
//!
//! With `--check` the process exits non-zero if the kernel is slower than
//! the reference scan on the selective-range (≤ 10% selectivity) cases on
//! the smooth mask — the CI regression guard for the kernel fast paths.

use masksearch_bench::report::Table;
use masksearch_bench::usize_from_args;
use masksearch_core::{cp, Mask, PixelRange, Roi};
use masksearch_index::{CellCount, Chi, ChiConfig, TermBounds};
use std::time::Instant;

struct Point {
    mask: &'static str,
    range: PixelRange,
    selectivity: f64,
    ref_mpix_s: f64,
    cell_mpix_s: f64,
    speedup: f64,
    cells: CellCount,
}

fn smooth_mask(side: u32) -> Mask {
    // A radial saliency blob: spatially coherent values, the layout the
    // paper's saliency/segmentation masks exhibit and the cell kernel
    // decides most cells of.
    let sigma = side as f32 / 6.0;
    Mask::from_fn(side, side, move |x, y| {
        let dx = x as f32 - side as f32 / 2.0;
        let dy = y as f32 - side as f32 / 2.0;
        0.97 * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
    })
}

fn noise_mask(side: u32) -> Mask {
    // Hash noise: every cell spans the full value domain, so only
    // bin-aligned ranges are decided — the kernel's worst case (reported,
    // not gated).
    Mask::from_fn(side, side, move |x, y| {
        let mut h = (u64::from(x) << 32 | u64::from(y)).wrapping_mul(0x9E3779B97F4A7C15);
        h ^= h >> 33;
        (h >> 40) as f32 / (1u64 << 24) as f32
    })
}

fn time_pixels_per_sec(iters: usize, pixels: u64, mut body: impl FnMut() -> u64) -> (f64, u64) {
    // One warm-up evaluation (also the count used for equality checks).
    let count = body();
    // Best-of-N: the minimum per-iteration time is robust to scheduler
    // preemptions on shared CI runners (a preempted iteration inflates one
    // sample, not the minimum), so the `--check` regression gate cannot be
    // flipped by a single noisy quantum.
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..iters {
        let start = Instant::now();
        sink = sink.wrapping_add(body());
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    (pixels as f64 / best.max(1e-9) / 1e6, count)
}

fn bench_mask(name: &'static str, mask: &Mask, iters: usize, points: &mut Vec<Point>) {
    let roi = mask.full_roi();
    let pixels = roi.area();
    let cell = (mask.width() / 8).max(1);
    let config = ChiConfig::new(cell, cell, 16).expect("non-zero cells");
    let build_start = Instant::now();
    let chi = Chi::build(mask, &config);
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "{name}: {}x{} pixels, {cell}-px cells, CHI built in {build_ms:.2} ms",
        mask.width(),
        mask.height(),
    );

    let ranges = [
        PixelRange::new(0.9, 1.0).unwrap(),  // highly selective, unaligned
        PixelRange::new(0.75, 1.0).unwrap(), // selective, bin-aligned
        PixelRange::new(0.5, 1.0).unwrap(),  // bin-aligned
        PixelRange::new(0.25, 0.75).unwrap(),
        PixelRange::new(0.33, 0.77).unwrap(), // straddling, unaligned
        PixelRange::full(),
    ];
    for range in ranges {
        let (ref_mpix_s, ref_count) = time_pixels_per_sec(iters, pixels, || cp(mask, &roi, &range));
        let mut kernel = TermBounds::new(range);
        let mut scan: Vec<Roi> = Vec::new();
        let mut cells = CellCount::default();
        let (cell_mpix_s, cell_count) = time_pixels_per_sec(iters, pixels, || {
            scan.clear();
            cells = kernel.cell_count(chi.view(), &roi, &mut scan);
            cells.decided + scan.iter().map(|rect| cp(mask, rect, &range)).sum::<u64>()
        });
        assert_eq!(
            cell_count, ref_count,
            "kernel diverged from reference on {name} {range}"
        );
        points.push(Point {
            mask: name,
            range,
            selectivity: ref_count as f64 / pixels as f64,
            ref_mpix_s,
            cell_mpix_s,
            speedup: cell_mpix_s / ref_mpix_s,
            cells,
        });
    }
}

fn main() {
    let side = usize_from_args("side", 1024) as u32;
    let iters = usize_from_args("iters", 10).max(1);
    let check = std::env::args().any(|a| a == "--check");

    println!("== cell verification kernel: CP throughput vs. selectivity ==\n");
    let mut points = Vec::new();
    bench_mask("smooth", &smooth_mask(side), iters, &mut points);
    bench_mask("noise", &noise_mask(side), iters, &mut points);

    let mut table = Table::new(&[
        "mask",
        "range",
        "selectivity",
        "ref Mpix/s",
        "cell Mpix/s",
        "speedup",
        "decided",
        "exact",
        "scanned",
    ]);
    for p in &points {
        table.add_row(vec![
            p.mask.to_string(),
            p.range.to_string(),
            format!("{:.4}", p.selectivity),
            format!("{:.0}", p.ref_mpix_s),
            format!("{:.0}", p.cell_mpix_s),
            format!("{:.2}x", p.speedup),
            p.cells.decided_cells.to_string(),
            p.cells.exact_cells.to_string(),
            p.cells.scanned_cells.to_string(),
        ]);
    }
    table.print();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"verify_kernel\",\n");
    json.push_str(&format!("  \"side\": {side},\n"));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"cell\": {},\n", (side / 8).max(1)));
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mask\": \"{}\", \"range\": \"{}\", \"selectivity\": {:.6}, \
             \"ref_mpix_per_sec\": {:.1}, \"cell_mpix_per_sec\": {:.1}, \"speedup\": {:.3}, \
             \"cells_decided\": {}, \"cells_exact\": {}, \"cells_scanned\": {}}}{}\n",
            p.mask,
            p.range,
            p.selectivity,
            p.ref_mpix_s,
            p.cell_mpix_s,
            p.speedup,
            p.cells.decided_cells,
            p.cells.exact_cells,
            p.cells.scanned_cells,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_kernel.json", &json).expect("write BENCH_kernel.json");
    println!("\nwrote BENCH_kernel.json");

    // Regression guard: on the smooth mask the kernel must beat the
    // reference scan wherever the range is selective (≤ 10% of pixels).
    let selective: Vec<&Point> = points
        .iter()
        .filter(|p| p.mask == "smooth" && p.selectivity <= 0.10)
        .collect();
    assert!(
        !selective.is_empty(),
        "benchmark produced no selective-range case to guard"
    );
    let mut ok = true;
    for p in &selective {
        let required = 1.0;
        if p.speedup <= required {
            eprintln!(
                "REGRESSION: kernel {:.2}x vs reference on smooth {} (selectivity {:.3})",
                p.speedup, p.range, p.selectivity
            );
            ok = false;
        }
    }
    if check && !ok {
        std::process::exit(1);
    }
    if check {
        println!("check passed: kernel faster than reference on all selective ranges");
    }
}
