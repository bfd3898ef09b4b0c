//! # masksearch-index
//!
//! The **Cumulative Histogram Index (CHI)** — the paper's core indexing
//! contribution (§3.1) — plus the machinery for building, persisting, and
//! querying it.
//!
//! A CHI summarises one mask by a small 3-D array of pixel counts,
//! cumulative along both the spatial dimensions (2-D prefix rectangles ending
//! on a grid of cell boundaries) and the pixel-value dimension (reverse
//! cumulative over `b` equi-width bins). From that summary MaskSearch can
//! compute, in constant time per mask and **without touching the mask's
//! pixels**, an upper and a lower bound on
//! `CP(mask, roi, (lv, uv))` for *arbitrary* ROIs and value ranges supplied
//! at query time. Those bounds drive the filter–verification executor in
//! `masksearch-query`.
//!
//! Modules:
//!
//! * [`chi`] — index configuration, construction, available regions, and the
//!   additive region-combination rule (paper Eq. 2).
//! * [`bounds`] — upper/lower bounds on `CP` (paper Eqs. 3–4 plus the
//!   symmetric lower-bound construction), and the cell kernel that
//!   verification counts exactly with.
//! * [`compose`] — bound algebra for multi-mask queries: sound `CP` bounds
//!   over a pixelwise composition (`min`/`max`/`|a−b|`) of two masks,
//!   derived from the two per-mask CHIs without loading either mask.
//! * [`store`] — an in-memory collection of CHIs (every mask's cells in one
//!   slab, read through borrowed views) with binary persistence (appendable
//!   checksummed segments) and incremental insertion (paper §3.6).
//! * [`builder`] — parallel bulk index construction.
//!
//! ```
//! use masksearch_core::{cp, Mask, PixelRange, Roi};
//! use masksearch_index::{Chi, ChiConfig};
//!
//! let mask = Mask::from_fn(64, 64, |x, y| ((x + y) as f32) / 128.0);
//! let chi = Chi::build(&mask, &ChiConfig::new(8, 8, 16).unwrap());
//! let roi = Roi::new(10, 7, 55, 40).unwrap();
//! let range = PixelRange::new(0.3, 0.8).unwrap();
//! let bounds = chi.cp_bounds(&roi, &range);
//! let exact = cp(&mask, &roi, &range);
//! assert!(bounds.lower <= exact && exact <= bounds.upper);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod builder;
pub mod chi;
pub mod compose;
mod segment;
pub mod store;

pub use bounds::{CellCount, CpBounds, TermBounds};
pub use builder::{build_chi_store, BuildOptions};
pub use chi::{count_bytes, CellStorage, Cells, CellsRef, Chi, ChiConfig, ChiOver, ChiView};
pub use compose::composed_cp_bounds;
pub use store::{ChiCursor, ChiReader, ChiStore, ChiVersion};
