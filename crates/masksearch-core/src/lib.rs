//! # masksearch-core
//!
//! Data model for MaskSearch (He et al., ICDE 2025): masks, regions of
//! interest, pixel-value ranges, the exact `CP` pixel-counting function,
//! mask aggregation functions, and the relational metadata view
//! (`MasksDatabaseView`) that the rest of the system is built on.
//!
//! This crate is intentionally free of any I/O or indexing logic: it defines
//! the *semantics* that the index (`masksearch-index`) and the execution
//! framework (`masksearch-query`) must preserve, and is the reference
//! implementation every optimization is tested against.
//!
//! ## Quick tour
//!
//! ```
//! use masksearch_core::{Mask, Roi, PixelRange, cp};
//!
//! // A 4x4 mask with a bright 2x2 block in the lower-right corner.
//! let mut m = Mask::zeros(4, 4);
//! for y in 2..4 {
//!     for x in 2..4 {
//!         m.set(x, y, 0.9);
//!     }
//! }
//! let roi = Roi::new(1, 1, 4, 4).unwrap();
//! let range = PixelRange::new(0.85, 1.0).unwrap();
//! assert_eq!(cp(&m, &roi, &range), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod compose;
pub mod cp;
pub mod error;
pub mod mask;
pub mod pixel_pass;
pub mod range;
pub mod record;
pub mod roi;
pub mod tiled;
pub mod types;

pub use agg::{
    intersect_thresholded, mask_max, mask_mean, union_thresholded, weighted_sum, MaskAgg,
};
pub use compose::{check_composable, compose_masks, cp_composed, cp_composed_many, MaskOp};
pub use cp::{cp, cp_full, cp_many, cp_many_le_rows, cp_row_band, RowSweep};
pub use error::{Error, Result};
pub use mask::Mask;
pub use pixel_pass::CellGeometry;
pub use range::PixelRange;
pub use record::{MaskRecord, MaskRecordBuilder};
pub use roi::Roi;
pub use tiled::{TileGrid, TiledMask};
pub use types::{ImageId, Label, MaskId, MaskType, ModelId};
