//! # masksearch-storage
//!
//! Storage substrate for MaskSearch: how masks get onto and off disk, and at
//! what (modelled) cost.
//!
//! The paper's evaluation (§4.1) stores masks on an EBS gp3 volume provisioned
//! with 125 MiB/s of read bandwidth and 3000 IOPS, and shows that every
//! baseline saturates that bandwidth because it loads *every* mask for *every*
//! query. This crate reproduces that substrate:
//!
//! * [`format`](mod@format) — the binary mask file format (raw and
//!   compressed encodings).
//! * [`compression`] — the lossless XOR-delta + RLE codec used by the
//!   compressed encoding.
//! * [`disk`] — a deterministic disk cost model ([`disk::DiskProfile`]) plus
//!   shared I/O statistics ([`disk::IoStats`]): every read is charged
//!   `per-op latency + bytes / bandwidth` of *virtual* time in addition to
//!   the real file read, so experiments can report the same shape as the
//!   paper's EBS-bound numbers regardless of the physical disk underneath.
//! * [`store`] — [`store::MaskStore`], the object-store-like interface used
//!   by MaskSearch proper (one blob per mask), and the in-memory
//!   [`store::MemoryMaskStore`].
//! * [`array_store`] — a TileDB-like dense-array layout that can slice a
//!   constant ROI out of every mask without reading full masks.
//! * [`row_store`] — a PostgreSQL-like heap-file layout scanned tuple by
//!   tuple with a per-tuple UDF call overhead.
//! * [`cache`] — a byte-budgeted LRU buffer cache of decoded masks.
//! * [`catalog`] — the metadata catalog (the non-pixel columns of
//!   `MasksDatabaseView`) with secondary indexes and binary persistence.
//! * [`cow_map`] — an ordered map whose clones share every node they have
//!   not changed: what the catalog and the CHI store publish versions of.
//! * [`cursor`] — a lookup cursor over such a map keyed by mask id, for the
//!   ascending candidate lists of the filter stage.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod array_store;
pub mod cache;
pub mod catalog;
pub mod codec;
pub mod compression;
pub mod cow_map;
pub mod cursor;
pub mod disk;
pub mod error;
pub mod format;
pub mod meta_index;
pub mod row_store;
pub mod store;

pub use array_store::ArrayStore;
pub use cache::{CachedMask, MaskCache, VerifyLookup};
pub use catalog::Catalog;
pub use cow_map::CowMap;
pub use cursor::IdCursor;
pub use disk::{DiskProfile, IoStats};
pub use error::{StorageError, StorageResult};
pub use format::MaskEncoding;
pub use meta_index::{MetaColumn, MetaIndexDef, MetaIndexRegistry};
pub use row_store::RowStore;
pub use store::{IngestSnapshot, MaskStore, MemoryMaskStore, RowsRead, Stamp, RECOVERED};
