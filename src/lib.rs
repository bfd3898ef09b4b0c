//! # MaskSearch
//!
//! A Rust reproduction of **"MaskSearch: Querying Image Masks at Scale"**
//! (He, Zhang, Daum, Ratner, Balazinska — ICDE 2025).
//!
//! MaskSearch retrieves images and their masks (saliency maps, segmentation
//! maps, depth maps, ...) from large mask databases based on properties of
//! the masks — counts of pixels within regions of interest and pixel-value
//! ranges — using a **Cumulative Histogram Index (CHI)** and a
//! **filter–verification** execution framework that avoids loading most
//! masks from disk.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`core`](mod@masksearch_core) — masks, ROIs, pixel ranges, the exact `CP`
//!   function, mask aggregation.
//! * [`storage`](mod@masksearch_storage) — mask stores, catalog, compression,
//!   buffer cache, and the disk cost model.
//! * [`index`](mod@masksearch_index) — the Cumulative Histogram Index.
//! * [`db`](mod@masksearch_db) — the durable, mutable mask database: pager +
//!   WAL, crash recovery, atomic insert/delete batches, live CHI
//!   maintenance, checkpointing.
//! * [`query`](mod@masksearch_query) — query model, filter–verification
//!   execution, top-k, aggregation, sessions with incremental indexing and
//!   a snapshot-consistent write path.
//! * [`sql`](mod@masksearch_sql) — the SQL front end for the paper's dialect.
//! * [`service`](mod@masksearch_service) — the concurrent query-serving layer:
//!   engine handle that runs each statement on the caller's thread behind an
//!   admission gate (execution slots, bounded waiting, deadlines), metrics,
//!   and a TCP front end.
//! * [`cluster`](mod@masksearch_cluster) — sharded scatter-gather execution:
//!   the serializable shard map, the coordinator with its own TCP front end,
//!   and the distributed top-k threshold algorithm.
//! * [`obs`](mod@masksearch_obs) — the zero-dependency observability layer:
//!   hierarchical query traces, the shared metric-name registry, Prometheus
//!   text exposition, query profiles, slow-query logging, windowed time
//!   series and the flight recorder.
//! * [`baselines`](mod@masksearch_baselines) — NumPy-, PostgreSQL-, and
//!   TileDB-like comparison engines.
//! * [`datagen`](mod@masksearch_datagen) — synthetic dataset and workload
//!   generators used by the evaluation harness.

pub use masksearch_baselines as baselines;
pub use masksearch_cluster as cluster;
pub use masksearch_core as core;
pub use masksearch_datagen as datagen;
pub use masksearch_db as db;
pub use masksearch_index as index;
pub use masksearch_obs as obs;
pub use masksearch_query as query;
pub use masksearch_service as service;
pub use masksearch_sql as sql;
pub use masksearch_storage as storage;

pub use masksearch_core::{cp, Mask, MaskId, MaskRecord, MaskType, PixelRange, Roi};
