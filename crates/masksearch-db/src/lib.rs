//! # masksearch-db
//!
//! A durable, mutable mask database: the subsystem that takes the workspace
//! from "bulk-build a static dataset once" (the paper's setting, §3.2/§3.6)
//! to the continuously-ingesting ML workflows of the MaskSearch
//! demonstration (arXiv 2404.06563), where every training iteration and
//! model version produces new masks that must be queryable immediately —
//! and still be there, uncorrupted, after a crash.
//!
//! ## Architecture
//!
//! ```text
//!  insert_masks / delete_masks                    queries (MaskStore::get)
//!            │                                              │
//!            ▼                                              ▼
//!  ┌──────────────────┐   page after-images   ┌───────────────────────────┐
//!  │ commit planner    │ ───────────────────▶ │ WAL  masks.wal            │
//!  │ (blob extents,    │   + commit record,   │ (checksummed frames;      │
//!  │  directory, meta) │   fsync              │  torn tails discarded)    │
//!  └────────┬─────────┘                       └────────────┬──────────────┘
//!           │ apply under write lock                       │ checkpoint:
//!           ▼                                              ▼ copy back + truncate
//!  ┌──────────────────┐  flush, then empty    ┌───────────────────────────┐
//!  │ pager: write-back │ ───────────────────▶ │ page file  masks.db       │
//!  │ table of dirty    │ ◀─────────────────── │ (a load = one positioned  │
//!  │ pages, no cache   │  clean runs of an    │  read of the extent)      │
//!  └────────┬─────────┘  extent              └───────────────────────────┘
//!           │ on commit: index inserted /                  │ checkpoint:
//!           ▼ evict deleted                                ▼ temp + rename
//!  ┌──────────────────┐                       ┌───────────────────────────┐
//!  │ ChiStore (shared  │ ───────────────────▶ │ CHI file  masks.chi       │
//!  │ with the Session) │                      └───────────────────────────┘
//!  └──────────────────┘
//! ```
//!
//! * [`pager`] — the page file plus a write-back table of the pages
//!   committed since the last checkpoint. No clean-page cache: the OS page
//!   cache sits below it and the decoded-mask cache above it, so a load is
//!   one positioned read of the mask's extent (dirty pages are copied from
//!   the table instead).
//! * [`wal`] — the write-ahead log: page after-images + commit records,
//!   checksummed so recovery can cut a torn tail at any byte boundary.
//! * [`dir`] — the mask directory (blob extents + full catalog records),
//!   itself stored in WAL-protected pages.
//! * [`store`] — [`DurableMaskStore`]: atomic multi-page commits, snapshot
//!   batch visibility for concurrent readers, live CHI maintenance,
//!   checkpointing.
//! * [`db`] — [`MaskDb`], the directory-level handle.
//!
//! ## Guarantees
//!
//! * **Atomicity** — a batch of inserts/deletes becomes visible (and
//!   durable) all at once; after a crash at *any* byte of the write path the
//!   reopened database equals a committed prefix of the write history.
//! * **Index consistency** — the maintained [`ChiStore`](masksearch_index::ChiStore)
//!   never holds an entry for a mask that is not durably present: inserts
//!   are indexed only after their WAL commit, deletes are evicted before it,
//!   and recovery reconciles the persisted CHI file against the directory.
//! * **Read stability** — readers resolve a mask's pages under the same
//!   lock generation as its directory entry, so a concurrent commit can
//!   never tear a single read, and a reader that started before a commit
//!   never observes half a batch. Readers do not exclude each other or a
//!   checkpoint: a checkpoint empties the pager's table only after the page
//!   file is durable, so a page a reader does not find in the table is
//!   current in the file.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod db;
pub mod dir;
pub mod page;
pub mod pager;
pub mod stats;
pub mod store;
pub mod wal;

pub use db::MaskDb;
pub use dir::{BlobEntry, Directory};
pub use page::{Meta, PageNo};
pub use pager::Pager;
pub use stats::IngestStats;
pub use store::{
    DbConfig, DurableMaskStore, CHI_FILE, DB_FILE, SHAPE_STATS_FILE, TILES_FILE, WAL_FILE,
};
pub use wal::{CommittedTxn, Wal};
