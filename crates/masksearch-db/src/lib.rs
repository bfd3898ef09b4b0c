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
//!  │ (blob extents,    │   + directory delta  │ (checksummed frames;      │
//!  │  directory delta) │   + commit, fsync    │  torn tails discarded)    │
//!  └────────┬─────────┘                       └────────────┬──────────────┘
//!           │ same buffers, under write lock               │ checkpoint: log the
//!           ▼                                              ▼ directory, copy back, recycle
//!  ┌──────────────────┐  flush, then empty    ┌───────────────────────────┐
//!  │ pager: write-back │ ───────────────────▶ │ page file  masks.db       │
//!  │ table of dirty    │ ◀─────────────────── │ (a load = one positioned  │
//!  │ extents, no cache │  clean gaps of an    │  read of the extent)      │
//!  └────────┬─────────┘  extent              └───────────────────────────┘
//!           │ on commit: index inserted /                  │ checkpoint: append the
//!           ▼ evict deleted                                ▼ entries that changed
//!  ┌──────────────────┐                       ┌───────────────────────────┐
//!  │ ChiStore (shared  │ ───────────────────▶ │ CHI file  masks.chi       │
//!  │ with the Session) │                      │ (checksummed segments)    │
//!  └──────────────────┘                       └───────────────────────────┘
//! ```
//!
//! * [`pager`] — the page file plus a write-back table of the extents
//!   committed since the last checkpoint, each the one page-padded buffer
//!   its blob was encoded into. A new extent drops the dirty extents it
//!   overlaps: they are dead, since only pages no live extent holds are
//!   ever allocated. No clean-page cache: the OS page cache sits below it
//!   and the decoded-mask cache above it, so a load is one positioned read
//!   of the mask's extent (dirty bytes are copied from the table instead),
//!   and a flush is one positioned write per dirty extent.
//! * `wal` (private) — the write-ahead log: page after-images, gathered
//!   straight from the extent buffers by vectored writes, one directory
//!   delta per commit (or the whole directory, as page images, per
//!   checkpoint) and commit records, checksummed so recovery can cut a torn
//!   tail at any byte boundary. An automatic checkpoint recycles the log's blocks instead of
//!   truncating it; transaction ids only increase, which keeps the frames
//!   of earlier generations out of replay.
//! * [`dir`] — the mask directory (blob extents + full catalog records) and
//!   the delta a commit logs against it; the directory itself reaches its
//!   WAL-protected pages once per checkpoint.
//! * [`store`] — [`DurableMaskStore`]: atomic multi-page commits that cost
//!   what they write, snapshot batch visibility for concurrent readers, live
//!   CHI maintenance, checkpoints that cost what changed since the last one
//!   (the module docs give the commit, checkpoint and recovery protocols).
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

mod alloc;
mod atomic;
pub mod db;
pub mod dir;
pub mod page;
pub mod pager;
mod snapshot;
pub mod stats;
pub mod store;
mod wal;

pub use db::MaskDb;
pub use dir::{BlobEntry, DirDelta, Directory};
pub use page::{Meta, PageNo};
pub use pager::Pager;
pub use stats::IngestStats;
pub use store::{DbConfig, DurableMaskStore, CHI_FILE, DB_FILE, TILES_FILE, WAL_FILE};
