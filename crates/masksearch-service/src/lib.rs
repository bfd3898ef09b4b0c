//! # masksearch-service
//!
//! A concurrent query-serving subsystem over the MaskSearch CHI engine: the
//! layer that turns the single-caller [`Session`](masksearch_query::Session)
//! of `masksearch-query` into a long-lived server handling many interactive
//! clients — the usage the MaskSearch demonstration describes (ML-workflow
//! users exploring one shared mask database).
//!
//! ## Architecture
//!
//! ```text
//!   TCP clients (masksearch-sql dialect, line protocol)
//!        │ 1 thread per connection (+ handler threads for @id-tagged lines)
//!        ▼
//!   ┌──────────────┐  execute_statement   ┌──────────────────────────┐
//!   │ Server<B>     │ ───────────────────▶ │ Engine: admission gate   │
//!   │ B = Engine    │   on the same thread │ `workers` slots, at most │
//!   └──────────────┘                       │ `queue_depth` waiting,   │
//!   in-process callers via                 │ deadlines while waiting  │
//!   Engine::execute / execute_statement ──▶└────────────┬─────────────┘
//!                                                       │ run on the caller's
//!                                                       ▼ thread, &Session
//!                                          ┌───────────────────────────┐
//!                                          │ shared Session            │
//!                                          │  CHI store · mask cache   │
//!                                          │  catalog · mask store     │
//!                                          └───────────────────────────┘
//! ```
//!
//! * [`Engine`] — a cloneable handle wrapping an `Arc<Session>`. It admits
//!   each statement into one of `workers` execution slots (a caller past
//!   `queue_depth` waiters is rejected, one whose deadline passes while it
//!   waits is abandoned), runs it on the caller's own thread, and records
//!   metrics.
//! * [`ServiceMetrics`] — the counts of the `masksearch-obs` metrics
//!   registry's service rows, and latency histograms (`LogHistogram`).
//! * [`Server`] / [`Client`] — the one line-oriented TCP front end over
//!   `std::net` speaking the `masksearch-sql` dialect. The server is generic
//!   over a [`Backend`]: the [`Engine`] here, or a `masksearch-cluster`
//!   coordinator, so shards and coordinator share one connection loop and
//!   one request dispatch ([`backend`]).
//!
//! ## Quickstart
//!
//! ```
//! use masksearch_core::{Mask, MaskId, MaskRecord};
//! use masksearch_index::ChiConfig;
//! use masksearch_query::{IndexingMode, Session, SessionConfig};
//! use masksearch_service::{Client, Engine, Server, ServiceConfig};
//! use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
//! use std::sync::Arc;
//!
//! // A tiny database.
//! let store = MemoryMaskStore::for_tests();
//! let mut catalog = Catalog::new();
//! for i in 0..4u64 {
//!     let mask = Mask::from_fn(16, 16, move |x, _| ((x + i as u32) % 8) as f32 / 8.0);
//!     store.put(MaskId::new(i), &mask).unwrap();
//!     catalog.insert(MaskRecord::builder(MaskId::new(i)).shape(16, 16).build());
//! }
//! let session = Session::new(
//!     Arc::new(store),
//!     catalog,
//!     SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap()).indexing_mode(IndexingMode::Eager),
//! )
//! .unwrap();
//!
//! // Serve it.
//! let engine = Engine::new(session, ServiceConfig::new(2));
//! let server = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
//!
//! // Query it over TCP.
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let response = client
//!     .query("SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 16, 16), (0.5, 1.0)) > 0")
//!     .unwrap();
//! assert_eq!(response.rows.len(), 4);
//! client.quit().unwrap();
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod client;
pub mod config;
pub mod dedup;
pub mod engine;
pub mod error;
pub mod job;
pub mod metrics;
pub mod mux;
pub mod protocol;
pub mod server;

pub use backend::Backend;
pub use client::{Client, MonitorFrame};
pub use config::ServiceConfig;
pub use dedup::{Admission, MutationDedup};
pub use engine::Engine;
pub use error::{ServiceError, ServiceResult};
pub use job::{MutationResponse, PartialResponse, QueryResponse, Response};
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use mux::{MuxClient, MuxPending};
pub use protocol::{ClientRequest, WireResponse, WireSummary, PROTOCOL_VERSION};
pub use server::{Server, ServerHandle};
