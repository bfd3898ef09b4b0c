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
//!        │ 1 thread per connection
//!        ▼
//!   ┌──────────────┐   submit    ┌──────────────────┐   pop    ┌───────────┐
//!   │ Server<B>     │ ──────────▶ │ bounded JobQueue │ ───────▶ │ worker    │
//!   │ B = Engine    │  (admission │ + deadlines      │          │ pool      │
//!   └──────────────┘   control)   └──────────────────┘          └────┬──────┘
//!   in-process callers via                                            │ &Session
//!   Engine::execute / execute_batch                                   ▼
//!                                              ┌───────────────────────────┐
//!                                              │ shared Session            │
//!                                              │  CHI store · mask cache   │
//!                                              │  catalog · mask store     │
//!                                              └───────────────────────────┘
//! ```
//!
//! * [`Engine`] — a cloneable handle wrapping an `Arc<Session>`; submits
//!   jobs, enforces admission control and deadlines, and records metrics.
//! * [`queue::JobQueue`] — the bounded MPMC queue between submitters and the
//!   worker pool.
//! * [`batch`] — multi-query execution that shares CHI bound computation and
//!   mask loads across a group of queries.
//! * [`ServiceMetrics`] — QPS, latency histograms (`masksearch-obs`'s
//!   `LogHistogram`), filter rate, cache hit rate.
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
pub mod batch;
pub mod client;
pub mod config;
pub mod dedup;
pub mod engine;
pub mod error;
pub mod job;
pub mod metrics;
pub mod mux;
pub mod pool;
pub mod protocol;
pub mod queue;
pub mod server;

pub use backend::Backend;
pub use batch::{BatchOutput, BatchStats};
pub use client::{Client, MonitorFrame};
pub use config::{AdmissionPolicy, ServiceConfig};
pub use dedup::{Admission, MutationDedup};
pub use engine::Engine;
pub use error::{ServiceError, ServiceResult};
pub use job::{MutationResponse, PartialResponse, QueryResponse, Request, Response, Ticket};
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use mux::{MuxClient, MuxPending};
pub use pool::{ClientPool, PooledClient};
pub use protocol::{ClientRequest, WireResponse, WireSummary, PROTOCOL_VERSION};
pub use server::{Server, ServerHandle};
