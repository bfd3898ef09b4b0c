//! # masksearch-cluster
//!
//! Sharded scatter-gather execution for MaskSearch: the layer that turns a
//! set of independent [`masksearch-service`](masksearch_service) servers
//! into one system serving a partitioned mask catalog — the multi-user,
//! beyond-one-machine deployment the MaskSearch demonstration paper
//! (arXiv 2404.06563) sketches.
//!
//! ## Architecture
//!
//! ```text
//!   SQL clients (same line protocol as a single server)
//!        │ tagged (@id) or plain lines
//!        ▼
//!   ┌────────────────┐   ShardMap (hash of image id)
//!   │ Coordinator     │─────────────────────────────┐
//!   │  · the service's│ pipelined     pipelined     │ route writes
//!   │    Server, one  │ scatter       scatter       │ by owner
//!   │    thread per   ▼               ▼             ▼
//!   │    connection   ┌─────────┐   ┌─────────┐   ┌─────────┐
//!   │  · broadcast +  │ shard 0 │   │ shard 1 │ … │ shard N │
//!   │    merge        └─────────┘   └─────────┘   └─────────┘
//!   │  · distributed
//!   │    top-k        one endpoint per shard: a dead shard fails
//!   └────────────────┘ the statement, naming the shard
//!        ▲
//!        └─ merged rows byte-identical to single-node execution
//! ```
//!
//! * [`ShardMap`] — the serializable partitioning function (FNV hash of the
//!   **image id**, the dialect's grouping key, so grouped aggregates never
//!   span shards and every merge is exact).
//! * [`topk`] — the distributed top-k threshold algorithm: bounded per-shard
//!   `k`, k-th-value bounds, and refinement rounds that re-query only the
//!   shards whose bound can still beat the merged k-th row.
//! * [`Coordinator`] / [`CoordinatorServer`] — statement routing over one
//!   multiplexed [`MuxClient`](masksearch_service::mux::MuxClient) link per
//!   shard (a whole fan-out is one round trip), write splitting with
//!   per-shard atomicity, and aggregated `STATS`. The front end is the
//!   service crate's [`Server`](masksearch_service::Server) with the
//!   coordinator as its [`Backend`](masksearch_service::Backend): one
//!   connection loop and one request dispatch for shards and coordinator
//!   alike.
//!
//! The merge rules themselves live in
//! [`masksearch_query::merge`] so that exactness over *any*
//! image-respecting partition is provable (and property-tested) without
//! networking.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coordinator;
pub mod error;
pub mod shard;
pub mod topk;

pub use coordinator::{
    ClusterConfig, ClusterReply, Coordinator, CoordinatorHandle, CoordinatorServer,
};
pub use error::{ClusterError, ClusterResult};
pub use masksearch_obs::keys::ClusterMetricsSnapshot;
pub use shard::ShardMap;
pub use topk::{distributed_topk, TopkRun};
