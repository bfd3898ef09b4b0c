//! # masksearch-obs
//!
//! The observability layer of the MaskSearch reproduction: a zero-dependency
//! tracing and profiling substrate threaded through every other crate.
//!
//! The paper's claim is about *where query time goes* — CHI bounds turn a
//! scan of thousands of masks into a handful of loads — so the repo needs a
//! way to show that division of labour per query. This crate provides:
//!
//! - [`span`] / [`trace`]: lightweight hierarchical spans with monotonic
//!   timing and typed counters, named by `&'static str` and kept as flat
//!   `Copy` records in thread-local vectors that every trace reuses, so a
//!   traced statement allocates nothing in steady state. When no trace is
//!   active every instrumentation point is a cheap no-op (one thread-local
//!   read).
//! - [`counters`]: process-global atomic counters for events that happen on
//!   worker threads a span stack cannot follow (cache lock waits, catalog
//!   lock waits, WAL commits, kernel invocations). Exposed via `METRICS`.
//! - [`keys`]: the metrics registry — every exported metric declared once,
//!   as a row the `STATS` writers, the Prometheus expositions, `MONITOR`
//!   and the coordinator's merge all walk.
//! - [`prom`]: a tiny Prometheus text-exposition builder (and validator).
//! - [`LogHistogram`]: the log₂-bucket latency histogram behind the
//!   service's latency and queue-wait distributions and the time series.
//! - [`SlowQueryLog`]: a JSON-lines slow-query log with a configurable
//!   threshold.
//! - [`ProfileRing`]: a bounded ring of recent query profiles, queryable
//!   over the wire via `STATS PROFILES`: preallocated slots, one lock each,
//!   into whose own buffers a statement's trace records are copied — so
//!   recording never frees memory another thread allocated.
//! - [`TimeSeries`]: bounded rings of fixed-width time buckets over query
//!   completions and the global counters, so windows of recent behaviour
//!   (`METRICS WINDOW <secs>`) can be queried without external scraping.
//! - [`FlightRecorder`]: bounded, checksummed capture of every executed
//!   statement to a binary log that `masksearch-bench`'s replay bin can
//!   re-execute and compare against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counters;
pub mod keys;
pub mod prom;

mod histogram;
mod profiles;
mod recorder;
mod slowlog;
mod span;
mod timeseries;

pub use histogram::{LogHistogram, HISTOGRAM_BUCKETS};
pub use profiles::{ProfileRing, QueryProfile};
pub use recorder::{
    fnv1a, read_recording, FlightRecorder, Fnv64, RecordKind, RecordedQuery, RecorderStatus,
    RECORDER_MAGIC,
};
pub use slowlog::{escape_json, SlowQueryLog};
pub use span::{
    add_counter, set_counter, span, trace, trace_active, SpanGuard, SpanNode, TraceGuard,
    TraceRecords,
};
pub use timeseries::{StageCounts, TimeSeries, WindowGauge, WindowSummary, WINDOW_GAUGES};
