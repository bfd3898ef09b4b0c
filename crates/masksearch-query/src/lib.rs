//! # masksearch-query
//!
//! The MaskSearch query model and execution framework (paper §2 and §3.2–3.6):
//!
//! * [`spec`] — ROI specifications (constant, per-mask object box, full
//!   mask), `CP` terms, scalar aggregates and orderings.
//! * [`expr`] — arithmetic expressions over `CP` terms with interval
//!   (bound) evaluation, used for generic predicates such as
//!   `CP(...) / CP(...) < T` (§3.3).
//! * [`predicate`] — comparisons and AND/OR trees evaluated in three-valued
//!   logic over bounds.
//! * [`query`] — the [`Query`] type: selection + one of Filter / Top-K /
//!   Aggregation / Mask-aggregation, with builder helpers.
//! * [`session`] — [`Session`]: owns the mask store, catalog, buffer cache
//!   and CHI store, supports eager or incremental indexing (§3.6), and
//!   executes queries with the filter–verification framework.
//! * [`exec`] — the executors themselves.
//! * [`planner`] — a statement's plan: the access path of its candidate
//!   resolution.
//! * [`explain`] — `EXPLAIN` / `EXPLAIN ANALYZE` plan trees and normalized
//!   query-shape keys that label statements in the flight recorder.
//! * [`result`] — result rows and per-query statistics (masks loaded,
//!   fraction of masks loaded, stage timings).
//!
//! ```
//! use masksearch_core::{Mask, MaskId, MaskRecord, PixelRange, Roi};
//! use masksearch_index::ChiConfig;
//! use masksearch_query::{IndexingMode, Query, Session, SessionConfig};
//! use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
//! use std::sync::Arc;
//!
//! // A tiny database of two masks.
//! let store = MemoryMaskStore::for_tests();
//! let mut catalog = Catalog::new();
//! for i in 0..2u64 {
//!     let mask = Mask::from_fn(32, 32, move |x, _| if i == 0 { 0.9 } else { x as f32 / 64.0 });
//!     store.put(MaskId::new(i), &mask).unwrap();
//!     catalog.insert(MaskRecord::builder(MaskId::new(i)).shape(32, 32).build());
//! }
//! let session = Session::new(
//!     Arc::new(store),
//!     catalog,
//!     SessionConfig::new(ChiConfig::new(8, 8, 16).unwrap()).indexing_mode(IndexingMode::Eager),
//! ).unwrap();
//!
//! // Masks with more than 500 pixels above 0.8 in the top-left quadrant.
//! let query = Query::filter_cp_gt(
//!     Roi::new(0, 0, 16, 16).unwrap(),
//!     PixelRange::new(0.8, 1.0).unwrap(),
//!     200.0,
//! );
//! let result = session.execute(&query).unwrap();
//! assert_eq!(result.mask_ids(), vec![MaskId::new(0)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod merge;
pub mod mutation;
pub mod planner;
pub mod predicate;
pub mod query;
pub mod result;
pub mod session;
pub mod spec;
mod verify;

pub use error::{QueryError, QueryResult as QueryResultExt};
pub use explain::{shape_key, PlanNode};
pub use expr::{Expr, Interval};
pub use masksearch_storage::{MetaColumn, MetaIndexDef, MetaIndexRegistry};
pub use merge::RankedPartial;
pub use mutation::{MaskUpdate, Mutation, MutationOutcome};
pub use planner::ExecPlan;
pub use predicate::{CmpOp, Comparison, Predicate, Truth};
pub use query::{MaskJoin, Query, QueryKind, Selection};
pub use result::{QueryOutput, QueryStats, ResultRow, RowKey};
pub use session::{IndexingMode, ReadVersion, Session, SessionConfig};
pub use spec::{CpTerm, Order, RoiSpec, ScalarAgg, TermSource};
