//! Jobs flowing through the service: what a statement asks the engine to do,
//! and what it answers.

use masksearch_query::{Mutation, MutationOutcome, Query, QueryOutput};
use std::time::{Duration, Instant};

/// What a job asks the engine to do.
#[derive(Debug, Clone)]
pub(crate) enum Request {
    /// Execute one query.
    Single(Query),
    /// Explain a query: render its plan shape, and with `analyze` execute it
    /// and annotate the plan with the measured statistics.
    Explain {
        /// The query to explain.
        query: Query,
        /// Whether to execute (`EXPLAIN ANALYZE`) or just plan (`EXPLAIN`).
        analyze: bool,
    },
    /// Execute a ranked query in partial (cluster-shard) mode: `k` replaces
    /// the query's own limit and the response carries the k-th value bound.
    Partial {
        /// The ranked query.
        query: Query,
        /// Per-shard `k` override.
        k: usize,
    },
    /// Apply a write (INSERT/DELETE batch) to the shared session.
    Mutation(Mutation),
    /// Apply a `BEGIN … COMMIT` script atomically: every statement lands in
    /// one storage commit or none do. Answered with [`Response::Mutation`]
    /// carrying the summed outcome.
    Transaction(Vec<Mutation>),
}

/// What a statement produces.
#[derive(Debug)]
pub enum Response {
    /// Output of a query.
    Single(QueryResponse),
    /// Output of an `EXPLAIN [ANALYZE]`: the rendered plan tree, one line
    /// per node (indented two spaces per level).
    Plan(Vec<String>),
    /// Output of a query in partial (cluster-shard) mode.
    Partial(PartialResponse),
    /// Output of a write or a transaction.
    Mutation(MutationResponse),
}

/// The result of one partial (bounded top-k) execution: the local top-k plus
/// the bound on everything the shard did not return.
#[derive(Debug)]
pub struct PartialResponse {
    /// The local rows and serving-layer timings.
    pub response: QueryResponse,
    /// The shard's k-th value when unreturned candidates remain
    /// (see [`masksearch_query::merge::RankedPartial`]).
    pub bound: Option<f64>,
}

/// The result of one served query: the engine output plus serving-layer
/// timings.
#[derive(Debug)]
pub struct QueryResponse {
    /// The query's rows and execution statistics.
    pub output: QueryOutput,
    /// Time spent waiting for an execution slot.
    pub queue_wait: Duration,
    /// Time spent executing.
    pub exec_time: Duration,
}

/// The result of one served write: what it did plus serving-layer timings.
#[derive(Debug)]
pub struct MutationResponse {
    /// What the write did.
    pub outcome: MutationOutcome,
    /// Time spent waiting for an execution slot.
    pub queue_wait: Duration,
    /// Time spent applying.
    pub exec_time: Duration,
}

impl MutationResponse {
    /// An answer that never took a slot — a replayed token, a
    /// `ROLLBACK`, a statement buffered into an open transaction — with zero
    /// timings.
    pub(crate) fn untimed(outcome: MutationOutcome) -> Self {
        Self {
            outcome,
            queue_wait: Duration::ZERO,
            exec_time: Duration::ZERO,
        }
    }
}

/// One admitted statement: what it asks for, when it was submitted, and the
/// SQL text it came from.
pub(crate) struct Job<'a> {
    pub(crate) request: Request,
    pub(crate) submitted: Instant,
    /// The statement text as the client sent it, when the job came through a
    /// SQL entry point — this is what profiles and the slow-query log show.
    /// Programmatic calls carry `None` and are labelled by shape.
    pub(crate) statement: Option<&'a str>,
}
