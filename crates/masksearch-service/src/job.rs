//! Jobs flowing through the service: a request, its deadline, and the
//! channel its result travels back on.

use crate::batch::BatchOutput;
use crate::error::{ServiceError, ServiceResult};
use masksearch_query::{Mutation, MutationOutcome, Query, QueryOutput};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What a job asks the engine to do.
#[derive(Debug, Clone)]
pub enum Request {
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
    /// Execute a group of queries with shared index/mask work
    /// (see [`crate::batch`]).
    Batch(Vec<Query>),
    /// Apply a write (INSERT/DELETE batch) to the shared session.
    Mutation(Mutation),
    /// Apply a `BEGIN … COMMIT` script atomically: every statement lands in
    /// one storage commit or none do. Answered with [`Response::Mutation`]
    /// carrying the summed outcome.
    Transaction(Vec<Mutation>),
}

/// What a job produces.
#[derive(Debug)]
pub enum Response {
    /// Output of a [`Request::Single`].
    Single(QueryResponse),
    /// Output of a [`Request::Explain`]: the rendered plan tree, one line
    /// per node (indented two spaces per level).
    Plan(Vec<String>),
    /// Output of a [`Request::Partial`].
    Partial(PartialResponse),
    /// Output of a [`Request::Batch`].
    Batch(BatchOutput),
    /// Output of a [`Request::Mutation`].
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
    /// Time spent queued before a worker started executing.
    pub queue_wait: Duration,
    /// Time spent executing.
    pub exec_time: Duration,
}

/// The result of one served write: what it did plus serving-layer timings.
#[derive(Debug)]
pub struct MutationResponse {
    /// What the write did.
    pub outcome: MutationOutcome,
    /// Time spent queued before a worker started applying it.
    pub queue_wait: Duration,
    /// Time spent applying.
    pub exec_time: Duration,
}

impl MutationResponse {
    /// An answer that never reached the queue — a replayed token, a
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

/// A unit of queued work.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) reply: mpsc::Sender<ServiceResult<Response>>,
    /// The statement text as the client sent it, when the job came through a
    /// SQL entry point — this is what profiles and the slow-query log show.
    /// Programmatic submissions carry `None` and are labelled by shape.
    pub(crate) statement: Option<std::sync::Arc<str>>,
}

impl Job {
    /// Remaining time until the deadline; `None` when the job has none.
    pub(crate) fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }
}

/// A handle on a submitted query; redeem it with [`Ticket::wait`].
pub struct Ticket {
    pub(crate) submitted: Instant,
    pub(crate) receiver: mpsc::Receiver<ServiceResult<Response>>,
}

impl Ticket {
    /// Blocks until the job finishes, returning its response.
    pub fn wait(self) -> ServiceResult<Response> {
        match self.receiver.recv() {
            Ok(result) => result,
            // The engine dropped the sender without replying: it shut down.
            Err(_) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Blocks up to `timeout` for the job to finish.
    pub fn wait_timeout(self, timeout: Duration) -> ServiceResult<Response> {
        match self.receiver.recv_timeout(timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServiceError::DeadlineExceeded {
                waited: self.submitted.elapsed(),
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Convenience for single-query tickets: unwraps [`Response::Single`].
    pub fn wait_single(self) -> ServiceResult<QueryResponse> {
        match self.wait()? {
            Response::Single(r) => Ok(r),
            _ => Err(ServiceError::Protocol(
                "non-query response on a single-query ticket".to_string(),
            )),
        }
    }

    /// Convenience for batch tickets: unwraps [`Response::Batch`].
    pub fn wait_batch(self) -> ServiceResult<BatchOutput> {
        match self.wait()? {
            Response::Batch(b) => Ok(b),
            _ => Err(ServiceError::Protocol(
                "non-batch response on a batch ticket".to_string(),
            )),
        }
    }

    /// Convenience for mutation tickets: unwraps [`Response::Mutation`].
    pub fn wait_mutation(self) -> ServiceResult<MutationResponse> {
        match self.wait()? {
            Response::Mutation(m) => Ok(m),
            _ => Err(ServiceError::Protocol(
                "non-mutation response on a mutation ticket".to_string(),
            )),
        }
    }

    /// Convenience for partial tickets: unwraps [`Response::Partial`].
    pub fn wait_partial(self) -> ServiceResult<PartialResponse> {
        match self.wait()? {
            Response::Partial(p) => Ok(p),
            _ => Err(ServiceError::Protocol(
                "non-partial response on a partial ticket".to_string(),
            )),
        }
    }

    /// Convenience for explain tickets: unwraps [`Response::Plan`].
    pub fn wait_plan(self) -> ServiceResult<Vec<String>> {
        match self.wait()? {
            Response::Plan(lines) => Ok(lines),
            _ => Err(ServiceError::Protocol(
                "non-plan response on an explain ticket".to_string(),
            )),
        }
    }
}
