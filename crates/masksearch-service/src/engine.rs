//! The [`Engine`]: a cloneable, thread-safe handle that turns one
//! [`Session`] into a concurrent query service.
//!
//! Any number of caller threads (or TCP connections) execute statements
//! through the same handle, each on its own thread. An admission gate
//! bounds how many execute at once (`ServiceConfig::workers` slots) and how
//! many may wait for a slot (`ServiceConfig::queue_depth`). Because
//! `Session::execute` takes `&self` and all session state (CHI store, mask
//! cache, aggregated indexes) is behind interior locks, concurrent execution
//! needs no coordination beyond the gate.

use crate::backend::Backend;
use crate::config::ServiceConfig;
use crate::dedup::{Admission, MutationDedup};
use crate::error::{ServiceError, ServiceResult};
use crate::job::{Job, MutationResponse, PartialResponse, QueryResponse, Request, Response};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::protocol::{self, ClientRequest, RecordControl, WireSummary};
use masksearch_core::MaskId;
use masksearch_obs::{
    counters, keys as obs_keys, prom::PromText, FlightRecorder, ProfileRing, QueryProfile,
    RecordKind, RecordedQuery, RecorderStatus, SlowQueryLog, StageCounts, TimeSeries,
};
use masksearch_query::{Mutation, MutationOutcome, Query, QueryStats, ResultRow, Session};
use masksearch_sql::{ExplainMode, Statement, TxnControl};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How many recent query profiles the engine retains for `STATS PROFILES`.
const PROFILE_RING_CAPACITY: usize = 128;

// The whole serving layer rests on the session stack being shareable across
// connection threads; assert it at compile time so a future refactor that
// breaks thread-safety fails here with a clear message rather than somewhere
// in a spawn call.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<masksearch_index::ChiStore>();
    assert_send_sync::<masksearch_storage::MaskCache>();
    assert_send_sync::<masksearch_storage::Catalog>();
    assert_send_sync::<Engine>();
};

/// Admission into the engine's execution slots. At most `slots` statements
/// execute at once, each on the thread that submitted it; at most
/// `max_waiting` callers wait for a slot, and the next one is turned away.
/// The lock guards three counts and is never held while a statement runs.
struct Gate {
    slots: usize,
    max_waiting: usize,
    state: Mutex<GateState>,
    /// Signalled (one waiter) when a slot frees, and (everyone) when the
    /// gate closes or a closed gate's last statement leaves.
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
    closed: bool,
}

impl Gate {
    fn new(slots: usize, max_waiting: usize) -> Self {
        Self {
            slots: slots.max(1),
            max_waiting: max_waiting.max(1),
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a slot, waiting for one while all are busy. A caller arriving
    /// while others wait queues behind them rather than taking a slot one of
    /// them was woken for. Fails with [`ServiceError::QueueFull`] when
    /// `max_waiting` callers already wait, [`ServiceError::DeadlineExceeded`]
    /// when `deadline` passes before a slot does, and
    /// [`ServiceError::ShuttingDown`] once the gate is closed.
    fn enter(&self, submitted: Instant, deadline: Option<Instant>) -> ServiceResult<Slot<'_>> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServiceError::ShuttingDown);
        }
        if state.running < self.slots && state.waiting == 0 {
            state.running += 1;
            return Ok(Slot(self));
        }
        if state.waiting >= self.max_waiting {
            return Err(ServiceError::QueueFull {
                depth: self.max_waiting,
            });
        }
        state.waiting += 1;
        let admitted = loop {
            if state.closed {
                break Err(ServiceError::ShuttingDown);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                break Err(ServiceError::DeadlineExceeded {
                    waited: now - submitted,
                });
            }
            if state.running < self.slots {
                state.running += 1;
                break Ok(Slot(self));
            }
            state = match deadline {
                Some(d) => {
                    self.changed
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        };
        state.waiting -= 1;
        // A caller leaving without the slot it may have been woken for
        // passes the wake-up on, so a free slot never strands a waiter.
        if admitted.is_err() && state.running < self.slots && state.waiting > 0 {
            self.changed.notify_one();
        }
        admitted
    }

    /// Closes the gate: waiters and later callers fail with
    /// [`ServiceError::ShuttingDown`]. Returns once no statement is running.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.changed.notify_all();
        while state.running > 0 {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One held execution slot; dropping it (also while unwinding) frees it.
struct Slot<'a>(&'a Gate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running -= 1;
        if state.closed {
            self.0.changed.notify_all();
        } else if state.waiting > 0 {
            self.0.changed.notify_one();
        }
    }
}

struct Shared {
    session: Arc<Session>,
    gate: Gate,
    metrics: ServiceMetrics,
    /// Recently applied mutation tokens (exactly-once client resends).
    dedup: MutationDedup,
    /// Span trees of recent traced queries (`STATS PROFILES`).
    profiles: ProfileRing,
    /// Threshold-gated JSON-lines log of slow queries.
    slow_log: SlowQueryLog,
    /// Windowed time-series over completions (`METRICS WINDOW <secs>`).
    timeseries: TimeSeries,
    /// Flight recorder capturing executed statements (`RECORD START/STOP`).
    recorder: FlightRecorder,
    /// When the engine came up; recorded arrival timestamps are offsets
    /// from this instant.
    epoch: Instant,
    /// Whether statements are traced (`ServiceConfig::tracing`). With this
    /// off the execution path is exactly the pre-observability one.
    tracing: bool,
}

impl Shared {
    /// Records a traced query into the profile ring and the slow-query log.
    /// `trace` is `None` when tracing is off — then this is a no-op and the
    /// query took the untraced path end to end.
    fn observe_query(
        &self,
        trace: Option<masksearch_obs::TraceGuard>,
        statement: Option<&str>,
        query: &Query,
        stats: &QueryStats,
        wall: Duration,
    ) {
        let Some(trace) = trace else { return };
        let label: std::borrow::Cow<'_, str> = match statement {
            Some(s) => std::borrow::Cow::Borrowed(s),
            // Programmatic submissions have no SQL text; the normalized
            // shape key still tells an operator what ran.
            None => {
                std::borrow::Cow::Owned(masksearch_query::shape_key(query, self.session.config()))
            }
        };
        trace.finish(|records| {
            self.profiles
                .record(&label, wall.as_micros() as u64, records)
        });
        // The plan signature re-runs planning, so it is only computed once
        // the entry is known to cross the threshold.
        let plan = self
            .slow_log
            .would_log(wall)
            .then(|| self.session.plan_signature(query));
        self.slow_log.observe_with_plan(
            &label,
            plan.as_deref(),
            wall,
            &[
                (obs_keys::CANDIDATES, stats.candidates),
                (obs_keys::PRUNED, stats.pruned),
                (obs_keys::VERIFIED, stats.verified),
                (obs_keys::LOADED, stats.masks_loaded),
                (obs_keys::PLANNER_KERNEL_ON, stats.planner_kernel_on),
                (obs_keys::PLANNER_KERNEL_OFF, stats.planner_kernel_off),
            ],
        );
    }

    /// Feeds one completion (or failure) into the windowed time series.
    /// Always on: the rings are bounded and an observation is a short
    /// mutex-protected bucket update.
    fn observe_series(&self, wall: Duration, ok: bool, stats: Option<&QueryStats>) {
        let stages = stats.map(StageCounts::from).unwrap_or_default();
        self.timeseries.observe(wall.as_micros() as u64, ok, stages);
    }

    /// Takes an execution slot for a statement submitted at `submitted`
    /// (see [`Gate::enter`]) and counts the outcome: a caller that got past
    /// the waiting bound is `submitted`, its time to a slot — or to its
    /// deadline — is its queue wait. Returns the slot and that wait.
    fn admit(
        &self,
        submitted: Instant,
        deadline: Option<Instant>,
    ) -> ServiceResult<(Slot<'_>, Duration)> {
        match self.gate.enter(submitted, deadline) {
            Ok(slot) => {
                let wait = submitted.elapsed();
                self.metrics.add(|m| m.submitted = 1);
                self.metrics.record_queue_wait(wait);
                Ok((slot, wait))
            }
            Err(e) => {
                match e {
                    ServiceError::QueueFull { .. } => self.metrics.add(|m| m.rejected = 1),
                    ServiceError::DeadlineExceeded { waited } => {
                        self.metrics.add(|m| {
                            m.submitted = 1;
                            m.deadline_expired = 1;
                        });
                        self.metrics.record_queue_wait(waited);
                    }
                    _ => {}
                }
                Err(e)
            }
        }
    }
}

/// A concurrent query-serving handle over one [`Session`].
///
/// Cloning an `Engine` is cheap and produces another handle on the same
/// session and execution slots. [`Engine::shutdown`] stops every handle.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
    config: ServiceConfig,
}

impl Engine {
    /// Creates an engine owning `session`.
    pub fn new(session: Session, config: ServiceConfig) -> Self {
        Self::with_shared_session(Arc::new(session), config)
    }

    /// Creates an engine over an already shared session.
    pub fn with_shared_session(mut session: Arc<Session>, config: ServiceConfig) -> Self {
        // Each execution slot runs one statement at a time, and each query
        // fans out to `session.config().threads` verify threads — which
        // defaults to all cores. With several slots the product
        // oversubscribes the machine and throughput *drops* as slots are
        // added (BENCH_service.json: 309 -> 302 QPS going 1 -> 2 workers).
        // Divide the verify pool across slots so total verify concurrency
        // stays ~one machine.
        // A session already shared with another engine is left untouched.
        if config.workers > 1 {
            if let Some(session) = Arc::get_mut(&mut session) {
                let per_worker = (session.config().threads / config.workers).max(1);
                session.set_threads(per_worker);
            }
        }
        // Slow-query destination: a configured file (append mode), else the
        // historical stderr default. A file that cannot be opened falls
        // back to stderr rather than failing engine construction.
        let slow_log = match config.slow_query_path.as_deref().map(|path| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
        }) {
            Some(Ok(file)) => SlowQueryLog::with_sink(config.slow_query, Box::new(file)),
            Some(Err(e)) => {
                eprintln!("masksearch: slow-query log file unavailable, using stderr: {e}");
                SlowQueryLog::stderr(config.slow_query)
            }
            None => SlowQueryLog::stderr(config.slow_query),
        };
        let recorder = FlightRecorder::new();
        if let Some(path) = &config.record_to {
            if let Err(e) = recorder.start(path, config.recorder_budget) {
                eprintln!(
                    "masksearch: flight recorder disabled ({}: {e})",
                    path.display()
                );
            }
        }
        let shared = Arc::new(Shared {
            session,
            gate: Gate::new(config.workers, config.queue_depth),
            metrics: ServiceMetrics::default(),
            dedup: MutationDedup::new(),
            profiles: ProfileRing::new(PROFILE_RING_CAPACITY),
            slow_log,
            timeseries: TimeSeries::new(),
            recorder,
            epoch: Instant::now(),
            tracing: config.tracing,
        });
        Self { shared, config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared session behind the engine.
    pub fn session(&self) -> &Arc<Session> {
        &self.shared.session
    }

    /// Server-wide metrics, with the cache hit rate taken from the session's
    /// shared mask cache and the write-path counters from the store (when it
    /// tracks them). `active_connections` is the front end's to fill.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.shared.metrics.snapshot();
        snapshot.cache_hit_rate = self.shared.session.cache().stats().hit_rate();
        snapshot.queue_depth = self.shared.gate.lock().waiting as u64;
        if let Some(ingest) = self.shared.session.store().ingest_stats() {
            snapshot.wal_bytes = ingest.wal_bytes;
            snapshot.checkpoints = ingest.checkpoints;
            snapshot.commits = ingest.commits;
        }
        snapshot.profiles_recorded = self.shared.profiles.recorded();
        snapshot.slow_queries_logged = self.shared.slow_log.logged();
        snapshot
    }

    /// The engine's slow-query log (threshold set by
    /// [`ServiceConfig::slow_query`]).
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.shared.slow_log
    }

    /// Opens a flight-recorder capture for one statement, if recording.
    /// Taken at entry (before compilation) so the arrival timestamp
    /// reflects when the statement reached the service.
    fn begin_capture(&self) -> Option<CaptureStart> {
        if !self.shared.recorder.is_active() {
            return None;
        }
        Some(CaptureStart {
            arrival_us: self.shared.epoch.elapsed().as_micros() as u64,
            started: Instant::now(),
        })
    }

    /// Writes one captured statement to the flight recorder.
    fn capture(
        &self,
        start: CaptureStart,
        entry: Entry,
        sql: &str,
        result: &ServiceResult<Response>,
    ) {
        let (kind, aux) = match entry {
            Entry::Statement(None) | Entry::Query => (RecordKind::Statement, 0),
            Entry::Statement(Some(token)) => (RecordKind::Tokened, token),
            Entry::Partial(k) => (RecordKind::Partial, k as u64),
        };
        // An `OK` answer is recorded from the summary its frame carries.
        let answered = |s: WireSummary, rows: &[ResultRow]| {
            let counts = [
                s.candidates,
                s.pruned,
                s.verified,
                s.loaded,
                s.inserted,
                s.deleted,
            ];
            (
                true,
                s.rows,
                counts,
                protocol::digest_ok(&s, rows),
                s.wall_us,
            )
        };
        let (ok, rows, counters, digest, wall_us) = match result {
            Ok(Response::Single(r)) => answered(WireSummary::of_query(r, None), &r.output.rows),
            Ok(Response::Partial(p)) => {
                let r = &p.response;
                answered(WireSummary::of_query(r, p.bound), &r.output.rows)
            }
            Ok(Response::Mutation(m)) => answered(WireSummary::of_mutation(m), &[]),
            Ok(Response::Plan(lines)) => (
                true,
                lines.len() as u64,
                [0; 6],
                protocol::digest_plan_lines(lines),
                start.started.elapsed().as_micros() as u64,
            ),
            Err(e) => (
                false,
                0,
                [0; 6],
                protocol::digest_error_message(&e.wire_message()),
                start.started.elapsed().as_micros() as u64,
            ),
        };
        let shape = match result {
            Err(_) => "error".to_string(),
            Ok(Response::Plan(_)) => "explain".to_string(),
            Ok(Response::Mutation(_)) => {
                let sql = sql.trim_start();
                let shapes = [
                    ("INSERT", "insert"),
                    ("DELETE", "delete"),
                    ("UPDATE", "update"),
                    ("BEGIN", "transaction"),
                ];
                shapes
                    .into_iter()
                    .find(|(kw, _)| protocol::keyword(sql, kw).is_some())
                    .map_or("mutation", |(_, shape)| shape)
                    .to_string()
            }
            Ok(_) => match masksearch_sql::compile_statement(sql) {
                Ok(Statement::Query(query)) => {
                    masksearch_query::shape_key(&query, self.shared.session.config())
                }
                _ => "query".to_string(),
            },
        };
        self.shared.recorder.record(&RecordedQuery {
            arrival_us: start.arrival_us,
            wall_us,
            kind,
            ok,
            rows,
            aux,
            counters,
            digest,
            shape,
            sql: sql.to_string(),
        });
    }

    /// Admits `request` into an execution slot and runs it on this thread.
    /// `statement` is the SQL text it came from, when it came through a SQL
    /// entry point — what profiles and the slow-query log show.
    fn execute_request(
        &self,
        request: Request,
        statement: Option<&str>,
    ) -> ServiceResult<Response> {
        let submitted = Instant::now();
        let deadline = self.config.default_deadline.map(|d| submitted + d);
        let (_slot, wait) = self.shared.admit(submitted, deadline)?;
        let job = Job {
            request,
            submitted,
            statement,
        };
        run_job(&self.shared, &job, wait)
    }

    /// Applies a write (an atomic INSERT/DELETE batch).
    pub fn execute_mutation(&self, mutation: Mutation) -> ServiceResult<MutationResponse> {
        self.apply(Request::Mutation(mutation))
    }

    /// Applies a transaction: every mutation lands in one storage commit or
    /// none do. The response carries the summed outcome.
    pub fn execute_transaction(&self, mutations: Vec<Mutation>) -> ServiceResult<MutationResponse> {
        self.apply(Request::Transaction(mutations))
    }

    fn apply(&self, request: Request) -> ServiceResult<MutationResponse> {
        match self.execute_request(request, None)? {
            Response::Mutation(response) => Ok(response),
            _ => unreachable!("a write answers with its outcome"),
        }
    }

    /// Compiles any SQL statement — SELECT, INSERT, DELETE, UPDATE, DDL,
    /// `EXPLAIN [ANALYZE]` or a `BEGIN; …; COMMIT` script — and executes it,
    /// returning the matching response variant. This is the statement path
    /// the TCP front end uses, so network clients can ingest masks while
    /// other clients query.
    pub fn execute_statement(&self, sql: &str) -> ServiceResult<Response> {
        self.run(sql, Entry::Statement(None))
    }

    /// Compiles a SQL query in the MaskSearch dialect and executes it.
    pub fn execute_sql(&self, sql: &str) -> ServiceResult<QueryResponse> {
        match self.run(sql, Entry::Query)? {
            Response::Single(response) => Ok(response),
            _ => unreachable!("a query answers with rows"),
        }
    }

    /// The one statement path behind every SQL entry point: compiles `sql`
    /// as `entry` asks, executes it, and — while the flight recorder is on —
    /// captures the outcome.
    fn run(&self, sql: &str, entry: Entry) -> ServiceResult<Response> {
        let start = self.begin_capture();
        let result = self.dispatch(sql, entry);
        if let Some(start) = start {
            self.capture(start, entry, sql, &result);
        }
        result
    }

    fn dispatch(&self, sql: &str, entry: Entry) -> ServiceResult<Response> {
        let token = match entry {
            Entry::Statement(token) => token,
            Entry::Query => return self.query(Request::Single(masksearch_sql::compile(sql)?), sql),
            Entry::Partial(k) => {
                return match masksearch_sql::compile_statement(sql)? {
                    Statement::Query(query) => self.query(Request::Partial { query, k }, sql),
                    Statement::Mutation(_) | Statement::Control(_) => Err(ServiceError::Sql(
                        "PARTIAL applies to queries, not writes".to_string(),
                    )),
                }
            }
        };
        if let Some((mode, inner)) = masksearch_sql::strip_explain(sql) {
            // Dedup tokens are meaningless for side-effect-free explains.
            return Ok(Response::Plan(
                self.explain_sql(mode == ExplainMode::Analyze, inner)?,
            ));
        }
        if let Some((mutations, commit)) =
            masksearch_sql::compile_transaction_script(sql).map_err(ServiceError::Sql)?
        {
            // The whole script dedups as one unit; one that ended in
            // ROLLBACK applies nothing and never takes a slot.
            return self.deduped(token, || {
                if commit {
                    self.execute_transaction(mutations)
                } else {
                    Ok(MutationResponse::untimed(MutationOutcome::default()))
                }
            });
        }
        match masksearch_sql::compile_statement(sql)? {
            Statement::Query(query) => self.query(Request::Single(query), sql),
            Statement::Mutation(mutation) => {
                self.deduped(token, || self.execute_mutation(mutation))
            }
            Statement::Control(_) => Err(bare_control_error()),
        }
    }

    /// Executes a compiled query labelled with its SQL text.
    fn query(&self, request: Request, sql: &str) -> ServiceResult<Response> {
        self.execute_request(request, Some(sql))
    }

    /// Applies a write at most once per client token: a resend whose
    /// original already applied is answered from the recorded outcome
    /// without touching the store. Without a token the write just applies.
    fn deduped(
        &self,
        token: Option<u64>,
        apply: impl FnOnce() -> ServiceResult<MutationResponse>,
    ) -> ServiceResult<Response> {
        let Some(token) = token else {
            return apply().map(Response::Mutation);
        };
        let response = match self.shared.dedup.begin(token) {
            Admission::Replay(outcome) => {
                self.shared.metrics.add(|m| m.mutations_deduped = 1);
                MutationResponse::untimed(outcome)
            }
            Admission::Execute => {
                // The permit abandons the token on *any* exit — error or
                // unwind — that does not record an outcome, so a resend can
                // never park forever behind a dead execution.
                let permit = self.shared.dedup.permit(token);
                let response = apply()?;
                permit.finish(response.outcome);
                response
            }
        };
        Ok(Response::Mutation(response))
    }

    /// Compiles a SQL query and returns its rendered plan tree, executing it
    /// first when `analyze` is set (`EXPLAIN ANALYZE`) so the plan carries
    /// the measured statistics. Writes cannot be explained.
    pub fn explain_sql(&self, analyze: bool, sql: &str) -> ServiceResult<Vec<String>> {
        match masksearch_sql::compile_statement(sql)? {
            Statement::Query(query) => {
                match self.query(Request::Explain { query, analyze }, sql)? {
                    Response::Plan(lines) => Ok(lines),
                    _ => unreachable!("an explain answers with its plan"),
                }
            }
            Statement::Mutation(_) | Statement::Control(_) => Err(ServiceError::Sql(
                "EXPLAIN applies to queries, not writes".to_string(),
            )),
        }
    }

    /// Executes a query.
    pub fn execute(&self, query: &Query) -> ServiceResult<QueryResponse> {
        match self.execute_request(Request::Single(query.clone()), None)? {
            Response::Single(response) => Ok(response),
            _ => unreachable!("a query answers with rows"),
        }
    }

    /// Stops admitting statements: callers waiting for a slot, and every
    /// later call on any clone, fail with [`ServiceError::ShuttingDown`].
    /// Returns once the statements already executing have finished. Must
    /// not be called from inside a statement. Idempotent.
    pub fn shutdown(&self) {
        self.shared.gate.close();
    }

    /// Handles one untagged SQL line that interacts with the connection's
    /// transaction state: bare `BEGIN` / `COMMIT` / `ROLLBACK`, and — while a
    /// transaction is open — every statement on the connection. Nothing is
    /// applied before `COMMIT` reaches the engine.
    fn transaction_line(
        &self,
        txn: &mut Option<Vec<Mutation>>,
        sql: &str,
    ) -> ServiceResult<Response> {
        let fail = |msg: &str| Err(ServiceError::Sql(msg.to_string()));
        let buffered = || {
            Ok(Response::Mutation(MutationResponse::untimed(
                MutationOutcome::default(),
            )))
        };
        // A parse error answers with ERR and leaves any open transaction
        // open: the client decides whether to retry the line or roll back.
        let statements = masksearch_sql::compile_script(sql)?;
        if statements.len() != 1 {
            if txn.is_some() {
                return fail("finish the open transaction before sending a multi-statement script");
            }
            // No open transaction: the script path owns `BEGIN; ...`.
            return self.execute_statement(sql);
        }
        let statement = statements.into_iter().next().expect("one statement");
        match (statement, txn.as_mut()) {
            (Statement::Control(TxnControl::Begin), None) => {
                *txn = Some(Vec::new());
                buffered()
            }
            (Statement::Control(TxnControl::Begin), Some(_)) => {
                fail("transaction already open (transactions do not nest)")
            }
            (Statement::Control(TxnControl::Commit | TxnControl::Rollback), None) => {
                fail("no open transaction")
            }
            (Statement::Control(TxnControl::Commit), Some(_)) => {
                let mutations = txn.take().expect("open transaction");
                self.execute_transaction(mutations).map(Response::Mutation)
            }
            (Statement::Control(TxnControl::Rollback), Some(_)) => {
                *txn = None;
                buffered()
            }
            (Statement::Mutation(mutation), Some(buffer)) => {
                buffer.push(mutation);
                buffered()
            }
            (Statement::Query(_), Some(_)) => fail(
                "queries are not allowed inside an open transaction; \
                 its writes are not visible until COMMIT",
            ),
            // No transaction open and not a control statement: ordinary path.
            (Statement::Mutation(_) | Statement::Query(_), None) => self.execute_statement(sql),
        }
    }
}

/// The engine behind a [`Server`](crate::Server): a connection keeps its
/// interactive transaction (protocol v7) — a bare `BEGIN` opens a buffer,
/// DML statements buffer into it (each acknowledged with a zero-outcome
/// `OK`), `COMMIT` submits it as one atomic transaction whose `OK` reports
/// the summed outcome, and `ROLLBACK` or the connection closing discards it.
impl Backend for Engine {
    type Conn = Option<Vec<Mutation>>;
    type Error = ServiceError;

    fn connection_request(
        &self,
        txn: &mut Self::Conn,
        request: &ClientRequest,
    ) -> Option<ServiceResult<Response>> {
        match request {
            ClientRequest::Sql(sql) if txn.is_some() || leading_txn_keyword(sql) => {
                Some(self.transaction_line(txn, sql))
            }
            ClientRequest::Tokened { .. } | ClientRequest::Partial { .. } if txn.is_some() => {
                Some(Err(ServiceError::Protocol(
                    "not allowed inside an open transaction; COMMIT or ROLLBACK first".to_string(),
                )))
            }
            _ => None,
        }
    }

    fn statement(&self, token: Option<u64>, sql: &str) -> ServiceResult<Response> {
        self.run(sql, Entry::Statement(token))
    }

    /// Compiles a ranked SQL statement and executes it in partial mode: the
    /// statement's own `LIMIT` is replaced by `k` and the response reports
    /// the k-th value as a bound on every unreturned candidate. Non-ranked
    /// statements execute normally (with no bound); writes are rejected.
    fn partial(&self, k: usize, sql: &str) -> ServiceResult<PartialResponse> {
        match self.run(sql, Entry::Partial(k))? {
            Response::Partial(partial) => Ok(partial),
            _ => unreachable!("a partial statement answers with a partial response"),
        }
    }

    fn stats_line(&self, active_connections: u64) -> ServiceResult<String> {
        let mut metrics = self.metrics();
        metrics.active_connections = active_connections;
        Ok(protocol::stats_line(&metrics))
    }

    /// Everything the server knows, as a Prometheus text exposition
    /// (version 0.0.4): service counters and gauges, the process-global
    /// observability counters, and the latency/queue-wait histograms.
    fn prometheus_text(&self) -> String {
        let mut p = PromText::new();
        p.metrics(&MetricsSnapshot::ROWS, &self.metrics().values());
        p.metrics(&counters::ROWS, &counters::values());
        p.histogram(
            "masksearch_query_latency_seconds",
            "End-to-end query latency (submission to completion).",
            self.shared.metrics.latency(),
        );
        p.histogram(
            "masksearch_queue_wait_seconds",
            "Time statements spent waiting for an execution slot.",
            self.shared.metrics.queue_wait(),
        );
        let mut text = p.finish();
        // Windowed gauges (last minute, last five minutes) from the bounded
        // time-series rings.
        self.shared
            .timeseries
            .render_prometheus(&[60, 300], &mut text);
        text
    }

    fn metrics_window_text(&self, secs: u64) -> String {
        let mut text = String::new();
        self.shared.timeseries.render_prometheus(&[secs], &mut text);
        text
    }

    /// Starts (a missing path means [`ServiceConfig::record_to`]), stops
    /// (flushing) or reports the flight recorder.
    fn record(&self, control: &RecordControl) -> ServiceResult<RecorderStatus> {
        let recorder = &self.shared.recorder;
        match control {
            RecordControl::Start(path) => {
                let path = match path {
                    Some(p) => std::path::PathBuf::from(p),
                    None => self.config.record_to.clone().ok_or_else(|| {
                        ServiceError::Protocol(
                            "RECORD START needs a path (no recording path configured)".to_string(),
                        )
                    })?,
                };
                recorder
                    .start(&path, self.config.recorder_budget)
                    .map_err(|e| {
                        ServiceError::Io(format!("cannot record to {}: {e}", path.display()))
                    })?;
            }
            RecordControl::Stop => recorder
                .stop()
                .map_err(|e| ServiceError::Io(format!("recorder flush failed: {e}")))?,
            RecordControl::Status => {}
        }
        Ok(recorder.status())
    }

    fn profiles(&self, n: usize) -> Vec<QueryProfile> {
        self.shared.profiles.recent(n)
    }

    /// The ids this engine's session holds among `ids`, or all of them — how
    /// a cluster coordinator resolves and seeds its mask-id → shard owners.
    fn lookup(&self, ids: Option<&[MaskId]>) -> ServiceResult<Vec<MaskId>> {
        Ok(match ids {
            Some(ids) => ids
                .iter()
                .copied()
                .filter(|&id| self.shared.session.record(id).is_ok())
                .collect(),
            None => self.shared.session.store().ids(),
        })
    }
}

/// Whether a SQL line's first keyword is `BEGIN` / `COMMIT` / `ROLLBACK` —
/// the cheap pre-filter deciding if the connection's transaction handler
/// must compile the line. Everything else skips straight to the statement
/// path.
fn leading_txn_keyword(sql: &str) -> bool {
    let first = protocol::first_keyword(sql);
    ["BEGIN", "COMMIT", "ROLLBACK"]
        .iter()
        .any(|kw| first.eq_ignore_ascii_case(kw))
}

/// The error a bare interactive `BEGIN` / `COMMIT` / `ROLLBACK` gets at the
/// engine's statement entry points: transaction state is connection-scoped,
/// which the embedded API has none of.
fn bare_control_error() -> ServiceError {
    ServiceError::Sql(
        "BEGIN/COMMIT/ROLLBACK control a connection's open transaction; \
         here send the whole transaction as one `BEGIN; ...; COMMIT` script"
            .to_string(),
    )
}

/// How [`Engine::run`] compiles one SQL text.
#[derive(Clone, Copy)]
enum Entry {
    /// Any statement; a token makes a write's resend exactly-once.
    Statement(Option<u64>),
    /// A query only ([`Engine::execute_sql`]).
    Query,
    /// A query in partial (cluster-shard) mode with the per-shard `k`.
    Partial(usize),
}

/// Arrival timestamp and start instant of one recorded statement.
struct CaptureStart {
    arrival_us: u64,
    started: Instant,
}

/// Executes one job's request and does its success bookkeeping; failures
/// are [`guarded`].
fn run_job(shared: &Shared, job: &Job<'_>, wait: Duration) -> ServiceResult<Response> {
    let exec_start = Instant::now();
    let trace = || shared.tracing.then(|| masksearch_obs::trace("query"));
    // A completed query: profile, metrics, time series.
    let completed =
        |trace: Option<masksearch_obs::TraceGuard>, query: &Query, stats: &QueryStats| {
            let exec_time = exec_start.elapsed();
            shared.observe_query(trace, job.statement, query, stats, exec_time);
            shared
                .metrics
                .record_completed(stats, job.submitted.elapsed());
            shared.observe_series(exec_time, true, Some(stats));
            exec_time
        };
    let applied = |outcome: MutationOutcome| {
        // Mutation latencies stay out of the query latency histogram so
        // ingestion bursts do not distort read p99s.
        shared.metrics.add(|m| {
            m.mutations = 1;
            m.masks_inserted = outcome.inserted as u64;
            m.masks_deleted = outcome.deleted as u64;
            m.masks_updated = outcome.updated as u64;
        });
        shared.observe_series(exec_start.elapsed(), true, None);
        Response::Mutation(MutationResponse {
            outcome,
            queue_wait: wait,
            exec_time: exec_start.elapsed(),
        })
    };
    match &job.request {
        Request::Single(query) => {
            let trace = trace();
            guarded(shared, exec_start, || shared.session.execute(query)).map(|output| {
                let exec_time = completed(trace, query, &output.stats);
                Response::Single(QueryResponse {
                    output,
                    queue_wait: wait,
                    exec_time,
                })
            })
        }
        // Plan shape only: no execution, no stats, no trace.
        Request::Explain {
            query,
            analyze: false,
        } => Ok(Response::Plan(shared.session.explain(query).render())),
        Request::Explain {
            query,
            analyze: true,
        } => {
            let trace = trace();
            guarded(shared, exec_start, || shared.session.explain_analyze(query)).map(
                |(plan, output)| {
                    completed(trace, query, &output.stats);
                    Response::Plan(plan.render())
                },
            )
        }
        Request::Partial { query, k } => {
            let trace = trace();
            guarded(shared, exec_start, || {
                shared.session.execute_topk_partial(query, Some(*k))
            })
            .map(|partial| {
                let exec_time = completed(trace, query, &partial.output.stats);
                Response::Partial(PartialResponse {
                    response: QueryResponse {
                        output: partial.output,
                        queue_wait: wait,
                        exec_time,
                    },
                    bound: partial.bound,
                })
            })
        }
        Request::Mutation(mutation) => {
            guarded(shared, exec_start, || shared.session.apply(mutation)).map(applied)
        }
        Request::Transaction(mutations) => guarded(shared, exec_start, || {
            shared.session.apply_transaction(mutations)
        })
        .map(applied),
    }
}

/// Runs one job's execution so that a failure fails only that job: an error
/// — or a panic, answered as [`ServiceError::Internal`] — is counted as
/// failed and fed to the time series instead of unwinding through the
/// caller's thread (a connection would lose its socket mid-statement).
fn guarded<T>(
    shared: &Shared,
    exec_start: Instant,
    execute: impl FnOnce() -> Result<T, masksearch_query::QueryError>,
) -> ServiceResult<T> {
    let error = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(execute)) {
        Ok(Ok(value)) => return Ok(value),
        Ok(Err(e)) => e.into(),
        Err(panic) => ServiceError::Internal(panic_message(&panic)),
    };
    shared.metrics.add(|m| m.failed = 1);
    shared.observe_series(exec_start.elapsed(), false, None);
    Err(error)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "query execution panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{ImageId, Mask, MaskId, MaskRecord, PixelRange, Roi};
    use masksearch_index::ChiConfig;
    use masksearch_query::{IndexingMode, SessionConfig};
    use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};

    fn test_session(n: u64, mode: IndexingMode) -> Session {
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        for i in 0..n {
            let mask = Mask::from_fn(16, 16, move |x, y| ((x + y + i as u32) % 10) as f32 / 10.0);
            store.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(
                MaskRecord::builder(MaskId::new(i))
                    .image_id(ImageId::new(i / 2))
                    .shape(16, 16)
                    .object_box(Roi::new(2, 2, 12, 12).unwrap())
                    .build(),
            );
        }
        Session::new(
            store as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
                .threads(1)
                .indexing_mode(mode),
        )
        .unwrap()
    }

    #[test]
    fn verify_pool_is_divided_across_workers() {
        let make = |threads: usize| {
            Session::new(
                Arc::new(MemoryMaskStore::for_tests()) as Arc<dyn MaskStore>,
                Catalog::new(),
                SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap()).threads(threads),
            )
            .unwrap()
        };
        // 8 verify threads over 4 workers -> 2 per query.
        let engine = Engine::new(make(8), ServiceConfig::new(4));
        assert_eq!(engine.session().config().threads, 2);
        // Floor of one, even with more workers than verify threads.
        let engine = Engine::new(make(2), ServiceConfig::new(8));
        assert_eq!(engine.session().config().threads, 1);
        // A single worker keeps the session's full pool.
        let engine = Engine::new(make(8), ServiceConfig::new(1));
        assert_eq!(engine.session().config().threads, 8);
    }

    fn sample_query() -> Query {
        Query::filter_cp_gt(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.5, 1.0).unwrap(),
            50.0,
        )
    }

    /// A store whose reads panic — simulates a bug deep in query execution.
    struct PanickingStore(Arc<MemoryMaskStore>);

    impl masksearch_storage::MaskStore for PanickingStore {
        fn put(&self, id: MaskId, mask: &Mask) -> masksearch_storage::StorageResult<()> {
            self.0.put(id, mask)
        }
        fn get(&self, _id: MaskId) -> masksearch_storage::StorageResult<Mask> {
            panic!("simulated executor bug");
        }
        fn contains(&self, id: MaskId) -> bool {
            self.0.contains(id)
        }
        fn ids(&self) -> Vec<MaskId> {
            self.0.ids()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn stored_bytes(&self, id: MaskId) -> masksearch_storage::StorageResult<u64> {
            self.0.stored_bytes(id)
        }
        fn total_bytes(&self) -> u64 {
            self.0.total_bytes()
        }
        fn io_stats(&self) -> Arc<masksearch_storage::IoStats> {
            self.0.io_stats()
        }
        fn disk_profile(&self) -> masksearch_storage::DiskProfile {
            self.0.disk_profile()
        }
    }

    #[test]
    fn a_panicking_query_fails_only_itself() {
        let inner = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        for i in 0..4u64 {
            let mask = Mask::from_fn(16, 16, move |x, y| ((x + y + i as u32) % 10) as f32 / 10.0);
            inner.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(MaskRecord::builder(MaskId::new(i)).shape(16, 16).build());
        }
        let session = Session::new(
            Arc::new(PanickingStore(inner)) as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
                .threads(1)
                .indexing_mode(IndexingMode::Disabled),
        )
        .unwrap();
        // One slot: had the panic leaked it, the second statement would
        // wait for it forever.
        let engine = Engine::new(session, ServiceConfig::new(1));
        match engine.execute(&sample_query()) {
            // The panic may be rewrapped by the executor's internal thread
            // scope, so only the variant (not the message) is asserted.
            Err(ServiceError::Internal(_)) => {}
            other => panic!("expected Internal error, got {other:?}"),
        }
        // The slot was freed, and further queries are served (and fail).
        assert!(matches!(
            engine.execute(&sample_query()),
            Err(ServiceError::Internal(_))
        ));
        assert_eq!(engine.metrics().failed, 2);
        engine.shutdown();
    }

    #[test]
    fn a_multi_byte_character_near_the_first_keyword_is_an_error() {
        let engine = Engine::new(test_session(4, IndexingMode::Eager), ServiceConfig::new(1));
        for sql in [
            "CREAT\u{1D518}E INDEX by_label ON masks (predicted_label)",
            "EXPLAIN ANALY\u{1D518}ZE SELECT mask_id FROM masks",
        ] {
            assert!(engine.execute_statement(sql).is_err(), "{sql}");
        }
        // The slot was released: the engine still serves.
        assert!(engine.execute(&sample_query()).is_ok());
        engine.shutdown();
    }

    #[test]
    fn engine_executes_queries_like_the_session() {
        let reference = test_session(10, IndexingMode::Eager);
        let expected = reference.execute(&sample_query()).unwrap();

        let engine = Engine::new(test_session(10, IndexingMode::Eager), ServiceConfig::new(2));
        let response = engine.execute(&sample_query()).unwrap();
        assert_eq!(response.output.rows, expected.rows);
        assert!(response.exec_time > Duration::ZERO);
        let m = engine.metrics();
        assert_eq!(m.submitted, 1);
        assert_eq!(m.completed, 1);
        engine.shutdown();
    }

    #[test]
    fn sql_path_round_trips() {
        let engine = Engine::new(test_session(10, IndexingMode::Eager), ServiceConfig::new(1));
        let response = engine
            .execute_sql(
                "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 16, 16), (0.5, 1.0)) > 50",
            )
            .unwrap();
        assert!(!response.output.rows.is_empty());
        assert!(matches!(
            engine.execute_sql("SELECT nonsense"),
            Err(ServiceError::Sql(_))
        ));
        engine.shutdown();
    }

    /// A mask store whose reads block until the gate opens — used to pin a
    /// statement inside a read deterministically. It also records which
    /// threads read, and how many reads got past the gate.
    struct GatedStore {
        inner: Arc<MemoryMaskStore>,
        gate: (Mutex<bool>, Condvar),
        /// Reads that have started waiting; signalled on every change.
        entered: (Mutex<u64>, Condvar),
        /// Reads that got past the gate.
        left: std::sync::atomic::AtomicU64,
        readers: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl GatedStore {
        fn new(inner: Arc<MemoryMaskStore>) -> Self {
            Self {
                inner,
                gate: (Mutex::new(false), Condvar::new()),
                entered: (Mutex::new(0), Condvar::new()),
                left: std::sync::atomic::AtomicU64::new(0),
                readers: Mutex::new(Vec::new()),
            }
        }

        fn open_gate(&self) {
            *self.gate.0.lock().unwrap() = true;
            self.gate.1.notify_all();
        }

        fn wait_for_reader(&self) {
            let (lock, cvar) = &self.entered;
            let mut count = lock.lock().unwrap();
            while *count == 0 {
                count = cvar.wait(count).unwrap();
            }
        }

        fn entered(&self) -> u64 {
            *self.entered.0.lock().unwrap()
        }

        fn left(&self) -> u64 {
            self.left.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn readers(&self) -> Vec<std::thread::ThreadId> {
            self.readers.lock().unwrap().clone()
        }

        /// Records the reading thread, then blocks until the gate opens.
        fn pass(&self) {
            self.readers
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            {
                let (lock, cvar) = &self.entered;
                *lock.lock().unwrap() += 1;
                cvar.notify_all();
            }
            let (lock, cvar) = &self.gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
            self.left.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl masksearch_storage::MaskStore for GatedStore {
        fn put(&self, id: MaskId, mask: &Mask) -> masksearch_storage::StorageResult<()> {
            self.inner.put(id, mask)
        }
        fn get(&self, id: MaskId) -> masksearch_storage::StorageResult<Mask> {
            self.pass();
            self.inner.get(id)
        }
        fn read_rows(
            &self,
            id: MaskId,
            bands: &[std::ops::Range<u32>],
            out: &mut Vec<u8>,
        ) -> masksearch_storage::StorageResult<Option<masksearch_storage::RowsRead>> {
            self.pass();
            self.inner.read_rows(id, bands, out)
        }
        fn contains(&self, id: MaskId) -> bool {
            self.inner.contains(id)
        }
        fn ids(&self) -> Vec<MaskId> {
            self.inner.ids()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn stored_bytes(&self, id: MaskId) -> masksearch_storage::StorageResult<u64> {
            self.inner.stored_bytes(id)
        }
        fn total_bytes(&self) -> u64 {
            self.inner.total_bytes()
        }
        fn io_stats(&self) -> Arc<masksearch_storage::IoStats> {
            self.inner.io_stats()
        }
        fn disk_profile(&self) -> masksearch_storage::DiskProfile {
            self.inner.disk_profile()
        }
    }

    /// An engine over four masks in a [`GatedStore`], with indexing off so
    /// every query reads the store.
    fn gated_engine(config: ServiceConfig) -> (Engine, Arc<GatedStore>) {
        let inner = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        for i in 0..4u64 {
            let mask = Mask::from_fn(16, 16, move |x, y| ((x + y + i as u32) % 10) as f32 / 10.0);
            inner.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(MaskRecord::builder(MaskId::new(i)).shape(16, 16).build());
        }
        let gated = Arc::new(GatedStore::new(inner));
        let session = Session::new(
            Arc::clone(&gated) as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
                .threads(1)
                .indexing_mode(IndexingMode::Disabled),
        )
        .unwrap();
        (Engine::new(session, config), gated)
    }

    /// Runs `sample_query` on a new thread, which `gated` pins inside its
    /// first read until the gate opens; returns once it is pinned.
    fn pin_a_statement(
        engine: &Engine,
        gated: &GatedStore,
    ) -> std::thread::JoinHandle<ServiceResult<QueryResponse>> {
        let holder = {
            let engine = engine.clone();
            std::thread::spawn(move || engine.execute(&sample_query()))
        };
        gated.wait_for_reader();
        holder
    }

    /// Runs `sample_query` on a new thread and returns once it waits for a
    /// slot.
    fn start_a_waiter(engine: &Engine) -> std::thread::JoinHandle<ServiceResult<QueryResponse>> {
        let waiter = {
            let engine = engine.clone();
            std::thread::spawn(move || engine.execute(&sample_query()))
        };
        while engine.metrics().queue_depth == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        waiter
    }

    #[test]
    fn statements_run_on_the_calling_thread() {
        let (engine, gated) = gated_engine(ServiceConfig::new(2));
        gated.open_gate();
        let caller = std::thread::spawn({
            let engine = engine.clone();
            move || {
                let rows = engine
                    .execute_statement(
                        "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 16, 16), (0.5, 1.0)) > 50",
                    )
                    .unwrap();
                assert!(matches!(rows, Response::Single(_)));
                std::thread::current().id()
            }
        })
        .join()
        .unwrap();
        let readers = gated.readers();
        assert!(!readers.is_empty(), "the statement never read the store");
        assert!(
            readers.iter().all(|&reader| reader == caller),
            "a read ran off the caller's thread"
        );
        engine.shutdown();
    }

    #[test]
    fn a_slot_is_freed_when_its_holder_unwinds() {
        let gate = Gate::new(1, 1);
        let unwound = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _slot = gate.enter(Instant::now(), None).unwrap();
                    panic!("statement unwinds while holding its slot");
                })
                .join()
        });
        assert!(unwound.is_err());
        assert_eq!(gate.lock().running, 0);
        // The only slot is free: a caller with an expired deadline still
        // takes it without waiting.
        let now = Instant::now();
        assert!(gate.enter(now, Some(now)).is_ok());
    }

    #[test]
    fn sql_dml_flows_through_the_engine() {
        let engine = Engine::new(test_session(4, IndexingMode::Eager), ServiceConfig::new(2));
        // Insert a bright 16x16 mask via SQL.
        let pixels: Vec<String> = (0..256).map(|_| "0.95".to_string()).collect();
        let insert = format!(
            "INSERT INTO masks VALUES (100, 50, 16, 16, ({}))",
            pixels.join(", ")
        );
        let response = engine.execute_statement(&insert).unwrap();
        match response {
            Response::Mutation(m) => {
                assert_eq!(m.outcome.inserted, 1);
                assert_eq!(m.outcome.deleted, 0);
            }
            other => panic!("expected a mutation response, got {other:?}"),
        }
        // The new mask is immediately visible to queries.
        let response = engine
            .execute_sql(
                "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 16, 16), (0.9, 1.0)) > 200",
            )
            .unwrap();
        assert_eq!(response.output.mask_ids(), vec![MaskId::new(100)]);

        let response = engine
            .execute_statement("DELETE FROM masks WHERE mask_id = 100")
            .unwrap();
        match response {
            Response::Mutation(m) => assert_eq!(m.outcome.deleted, 1),
            other => panic!("expected a mutation response, got {other:?}"),
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.mutations, 2);
        assert_eq!(metrics.masks_inserted, 1);
        assert_eq!(metrics.masks_deleted, 1);
        // A failed delete surfaces as a query error and counts as failed.
        assert!(matches!(
            engine.execute_statement("DELETE FROM masks WHERE mask_id = 100"),
            Err(ServiceError::Query(_))
        ));
        assert_eq!(engine.metrics().failed, 1);
        engine.shutdown();
    }

    #[test]
    fn admission_control_rejects_when_full() {
        // One slot, held by a statement pinned inside a read; one caller may
        // wait: the next is rejected — deterministically.
        let (engine, gated) = gated_engine(ServiceConfig::new(1).queue_depth(1));
        let holder = pin_a_statement(&engine, &gated);
        let waiter = start_a_waiter(&engine);
        assert!(matches!(
            engine.execute(&sample_query()),
            Err(ServiceError::QueueFull { depth: 1 })
        ));
        assert_eq!(engine.metrics().rejected, 1);

        gated.open_gate();
        holder.join().unwrap().unwrap();
        let waited = waiter.join().unwrap().unwrap();
        assert!(waited.queue_wait > Duration::ZERO);
        let m = engine.metrics();
        assert_eq!((m.submitted, m.completed, m.rejected), (2, 2, 1));
        assert_eq!(m.queue_depth, 0);
        engine.shutdown();
    }

    #[test]
    fn queue_deadline_abandons_stale_queries() {
        // The holder takes the free slot at once, so its deadline never
        // applies; the next caller waits past its 1 ms and is abandoned.
        let (engine, gated) =
            gated_engine(ServiceConfig::new(1).default_deadline(Duration::from_millis(1)));
        let holder = pin_a_statement(&engine, &gated);
        match engine.execute(&sample_query()) {
            Err(ServiceError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_millis(1))
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // It never executed: the only read is still the holder's.
        assert_eq!(gated.entered(), 1);
        let m = engine.metrics();
        assert_eq!((m.deadline_expired, m.queue_depth), (1, 0));

        gated.open_gate();
        holder.join().unwrap().unwrap();
        engine.shutdown();
    }

    #[test]
    fn shutdown_fails_pending_work_and_is_idempotent() {
        let (engine, gated) = gated_engine(ServiceConfig::new(1));
        let holder = pin_a_statement(&engine, &gated);
        let waiter = start_a_waiter(&engine);
        let shutdown = {
            let engine = engine.clone();
            std::thread::spawn(move || engine.shutdown())
        };
        // The waiter fails at once; shutdown waits for the pinned statement.
        assert!(matches!(
            waiter.join().unwrap(),
            Err(ServiceError::ShuttingDown)
        ));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!shutdown.is_finished(), "shutdown returned mid-statement");
        assert_eq!(gated.left(), 0);

        gated.open_gate();
        shutdown.join().unwrap();
        // Shutdown returned only after the in-flight statement's reads, and
        // it finished normally.
        assert_eq!(gated.left(), gated.entered());
        holder.join().unwrap().unwrap();
        assert!(matches!(
            engine.execute(&sample_query()),
            Err(ServiceError::ShuttingDown)
        ));
        engine.shutdown();
    }

    #[test]
    fn clones_share_the_pool_and_drop_shuts_down() {
        let engine = Engine::new(test_session(10, IndexingMode::Eager), ServiceConfig::new(2));
        let clone = engine.clone();
        let r1 = engine.execute(&sample_query()).unwrap();
        let r2 = clone.execute(&sample_query()).unwrap();
        assert_eq!(r1.output.rows, r2.output.rows);
        assert_eq!(clone.metrics().completed, 2);
        drop(engine);
        // The surviving clone still works.
        assert!(clone.execute(&sample_query()).is_ok());
        drop(clone);
    }
}
