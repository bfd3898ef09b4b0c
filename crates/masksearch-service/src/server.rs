//! The TCP front end: a thread-per-connection line-protocol server over
//! `std::net`, speaking the dialect of [`crate::protocol`].
//!
//! Each connection serves two request styles at once (protocol v6):
//!
//! * **untagged** lines keep the strict v5 FIFO contract — parsed, executed
//!   and answered inline, one at a time;
//! * **`@<id>`-tagged** lines are handed to a small per-connection handler
//!   pool, so many tagged requests proceed through the engine concurrently
//!   and each answer is written — whole frame, tag included — under the
//!   shared writer lock as soon as it completes, in completion order.

use crate::engine::Engine;
use crate::error::{ServiceError, ServiceResult};
use crate::job::{MutationResponse, Response};
use crate::protocol::{self, ClientRequest};
use masksearch_query::{Mutation, MutationOutcome};
use masksearch_sql::{Statement, TxnControl};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// Handler threads per connection serving tagged (multiplexed) requests.
/// Each handler blocks in the engine for its request's duration, so this
/// bounds one connection's in-flight depth; the engine's own worker pool
/// and admission queue bound the process-wide concurrency.
const TAGGED_HANDLERS: usize = 8;

/// A running MaskSearch TCP server.
///
/// ```
/// use masksearch_core::{Mask, MaskId, MaskRecord};
/// use masksearch_query::{Session, SessionConfig};
/// use masksearch_service::{Client, Engine, Server, ServiceConfig};
/// use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
/// use std::sync::Arc;
///
/// // A one-mask database to serve.
/// let store = MemoryMaskStore::for_tests();
/// let mut catalog = Catalog::new();
/// store.put(MaskId::new(0), &Mask::from_fn(8, 8, |_, _| 0.9)).unwrap();
/// catalog.insert(MaskRecord::builder(MaskId::new(0)).shape(8, 8).build());
/// let session = Session::new(Arc::new(store), catalog, SessionConfig::default()).unwrap();
///
/// let engine = Engine::new(session, ServiceConfig::new(1));
/// let server = Server::bind("127.0.0.1:0", engine).unwrap(); // port 0: ephemeral
/// println!("serving on {}", server.local_addr());
/// let handle = server.spawn(); // or `server.run()` to block this thread
///
/// let mut client = Client::connect(handle.local_addr()).unwrap();
/// assert!(client.ping().is_ok());
/// handle.shutdown();
/// ```
pub struct Server {
    listener: TcpListener,
    engine: Engine,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active_connections: Arc<AtomicU64>,
    conns: Arc<ConnRegistry>,
}

/// Registry of open connection sockets, so [`ServerHandle::kill`] can sever
/// them all (modelling a process death) instead of draining gracefully.
#[derive(Default)]
struct ConnRegistry {
    next_id: AtomicU64,
    streams: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnRegistry {
    fn register(&self, stream: &TcpStream) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.streams
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id, clone);
        }
        id
    }

    fn unregister(&self, id: u64) {
        self.streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    fn sever_all(&self) {
        let streams = self.streams.lock().unwrap_or_else(PoisonError::into_inner);
        for stream in streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) without accepting
    /// yet.
    pub fn bind(addr: impl ToSocketAddrs, engine: Engine) -> ServiceResult<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            engine,
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            active_connections: Arc::new(AtomicU64::new(0)),
            conns: Arc::new(ConnRegistry::default()),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts connections until shut down, blocking the calling thread.
    /// Each connection is served by its own detached thread; connections
    /// still open when the accept loop stops keep being served until their
    /// client disconnects (they are not force-closed).
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => {
                    // Transient accept failures (e.g. EMFILE under fd
                    // exhaustion) repeat immediately; back off briefly so the
                    // loop doesn't spin a core while starving the threads
                    // that would release descriptors.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            };
            let engine = self.engine.clone();
            let active = Arc::clone(&self.active_connections);
            let conns = Arc::clone(&self.conns);
            let conn_id = conns.register(&stream);
            active.fetch_add(1, Ordering::Relaxed);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &engine, &active);
                conns.unregister(conn_id);
                active.fetch_sub(1, Ordering::Relaxed);
            });
        }
    }

    /// Starts the accept loop on a background thread, returning a control
    /// handle.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shutdown = Arc::clone(&self.shutdown);
        let active = Arc::clone(&self.active_connections);
        let conns = Arc::clone(&self.conns);
        let engine = self.engine.clone();
        let join = std::thread::Builder::new()
            .name("masksearch-acceptor".to_string())
            .spawn(move || self.run())
            .expect("spawn acceptor thread");
        ServerHandle {
            addr,
            shutdown,
            active_connections: active,
            conns,
            engine,
            join: Some(join),
        }
    }
}

/// Control handle for a server started with [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active_connections: Arc<AtomicU64>,
    conns: Arc<ConnRegistry>,
    engine: Engine,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently open client connections.
    pub fn active_connections(&self) -> u64 {
        self.active_connections.load(Ordering::Relaxed)
    }

    /// The engine behind the server (e.g. for metrics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Stops accepting new connections and joins the accept loop. Open
    /// connections finish their in-flight request streams.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Kills the server like a process death: stops accepting and severs
    /// every open connection mid-stream, so clients observe an abrupt
    /// disconnect rather than a graceful drain. The database files stay
    /// intact — a replica or a recovery reopen takes over from here.
    pub fn kill(mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.conns.sever_all();
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.join.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The write half of one connection, shared between the inline (untagged)
/// request loop and the tagged handler pool. Every response frame is
/// rendered to a buffer first and written with one lock acquisition, so
/// concurrent completions can never interleave mid-frame.
type SharedWriter = Arc<Mutex<BufWriter<TcpStream>>>;

/// Renders one frame (with its optional `@<id>` tag prefix) off-lock, then
/// writes and flushes it atomically.
fn respond(
    writer: &SharedWriter,
    tag: Option<u64>,
    render: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(128);
    if let Some(id) = tag {
        write!(buf, "@{id} ")?;
    }
    render(&mut buf)?;
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    w.write_all(&buf)?;
    w.flush()
}

/// The per-connection pool executing tagged requests concurrently. Spawned
/// lazily on the first tagged request, so purely-v5 connections cost
/// nothing extra.
struct TaggedPool {
    tx: mpsc::Sender<(u64, ClientRequest)>,
}

impl TaggedPool {
    fn spawn(engine: Engine, writer: SharedWriter, active: Arc<AtomicU64>) -> Self {
        let (tx, rx) = mpsc::channel::<(u64, ClientRequest)>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..TAGGED_HANDLERS {
            let engine = engine.clone();
            let writer = Arc::clone(&writer);
            let active = Arc::clone(&active);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || loop {
                let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                match job {
                    Ok((id, request)) => {
                        if handle_request(&engine, &active, &writer, Some(id), request).is_err() {
                            // The connection died mid-write; drain no more.
                            return;
                        }
                    }
                    Err(_) => return, // connection loop gone, pool drains
                }
            });
        }
        Self { tx }
    }
}

/// Serves one connection until `QUIT`, EOF, or an I/O error.
///
/// Request lines are decoded lossily: bytes that are not valid UTF-8 reach
/// the SQL front end as replacement characters and fail there with an `ERR`
/// frame, rather than killing the connection.
///
/// The connection owns its interactive transaction state (protocol v7): a
/// bare `BEGIN` opens a buffer, DML statements buffer into it (each
/// acknowledged with a zero-outcome `OK`), and `COMMIT` submits the buffer
/// as one atomic transaction whose `OK` frame reports the summed outcome.
/// `ROLLBACK` — or the connection dropping for any reason, including `QUIT`
/// and a severed socket — discards the buffer without touching the store;
/// nothing is applied before `COMMIT` reaches the engine. Tagged
/// (multiplexed) requests bypass the buffer and execute immediately.
fn serve_connection(
    stream: TcpStream,
    engine: &Engine,
    active: &Arc<AtomicU64>,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer: SharedWriter = Arc::new(Mutex::new(BufWriter::new(stream)));
    let mut pool: Option<TaggedPool> = None;
    // The open transaction's buffered mutations. Local to this loop, so any
    // exit path — QUIT, EOF, I/O error — drops it: rollback by default.
    let mut txn: Option<Vec<Mutation>> = None;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the limit tells "too long" from "exactly fits".
        let mut bounded = (&mut reader).take(protocol::MAX_LINE_BYTES as u64 + 1);
        if bounded.read_until(b'\n', &mut buf)? == 0 {
            return Ok(()); // client hung up
        }
        if buf.len() > protocol::MAX_LINE_BYTES {
            // No newline within the limit: memory on behalf of a peer stays
            // bounded. The rest of the stream cannot be framed; hang up.
            return respond(&writer, None, |buf| {
                protocol::write_error(buf, &protocol::line_too_long())
            });
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some((id, rest)) = protocol::parse_tag(line) {
            let Some(request) = ClientRequest::parse(rest) else {
                continue; // blank tagged line
            };
            match request {
                // Multi-frame and connection-scoped requests cannot be
                // answered out of order under one tag; reject them rather
                // than silently degrading their contracts.
                ClientRequest::Monitor { .. } | ClientRequest::Quit => {
                    respond(&writer, Some(id), |buf| {
                        protocol::write_error(
                            buf,
                            &ServiceError::Protocol(
                                "request cannot be multiplexed; send it untagged".to_string(),
                            ),
                        )
                    })?;
                }
                request => {
                    let pool = pool.get_or_insert_with(|| {
                        TaggedPool::spawn(engine.clone(), Arc::clone(&writer), Arc::clone(active))
                    });
                    if pool.tx.send((id, request)).is_err() {
                        return Ok(()); // every handler died: connection is gone
                    }
                }
            }
            continue;
        }
        let Some(request) = ClientRequest::parse(line) else {
            continue; // blank line
        };
        if matches!(request, ClientRequest::Quit) {
            writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .flush()?;
            return Ok(()); // an open transaction (if any) is discarded
        }
        match &request {
            ClientRequest::Sql(sql) if txn.is_some() || leading_txn_keyword(sql) => {
                handle_txn_line(engine, &writer, &mut txn, sql)?;
                continue;
            }
            ClientRequest::Tokened { .. } | ClientRequest::Partial { .. } if txn.is_some() => {
                respond(&writer, None, |buf| {
                    protocol::write_error(
                        buf,
                        &ServiceError::Protocol(
                            "not allowed inside an open transaction; COMMIT or ROLLBACK first"
                                .to_string(),
                        ),
                    )
                })?;
                continue;
            }
            _ => {}
        }
        handle_request(engine, active, &writer, None, request)?;
    }
}

/// Whether a SQL line's first keyword is `BEGIN` / `COMMIT` / `ROLLBACK` —
/// the cheap pre-filter deciding if the connection's transaction handler
/// must compile the line. Everything else skips straight to the engine.
fn leading_txn_keyword(sql: &str) -> bool {
    let first = sql
        .trim_start()
        .split([' ', '\t', ';'])
        .next()
        .unwrap_or("");
    ["BEGIN", "COMMIT", "ROLLBACK"]
        .iter()
        .any(|kw| first.eq_ignore_ascii_case(kw))
}

/// Acknowledges a buffered (not yet applied) statement or an empty control
/// action with a zero-outcome mutation frame.
fn ok_zero(writer: &SharedWriter) -> std::io::Result<()> {
    let response = MutationResponse {
        outcome: MutationOutcome::default(),
        queue_wait: Duration::ZERO,
        exec_time: Duration::ZERO,
    };
    respond(writer, None, |buf| {
        protocol::write_mutation_response(buf, &response)
    })
}

/// Handles one untagged SQL line that interacts with the connection's
/// transaction state: bare `BEGIN` / `COMMIT` / `ROLLBACK`, and — while a
/// transaction is open — every statement on the connection.
fn handle_txn_line(
    engine: &Engine,
    writer: &SharedWriter,
    txn: &mut Option<Vec<Mutation>>,
    sql: &str,
) -> std::io::Result<()> {
    let fail = |writer: &SharedWriter, msg: &str| {
        respond(writer, None, |buf| {
            protocol::write_error(buf, &ServiceError::Sql(msg.to_string()))
        })
    };
    let statements = match masksearch_sql::compile_script(sql) {
        Ok(statements) => statements,
        // A parse error answers with ERR and leaves any open transaction
        // open: the client decides whether to retry the line or roll back.
        Err(e) => {
            return respond(writer, None, |buf| protocol::write_error(buf, &e.into()));
        }
    };
    if statements.len() != 1 {
        if txn.is_some() {
            return fail(
                writer,
                "finish the open transaction before sending a multi-statement script",
            );
        }
        // No open transaction: the engine's script path owns `BEGIN; ...`.
        let result = engine.execute_statement(sql);
        return respond(writer, None, |buf| write_sql_result(buf, result));
    }
    let statement = statements.into_iter().next().expect("one statement");
    match (statement, txn.as_mut()) {
        (Statement::Control(TxnControl::Begin), None) => {
            *txn = Some(Vec::new());
            ok_zero(writer)
        }
        (Statement::Control(TxnControl::Begin), Some(_)) => fail(
            writer,
            "transaction already open (transactions do not nest)",
        ),
        (Statement::Control(TxnControl::Commit | TxnControl::Rollback), None) => {
            fail(writer, "no open transaction")
        }
        (Statement::Control(TxnControl::Commit), Some(_)) => {
            let mutations = txn.take().expect("open transaction");
            let result = engine
                .execute_transaction(mutations)
                .map(Response::Mutation);
            respond(writer, None, |buf| write_sql_result(buf, result))
        }
        (Statement::Control(TxnControl::Rollback), Some(_)) => {
            *txn = None;
            ok_zero(writer)
        }
        (Statement::Mutation(mutation), Some(buffer)) => {
            buffer.push(mutation);
            ok_zero(writer)
        }
        (Statement::Query(_), Some(_)) => fail(
            writer,
            "queries are not allowed inside an open transaction; \
             its writes are not visible until COMMIT",
        ),
        // No transaction open and not a control statement: ordinary path.
        (Statement::Mutation(_) | Statement::Query(_), None) => {
            let result = engine.execute_statement(sql);
            respond(writer, None, |buf| write_sql_result(buf, result))
        }
    }
}

/// Executes one request and writes its response frame(s). `tag` carries the
/// request's multiplexing id, echoed on every frame header it produces.
fn handle_request(
    engine: &Engine,
    active: &AtomicU64,
    writer: &SharedWriter,
    tag: Option<u64>,
    request: ClientRequest,
) -> std::io::Result<()> {
    match request {
        // QUIT is handled by the connection loop; a tagged QUIT is rejected
        // before dispatch.
        ClientRequest::Quit => Ok(()),
        ClientRequest::Ping => respond(writer, tag, protocol::write_pong),
        ClientRequest::Stats => {
            let mut metrics = engine.metrics();
            metrics.active_connections = active.load(Ordering::Relaxed);
            respond(writer, tag, |buf| protocol::write_stats(buf, &metrics))
        }
        ClientRequest::Metrics => {
            let text = engine.prometheus_text();
            respond(writer, tag, |buf| {
                protocol::write_metrics_response(buf, &text)
            })
        }
        ClientRequest::MetricsWindow(secs) => {
            let text = engine.metrics_window_text(secs);
            respond(writer, tag, |buf| {
                protocol::write_metrics_response(buf, &text)
            })
        }
        ClientRequest::Record(control) => {
            let status = match control {
                protocol::RecordControl::Start(path) => engine.record_start(path.as_deref()),
                protocol::RecordControl::Stop => engine.record_stop(),
                protocol::RecordControl::Status => Ok(engine.recorder_status()),
            };
            respond(writer, tag, |buf| match status {
                Ok(status) => protocol::write_record_status(buf, &status),
                Err(e) => protocol::write_error(buf, &e),
            })
        }
        ClientRequest::Monitor {
            frames,
            interval_ms,
        } => {
            // Stream one delta frame per tick. The subscriber's baseline
            // is zero, so frame 0 carries the cumulative counters and
            // deltas summed over the subscription equal the final STATS.
            let mut prev = vec![0u64; masksearch_obs::keys::MONITOR_DELTA_KEYS.len()];
            for seq in 0..frames {
                let values = engine.monitor_values();
                let deltas: Vec<(&str, u64)> = values
                    .iter()
                    .zip(prev.iter())
                    .map(|(&(key, value), &p)| (key, value.saturating_sub(p)))
                    .collect();
                respond(writer, tag, |buf| {
                    protocol::write_delta_frame(buf, seq as u64, &deltas)
                })?;
                for (slot, &(_, value)) in prev.iter_mut().zip(values.iter()) {
                    *slot = value;
                }
                if seq + 1 < frames {
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                }
            }
            Ok(())
        }
        ClientRequest::Profiles(n) => {
            let lines: Vec<String> = engine
                .recent_profiles(n)
                .iter()
                .flat_map(|p| p.render())
                .collect();
            respond(writer, tag, |buf| {
                protocol::write_profiles_response(buf, &lines)
            })
        }
        ClientRequest::Lookup(ids) => {
            let present = engine.lookup(&ids);
            respond(writer, tag, |buf| {
                protocol::write_lookup_response(buf, &present)
            })
        }
        ClientRequest::LookupAll => {
            let present = engine.lookup_all();
            respond(writer, tag, |buf| {
                protocol::write_lookup_response(buf, &present)
            })
        }
        ClientRequest::Partial { k, sql } => {
            let result = engine.execute_partial_sql(&sql, k);
            respond(writer, tag, |buf| match result {
                Ok(partial) => {
                    protocol::write_response_with_bound(buf, &partial.response, partial.bound)
                }
                Err(e) => protocol::write_error(buf, &e),
            })
        }
        ClientRequest::Tokened { token, sql } => {
            let result = engine.execute_statement_tokened(token, &sql);
            respond(writer, tag, |buf| write_sql_result(buf, result))
        }
        ClientRequest::Sql(sql) => {
            let result = engine.execute_statement(&sql);
            respond(writer, tag, |buf| write_sql_result(buf, result))
        }
    }
}

/// Writes the outcome of a SQL statement (plain or tokened) as one frame.
fn write_sql_result<W: std::io::Write>(
    writer: &mut W,
    result: crate::error::ServiceResult<crate::job::Response>,
) -> std::io::Result<()> {
    match result {
        Ok(crate::job::Response::Single(response)) => protocol::write_response(writer, &response),
        Ok(crate::job::Response::Mutation(response)) => {
            protocol::write_mutation_response(writer, &response)
        }
        Ok(crate::job::Response::Plan(lines)) => protocol::write_plan_response(writer, &lines),
        // The SQL path never produces batch or partial responses.
        Ok(crate::job::Response::Batch(_)) | Ok(crate::job::Response::Partial(_)) => {
            protocol::write_error(
                writer,
                &crate::error::ServiceError::Protocol(
                    "unexpected response kind for a SQL statement".to_string(),
                ),
            )
        }
        Err(e) => protocol::write_error(writer, &e),
    }
}
