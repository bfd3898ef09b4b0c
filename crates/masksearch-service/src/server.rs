//! The TCP front end: a thread-per-connection line-protocol server over
//! `std::net`, speaking the dialect of [`crate::protocol`] for any
//! [`Backend`] — a shard's [`Engine`] or a cluster coordinator.
//!
//! Each connection serves two request styles at once (protocol v6):
//!
//! * **untagged** lines keep the strict v5 FIFO contract — parsed, executed
//!   and answered inline, one at a time;
//! * **`@<id>`-tagged** lines are handed to a small per-connection handler
//!   pool, so many tagged requests proceed through the backend concurrently
//!   and each answer is written — whole frame, tag included — under the
//!   shared writer lock as soon as it completes, in completion order.

use crate::backend::{answer, frame, write_statement, Backend};
use crate::engine::Engine;
use crate::error::{ServiceError, ServiceResult};
use crate::protocol::{self, ClientRequest};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

/// Most handler threads per connection serving tagged (multiplexed)
/// requests. Each handler blocks in the backend for its request's duration,
/// so this bounds one connection's in-flight depth; the engine's execution
/// slots and admission bound the process-wide concurrency.
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
pub struct Server<B: Backend = Engine> {
    listener: TcpListener,
    backend: B,
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

impl<B: Backend> Server<B> {
    /// Binds to `addr` (use port 0 for an ephemeral port) without accepting
    /// yet.
    pub fn bind(addr: impl ToSocketAddrs, backend: B) -> ServiceResult<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            backend,
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
            let backend = self.backend.clone();
            let active = Arc::clone(&self.active_connections);
            let conns = Arc::clone(&self.conns);
            let conn_id = conns.register(&stream);
            active.fetch_add(1, Ordering::Relaxed);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &backend, &active);
                conns.unregister(conn_id);
                active.fetch_sub(1, Ordering::Relaxed);
            });
        }
    }

    /// Starts the accept loop on a background thread, returning a control
    /// handle.
    pub fn spawn(self) -> ServerHandle<B> {
        let addr = self.addr;
        let shutdown = Arc::clone(&self.shutdown);
        let active = Arc::clone(&self.active_connections);
        let conns = Arc::clone(&self.conns);
        let backend = self.backend.clone();
        let join = std::thread::Builder::new()
            .name("masksearch-acceptor".to_string())
            .spawn(move || self.run())
            .expect("spawn acceptor thread");
        ServerHandle {
            addr,
            shutdown,
            active_connections: active,
            conns,
            backend,
            join: Some(join),
        }
    }
}

/// Control handle for a server started with [`Server::spawn`].
pub struct ServerHandle<B: Backend = Engine> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active_connections: Arc<AtomicU64>,
    conns: Arc<ConnRegistry>,
    backend: B,
    join: Option<std::thread::JoinHandle<()>>,
}

impl<B: Backend> ServerHandle<B> {
    /// The server's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently open client connections.
    pub fn active_connections(&self) -> u64 {
        self.active_connections.load(Ordering::Relaxed)
    }

    /// The backend behind the server.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Stops accepting new connections and joins the accept loop. Open
    /// connections finish their in-flight request streams.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Kills the server like a process death: stops accepting and severs
    /// every open connection mid-stream, so clients observe an abrupt
    /// disconnect rather than a graceful drain. The database files stay
    /// intact — reopening them takes the recovery path.
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

impl ServerHandle<Engine> {
    /// The engine behind the server (e.g. for metrics).
    pub fn engine(&self) -> &Engine {
        &self.backend
    }
}

impl<B: Backend> Drop for ServerHandle<B> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The write half of one connection, shared between the inline (untagged)
/// request loop and the tagged handler pool. Every response frame is
/// rendered to a buffer first and written with one lock acquisition, so
/// concurrent completions can never interleave mid-frame.
type SharedWriter = Arc<Mutex<BufWriter<TcpStream>>>;

/// Writes and flushes one rendered frame atomically.
fn send(writer: &SharedWriter, frame: &[u8]) -> std::io::Result<()> {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    w.write_all(frame)?;
    w.flush()
}

/// The per-connection pool executing tagged requests concurrently. Spawned
/// lazily on the first tagged request, so purely-v5 connections cost
/// nothing extra. It starts a handler only when every handler it has is
/// busy: the statements execute on these threads, and keeping them few
/// keeps each one's caches and allocator arena warm (eight handlers taking
/// turns cost the coordinator's shards ≈14% of their throughput).
struct TaggedPool<B: Backend> {
    tx: mpsc::Sender<(u64, ClientRequest)>,
    rx: Arc<Mutex<mpsc::Receiver<(u64, ClientRequest)>>>,
    /// Idle handlers minus requests waiting for one (negative: a backlog).
    free: Arc<AtomicIsize>,
    /// Set by a handler whose write failed: the connection is gone.
    dead: Arc<AtomicBool>,
    handlers: usize,
    backend: B,
    writer: SharedWriter,
    active: Arc<AtomicU64>,
}

impl<B: Backend> TaggedPool<B> {
    fn new(backend: B, writer: SharedWriter, active: Arc<AtomicU64>) -> Self {
        let (tx, rx) = mpsc::channel();
        Self {
            tx,
            rx: Arc::new(Mutex::new(rx)),
            free: Arc::new(AtomicIsize::new(0)),
            dead: Arc::new(AtomicBool::new(false)),
            handlers: 0,
            backend,
            writer,
            active,
        }
    }

    /// Queues one request, first starting a handler if none is free. Returns
    /// `false` once a handler found the connection gone.
    fn submit(&mut self, id: u64, request: ClientRequest) -> bool {
        if self.dead.load(Ordering::SeqCst) {
            return false;
        }
        if self.free.fetch_sub(1, Ordering::SeqCst) <= 0 && self.handlers < TAGGED_HANDLERS {
            self.spawn_handler();
        }
        self.tx.send((id, request)).is_ok()
    }

    fn spawn_handler(&mut self) {
        self.handlers += 1;
        self.free.fetch_add(1, Ordering::SeqCst);
        let backend = self.backend.clone();
        let writer = Arc::clone(&self.writer);
        let active = Arc::clone(&self.active);
        let rx = Arc::clone(&self.rx);
        let free = Arc::clone(&self.free);
        let dead = Arc::clone(&self.dead);
        std::thread::spawn(move || loop {
            let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
            match job {
                Ok((id, request)) => {
                    let mut emit = |bytes: &[u8]| send(&writer, bytes);
                    if answer(&backend, &active, Some(id), request, &mut emit).is_err() {
                        // The connection died mid-write; drain no more.
                        dead.store(true, Ordering::SeqCst);
                        return;
                    }
                    free.fetch_add(1, Ordering::SeqCst);
                }
                Err(_) => return, // connection loop gone, pool drains
            }
        });
    }
}

/// Serves one connection until `QUIT`, EOF, or an I/O error.
///
/// Request lines are decoded lossily: bytes that are not valid UTF-8 reach
/// the SQL front end as replacement characters and fail there with an `ERR`
/// frame, rather than killing the connection.
///
/// The connection owns the backend's per-connection state
/// ([`Backend::Conn`]) — on an engine, the interactive transaction buffer.
/// It is local to this loop, so any exit — `QUIT`, EOF, a severed socket —
/// drops it: an open transaction rolls back. Tagged (multiplexed) requests
/// bypass it.
fn serve_connection<B: Backend>(
    stream: TcpStream,
    backend: &B,
    active: &Arc<AtomicU64>,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer: SharedWriter = Arc::new(Mutex::new(BufWriter::new(stream)));
    let mut emit = |bytes: &[u8]| send(&writer, bytes);
    let mut pool: Option<TaggedPool<B>> = None;
    let mut conn = B::Conn::default();
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
            return emit(&frame(None, |buf| {
                protocol::write_error(buf, &protocol::line_too_long())
            }));
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim_end_matches(['\r', '\n']);
        let (tag, rest) = match protocol::parse_tag(line) {
            Some((id, rest)) => (Some(id), rest),
            None => (None, line),
        };
        let Some(request) = ClientRequest::parse(rest) else {
            continue; // blank line
        };
        match (tag, request) {
            (None, ClientRequest::Quit) => {
                writer
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .flush()?;
                return Ok(());
            }
            // Multi-frame and connection-scoped requests cannot be answered
            // out of order under one tag; reject them rather than silently
            // degrading their contracts.
            (Some(id), ClientRequest::Monitor { .. } | ClientRequest::Quit) => {
                emit(&frame(Some(id), |buf| {
                    protocol::write_error(
                        buf,
                        &ServiceError::Protocol(
                            "request cannot be multiplexed; send it untagged".to_string(),
                        ),
                    )
                }))?;
            }
            (Some(id), request) => {
                let pool = pool.get_or_insert_with(|| {
                    TaggedPool::new(backend.clone(), Arc::clone(&writer), Arc::clone(active))
                });
                if !pool.submit(id, request) {
                    return Ok(()); // a handler's write failed: connection is gone
                }
            }
            (None, request) => match backend.connection_request(&mut conn, &request) {
                Some(result) => emit(&frame(None, |buf| write_statement(buf, result)))?,
                None => answer(backend, active, None, request, &mut emit)?,
            },
        }
    }
}
