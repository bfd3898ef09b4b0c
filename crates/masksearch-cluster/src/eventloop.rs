//! A readiness-driven (`poll(2)`) line-protocol server loop for the
//! coordinator front end.
//!
//! The shard server keeps its thread-per-connection design — each shard
//! connection mostly blocks inside the engine anyway — but a coordinator
//! connection spends its life *waiting on other sockets* (the shard links),
//! so a thread per client connection buys nothing and costs a stack plus a
//! context switch per request. This loop multiplexes every client
//! connection onto one thread with non-blocking I/O:
//!
//! * **one event-loop thread** owns the listener and every client socket,
//!   polling for readability/writability and doing all reads, line
//!   splitting, and writes;
//! * **a small worker pool** executes the actual requests (which block on
//!   shard round trips) and hands rendered response frames back through a
//!   channel, waking the loop through a self-pipe;
//! * **untagged (v5 FIFO) requests** stay strictly ordered per connection:
//!   at most one executes at a time, the rest queue;
//! * **`@<id>`-tagged (v6) requests** dispatch freely and complete in any
//!   order, which is what makes pipelined scatter clients fast.
//!
//! The `poll(2)` binding is a three-line FFI declaration rather than a
//! dependency: the symbol is in libc, which `std` already links.

use masksearch_service::protocol::{self, ClientRequest};
use masksearch_service::ServiceError;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

/// Executes one parsed request, emitting zero or more rendered response
/// buffers (a streaming request like `MONITOR` emits one per frame). The
/// `@<id>` tag prefix of the first line is the handler's responsibility.
pub(crate) type Handler =
    Arc<dyn Fn(Option<u64>, ClientRequest, &mut dyn FnMut(Vec<u8>)) + Send + Sync>;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks in `poll(2)` until any registered fd is ready, retrying on
/// `EINTR`. Returns `false` on an unrecoverable poll error.
fn poll_wait(fds: &mut [PollFd]) -> bool {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) };
        if rc >= 0 {
            return true;
        }
        if std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
            return false;
        }
    }
}

/// Wakes the event loop from another thread by writing to the self-pipe.
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    pub(crate) fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors (including
        // a torn-down loop) are safely ignorable.
        let _ = (&*self.tx).write(&[1]);
    }
}

/// One request handed to the worker pool.
struct Job {
    conn: u64,
    tag: Option<u64>,
    request: ClientRequest,
    serial: bool,
}

/// One worker-to-loop message: a rendered buffer and/or the end of a job.
struct Completion {
    conn: u64,
    bytes: Vec<u8>,
    done: bool,
    serial: bool,
}

/// Per-connection state owned by the event-loop thread.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet split into complete lines.
    rbuf: Vec<u8>,
    /// Leading bytes of `rbuf` already known to hold no newline, so a long
    /// line arriving in pieces is searched once, not once per piece.
    scanned: usize,
    /// Rendered response buffers not yet (fully) written.
    outbox: VecDeque<Vec<u8>>,
    /// Progress into `outbox.front()`.
    out_pos: usize,
    /// An untagged request is executing; later untagged requests queue.
    serial_busy: bool,
    /// Untagged requests waiting for FIFO dispatch.
    serial_queue: VecDeque<(Option<u64>, ClientRequest)>,
    /// Jobs dispatched to workers and not yet completed.
    inflight: usize,
    /// `QUIT` seen: stop reading, drain in-flight work, then close.
    closing: bool,
    /// EOF (or read error) seen from the peer.
    read_closed: bool,
    /// The socket died mid-write (or the peer vanished): drop immediately.
    broken: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        stream.set_nonblocking(true).ok();
        stream.set_nodelay(true).ok();
        Self {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            outbox: VecDeque::new(),
            out_pos: 0,
            serial_busy: false,
            serial_queue: VecDeque::new(),
            inflight: 0,
            closing: false,
            read_closed: false,
            broken: false,
        }
    }

    fn has_output(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// All work drained after the peer went away or said `QUIT`.
    fn finished(&self) -> bool {
        (self.closing || self.read_closed)
            && self.inflight == 0
            && self.serial_queue.is_empty()
            && !self.has_output()
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn try_write(&mut self) {
        while let Some(front) = self.outbox.front() {
            match (&self.stream).write(&front[self.out_pos..]) {
                Ok(n) => {
                    self.out_pos += n;
                    if self.out_pos >= front.len() {
                        self.outbox.pop_front();
                        self.out_pos = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    return;
                }
            }
        }
    }
}

/// The coordinator front end's readiness-driven server core. Built by
/// [`CoordinatorServer::bind`](crate::CoordinatorServer::bind); `run`
/// blocks the calling thread until the shutdown flag is raised and the
/// waker poked.
pub(crate) struct EventLoop {
    listener: TcpListener,
    waker_rx: UnixStream,
    waker: Waker,
    shutdown: Arc<AtomicBool>,
    jobs_tx: mpsc::Sender<Job>,
    completion_rx: mpsc::Receiver<Completion>,
}

impl EventLoop {
    /// Builds the loop over a bound listener and starts `workers` handler
    /// threads (idle until requests arrive).
    pub(crate) fn new(
        listener: TcpListener,
        handler: Handler,
        workers: usize,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let waker = Waker {
            tx: Arc::new(waker_tx),
        };
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        for i in 0..workers.max(1) {
            let jobs_rx = Arc::clone(&jobs_rx);
            let completion_tx = completion_tx.clone();
            let waker = waker.clone();
            let handler = Arc::clone(&handler);
            std::thread::Builder::new()
                .name(format!("masksearch-coord-worker-{i}"))
                .spawn(move || loop {
                    // Take the next job; the workers exit when the loop
                    // (the only sender) is gone.
                    let job = {
                        let rx = jobs_rx.lock().unwrap_or_else(PoisonError::into_inner);
                        rx.recv()
                    };
                    let Ok(Job {
                        conn,
                        tag,
                        request,
                        serial,
                    }) = job
                    else {
                        return;
                    };
                    {
                        let completion_tx = &completion_tx;
                        let waker = &waker;
                        let mut emit = |bytes: Vec<u8>| {
                            let _ = completion_tx.send(Completion {
                                conn,
                                bytes,
                                done: false,
                                serial,
                            });
                            waker.wake();
                        };
                        handler(tag, request, &mut emit);
                    }
                    let _ = completion_tx.send(Completion {
                        conn,
                        bytes: Vec::new(),
                        done: true,
                        serial,
                    });
                    waker.wake();
                })
                .map_err(|e| std::io::Error::other(format!("spawn coordinator worker: {e}")))?;
        }
        Ok(Self {
            listener,
            waker_rx,
            waker,
            shutdown: Arc::new(AtomicBool::new(false)),
            jobs_tx,
            completion_rx,
        })
    }

    /// A handle other threads use to interrupt a blocked `poll`.
    pub(crate) fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// The flag `run` checks after every wakeup; raise it (then wake) to
    /// stop the loop.
    pub(crate) fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the loop until shut down. Open connections are dropped on
    /// shutdown (the coordinator is the only state that outlives them).
    pub(crate) fn run(self) {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        // Connection ids increase monotonically and are never reused, so a
        // completion for a connection dropped mid-request hits a missing
        // map entry instead of a stranger.
        let mut next_conn: u64 = 1;
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut order: Vec<u64> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            pollfds.clear();
            order.clear();
            pollfds.push(PollFd {
                fd: self.waker_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            pollfds.push(PollFd {
                fd: self.listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for (&id, conn) in &conns {
                let mut events = 0i16;
                if !conn.closing && !conn.read_closed {
                    events |= POLLIN;
                }
                if conn.has_output() {
                    events |= POLLOUT;
                }
                pollfds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                order.push(id);
            }
            if !poll_wait(&mut pollfds) {
                return;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if pollfds[0].revents != 0 {
                let mut buf = [0u8; 64];
                while matches!((&self.waker_rx).read(&mut buf), Ok(n) if n > 0) {}
            }
            while let Ok(completion) = self.completion_rx.try_recv() {
                apply_completion(&mut conns, completion, &self.jobs_tx);
            }
            if pollfds[1].revents != 0 {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            conns.insert(next_conn, Conn::new(stream));
                            next_conn += 1;
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break, // drained (WouldBlock) or transient
                    }
                }
            }
            for (i, &id) in order.iter().enumerate() {
                let revents = pollfds[i + 2].revents;
                if revents == 0 {
                    continue;
                }
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                if revents & (POLLERR | POLLNVAL) != 0 {
                    conn.broken = true;
                    continue;
                }
                if revents & POLLOUT != 0 {
                    conn.try_write();
                }
                if revents & (POLLIN | POLLHUP) != 0 {
                    if conn.read_closed {
                        // POLLHUP with the read side already drained: the
                        // peer is fully gone, output is undeliverable.
                        if revents & POLLHUP != 0 {
                            conn.broken = true;
                        }
                    } else {
                        read_conn(id, conn, &self.jobs_tx);
                        conn.try_write();
                    }
                }
            }
            conns.retain(|_, c| !c.broken && !c.finished());
        }
    }
}

/// Reads what is currently available — pausing once more than a full line
/// is buffered, so memory held for a peer stays bounded — splits complete
/// lines, and routes each parsed request (dispatch, FIFO queue, or
/// loop-local answer). A line longer than [`protocol::MAX_LINE_BYTES`] is
/// answered with a protocol `ERR` and the connection closes.
fn read_conn(id: u64, conn: &mut Conn, jobs_tx: &mpsc::Sender<Job>) {
    let mut buf = [0u8; 4096];
    while conn.rbuf.len() <= protocol::MAX_LINE_BYTES {
        match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.read_closed = true;
                break;
            }
        }
    }
    while let Some(pos) = conn.rbuf[conn.scanned..].iter().position(|&b| b == b'\n') {
        if conn.closing {
            // Bytes after QUIT are undefined; stop parsing.
            conn.rbuf.clear();
            break;
        }
        let line: Vec<u8> = conn.rbuf.drain(..=conn.scanned + pos).collect();
        conn.scanned = 0;
        if line.len() > protocol::MAX_LINE_BYTES {
            reject_long_line(conn);
            return;
        }
        let line = String::from_utf8_lossy(&line);
        handle_line(id, conn, line.trim_end_matches(['\r', '\n']), jobs_tx);
    }
    conn.scanned = conn.rbuf.len();
    if conn.rbuf.len() > protocol::MAX_LINE_BYTES {
        reject_long_line(conn);
    }
}

/// Answers an over-long line and closes: what follows it cannot be framed.
fn reject_long_line(conn: &mut Conn) {
    let mut buf = Vec::with_capacity(96);
    let _ = protocol::write_error(&mut buf, &protocol::line_too_long());
    conn.outbox.push_back(buf);
    conn.closing = true;
    conn.rbuf = Vec::new();
    conn.scanned = 0;
}

/// Parses one request line and decides where it goes. Mirrors the shard
/// server's contract: untagged lines are strict FIFO, tagged lines are
/// concurrent, and multi-frame or connection-scoped requests (`MONITOR`,
/// `QUIT`) cannot be multiplexed under a tag.
fn handle_line(id: u64, conn: &mut Conn, line: &str, jobs_tx: &mpsc::Sender<Job>) {
    let (tag, rest) = match protocol::parse_tag(line) {
        Some((tag, rest)) => (Some(tag), rest),
        None => (None, line),
    };
    let Some(request) = ClientRequest::parse(rest) else {
        return; // blank line
    };
    match (tag, request) {
        (None, ClientRequest::Quit) => conn.closing = true,
        (Some(tag), ClientRequest::Quit | ClientRequest::Monitor { .. }) => {
            let mut buf = Vec::with_capacity(96);
            let _ = write!(buf, "@{tag} ");
            let _ = protocol::write_error(
                &mut buf,
                &ServiceError::Protocol(
                    "request cannot be multiplexed; send it untagged".to_string(),
                ),
            );
            conn.outbox.push_back(buf);
        }
        (tag, request) => {
            let serial = tag.is_none();
            if serial && (conn.serial_busy || !conn.serial_queue.is_empty()) {
                conn.serial_queue.push_back((tag, request));
            } else {
                dispatch(id, conn, tag, request, serial, jobs_tx);
            }
        }
    }
}

/// Hands one request to the worker pool and updates the connection's
/// accounting.
fn dispatch(
    id: u64,
    conn: &mut Conn,
    tag: Option<u64>,
    request: ClientRequest,
    serial: bool,
    jobs_tx: &mpsc::Sender<Job>,
) {
    if serial {
        conn.serial_busy = true;
    }
    conn.inflight += 1;
    if jobs_tx
        .send(Job {
            conn: id,
            tag,
            request,
            serial,
        })
        .is_err()
    {
        // Every worker died; nothing will ever answer on this connection.
        conn.broken = true;
    }
}

/// Applies one worker message: queue its output, and on job completion
/// release the FIFO slot and dispatch the next queued untagged request.
fn apply_completion(
    conns: &mut HashMap<u64, Conn>,
    completion: Completion,
    jobs_tx: &mpsc::Sender<Job>,
) {
    let Some(conn) = conns.get_mut(&completion.conn) else {
        return; // connection dropped while the job ran
    };
    if !completion.bytes.is_empty() {
        conn.outbox.push_back(completion.bytes);
    }
    if completion.done {
        conn.inflight = conn.inflight.saturating_sub(1);
        if completion.serial {
            conn.serial_busy = false;
            if let Some((tag, request)) = conn.serial_queue.pop_front() {
                let serial = tag.is_none();
                dispatch(completion.conn, conn, tag, request, serial, jobs_tx);
            }
        }
    }
    conn.try_write();
}
