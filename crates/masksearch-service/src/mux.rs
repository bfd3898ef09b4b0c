//! A pipelined, multiplexed client for the TCP front end (protocol v6).
//!
//! Where [`Client`](crate::Client) is strictly request/response — one frame
//! in flight, the caller blocked for a full round trip — [`MuxClient`]
//! tags every request line with a `@<id>` prefix and keeps many requests in
//! flight on one connection. A dedicated reader thread routes response
//! frames back to their callers by tag, so N callers (or one caller with a
//! scatter) pay one round trip instead of N. Dialing, the handshake, the
//! redial backoff and the `TOKEN` envelope are the client core's
//! ([`crate::client`]).
//!
//! ## Id discipline (what makes reconnect safe)
//!
//! Request ids are allocated from one monotonically increasing counter for
//! the lifetime of the client and are **never reused**, across requests or
//! across reconnect generations. Each connection generation carries its own
//! pending-request table:
//!
//! * a frame whose tag is not in the table **poisons the connection**
//!   (every waiter gets a transport error) — it is never delivered to an
//!   arbitrary caller;
//! * a duplicated tag cannot double-resolve a caller: the first frame
//!   consumes the table entry, so the duplicate hits the unknown-tag path;
//! * when a connection dies, every pending request on it is failed with a
//!   transport error *before* a new generation is dialed, so a stale id
//!   from the dead connection can never be confused with a live one.
//!
//! With reconnect enabled, a request that failed with a transport error is
//! resent once, with a fresh id, on a fresh connection — under the
//! [`Client`](crate::Client)'s rule: never a bare `INSERT`/`DELETE`.

use crate::client::{dial, is_mutation_sql, redial, single_line, tokened};
use crate::error::{ServiceError, ServiceResult};
use crate::protocol::{self, Frame};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

/// Completed-or-failed slot a pending request resolves to.
type Resolution = ServiceResult<Frame>;

/// One connection generation: the write half plus the table of requests
/// awaiting their tagged response frame.
struct Conn {
    /// Write half. Whole request lines are written and flushed under this
    /// lock, so concurrent callers can never interleave bytes mid-line.
    writer: Mutex<BufWriter<TcpStream>>,
    /// In-flight requests by id, plus the poison marker once the connection
    /// has died. Guarded together so a send can never register on a
    /// connection that has already drained its waiters.
    pending: Mutex<Pending>,
    /// Raw handle kept for `shutdown`, which unblocks the reader thread.
    stream: TcpStream,
}

struct Pending {
    waiters: HashMap<u64, mpsc::Sender<Resolution>>,
    /// Why the connection died, once it has. Sends after death fail fast.
    dead: Option<String>,
}

impl Conn {
    /// Dials the peer, performs the (untagged) version handshake, and
    /// spawns the reader thread for this generation.
    fn dial(addr: impl ToSocketAddrs) -> ServiceResult<Arc<Self>> {
        let (_, reader, writer) = dial(addr)?;
        let conn = Arc::new(Self {
            stream: writer.get_ref().try_clone()?,
            writer: Mutex::new(writer),
            pending: Mutex::new(Pending {
                waiters: HashMap::new(),
                dead: None,
            }),
        });
        let for_reader = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("mux-reader".to_string())
            .spawn(move || for_reader.reader_loop(reader))
            .map_err(|e| ServiceError::Io(format!("spawn mux reader: {e}")))?;
        Ok(conn)
    }

    /// Routes tagged frames to their waiters until the connection dies or
    /// violates the protocol, then fails every remaining waiter.
    fn reader_loop(self: Arc<Self>, mut reader: BufReader<TcpStream>) {
        loop {
            match protocol::read_tagged_frame(&mut reader) {
                Ok((Some(id), resolution)) => {
                    let waiter = self.lock_pending().waiters.remove(&id);
                    match waiter {
                        // A dropped receiver (abandoned waiter) is fine.
                        Some(tx) => drop(tx.send(resolution)),
                        None => {
                            self.poison(format!(
                                "frame for unknown or already-answered request id {id}"
                            ));
                            return;
                        }
                    }
                }
                Ok((None, _)) => {
                    self.poison("untagged frame on a multiplexed connection".to_string());
                    return;
                }
                Err(err) => {
                    self.poison(err.to_string());
                    return;
                }
            }
        }
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks the connection dead and fails every in-flight request with a
    /// transport error. Idempotent; the first cause wins.
    fn poison(&self, why: String) {
        let mut pending = self.lock_pending();
        let why = pending.dead.get_or_insert(why).clone();
        for (_, tx) in pending.waiters.drain() {
            let _ = tx.send(Err(ServiceError::Io(format!("connection failed: {why}"))));
        }
        drop(pending);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Registers `id` and writes its tagged request line (registration
    /// first, so the response cannot race the table entry).
    fn send(&self, id: u64, line: &str) -> ServiceResult<mpsc::Receiver<Resolution>> {
        let (tx, rx) = mpsc::channel();
        {
            let mut pending = self.lock_pending();
            if let Some(why) = &pending.dead {
                return Err(ServiceError::Io(format!("connection failed: {why}")));
            }
            pending.waiters.insert(id, tx);
        }
        let result = (|| {
            let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            writeln!(w, "@{id} {line}")?;
            w.flush()
        })();
        if let Err(err) = result {
            self.lock_pending().waiters.remove(&id);
            self.poison(err.to_string());
            return Err(ServiceError::Io(err.to_string()));
        }
        Ok(rx)
    }
}

struct MuxInner {
    peer: SocketAddr,
    reconnect: AtomicBool,
    /// Monotonic id source; never reset, so ids are unique across
    /// reconnect generations for the lifetime of the client.
    next_id: AtomicU64,
    conn: Mutex<Option<Arc<Conn>>>,
}

impl MuxInner {
    /// Returns the live connection, dialing one if the previous one died.
    /// A request that just failed on generation `failed` replaces it by
    /// dialing with the bounded backoff schedule — unless another caller
    /// already did, whose connection it then reuses.
    fn conn(&self, failed: Option<&Arc<Conn>>) -> ServiceResult<Arc<Conn>> {
        let mut guard = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(conn) = guard.as_ref() {
            let replaced = failed.is_none_or(|failed| !Arc::ptr_eq(conn, failed));
            if replaced && conn.lock_pending().dead.is_none() {
                return Ok(Arc::clone(conn));
            }
        }
        let fresh = match failed {
            Some(_) => redial(|| Conn::dial(self.peer))?,
            None => Conn::dial(self.peer)?,
        };
        *guard = Some(Arc::clone(&fresh));
        Ok(fresh)
    }
}

impl Drop for MuxInner {
    fn drop(&mut self) {
        if let Ok(mut guard) = self.conn.lock() {
            if let Some(conn) = guard.take() {
                // Unblocks the reader thread so it can exit and release its
                // Arc; without this the socket would linger until process
                // exit.
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// A pipelined, multiplexed MaskSearch client. Cheaply cloneable; clones
/// share one connection (and one id space), so any number of threads can
/// issue requests concurrently.
#[derive(Clone)]
pub struct MuxClient {
    inner: Arc<MuxInner>,
}

/// An in-flight multiplexed request. [`MuxPending::wait`] blocks for the
/// response and applies the bounded reconnect-and-resend policy.
#[must_use = "a pending request resolves only when waited on"]
pub struct MuxPending {
    client: MuxClient,
    line: String,
    sent: ServiceResult<(Arc<Conn>, mpsc::Receiver<Resolution>)>,
}

impl MuxClient {
    /// Connects to a server and performs the version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> ServiceResult<Self> {
        // Dial eagerly so a bad address or version mismatch fails here, not
        // on the first request.
        let conn = Conn::dial(addr)?;
        let inner = Arc::new(MuxInner {
            peer: conn.stream.peer_addr()?,
            reconnect: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            conn: Mutex::new(Some(conn)),
        });
        Ok(Self { inner })
    }

    /// Enables transparent reconnect-with-backoff on transport errors: one
    /// bounded resend per safe request (see the module docs). The setting
    /// is shared by every clone of this client.
    pub fn with_reconnect(self, reconnect: bool) -> Self {
        self.inner.reconnect.store(reconnect, Ordering::Relaxed);
        self
    }

    /// Allocates the next request id (unique for the client's lifetime).
    fn next_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts one request line without blocking for the response.
    pub fn begin(&self, line: impl Into<String>) -> MuxPending {
        let line = line.into();
        let sent = single_line(&line).and_then(|()| {
            let conn = self.inner.conn(None)?;
            let rx = conn.send(self.next_id(), &line)?;
            Ok((conn, rx))
        });
        MuxPending {
            client: self.clone(),
            line,
            sent,
        }
    }

    /// Starts a SQL statement without blocking, wrapping mutations in a
    /// `TOKEN` envelope (see [`Client::query`](crate::Client::query)) so the
    /// bounded reconnect can resend them exactly-once. The scatter path's
    /// per-statement entry point.
    pub fn begin_query(&self, sql: impl Into<String>) -> MuxPending {
        let sql = sql.into();
        self.begin(if is_mutation_sql(&sql) {
            tokened(sql)
        } else {
            sql
        })
    }

    /// After a transport failure on `failed`, heals the connection and —
    /// when allowed — resends the request once with a fresh id.
    fn retry(
        &self,
        failed: Option<&Arc<Conn>>,
        line: &str,
        original: ServiceError,
    ) -> ServiceResult<Frame> {
        if !self.inner.reconnect.load(Ordering::Relaxed) {
            return Err(original);
        }
        let healed = self.inner.conn(failed);
        if is_mutation_sql(line) {
            // The connection is healed for subsequent requests, but this
            // one stays ambiguous: report the transport error.
            return Err(original);
        }
        let rx = healed?.send(self.next_id(), line)?;
        rx.recv().unwrap_or_else(|_| closed())
    }
}

/// What a waiter whose connection dropped its sender resolves to.
fn closed() -> Resolution {
    Err(ServiceError::Io(
        "connection closed before response".to_string(),
    ))
}

impl MuxPending {
    /// Blocks for the response frame, retrying once on a fresh connection
    /// when the transport failed and the request is safe to resend.
    pub fn wait(self) -> ServiceResult<Frame> {
        let (failed, err) = match self.sent {
            Ok((conn, rx)) => match rx.recv().unwrap_or_else(|_| closed()) {
                Err(err @ ServiceError::Io(_)) => (Some(conn), err),
                other => return other,
            },
            Err(err @ ServiceError::Io(_)) => (None, err),
            Err(err) => return Err(err),
        };
        self.client.retry(failed.as_ref(), &self.line, err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{WireResponse, PROTOCOL_VERSION};
    use std::io::BufRead;
    use std::net::TcpListener;

    /// Accepts one connection and completes the v6 handshake, returning the
    /// stream ready for tagged traffic.
    fn accept_handshaken(listener: &TcpListener) -> TcpStream {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "PING");
        let mut w = stream.try_clone().unwrap();
        w.write_all(format!("PONG v{PROTOCOL_VERSION}\nEND\n").as_bytes())
            .unwrap();
        stream
    }

    fn read_tagged_request(reader: &mut BufReader<TcpStream>) -> (u64, String) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let (id, rest) = protocol::parse_tag(line.trim_end()).expect("tagged request");
        (id, rest.to_string())
    }

    #[test]
    fn pipelined_responses_route_by_tag_even_out_of_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let stream = accept_handshaken(&listener);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream.try_clone().unwrap();
            // Collect the whole pipelined batch before answering anything:
            // a strict request/response server would deadlock a one-at-a-
            // time client here, which is exactly what pipelining removes.
            let requests: Vec<(u64, String)> =
                (0..3).map(|_| read_tagged_request(&mut reader)).collect();
            // Answer in reverse order; tags must still route correctly.
            for (id, request) in requests.iter().rev() {
                let mask = request.strip_prefix("LOOKUP ").unwrap();
                w.write_all(format!("@{id} OK 1\nmask {mask}\nEND\n").as_bytes())
                    .unwrap();
            }
        });
        let client = MuxClient::connect(addr).unwrap();
        let pendings: Vec<MuxPending> = (0..3)
            .map(|i| client.begin(format!("LOOKUP {}", 100 + i)))
            .collect();
        for (i, pending) in pendings.into_iter().enumerate() {
            let rows = pending.wait().and_then(Frame::into_rows).unwrap();
            assert_eq!(
                rows.mask_ids(),
                vec![masksearch_core::MaskId::new(100 + i as u64)],
                "response {i} mis-routed"
            );
        }
        server.join().unwrap();
    }

    /// Every request is begun before any is waited on, so all four are in
    /// flight at once and each resolves on its own.
    #[test]
    fn batch_is_coalesced_and_resolves_independently() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let stream = accept_handshaken(&listener);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream.try_clone().unwrap();
            for _ in 0..4 {
                let (id, request) = read_tagged_request(&mut reader);
                if request.contains("boom") {
                    w.write_all(format!("@{id} ERR SQL error: boom\nEND\n").as_bytes())
                        .unwrap();
                } else {
                    let mask = request.strip_prefix("LOOKUP ").unwrap();
                    w.write_all(format!("@{id} OK 1\nmask {mask}\nEND\n").as_bytes())
                        .unwrap();
                }
            }
        });
        let client = MuxClient::connect(addr).unwrap();
        let lines = ["LOOKUP 1", "LOOKUP boom", "LOOKUP 3", "LOOKUP 4"];
        let pendings: Vec<MuxPending> = lines.iter().map(|&line| client.begin(line)).collect();
        let results: Vec<ServiceResult<Frame>> =
            pendings.into_iter().map(MuxPending::wait).collect();
        assert!(matches!(results[0], Ok(Frame::Rows(_))));
        // A server-reported ERR fails only its own request.
        assert!(matches!(results[1], Err(ServiceError::Remote(_))));
        assert!(matches!(results[2], Ok(Frame::Rows(_))));
        assert!(matches!(results[3], Ok(Frame::Rows(_))));
        server.join().unwrap();
    }

    /// The satellite-3 scenario: the connection is killed mid-pipeline.
    /// Requests answered before the kill resolve normally; the rest fail
    /// over to a fresh connection with *fresh* ids (stale ids are never
    /// reused, so nothing from the dead generation can mis-deliver), and a
    /// bare mutation is not resent — its transport error surfaces.
    #[test]
    fn connection_kill_mid_pipeline_resends_safely_with_fresh_ids() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Generation 1: answer the first request, then slam the door
            // with two requests (a read and a bare mutation) in flight.
            let stream = accept_handshaken(&listener);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream.try_clone().unwrap();
            let mut gen1_ids = Vec::new();
            let mut answered_first = false;
            for _ in 0..3 {
                let (id, request) = read_tagged_request(&mut reader);
                gen1_ids.push(id);
                if !answered_first {
                    answered_first = true;
                    let mask = request.strip_prefix("LOOKUP ").unwrap();
                    w.write_all(format!("@{id} OK 1\nmask {mask}\nEND\n").as_bytes())
                        .unwrap();
                }
            }
            drop((reader, w, stream));
            // Generation 2: only the safe read is resent, under an id never
            // seen on generation 1.
            let stream = accept_handshaken(&listener);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream.try_clone().unwrap();
            let (id, request) = read_tagged_request(&mut reader);
            assert!(
                !gen1_ids.contains(&id),
                "request id {id} reused across reconnect generations"
            );
            let mask = request.strip_prefix("LOOKUP ").unwrap();
            w.write_all(format!("@{id} OK 1\nmask {mask}\nEND\n").as_bytes())
                .unwrap();
            // No further resends arrive: EOF, not another request.
            let mut line = String::new();
            assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0);
        });
        let client = MuxClient::connect(addr).unwrap().with_reconnect(true);
        let answered = client.begin("LOOKUP 1");
        // Give the server a beat to answer the first request before the two
        // doomed requests join the pipeline.
        let first = answered.wait().and_then(Frame::into_rows).unwrap();
        assert_eq!(first.mask_ids(), vec![masksearch_core::MaskId::new(1)]);
        let doomed_read = client.begin("LOOKUP 2");
        let doomed_write = client.begin("DELETE FROM masks WHERE mask_id = 9");
        match doomed_write.wait() {
            // The bare mutation must stay ambiguous: transport error, no
            // resend (the server thread asserts no second mutation arrives).
            Err(ServiceError::Io(_)) => {}
            other => panic!("expected a transport error for the mutation, got {other:?}"),
        }
        let rows = doomed_read.wait().and_then(Frame::into_rows).unwrap();
        assert_eq!(rows.mask_ids(), vec![masksearch_core::MaskId::new(2)]);
        drop(client);
        server.join().unwrap();
    }

    /// End-to-end over the real server: a pipelined batch of distinct
    /// queries comes back correctly routed, and untagged (v5) requests on a
    /// plain [`crate::Client`] still work against the same server.
    #[test]
    fn tagged_and_untagged_requests_share_a_real_server() {
        use masksearch_core::{Mask, MaskId, MaskRecord};
        use masksearch_query::{Session, SessionConfig};
        use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};

        let store = MemoryMaskStore::for_tests();
        let mut catalog = Catalog::new();
        for i in 0..8u64 {
            let mask = Mask::from_fn(8, 8, move |_, _| if i % 2 == 0 { 0.9 } else { 0.1 });
            store.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(MaskRecord::builder(MaskId::new(i)).shape(8, 8).build());
        }
        let session = Session::new(
            std::sync::Arc::new(store),
            catalog,
            SessionConfig::default(),
        )
        .unwrap();
        let engine = crate::Engine::new(session, crate::ServiceConfig::new(2));
        let server = crate::Server::bind("127.0.0.1:0", engine).unwrap().spawn();

        let mux = MuxClient::connect(server.local_addr()).unwrap();
        let lines: Vec<String> = (0..8).map(|i| format!("LOOKUP {i} {}", i + 100)).collect();
        // Every lookup is in flight before the first is waited on.
        let pendings: Vec<MuxPending> = lines.iter().map(|line| mux.begin(line)).collect();
        let results: Vec<WireResponse> = pendings
            .into_iter()
            .map(|p| p.wait().and_then(Frame::into_rows).unwrap())
            .collect();
        for (i, rows) in results.iter().enumerate() {
            assert_eq!(
                rows.mask_ids(),
                vec![MaskId::new(i as u64)],
                "batched lookup {i} mis-routed"
            );
        }
        let high = mux
            .begin_query("SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 8, 8), (0.5, 1.0)) > 0")
            .wait()
            .and_then(Frame::into_rows)
            .unwrap();
        assert_eq!(high.rows.len(), 4);

        // The same server still speaks v5 FIFO to a plain client.
        let mut plain = crate::Client::connect(server.local_addr()).unwrap();
        assert!(plain.ping().is_ok());
        assert_eq!(
            plain.lookup(&[MaskId::new(3)]).unwrap(),
            vec![MaskId::new(3)]
        );
        plain.quit().unwrap();
        drop(mux);
        server.shutdown();
    }

    /// A frame tagged with an id nobody is waiting on must poison the
    /// connection, not deliver to an arbitrary caller.
    #[test]
    fn unknown_tag_poisons_the_connection_instead_of_misrouting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let stream = accept_handshaken(&listener);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream.try_clone().unwrap();
            let (_, _) = read_tagged_request(&mut reader);
            // Answer with a stale/forged id.
            w.write_all(b"@999999 OK 1\nmask 5\nEND\n").unwrap();
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
        });
        let client = MuxClient::connect(addr).unwrap();
        match client.begin("LOOKUP 5").wait() {
            Err(ServiceError::Io(msg)) => assert!(msg.contains("unknown"), "{msg}"),
            other => panic!("expected a poisoned connection, got {other:?}"),
        }
        server.join().unwrap();
    }
}
