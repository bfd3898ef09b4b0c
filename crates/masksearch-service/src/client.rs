//! The clients of the TCP front end: [`Client`], a blocking one-request-at-a-
//! time connection used by tests, benches and tools, and — sharing the core
//! below — the pipelined [`MuxClient`](crate::MuxClient) a cluster
//! coordinator keeps per shard.
//!
//! The core is written once for both: dialing performs a version handshake
//! (the client sends `PING` and requires a `PONG v<N>` reply with this
//! build's [`PROTOCOL_VERSION`], so a peer speaking a different version is
//! rejected with a clear error instead of undefined frame parsing); a
//! redial waits out the bounded `RECONNECT_BACKOFF` schedule; request lines
//! are checked to be one line; mutations travel in a `TOKEN` envelope; and
//! each typed request checks the kind of the frame it gets back
//! ([`Frame::into_rows`] and its siblings).
//!
//! With [`Client::with_reconnect`], a request that fails with a *transport*
//! error (connection reset, broken pipe — not a server-reported `ERR`
//! frame) is retried once on a fresh connection after the backoff, so a
//! long-lived caller survives a peer restart. Resends are
//! reads-or-deduplicated-only: a raw, un-tokened mutation line is never
//! resent — its transport error is surfaced instead.

use crate::error::{ServiceError, ServiceResult};
use crate::protocol::{
    self, first_keyword, ClientRequest, Frame, RecordControl, WireResponse, MAX_MONITOR_FRAMES,
    PROTOCOL_VERSION,
};
use masksearch_core::MaskId;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Allocates a process-unique mutation token: a per-process random-ish
/// prefix (clock entropy at first use) plus a counter, so two clients
/// talking to the same shard cannot collide within the server's bounded
/// dedup window.
fn next_mutation_token() -> u64 {
    static PREFIX: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let prefix = PREFIX.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9);
        (nanos ^ (u64::from(std::process::id()) << 32)).max(1)
    });
    prefix
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed))
}

/// Backoff schedule for the bounded reconnect: one resend attempt, with up
/// to three connection attempts spaced by these sleeps.
pub(crate) const RECONNECT_BACKOFF: [Duration; 3] = [
    Duration::from_millis(50),
    Duration::from_millis(150),
    Duration::from_millis(400),
];

/// Returns `true` if the line holds a multi-statement script — more than
/// one `;`-separated statement, ignoring a bare trailing terminator.
fn is_script(line: &str) -> bool {
    line.trim_end().trim_end_matches(';').contains(';')
}

/// Returns `true` if the line is a bare mutation statement — or a
/// `BEGIN; …` transaction script, which the server applies (and its token
/// registry dedups) as one atomic unit.
///
/// Every other line is safe to resend on a fresh connection after a
/// transport error: reads are side-effect free, and a `TOKEN`-wrapped
/// mutation replayed after it applied gets the recorded outcome. A bare
/// mutation is not: the original may have committed before the connection
/// died, and a replay would apply it twice (or turn a committed `DELETE`
/// into an `UnknownMask` error).
pub(crate) fn is_mutation_sql(line: &str) -> bool {
    let first = first_keyword(line);
    ["INSERT", "DELETE", "UPDATE"]
        .iter()
        .any(|kw| first.eq_ignore_ascii_case(kw))
        || (first.eq_ignore_ascii_case("BEGIN") && is_script(line))
}

/// A mutation's request line: `sql` in a fresh `TOKEN` envelope, so the
/// bounded reconnect can resend it exactly once.
pub(crate) fn tokened(sql: String) -> String {
    ClientRequest::Tokened {
        token: next_mutation_token(),
        sql,
    }
    .line()
}

/// Refuses a request that is not one line: it would frame as several.
pub(crate) fn single_line(line: &str) -> ServiceResult<()> {
    if line.contains(['\n', '\r']) {
        return Err(ServiceError::Protocol(
            "request must be a single line".to_string(),
        ));
    }
    Ok(())
}

/// Writes one request line and flushes it.
fn send_line(writer: &mut impl Write, line: &str) -> ServiceResult<()> {
    single_line(line)?;
    writeln!(writer, "{line}")?;
    writer.flush()?;
    Ok(())
}

/// Checks a handshake or `PING` reply is a `PONG` of this build's version.
fn check_pong(frame: Frame) -> ServiceResult<()> {
    let line = frame.into_control()?;
    match protocol::pong_version(&line) {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(other) => Err(ServiceError::Protocol(format!(
            "protocol version mismatch: peer speaks v{other}, this client v{PROTOCOL_VERSION}"
        ))),
        None => Err(ServiceError::Protocol(format!(
            "unexpected handshake reply {line:?}"
        ))),
    }
}

/// Connects to `addr` and performs the version handshake: the peer's
/// address and the read and write halves of the stream.
pub(crate) fn dial(
    addr: impl ToSocketAddrs,
) -> ServiceResult<(SocketAddr, BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let peer = stream.peer_addr()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    send_line(&mut writer, &ClientRequest::Ping.line())?;
    check_pong(protocol::read_frame(&mut reader)?)?;
    Ok((peer, reader, writer))
}

/// Dials again with the bounded [`RECONNECT_BACKOFF`] schedule, sleeping
/// before each attempt. A protocol error (a version mismatch) will not
/// heal, so it fails at once; otherwise the last attempt's error is
/// returned.
pub(crate) fn redial<T>(mut dial: impl FnMut() -> ServiceResult<T>) -> ServiceResult<T> {
    let mut last = None;
    for backoff in RECONNECT_BACKOFF {
        std::thread::sleep(backoff);
        match dial() {
            Ok(conn) => return Ok(conn),
            Err(e @ ServiceError::Protocol(_)) => return Err(e),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| ServiceError::Io("reconnect failed".to_string())))
}

/// One `DELTA` frame from a [`Client::monitor`] subscription: the frame's
/// sequence number and the counter deltas since the previous frame.
pub type MonitorFrame = (u64, Vec<(String, u64)>);

/// A connected MaskSearch client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The peer we connected to, kept for reconnects.
    peer: SocketAddr,
    /// Whether transport errors trigger the bounded reconnect-and-resend.
    reconnect: bool,
    /// Whether this connection holds an open interactive transaction
    /// (`BEGIN` acknowledged, no `COMMIT`/`ROLLBACK` yet).
    in_txn: bool,
}

impl Client {
    /// Connects to a server and performs the version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> ServiceResult<Self> {
        let (peer, reader, writer) = dial(addr)?;
        Ok(Self {
            reader,
            writer,
            peer,
            reconnect: false,
            in_txn: false,
        })
    }

    /// Enables (or disables) transparent reconnect-with-backoff on transient
    /// transport errors: one bounded resend per request.
    pub fn with_reconnect(mut self, reconnect: bool) -> Self {
        self.reconnect = reconnect;
        self
    }

    fn round_trip_once(&mut self, line: &str) -> ServiceResult<Frame> {
        send_line(&mut self.writer, line)?;
        protocol::read_frame(&mut self.reader)
    }

    /// Sends one raw request line and returns whatever frame the server
    /// answers with, with the bounded retry on transport errors when
    /// reconnect is enabled. Server-reported errors (`ERR` frames,
    /// [`ServiceError::Remote`]) and malformed frames are returned as-is:
    /// the peer is alive and answered, so a retry would only repeat the
    /// failure. The replay path sends recorded statements through it and
    /// digests whichever frame arrives.
    pub fn round_trip_raw(&mut self, line: &str) -> ServiceResult<Frame> {
        match self.round_trip_once(line) {
            Err(err @ ServiceError::Io(_)) if self.reconnect => {
                // The server dropped any open transaction with the old
                // connection.
                (_, self.reader, self.writer) = redial(|| dial(self.peer))?;
                self.in_txn = false;
                if !is_mutation_sql(line) {
                    self.round_trip_once(line)
                } else {
                    // The connection is healed for subsequent requests, but
                    // this one stays ambiguous: report the transport error.
                    Err(err)
                }
            }
            other => other,
        }
    }

    /// One round trip of a request of the grammar.
    fn request(&mut self, request: ClientRequest) -> ServiceResult<Frame> {
        self.round_trip_raw(&request.line())
    }

    /// Executes a SQL statement, returning the parsed rows and summary.
    ///
    /// Mutations (`INSERT`/`UPDATE`/`DELETE`) and `BEGIN; …` transaction
    /// scripts are automatically wrapped in a `TOKEN <id>` envelope so the
    /// bounded reconnect can resend them exactly-once (the server
    /// deduplicates the token).
    ///
    /// The client tracks interactive transactions: a bare `BEGIN` flips
    /// the connection into transaction mode, where every statement travels
    /// raw (the server's buffer rejects `TOKEN` envelopes) and is **never**
    /// resent — after a transport error the server has already rolled the
    /// transaction back, and a replayed statement would land outside it
    /// and apply immediately. `COMMIT`/`ROLLBACK` (or the transport error
    /// itself) leave transaction mode.
    pub fn query(&mut self, sql: &str) -> ServiceResult<WireResponse> {
        let first = first_keyword(sql);
        if self.in_txn {
            let boundary = ["COMMIT", "ROLLBACK"]
                .iter()
                .any(|kw| first.eq_ignore_ascii_case(kw));
            let result = self.round_trip_once(sql);
            // The server discards an open transaction with its connection;
            // `COMMIT` consumes the buffer even when the engine then
            // rejects what it held.
            if boundary || matches!(result, Err(ServiceError::Io(_))) {
                self.in_txn = false;
            }
            return result?.into_rows();
        }
        if first.eq_ignore_ascii_case("BEGIN") && !is_script(sql) {
            let response = self.round_trip_raw(sql)?.into_rows()?;
            self.in_txn = true;
            return Ok(response);
        }
        if is_mutation_sql(sql) {
            return self.round_trip_raw(&tokened(sql.to_string()))?.into_rows();
        }
        self.round_trip_raw(sql)?.into_rows()
    }

    /// Asks the server which of `ids` it currently holds.
    pub fn lookup(&mut self, ids: &[MaskId]) -> ServiceResult<Vec<MaskId>> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let response = self.request(ClientRequest::Lookup(ids.to_vec()))?;
        Ok(response.into_rows()?.mask_ids())
    }

    /// Liveness check (also re-verifies the protocol version).
    pub fn ping(&mut self) -> ServiceResult<()> {
        check_pong(self.request(ClientRequest::Ping)?)
    }

    /// Fetches the server's metrics summary line (raw `key=value` text).
    pub fn stats(&mut self) -> ServiceResult<String> {
        self.request(ClientRequest::Stats)?.into_control()
    }

    /// Renders the server-side plan of a SQL query (`EXPLAIN`), executing
    /// it first when `analyze` is set (`EXPLAIN ANALYZE`) so the plan
    /// carries the measured statistics. Returns the plan lines.
    pub fn explain(&mut self, analyze: bool, sql: &str) -> ServiceResult<Vec<String>> {
        let explain = masksearch_sql::explain_statement(analyze, sql);
        self.round_trip_raw(&explain)?.into_lines("PLAN")
    }

    /// Fetches the server's full Prometheus text exposition.
    pub fn metrics(&mut self) -> ServiceResult<String> {
        Ok(self
            .request(ClientRequest::Metrics)?
            .into_lines("METRICS")?
            .join("\n")
            + "\n")
    }

    /// Fetches the windowed gauges for the last `secs` seconds as a
    /// Prometheus text exposition (`METRICS WINDOW <secs>`).
    pub fn metrics_window(&mut self, secs: u64) -> ServiceResult<String> {
        let lines = self.request(ClientRequest::MetricsWindow(secs))?;
        Ok(lines.into_lines("METRICS")?.join("\n") + "\n")
    }

    /// Sends a recorder control; the raw `RECORD active=... path=...
    /// records=... bytes=... dropped=...` status line it answers with.
    fn record(&mut self, control: RecordControl) -> ServiceResult<String> {
        match self.request(ClientRequest::Record(control))? {
            Frame::Control(line) if line.starts_with("RECORD ") => Ok(line),
            other => Err(ServiceError::Protocol(format!(
                "expected a RECORD status, got {other:?}"
            ))),
        }
    }

    /// Starts the server's flight recorder, optionally naming the recording
    /// file (otherwise the server's configured path is used). Returns the
    /// raw status line.
    pub fn record_start(&mut self, path: Option<&str>) -> ServiceResult<String> {
        self.record(RecordControl::Start(path.map(str::to_string)))
    }

    /// Flushes and stops the server's flight recorder.
    pub fn record_stop(&mut self) -> ServiceResult<String> {
        self.record(RecordControl::Stop)
    }

    /// Fetches the server's flight-recorder status line.
    pub fn record_status(&mut self) -> ServiceResult<String> {
        self.record(RecordControl::Status)
    }

    /// Subscribes to `frames` periodic metric-delta frames spaced
    /// `interval_ms` apart. Blocks until the subscription completes and
    /// returns, per frame, the counter deltas since the previous frame
    /// (frame 0 is the cumulative counters at subscription time). Each
    /// frame is `(seq, deltas)`.
    ///
    /// The server streams at most [`MAX_MONITOR_FRAMES`], so a larger
    /// `frames` returns that many; zero frames asks the server nothing.
    pub fn monitor(&mut self, frames: u32, interval_ms: u64) -> ServiceResult<Vec<MonitorFrame>> {
        let frames = frames.min(MAX_MONITOR_FRAMES);
        if frames == 0 {
            return Ok(Vec::new());
        }
        let request = ClientRequest::Monitor {
            frames,
            interval_ms,
        };
        send_line(&mut self.writer, &request.line())?;
        (0..frames)
            .map(|_| {
                let lines = protocol::read_frame(&mut self.reader)?.into_lines("DELTA")?;
                Ok(protocol::parse_delta_lines(&lines))
            })
            .collect()
    }

    /// Fetches the server's most recent `n` traced query profiles as
    /// rendered lines (`STATS PROFILES <n>`).
    pub fn profiles(&mut self, n: usize) -> ServiceResult<Vec<String>> {
        self.request(ClientRequest::Profiles(n))?
            .into_lines("PROFILES")
    }

    /// Politely closes the connection.
    pub fn quit(mut self) -> ServiceResult<()> {
        send_line(&mut self.writer, &ClientRequest::Quit.line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    fn read_request(stream: &TcpStream) -> String {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// A real server over a one-mask database.
    fn real_server() -> crate::ServerHandle {
        use masksearch_core::{Mask, MaskRecord};
        use masksearch_query::{Session, SessionConfig};
        use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
        let store = MemoryMaskStore::for_tests();
        let mut catalog = Catalog::new();
        store
            .put(MaskId::new(0), &Mask::from_fn(8, 8, |_, _| 0.9))
            .unwrap();
        catalog.insert(MaskRecord::builder(MaskId::new(0)).shape(8, 8).build());
        let session = Session::new(
            std::sync::Arc::new(store),
            catalog,
            SessionConfig::default(),
        )
        .unwrap();
        let engine = crate::Engine::new(session, crate::ServiceConfig::new(1));
        crate::Server::bind("127.0.0.1:0", engine).unwrap().spawn()
    }

    #[test]
    fn a_zero_frame_monitor_leaves_the_connection_in_step() {
        let server = real_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(client.monitor(0, 0).unwrap().is_empty());
        // Had `MONITOR 0 0` gone out, the server would have answered it as
        // SQL with an ERR frame, and this ping would have read that frame.
        client.ping().unwrap();
        client.quit().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_monitor_past_the_server_cap_returns_the_frames_the_server_sends() {
        let server = real_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // In a thread, so a client waiting for frames that never come fails
        // the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let frames = client.monitor(MAX_MONITOR_FRAMES + 1, 0);
            let pong = client.ping();
            let _ = tx.send((frames, pong));
        });
        let (frames, pong) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("monitor waited for frames the server never sends");
        let frames = frames.unwrap();
        assert_eq!(frames.len(), MAX_MONITOR_FRAMES as usize);
        assert_eq!(frames.last().unwrap().0, u64::from(MAX_MONITOR_FRAMES) - 1);
        pong.unwrap();
        server.shutdown();
    }

    #[test]
    fn handshake_rejects_version_mismatch() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake_v1 = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert_eq!(read_request(&stream), "PING");
            // A v1 peer replies with a bare PONG.
            stream.write_all(b"PONG\nEND\n").unwrap();
        });
        match Client::connect(addr) {
            Err(ServiceError::Protocol(msg)) => {
                assert!(msg.contains("version mismatch"), "{msg}");
                assert!(msg.contains("v1"), "{msg}");
            }
            Err(other) => panic!("expected a version-mismatch error, got {other:?}"),
            Ok(_) => panic!("expected a version-mismatch error, got a connection"),
        }
        fake_v1.join().unwrap();
    }

    #[test]
    fn transient_disconnect_is_survived_by_one_bounded_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Connection 1: complete the handshake, then slam the door (a
            // restarting shard).
            let (mut stream, _) = listener.accept().unwrap();
            assert_eq!(read_request(&stream), "PING");
            stream
                .write_all(format!("PONG v{PROTOCOL_VERSION}\nEND\n").as_bytes())
                .unwrap();
            drop(stream);
            // Connection 2: the client reconnects (handshake again) and
            // resends the same request.
            let (mut stream, _) = listener.accept().unwrap();
            assert_eq!(read_request(&stream), "PING");
            stream
                .write_all(format!("PONG v{PROTOCOL_VERSION}\nEND\n").as_bytes())
                .unwrap();
            let request = read_request(&stream);
            assert_eq!(request, "LOOKUP 7");
            stream.write_all(b"OK 1\nmask 7\nEND\n").unwrap();
        });
        let mut client = Client::connect(addr).unwrap().with_reconnect(true);
        let present = client.lookup(&[MaskId::new(7)]).unwrap();
        assert_eq!(present, vec![MaskId::new(7)]);
        server.join().unwrap();
    }

    #[test]
    fn without_reconnect_a_disconnect_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert_eq!(read_request(&stream), "PING");
            stream
                .write_all(format!("PONG v{PROTOCOL_VERSION}\nEND\n").as_bytes())
                .unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        server.join().unwrap();
        assert!(matches!(
            client.lookup(&[MaskId::new(1)]),
            Err(ServiceError::Io(_))
        ));
    }
}
