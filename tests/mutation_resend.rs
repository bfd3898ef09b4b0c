//! Exactly-once mutation resend: a client whose connection dies *after* the
//! server committed an `INSERT` must be able to resend on reconnect without
//! double-applying the write.
//!
//! The test places a byte-forwarding proxy between a reconnect-enabled
//! [`Client`] and a real [`Server`]. For one scripted request the proxy
//! forwards the request line, waits for the server's full response (so the
//! mutation is known to have applied), then kills both directions without
//! relaying the response — exactly the "proxy/network died mid-INSERT"
//! failure. The client sees a transport error, reconnects through the proxy,
//! and resends its `TOKEN`-wrapped statement; the server's dedup registry
//! answers from the recorded outcome. Exactly-once application is asserted
//! through the engine's metrics (`mutations`, `masks_inserted`, `deduped`)
//! and the catalog state.

use masksearch::core::{ImageId, Mask, MaskId, MaskRecord};
use masksearch::index::ChiConfig;
use masksearch::query::{IndexingMode, Session, SessionConfig};
use masksearch::service::{Client, Engine, Server, ServiceConfig, ServiceError};
use masksearch::storage::{Catalog, MemoryMaskStore};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A line-level proxy: forwards request lines upstream and response frames
/// downstream. While `drop_next_response` is set, the first complete
/// response frame is *consumed but not relayed*, and both connections are
/// torn down — the committed-but-unacknowledged window.
struct Proxy {
    addr: SocketAddr,
    drop_next_response: Arc<AtomicBool>,
}

impl Proxy {
    fn start(upstream: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().unwrap();
        let drop_next_response = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&drop_next_response);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(client) = stream else { break };
                let flag = Arc::clone(&flag);
                std::thread::spawn(move || {
                    let _ = serve(client, upstream, &flag);
                });
            }
        });
        Proxy {
            addr,
            drop_next_response,
        }
    }
}

/// Reads one response frame (through `END`) from the server.
fn read_frame(server_reader: &mut BufReader<TcpStream>) -> std::io::Result<Vec<u8>> {
    let mut frame = Vec::new();
    loop {
        let mut line = String::new();
        if server_reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-frame",
            ));
        }
        frame.extend_from_slice(line.as_bytes());
        if line.trim_end() == "END" {
            return Ok(frame);
        }
    }
}

fn serve(client: TcpStream, upstream: SocketAddr, drop_next: &AtomicBool) -> std::io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    let mut client_reader = BufReader::new(client.try_clone()?);
    let mut client_writer = client;
    let mut server_reader = BufReader::new(server.try_clone()?);
    let mut server_writer = server;
    loop {
        let mut line = String::new();
        if client_reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        server_writer.write_all(line.as_bytes())?;
        server_writer.flush()?;
        // Always collect the server's complete response first: the mutation
        // has fully applied by the time the frame ends.
        let frame = read_frame(&mut server_reader)?;
        let is_mutation = line
            .trim_start()
            .get(..6)
            .is_some_and(|p| p.eq_ignore_ascii_case("TOKEN "))
            || line.trim_start().get(..7).is_some_and(|p| {
                p.eq_ignore_ascii_case("INSERT ") || p.eq_ignore_ascii_case("DELETE ")
            });
        if is_mutation && drop_next.swap(false, Ordering::SeqCst) {
            // Kill the connection without relaying the (successful)
            // response: the client cannot know the write committed.
            drop(client_writer);
            drop(server_writer);
            return Ok(());
        }
        client_writer.write_all(&frame)?;
        client_writer.flush()?;
    }
}

fn serve_engine() -> (Engine, masksearch::service::ServerHandle) {
    let store = MemoryMaskStore::for_tests();
    let mut catalog = Catalog::new();
    for i in 0..4u64 {
        let mask = Mask::from_fn(16, 16, move |x, y| ((x + y + i as u32) % 10) as f32 / 10.0);
        store.put(MaskId::new(i), &mask).unwrap();
        catalog.insert(
            MaskRecord::builder(MaskId::new(i))
                .image_id(ImageId::new(i))
                .shape(16, 16)
                .build(),
        );
    }
    let session = Session::new(
        Arc::new(store),
        catalog,
        SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
            .threads(2)
            .indexing_mode(IndexingMode::Eager),
    )
    .unwrap();
    let engine = Engine::new(session, ServiceConfig::new(2));
    let server = Server::bind("127.0.0.1:0", engine.clone()).unwrap();
    let handle = server.spawn();
    (engine, handle)
}

fn insert_statement(mask_id: u64, image_id: u64) -> String {
    let pixels: Vec<String> = (0..64).map(|_| "0.9".to_string()).collect();
    format!(
        "INSERT INTO masks VALUES ({mask_id}, {image_id}, 8, 8, ({}))",
        pixels.join(", ")
    )
}

#[test]
fn killed_proxy_mid_insert_applies_exactly_once() {
    let (engine, handle) = serve_engine();
    let proxy = Proxy::start(handle.local_addr());
    let mut client = Client::connect(proxy.addr).unwrap().with_reconnect(true);

    // Warm-up request through the proxy.
    client.ping().unwrap();

    // Arm the proxy: the next mutation's response is swallowed and the
    // connection killed after the server committed.
    proxy.drop_next_response.store(true, Ordering::SeqCst);
    let response = client.query(&insert_statement(100, 50)).unwrap();
    assert_eq!(response.summary.inserted, 1);

    // Exactly-once: the statement executed once and the resend was answered
    // from the dedup registry.
    let metrics = engine.metrics();
    assert_eq!(metrics.mutations, 1, "mutation applied more than once");
    assert_eq!(metrics.masks_inserted, 1);
    assert_eq!(metrics.mutations_deduped, 1, "resend was not deduplicated");
    assert_eq!(engine.session().catalog_len(), 5);

    // The mask is present and queryable exactly once.
    let out = client
        .query("SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 8, 8), (0.85, 1.0)) > 60")
        .unwrap();
    assert_eq!(out.mask_ids(), vec![MaskId::new(100)]);

    // The STATS line carries the dedup counter.
    let stats = client.stats().unwrap();
    assert!(stats.contains("deduped=1"), "{stats}");

    // A second kill during DELETE: same guarantees, and the delete is not
    // double-reported as UnknownMask.
    proxy.drop_next_response.store(true, Ordering::SeqCst);
    let response = client
        .query("DELETE FROM masks WHERE mask_id = 100")
        .unwrap();
    assert_eq!(response.summary.deleted, 1);
    let metrics = engine.metrics();
    assert_eq!(metrics.mutations, 2);
    assert_eq!(metrics.masks_deleted, 1);
    assert_eq!(metrics.mutations_deduped, 2);
    assert_eq!(engine.session().catalog_len(), 4);

    handle.shutdown();
    engine.shutdown();
}

#[test]
fn bare_mutations_fail_loudly_instead_of_double_applying() {
    // A foreign client that does not speak the TOKEN envelope sends a raw
    // INSERT; the proxy kills the connection after the server committed.
    // The foreign client must observe a transport error (the ambiguity is
    // surfaced, never silently retried), and the server state reflects
    // exactly one application.
    let (engine, handle) = serve_engine();
    let proxy = Proxy::start(handle.local_addr());

    let mut raw = TcpStream::connect(proxy.addr).unwrap();
    let mut raw_reader = BufReader::new(raw.try_clone().unwrap());
    // Handshake like any protocol peer.
    raw.write_all(b"PING\n").unwrap();
    let mut line = String::new();
    raw_reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("PONG"), "{line}");
    line.clear();
    raw_reader.read_line(&mut line).unwrap(); // END

    proxy.drop_next_response.store(true, Ordering::SeqCst);
    raw.write_all(format!("{}\n", insert_statement(200, 60)).as_bytes())
        .unwrap();
    // The proxy swallows the response and closes: EOF on the raw socket.
    let mut rest = String::new();
    let eof = raw_reader.read_to_string(&mut rest).unwrap();
    assert_eq!(eof, 0, "expected a dropped connection, got {rest:?}");

    // The server applied the statement exactly once regardless.
    assert_eq!(engine.metrics().mutations, 1);
    assert_eq!(engine.metrics().masks_inserted, 1);
    assert_eq!(engine.metrics().mutations_deduped, 0);
    assert_eq!(engine.session().catalog_len(), 5);

    // And the tokenised Client still works against the same server after
    // the foreign client's failure.
    let mut client = Client::connect(proxy.addr).unwrap().with_reconnect(true);
    let response = client
        .query("DELETE FROM masks WHERE mask_id = 200")
        .unwrap();
    assert_eq!(response.summary.deleted, 1);
    match client.query("DELETE FROM masks WHERE mask_id = 200") {
        Err(ServiceError::Remote(msg)) => assert!(msg.contains("not in the catalog"), "{msg}"),
        other => panic!("expected a remote UnknownMask error, got {other:?}"),
    }

    handle.shutdown();
    engine.shutdown();
}
