//! The cluster acceptance test: a 4-shard cluster — each shard a real
//! `masksearch-db`-backed server — serving concurrent SQL clients during
//! live ingestion, returning results byte-identical to a single-node oracle
//! session (including distributed top-k), while one shard is killed and
//! restarted (WAL recovery) mid-test and survived via client reconnect;
//! and a 2-shard cluster where a killed shard fails statements by name.
//!
//! Each shard sits behind a tiny in-test TCP proxy whose listener lives for
//! the whole test: "killing" a shard severs every proxied connection and
//! holds new ones, the shard process state is torn down and re-opened from
//! its directory (crash recovery path), and the proxy then forwards to the
//! reborn server's fresh port. This models a process restart without
//! rebinding a port out from under TIME_WAIT sockets.

use masksearch::cluster::{ClusterConfig, Coordinator, CoordinatorServer};
use masksearch::core::{ImageId, Mask, MaskId, MaskRecord};
use masksearch::db::{DbConfig, MaskDb};
use masksearch::index::ChiConfig;
use masksearch::query::{IndexingMode, Session, SessionConfig};
use masksearch::service::{Client, Engine, Server, ServerHandle, ServiceConfig, ServiceError};
use masksearch::storage::{Catalog, MaskStore, MemoryMaskStore};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const W: u32 = 16;
const H: u32 = 16;
const SHARDS: usize = 4;
const BATCHES: u64 = 12;
const BATCH: u64 = 8; // masks per INSERT statement (4 images x 2 masks)

// ---------------------------------------------------------------------------
// A pausable TCP proxy with a persistent listener.
// ---------------------------------------------------------------------------

struct ProxyState {
    upstream: Mutex<SocketAddr>,
    paused: Mutex<bool>,
    unpaused: Condvar,
    conns: Mutex<Vec<TcpStream>>,
    shutdown: AtomicBool,
}

struct Proxy {
    addr: SocketAddr,
    state: Arc<ProxyState>,
}

impl Proxy {
    fn start(upstream: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let state = Arc::new(ProxyState {
            upstream: Mutex::new(upstream),
            paused: Mutex::new(false),
            unpaused: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept_state = Arc::clone(&state);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(client) = stream else { continue };
                let state = Arc::clone(&accept_state);
                std::thread::spawn(move || proxy_connection(client, &state));
            }
        });
        Proxy { addr, state }
    }

    /// Severs every proxied connection and holds new ones until `resume`.
    fn pause(&self) {
        *self.state.paused.lock().unwrap() = true;
        let mut conns = self.state.conns.lock().unwrap();
        for stream in conns.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Reconnects the proxy to a (possibly new) upstream and releases held
    /// connections.
    fn resume(&self, upstream: SocketAddr) {
        *self.state.upstream.lock().unwrap() = upstream;
        *self.state.paused.lock().unwrap() = false;
        self.state.unpaused.notify_all();
    }
}

fn proxy_connection(client: TcpStream, state: &Arc<ProxyState>) {
    // Hold the connection while the shard is "down".
    let upstream = {
        let mut paused = state.paused.lock().unwrap();
        while *paused {
            paused = state.unpaused.wait(paused).unwrap();
        }
        *state.upstream.lock().unwrap()
    };
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    {
        let mut conns = state.conns.lock().unwrap();
        conns.push(client.try_clone().unwrap());
        conns.push(server.try_clone().unwrap());
    }
    let client_to_server = (client.try_clone().unwrap(), server.try_clone().unwrap());
    std::thread::spawn(move || pump(client_to_server.0, client_to_server.1));
    pump(server, client);
}

fn pump(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 8192];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Shard lifecycle.
// ---------------------------------------------------------------------------

fn db_config() -> DbConfig {
    DbConfig::default()
        .page_size(1024)
        .chi_config(ChiConfig::new(4, 4, 8).unwrap())
}

fn session_config() -> SessionConfig {
    SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap()).threads(2)
}

struct Shard {
    dir: PathBuf,
    db: Option<MaskDb>,
    handle: Option<ServerHandle>,
}

impl Shard {
    fn start(dir: PathBuf) -> Shard {
        let db = MaskDb::open(&dir, db_config()).unwrap();
        let session = Session::with_store_maintained_index(
            db.mask_store(),
            db.catalog(),
            session_config(),
            db.chi_store(),
        );
        let engine = Engine::new(session, ServiceConfig::new(2));
        let handle = Server::bind("127.0.0.1:0", engine).unwrap().spawn();
        Shard {
            dir,
            db: Some(db),
            handle: Some(handle),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().unwrap().local_addr()
    }

    /// Tears the shard down (no checkpoint — the reopen takes the WAL
    /// recovery path) and starts a fresh instance from the same directory.
    fn restart(&mut self) {
        let handle = self.handle.take().unwrap();
        // Severed connections drain quickly; wait so no stale thread still
        // holds the old engine (and with it the old pager) when we reopen.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.active_connections() > 0 {
            assert!(
                Instant::now() < deadline,
                "old shard connections failed to drain"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown();
        self.db = None; // drop the old database before reopening its files
        *self = Shard::start(std::mem::take(&mut self.dir));
    }
}

// ---------------------------------------------------------------------------
// Data + oracle.
// ---------------------------------------------------------------------------

fn mask_for(id: u64) -> Mask {
    let mut state = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Mask::from_fn(W, H, move |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32) / (1u64 << 24) as f32
    })
}

fn insert_sql(ids: std::ops::Range<u64>) -> String {
    let tuples: Vec<String> = ids
        .map(|id| {
            let mask = mask_for(id);
            let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
            format!("({id}, {}, {W}, {H}, ({}))", id / 2, pixels.join(","))
        })
        .collect();
    format!("INSERT INTO masks VALUES {}", tuples.join(", "))
}

fn oracle_session(ids: &[u64]) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for &id in ids {
        store.put(MaskId::new(id), &mask_for(id)).unwrap();
        catalog.insert(
            MaskRecord::builder(MaskId::new(id))
                .image_id(ImageId::new(id / 2))
                .shape(W, H)
                .build(),
        );
    }
    Session::new(
        store as Arc<dyn MaskStore>,
        catalog,
        session_config().indexing_mode(IndexingMode::Eager),
    )
    .unwrap()
}

fn query_suite() -> Vec<String> {
    vec![
        format!(
            "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.5, 1.0)) > {}",
            W * H / 2
        ),
        format!(
            "SELECT mask_id, CP(mask, (0, 0, {W}, {H}), (0.6, 1.0)) AS s \
             FROM masks ORDER BY s DESC LIMIT 7"
        ),
        format!(
            "SELECT mask_id, CP(mask, (0, 0, 8, {H}), (0.5, 1.0)) / CP(mask, full, (0.5, 1.0)) AS r \
             FROM masks ORDER BY r ASC LIMIT 5"
        ),
        format!(
            "SELECT image_id, AVG(CP(mask, full, (0.5, 1.0))) AS s FROM masks GROUP BY image_id"
        ),
        format!(
            "SELECT image_id, SUM(CP(mask, full, (0.7, 1.0))) AS s \
             FROM masks GROUP BY image_id HAVING s > 120"
        ),
        format!(
            "SELECT image_id, MAX(CP(mask, full, (0.5, 1.0))) AS s \
             FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 4"
        ),
        // Pair (self-join) shapes: with no per-model metadata both sides
        // bind each image's smallest mask id, which makes every IoU exactly
        // 1.0 — an all-ties ranked merge, the hardest case for the
        // distributed top-k tie-break — while the composed filter behaves
        // like a per-image CP and must broadcast-merge exactly.
        format!(
            "SELECT image_id FROM masks a JOIN masks b ON a.image_id = b.image_id \
             WHERE CP(UNION(a.mask, b.mask), full, (0.5, 1.0)) > {}",
            W * H / 2
        ),
        format!(
            "SELECT image_id, IOU(a.mask, b.mask, full, 0.5) AS s \
             FROM masks a JOIN masks b ON a.image_id = b.image_id \
             ORDER BY s DESC LIMIT 5"
        ),
        format!(
            "SELECT image_id, CP(DIFF(a.mask, b.mask), (0, 0, 8, {H}), (0.25, 1.0)) AS d \
             FROM masks a JOIN masks b ON a.image_id = b.image_id \
             ORDER BY d ASC LIMIT 6"
        ),
    ]
}

fn assert_cluster_matches_oracle(client: &mut Client, oracle: &Session, context: &str) {
    for sql in query_suite() {
        let expected = oracle
            .execute(&masksearch::sql::compile(&sql).unwrap())
            .unwrap();
        let got = client.query(&sql).unwrap();
        assert_eq!(got.rows, expected.rows, "[{context}] divergence for {sql}");
    }
}

// ---------------------------------------------------------------------------
// The test.
// ---------------------------------------------------------------------------

#[test]
fn four_shard_cluster_with_live_ingestion_and_shard_restart() {
    let base = std::env::temp_dir().join(format!("masksearch-cluster-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // 4 durable shards, each behind a pausable proxy.
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|i| Shard::start(base.join(format!("shard-{i}"))))
        .collect();
    let proxies: Vec<Proxy> = shards.iter().map(|s| Proxy::start(s.addr())).collect();
    let coordinator = Coordinator::connect(ClusterConfig::new(
        proxies.iter().map(|p| p.addr.to_string()).collect(),
    ))
    .unwrap();
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator.clone())
        .unwrap()
        .spawn();
    let addr = front.local_addr();

    let done = Arc::new(AtomicBool::new(false));

    // Readers: hammer an everything-matches filter through the coordinator
    // and assert per-image write atomicity: each image's two masks appear
    // together or not at all, even though a cross-shard INSERT statement is
    // only atomic per shard.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let everything = format!(
                "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.0, 1.0)) > 0"
            );
            let mut client = Client::connect(addr).unwrap();
            let mut checked = 0u64;
            while !done.load(Ordering::Acquire) || checked == 0 {
                let ids: BTreeSet<u64> = client
                    .query(&everything)
                    .unwrap()
                    .mask_ids()
                    .iter()
                    .map(|id| id.raw())
                    .collect();
                assert!(ids.len() as u64 <= BATCHES * BATCH);
                for &id in &ids {
                    assert!(id < BATCHES * BATCH);
                    let sibling = id ^ 1;
                    assert!(
                        ids.contains(&sibling),
                        "image {} torn: saw {id} without {sibling}",
                        id / 2
                    );
                }
                checked += 1;
            }
            client.quit().unwrap();
            checked
        }));
    }

    // Writer: stream the first half of the batches.
    let mut writer = Client::connect(addr).unwrap();
    for batch in 0..BATCHES / 2 {
        let response = writer
            .query(&insert_sql(batch * BATCH..(batch + 1) * BATCH))
            .unwrap();
        assert_eq!(response.summary.inserted, BATCH);
    }

    // Mid-test shard kill + restart (WAL recovery), with readers live. The
    // proxy severs every connection, the shard is torn down and reopened
    // from its directory, and the coordinator's pooled clients reconnect.
    let victim = 1;
    proxies[victim].pause();
    shards[victim].restart();
    proxies[victim].resume(shards[victim].addr());

    // Second half of the ingestion, through the restarted cluster.
    for batch in BATCHES / 2..BATCHES {
        let response = writer
            .query(&insert_sql(batch * BATCH..(batch + 1) * BATCH))
            .unwrap();
        assert_eq!(response.summary.inserted, BATCH);
    }

    done.store(true, Ordering::Release);
    let checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(checks > 0);

    // Quiescent: every query shape byte-identical to the single-node oracle,
    // including the data that lived through the shard restart.
    let all_ids: Vec<u64> = (0..BATCHES * BATCH).collect();
    let oracle = oracle_session(&all_ids);
    assert_cluster_matches_oracle(&mut writer, &oracle, "after ingestion + restart");

    // Deletes route across shards and stay byte-identical.
    let delete = "DELETE FROM masks WHERE mask_id IN (0, 1, 10, 11, 40, 41)";
    let response = writer.query(delete).unwrap();
    assert_eq!(response.summary.deleted, 6);
    match masksearch::sql::compile_statement(delete).unwrap() {
        masksearch::sql::Statement::Mutation(m) => {
            oracle.apply(&m).unwrap();
        }
        _ => unreachable!(),
    }
    assert_cluster_matches_oracle(&mut writer, &oracle, "after delete");

    // The aggregated STATS line reports the cluster shape and refinements.
    let stats = writer.stats().unwrap();
    assert!(
        stats.starts_with(&format!("STATS shards={SHARDS}")),
        "{stats}"
    );
    assert!(stats.contains("cluster_queries="), "{stats}");
    writer.quit().unwrap();

    // A restarted-from-disk cluster (all shards) still equals the oracle:
    // the ingested catalog is durable on every shard.
    front.shutdown();
    for (shard, proxy) in shards.iter_mut().zip(&proxies) {
        proxy.pause();
        shard.restart();
        proxy.resume(shard.addr());
    }
    let coordinator = Coordinator::connect(ClusterConfig::new(
        proxies.iter().map(|p| p.addr.to_string()).collect(),
    ))
    .unwrap();
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator)
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();
    assert_cluster_matches_oracle(&mut client, &oracle, "after full cluster restart");
    client.quit().unwrap();
    front.shutdown();

    std::fs::remove_dir_all(&base).unwrap();
}

/// A dead shard fails loudly, by name. Shard 0 of a 2-shard cluster is
/// killed outright (its server severs every connection and stops listening,
/// no proxy, so redials fail fast). Every read then needs shard 0, so a
/// broadcast and a ranked read each answer `ERR` naming `shard 0 (<addr>)`
/// once the link's one bounded resend gave up; a write routed to shard 0
/// fails the same way, a write routed to shard 1 applies, and the client's
/// connection keeps serving throughout.
#[test]
fn a_dead_shard_fails_reads_and_its_writes_by_name() {
    let base = std::env::temp_dir().join(format!("masksearch-cluster-dead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut shards: Vec<Shard> = (0..2)
        .map(|i| Shard::start(base.join(format!("shard-{i}"))))
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let coordinator = Coordinator::connect(ClusterConfig::new(addrs.clone())).unwrap();
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator)
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();
    for batch in 0..BATCHES / 2 {
        let response = client
            .query(&insert_sql(batch * BATCH..(batch + 1) * BATCH))
            .unwrap();
        assert_eq!(response.summary.inserted, BATCH);
    }
    let oracle = oracle_session(&(0..BATCHES / 2 * BATCH).collect::<Vec<_>>());
    assert_cluster_matches_oracle(&mut client, &oracle, "before kill");

    let victim = 0;
    shards[victim].handle.take().unwrap().kill();
    shards[victim].db = None;
    let named = format!("shard {victim} ({})", addrs[victim]);
    // An `ERR` answer naming the dead shard, not a dropped connection.
    let assert_names_victim = |err: ServiceError, what: &str| match err {
        ServiceError::Remote(message) => assert!(message.contains(&named), "{what}: {message}"),
        other => panic!("{what}: expected an ERR answer, got {other:?}"),
    };

    // The link resends once after reconnect attempts spaced 50 + 150 +
    // 400 ms apart; the rest of the bound is slack for a loaded host.
    let bound = Duration::from_millis(600) + Duration::from_secs(5);
    let suite = query_suite();
    for (what, sql) in [("broadcast read", &suite[0]), ("ranked read", &suite[1])] {
        let started = Instant::now();
        let err = client
            .query(sql)
            .expect_err("a read needing a dead shard must fail");
        let took = started.elapsed();
        assert_names_victim(err, what);
        assert!(
            took < bound,
            "{what} took {took:?} to fail (bound {bound:?})"
        );
    }

    // Writes route by image: one owned by the dead shard fails, one owned
    // by the live shard applies.
    let map = masksearch::cluster::ShardMap::new(2).unwrap();
    let image_on = |shard: usize| {
        (BATCHES * BATCH / 2..)
            .find(|&img| map.shard_for_image(ImageId::new(img)) == shard)
            .unwrap()
    };
    let doomed = image_on(victim);
    let err = client
        .query(&insert_sql(doomed * 2..doomed * 2 + 2))
        .expect_err("a write to a dead shard must fail");
    assert_names_victim(err, "write to the dead shard");
    let live = image_on(1);
    let applied = client.query(&insert_sql(live * 2..live * 2 + 2)).unwrap();
    assert_eq!(applied.summary.inserted, 2);

    // The same connection still serves.
    client.ping().unwrap();
    client.quit().unwrap();
    front.shutdown();
    drop(shards);
    std::fs::remove_dir_all(&base).unwrap();
}

// ---------------------------------------------------------------------------
// Transaction scripts.
// ---------------------------------------------------------------------------

/// A memory-backed shard server: transaction routing is a coordinator
/// concern, so these tests need live wire round trips but not durability.
fn memory_shard() -> ServerHandle {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let session = Session::new(
        store as Arc<dyn MaskStore>,
        Catalog::new(),
        session_config().indexing_mode(IndexingMode::Eager),
    )
    .unwrap();
    Server::bind("127.0.0.1:0", Engine::new(session, ServiceConfig::new(2)))
        .unwrap()
        .spawn()
}

fn tuple_for(id: u64, image: u64) -> String {
    let mask = mask_for(id);
    let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
    format!("({id}, {image}, {W}, {H}, ({}))", pixels.join(","))
}

/// Transactions through the coordinator: a `BEGIN; …; COMMIT` script whose
/// statements all land on one shard applies atomically there (later
/// statements observing earlier ones, exactly like a single node); a
/// `ROLLBACK` script touches no shard; and anything unroutable — a script
/// spanning shards, DDL inside a script, an unknown mask id, a bare
/// control statement — is rejected loudly before any side effect.
#[test]
fn transaction_scripts_route_to_one_shard_and_reject_cross_shard() {
    let shards: Vec<ServerHandle> = (0..2).map(|_| memory_shard()).collect();
    let coordinator = Coordinator::connect(ClusterConfig::new(
        shards.iter().map(|h| h.local_addr().to_string()).collect(),
    ))
    .unwrap();
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator.clone())
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.local_addr()).unwrap();

    let map = masksearch::cluster::ShardMap::new(2).unwrap();
    let mut images_on_0 = (0u64..).filter(|&i| map.shard_for_image(ImageId::new(i)) == 0);
    let img0 = images_on_0.next().unwrap();
    let img0b = images_on_0.next().unwrap();
    let img1 = (0u64..)
        .find(|&i| map.shard_for_image(ImageId::new(i)) == 1)
        .unwrap();
    let ids = |raw: &[u64]| raw.iter().map(|&id| MaskId::new(id)).collect::<Vec<_>>();

    // Seed a committed mask on shard 0.
    let seed = format!("INSERT INTO masks VALUES {}", tuple_for(1, img0));
    assert_eq!(client.query(&seed).unwrap().summary.inserted, 1);

    // One script: INSERT two masks, UPDATE the committed one, DELETE one of
    // the masks inserted *by this script* — all on shard 0, one atomic
    // commit, with later statements observing earlier ones.
    let script = format!(
        "BEGIN; INSERT INTO masks VALUES {}, {}; \
         UPDATE masks SET predicted_label = 9 WHERE mask_id = 1; \
         DELETE FROM masks WHERE mask_id IN (3); COMMIT",
        tuple_for(2, img0b),
        tuple_for(3, img0),
    );
    let applied = client.query(&script).unwrap();
    assert_eq!(applied.summary.inserted, 2);
    assert_eq!(applied.summary.updated, 1);
    assert_eq!(applied.summary.deleted, 1);
    assert_eq!(client.lookup(&ids(&[1, 2, 3])).unwrap(), ids(&[1, 2]));

    // A ROLLBACK script answers zero without touching any shard.
    let rolled = client
        .query("BEGIN; DELETE FROM masks WHERE mask_id IN (1); ROLLBACK")
        .unwrap();
    assert_eq!(rolled.summary.deleted, 0);
    assert_eq!(client.lookup(&ids(&[1, 2, 3])).unwrap(), ids(&[1, 2]));

    // A script whose statements land on two shards is rejected before any
    // side effect.
    let split = format!(
        "BEGIN; INSERT INTO masks VALUES {}; INSERT INTO masks VALUES {}; COMMIT",
        tuple_for(10, img0),
        tuple_for(11, img1),
    );
    let e = client
        .query(&split)
        .expect_err("cross-shard script must fail");
    assert!(format!("{e}").contains("cross-shard transaction"), "{e}");
    assert_eq!(client.lookup(&ids(&[10, 11])).unwrap(), ids(&[]));

    // DDL cannot ride inside a script (it must broadcast to every shard).
    let e = client
        .query("BEGIN; CREATE INDEX by_model ON masks (model_id); COMMIT")
        .expect_err("DDL in a script must fail");
    assert!(format!("{e}").contains("DDL inside a transaction"), "{e}");

    // An unknown mask id fails the whole script; resolving it cost the one
    // LOOKUP broadcast the owner index could not answer.
    let e = client
        .query("BEGIN; DELETE FROM masks WHERE mask_id IN (99); COMMIT")
        .expect_err("unknown mask must fail the script");
    assert!(format!("{e}").contains("99"), "{e}");

    // Interactive control statements do not route on a cluster.
    let e = client.query("BEGIN").expect_err("bare BEGIN must fail");
    assert!(format!("{e}").contains("BEGIN"), "{e}");

    let metrics = coordinator.metrics();
    assert_eq!(metrics.transactions, 1, "{metrics:?}");
    assert_eq!(metrics.masks_updated, 1, "{metrics:?}");
    assert_eq!(metrics.lookup_broadcasts, 1, "{metrics:?}");
    assert!(metrics.owner_resolutions >= 1, "{metrics:?}");

    client.quit().unwrap();
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}
