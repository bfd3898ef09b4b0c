//! End-to-end coordinator tests over in-process shard servers: every query
//! shape merges byte-identically to a single-node oracle session, writes
//! route to owning shards, and the aggregated front end behaves like one
//! big server.

use masksearch_cluster::{ClusterConfig, ClusterReply, Coordinator, CoordinatorServer, ShardMap};
use masksearch_core::{ImageId, Mask, MaskId, MaskRecord};
use masksearch_index::ChiConfig;
use masksearch_query::{IndexingMode, Session, SessionConfig};
use masksearch_service::{Client, Engine, Server, ServerHandle, ServiceConfig};
use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
use std::collections::BTreeMap;
use std::sync::Arc;

const W: u32 = 16;
const H: u32 = 16;

/// Deterministic pseudo-random mask; ids 100/101 and 102/103 are forced
/// duplicates (of each other) so ranked queries exercise cross-shard ties.
fn mask_for(id: u64) -> Mask {
    let key = match id {
        101 => 100,
        103 => 102,
        other => other,
    };
    let mut state = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Mask::from_fn(W, H, move |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32) / (1u64 << 24) as f32
    })
}

fn record_for(id: u64) -> MaskRecord {
    MaskRecord::builder(MaskId::new(id))
        .image_id(ImageId::new(id / 2))
        .shape(W, H)
        .build()
}

fn session_config() -> SessionConfig {
    SessionConfig::new(ChiConfig::new(4, 4, 8).unwrap())
        .threads(2)
        .indexing_mode(IndexingMode::Eager)
}

fn session_over(ids: &[u64]) -> Session {
    let store = Arc::new(MemoryMaskStore::for_tests());
    let mut catalog = Catalog::new();
    for &id in ids {
        store.put(MaskId::new(id), &mask_for(id)).unwrap();
        catalog.insert(record_for(id));
    }
    Session::new(store as Arc<dyn MaskStore>, catalog, session_config()).unwrap()
}

struct TestCluster {
    servers: Vec<ServerHandle>,
    coordinator: Coordinator,
    oracle: Session,
}

fn cluster(num_shards: usize, ids: &[u64]) -> TestCluster {
    let map = ShardMap::new(num_shards).unwrap();
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); num_shards];
    for &id in ids {
        per_shard[map.shard_for_record(&record_for(id))].push(id);
    }
    let servers: Vec<ServerHandle> = per_shard
        .iter()
        .map(|shard_ids| {
            let engine = Engine::new(session_over(shard_ids), ServiceConfig::new(2));
            Server::bind("127.0.0.1:0", engine).unwrap().spawn()
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let coordinator = Coordinator::connect(ClusterConfig::new(addrs)).unwrap();
    TestCluster {
        servers,
        coordinator,
        oracle: session_over(ids),
    }
}

fn rows(reply: ClusterReply) -> masksearch_query::QueryOutput {
    match reply {
        ClusterReply::Rows(output) => *output,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// Every supported read shape, with thresholds that split the data.
fn query_suite() -> Vec<String> {
    let filter_roi = format!("(0, 0, {W}, {H})");
    vec![
        format!(
            "SELECT mask_id FROM masks WHERE CP(mask, {filter_roi}, (0.5, 1.0)) > {}",
            W * H / 2
        ),
        format!("SELECT mask_id FROM masks WHERE CP(mask, (2, 2, 10, 12), (0.0, 0.3)) < 20"),
        format!(
            "SELECT mask_id, CP(mask, {filter_roi}, (0.6, 1.0)) AS s \
             FROM masks ORDER BY s DESC LIMIT 5"
        ),
        format!(
            "SELECT mask_id, CP(mask, (0, 0, 8, 16), (0.5, 1.0)) / CP(mask, full, (0.5, 1.0)) AS r \
             FROM masks ORDER BY r ASC LIMIT 6"
        ),
        format!(
            "SELECT image_id, AVG(CP(mask, full, (0.5, 1.0))) AS s \
             FROM masks GROUP BY image_id"
        ),
        format!(
            "SELECT image_id, SUM(CP(mask, full, (0.7, 1.0))) AS s \
             FROM masks GROUP BY image_id HAVING s > 60"
        ),
        format!(
            "SELECT image_id, MAX(CP(mask, full, (0.5, 1.0))) AS s \
             FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 4"
        ),
        format!(
            "SELECT image_id, CP(INTERSECT(mask > 0.5), full, (0.5, 1.0)) AS s \
             FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 3"
        ),
    ]
}

fn assert_matches_oracle(cluster: &TestCluster, sql: &str) {
    let expected = cluster
        .oracle
        .execute(&masksearch_sql::compile(sql).unwrap())
        .unwrap();
    let got = rows(cluster.coordinator.execute_sql(sql).unwrap());
    assert_eq!(got.rows, expected.rows, "divergence for {sql}");
}

#[test]
fn every_query_shape_is_byte_identical_to_the_oracle() {
    // 60 masks over 30 images, plus two duplicate pairs for ties.
    let ids: Vec<u64> = (0..56).chain(100..104).collect();
    let cluster = cluster(4, &ids);
    assert!(
        cluster.servers.len() == 4,
        "expected in-process shard servers"
    );
    for sql in query_suite() {
        assert_matches_oracle(&cluster, &sql);
    }
    let metrics = cluster.coordinator.metrics();
    assert_eq!(metrics.queries, query_suite().len() as u64);
    assert!(metrics.ranked_queries >= 4);
    assert!(metrics.topk_rounds >= metrics.ranked_queries);
}

#[test]
fn single_shard_cluster_degenerates_cleanly() {
    let ids: Vec<u64> = (0..20).collect();
    let cluster = cluster(1, &ids);
    for sql in query_suite() {
        assert_matches_oracle(&cluster, &sql);
    }
}

#[test]
fn writes_route_to_owning_shards_and_match_the_oracle() {
    let ids: Vec<u64> = (0..24).collect();
    let cluster = cluster(3, &ids);
    let select = format!(
        "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.5, 1.0)) > {}",
        W * H / 4
    );

    // INSERT eight new masks (four new images) through the coordinator and
    // the same statement through the oracle.
    let tuples: Vec<String> = (40..48u64)
        .map(|id| {
            let mask = mask_for(id);
            let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
            format!("({id}, {}, {W}, {H}, ({}))", id / 2, pixels.join(", "))
        })
        .collect();
    let insert = format!("INSERT INTO masks VALUES {}", tuples.join(", "));
    match cluster.coordinator.execute_sql(&insert).unwrap() {
        ClusterReply::Mutation(outcome) => assert_eq!(outcome.inserted, 8),
        other => panic!("expected a mutation reply, got {other:?}"),
    }
    match masksearch_sql::compile_statement(&insert).unwrap() {
        masksearch_sql::Statement::Mutation(m) => {
            cluster.oracle.apply(&m).unwrap();
        }
        _ => unreachable!(),
    }
    assert_matches_oracle(&cluster, &select);

    // The new ids resolve on exactly the shard the map owns them to.
    let map = cluster.coordinator.shard_map();
    for id in 40..48u64 {
        let owner = map.shard_for_image(ImageId::new(id / 2));
        for (shard, server) in cluster.servers.iter().enumerate() {
            let mut client = Client::connect(server.local_addr()).unwrap();
            let present = client.lookup(&[MaskId::new(id)]).unwrap();
            if shard == owner {
                assert_eq!(present, vec![MaskId::new(id)], "shard {shard} id {id}");
            } else {
                assert!(present.is_empty(), "stray replica of {id} on shard {shard}");
            }
            client.quit().unwrap();
        }
    }

    // DELETE ids spread across shards; oracle applies the same statement.
    let delete = "DELETE FROM masks WHERE mask_id IN (1, 5, 9, 40, 47)";
    match cluster.coordinator.execute_sql(delete).unwrap() {
        ClusterReply::Mutation(outcome) => assert_eq!(outcome.deleted, 5),
        other => panic!("expected a mutation reply, got {other:?}"),
    }
    match masksearch_sql::compile_statement(delete).unwrap() {
        masksearch_sql::Statement::Mutation(m) => {
            cluster.oracle.apply(&m).unwrap();
        }
        _ => unreachable!(),
    }
    assert_matches_oracle(&cluster, &select);

    // An unknown id fails the whole DELETE before any side effect.
    let before = rows(cluster.coordinator.execute_sql(&select).unwrap());
    let bad = cluster
        .coordinator
        .execute_sql("DELETE FROM masks WHERE mask_id IN (2, 9999)");
    assert!(
        matches!(bad, Err(masksearch_cluster::ClusterError::UnknownMask(id)) if id.raw() == 9999),
        "expected UnknownMask"
    );
    let after = rows(cluster.coordinator.execute_sql(&select).unwrap());
    assert_eq!(before.rows, after.rows, "failed DELETE had side effects");
}

#[test]
fn overwrites_that_move_images_evict_the_stale_replica() {
    let ids: Vec<u64> = (0..12).collect();
    let cluster = cluster(3, &ids);
    let map = cluster.coordinator.shard_map();

    // Move mask 0 to a new image owned by a different shard.
    let old_owner = map.shard_for_image(ImageId::new(0));
    let new_image = (1..1000u64)
        .find(|&img| map.shard_for_image(ImageId::new(img)) != old_owner)
        .unwrap();
    let mask = mask_for(77);
    let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
    let insert = format!(
        "INSERT INTO masks VALUES (0, {new_image}, {W}, {H}, ({}))",
        pixels.join(", ")
    );
    match cluster.coordinator.execute_sql(&insert).unwrap() {
        ClusterReply::Mutation(outcome) => assert_eq!(outcome.inserted, 1),
        other => panic!("expected a mutation reply, got {other:?}"),
    }
    // Exactly one shard holds mask 0 now — the new image's owner.
    let located = cluster.coordinator.lookup(&[MaskId::new(0)]).unwrap();
    assert_eq!(located, vec![MaskId::new(0)]);
    for (shard, server) in cluster.servers.iter().enumerate() {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let present = client.lookup(&[MaskId::new(0)]).unwrap();
        let expected_here = shard == map.shard_for_image(ImageId::new(new_image));
        assert_eq!(!present.is_empty(), expected_here, "shard {shard}");
        client.quit().unwrap();
    }
    assert_eq!(cluster.coordinator.metrics().masks_relocated, 1);
}

#[test]
fn coordinator_tcp_front_end_speaks_the_protocol() {
    let ids: Vec<u64> = (0..16).collect();
    let cluster = cluster(2, &ids);
    let front = CoordinatorServer::bind("127.0.0.1:0", cluster.coordinator.clone())
        .unwrap()
        .spawn();

    // Client::connect performs the v2 handshake against the coordinator.
    let mut client = Client::connect(front.local_addr()).unwrap();
    let select = format!(
        "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, {W}, {H}), (0.5, 1.0)) > {}",
        W * H / 2
    );
    let expected = cluster
        .oracle
        .execute(&masksearch_sql::compile(&select).unwrap())
        .unwrap();
    let got = client.query(&select).unwrap();
    assert_eq!(got.rows, expected.rows);

    // Ranked query over TCP.
    let topk = "SELECT mask_id, CP(mask, full, (0.5, 1.0)) AS s FROM masks ORDER BY s DESC LIMIT 3"
        .to_string();
    let expected = cluster
        .oracle
        .execute(&masksearch_sql::compile(&topk).unwrap())
        .unwrap();
    let got = client.query(&topk).unwrap();
    assert_eq!(got.rows, expected.rows);

    // Aggregated STATS: per-shard counters summed + cluster counters.
    let stats = client.stats().unwrap();
    assert!(stats.starts_with("STATS shards=2"), "{stats}");
    assert!(stats.contains("cluster_queries="), "{stats}");
    assert!(stats.contains("topk_rounds="), "{stats}");
    assert!(stats.contains("active_connections="), "{stats}");
    assert!(stats.contains("queue_depth="), "{stats}");

    // SQL errors surface as ERR frames, not dead connections.
    assert!(client.query("SELECT nonsense").is_err());
    assert!(client.ping().is_ok());
    client.quit().unwrap();
    front.shutdown();
}

/// Neither front end buffers without limit for a peer: a stream with no
/// newline is cut off at `MAX_LINE_BYTES` with a protocol `ERR` and a closed
/// connection, while other connections keep being served and an ordinary
/// long line still gets an ordinary answer.
#[test]
fn both_front_ends_bound_a_peers_line() {
    use masksearch_service::protocol::MAX_LINE_BYTES;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let ids: Vec<u64> = (0..8).collect();
    let cluster = cluster(1, &ids);
    let front = CoordinatorServer::bind("127.0.0.1:0", cluster.coordinator.clone())
        .unwrap()
        .spawn();
    for (name, addr) in [
        ("shard server", cluster.servers[0].local_addr()),
        ("coordinator", front.local_addr()),
    ] {
        let mut bystander = Client::connect(addr).unwrap();
        assert!(bystander.ping().is_ok(), "{name}");

        // One byte more than a line may hold, and not a byte after it, so
        // the server has read everything when it hangs up and the reply is
        // not lost to a reset.
        let mut flood = TcpStream::connect(addr).unwrap();
        let chunk = vec![b'A'; 1 << 20];
        let mut left = MAX_LINE_BYTES + 1;
        while left > 0 {
            let n = left.min(chunk.len());
            flood.write_all(&chunk[..n]).unwrap();
            left -= n;
        }
        let mut reply = String::new();
        flood.read_to_string(&mut reply).unwrap();
        assert!(
            reply.starts_with("ERR ") && reply.contains("request line exceeds"),
            "{name}: {reply:?}"
        );
        assert!(reply.ends_with("END\n"), "{name}: {reply:?}");

        // Everyone else was served throughout, and a long line under the
        // limit is an SQL error, not a dead connection.
        assert!(bystander.ping().is_ok(), "{name}");
        let long = format!("SELECT {} FROM masks", "x".repeat(1 << 20));
        assert!(bystander.query(&long).is_err(), "{name}");
        assert!(bystander.ping().is_ok(), "{name}");
        bystander.quit().unwrap();
    }
    front.shutdown();
}

/// Every statement that fails counts in `cluster_failed`, whichever entry
/// point it came through and wherever it failed — compilation included.
#[test]
fn failed_statements_count_on_every_entry_point() {
    let ids: Vec<u64> = (0..8).collect();
    let cluster = cluster(2, &ids);
    let coordinator = &cluster.coordinator;
    assert!(coordinator.execute_sql("SELECT nonsense").is_err());
    assert_eq!(coordinator.metrics().failed, 1);
    assert!(coordinator
        .execute_sql_tokened(5, "SELECT nonsense")
        .is_err());
    assert_eq!(coordinator.metrics().failed, 2);
    assert!(coordinator
        .execute_sql_tokened(6, "BEGIN; SELECT nonsense; COMMIT")
        .is_err());
    assert_eq!(coordinator.metrics().failed, 3);
}

/// A multi-byte character where the `EXPLAIN` / `ANALYZE` keywords would
/// end is an ordinary statement error, not a panic.
#[test]
fn a_multi_byte_character_near_the_first_keyword_is_an_error() {
    let cluster = cluster(2, &[0, 1, 2, 3]);
    for sql in [
        "CREAT\u{1D518}E INDEX by_label ON masks (predicted_label)",
        "EXPLAIN ANALY\u{1D518}ZE SELECT mask_id FROM masks",
    ] {
        assert!(cluster.coordinator.execute_sql(sql).is_err(), "{sql}");
    }
    assert_eq!(cluster.coordinator.metrics().failed, 2);
}

/// Blocks mask loads while closed: a statement that must verify pixels
/// stays pinned inside its engine until the gate opens.
#[derive(Default)]
struct Gate {
    closed: std::sync::Mutex<bool>,
    opened: std::sync::Condvar,
}

impl Gate {
    fn set_closed(&self, closed: bool) {
        *self.closed.lock().unwrap() = closed;
        self.opened.notify_all();
    }

    fn pass(&self) {
        let mut closed = self.closed.lock().unwrap();
        while *closed {
            closed = self.opened.wait(closed).unwrap();
        }
    }
}

struct GatedStore {
    inner: MemoryMaskStore,
    gate: Arc<Gate>,
}

impl MaskStore for GatedStore {
    fn put(&self, id: MaskId, mask: &Mask) -> masksearch_storage::StorageResult<()> {
        self.inner.put(id, mask)
    }
    fn get(&self, id: MaskId) -> masksearch_storage::StorageResult<Mask> {
        self.gate.pass();
        self.inner.get(id)
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

/// A shard server over `ids` whose loads pass `gate`, with no mask cache so
/// every verification loads.
fn gated_server(ids: &[u64], gate: &Arc<Gate>) -> ServerHandle {
    let store = GatedStore {
        inner: MemoryMaskStore::for_tests(),
        gate: Arc::clone(gate),
    };
    let mut catalog = Catalog::new();
    for &id in ids {
        store.put(MaskId::new(id), &mask_for(id)).unwrap();
        catalog.insert(record_for(id));
    }
    let session = Session::new(
        Arc::new(store) as Arc<dyn MaskStore>,
        catalog,
        session_config().cache_bytes(0),
    )
    .unwrap();
    Server::bind("127.0.0.1:0", Engine::new(session, ServiceConfig::new(2)))
        .unwrap()
        .spawn()
}

/// Reads `n` frames off a raw connection: tagged answers by tag, untagged
/// ones in arrival order, each as "kind [rows]".
fn read_frames(
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    n: usize,
) -> (BTreeMap<u64, String>, Vec<String>, Vec<u64>) {
    use masksearch_service::protocol::{read_tagged_frame, Frame};
    let (mut tagged, mut untagged, mut order) = (BTreeMap::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        let (tag, frame) = read_tagged_frame(reader).unwrap();
        let text = match frame {
            Ok(Frame::Rows(rows)) => format!("ROWS {:?}", rows.rows),
            Ok(Frame::Control(line)) => line.split(' ').next().unwrap().to_string(),
            Ok(Frame::Delta(lines)) => format!("DELTA {}", lines.join(" ")),
            Ok(Frame::Plan(_)) => "PLAN".to_string(),
            Ok(other) => format!("{other:?}"),
            Err(e) if e.to_string().contains("cannot be multiplexed") => "ERR multiplex".into(),
            Err(_) => "ERR".to_string(),
        };
        match tag {
            Some(id) => {
                order.push(id);
                tagged.insert(id, text);
            }
            None => untagged.push(text),
        }
    }
    (tagged, untagged, order)
}

/// One front-end contract, run against a shard server and a coordinator
/// front end over the same masks: pipelined tagged requests are answered
/// out of order and routed by tag, untagged requests keep FIFO order on the
/// same connection, a tagged `MONITOR` / `QUIT` is rejected, and `MONITOR`
/// deltas sum to `STATS`. Rows and frame kinds match between the two.
#[test]
fn shard_and_coordinator_front_ends_keep_one_contract() {
    use masksearch_obs::keys::MONITOR_DELTA_KEYS;
    use std::io::{BufReader, Write};

    let ids: Vec<u64> = (0..24).collect();
    let gate = Arc::new(Gate::default());
    let single = gated_server(&ids, &gate);
    let map = ShardMap::new(2).unwrap();
    let shards: Vec<ServerHandle> = (0..2)
        .map(|shard| {
            let owned: Vec<u64> = ids
                .iter()
                .copied()
                .filter(|&id| map.shard_for_record(&record_for(id)) == shard)
                .collect();
            gated_server(&owned, &gate)
        })
        .collect();
    let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let coordinator = Coordinator::connect(ClusterConfig::new(addrs)).unwrap();
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator)
        .unwrap()
        .spawn();

    // Unaligned ROI and range: the bounds decide nothing, so the statement
    // loads masks — and waits at the gate.
    let pinned = "SELECT mask_id FROM masks WHERE CP(mask, (1, 1, 15, 15), (0.55, 1.0)) > 88";
    let oracle = session_over(&ids);
    let expected = oracle
        .execute(&masksearch_sql::compile(pinned).unwrap())
        .unwrap();
    assert!(
        expected.stats.verified > 0,
        "the pinned statement must load"
    );
    let ranked =
        "SELECT mask_id, CP(mask, full, (0.5, 1.0)) AS s FROM masks ORDER BY s DESC LIMIT 4";

    let mut transcripts = Vec::new();
    for addr in [single.local_addr(), front.local_addr()] {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        // A frame that never comes fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Tagged, pipelined: the first request is pinned at the gate, so
        // every later one overtakes it.
        gate.set_closed(true);
        write!(
            writer,
            "@1 {pinned}\n@2 PING\n@3 LOOKUP 0 1 999\n@4 MONITOR 1\n@5 QUIT\n@6 EXPLAIN {pinned}\n"
        )
        .unwrap();
        let (early, _, order) = read_frames(&mut reader, 5);
        assert!(
            !order.contains(&1),
            "{addr}: the pinned request answered early"
        );
        gate.set_closed(false);
        let (late, _, _) = read_frames(&mut reader, 1);
        assert_eq!(
            late.get(&1),
            Some(&format!("ROWS {:?}", expected.rows)),
            "{addr}"
        );
        assert_eq!(early[&4], "ERR multiplex", "{addr}");
        assert_eq!(early[&5], "ERR multiplex", "{addr}");

        // Untagged lines keep FIFO order, with a tagged one in between.
        write!(
            writer,
            "PING\n{ranked}\n@7 LOOKUP 2\nLOOKUP 0 1 999\nSELECT nonsense\n{pinned}\n"
        )
        .unwrap();
        let (between, fifo, _) = read_frames(&mut reader, 6);

        // MONITOR deltas over a subscription sum to the STATS that follows.
        writeln!(writer, "MONITOR 2 5\nSTATS").unwrap();
        let (_, monitor, _) = read_frames(&mut reader, 2);
        let stats = {
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
            let mut end = String::new();
            std::io::BufRead::read_line(&mut reader, &mut end).unwrap();
            line
        };
        for key in MONITOR_DELTA_KEYS {
            let summed: u64 = monitor
                .iter()
                .flat_map(|frame| frame.split(' '))
                .filter_map(|token| token.strip_prefix(&format!("{key}=")))
                .map(|v| v.parse::<u64>().unwrap())
                .sum();
            let reported = stats
                .split_ascii_whitespace()
                .find_map(|token| token.strip_prefix(&format!("{key}=")))
                .map(|v| v.parse::<u64>().unwrap());
            assert_eq!(Some(summed), reported, "{addr}: {key} in {stats}");
        }
        writeln!(writer, "QUIT").unwrap();
        transcripts.push((early, late, between, fifo));
    }
    assert_eq!(transcripts[0], transcripts[1]);
    let (early, _, between, fifo) = &transcripts[0];
    assert_eq!(early[&2], "PONG");
    assert_eq!(early[&6], "PLAN");
    assert_eq!(early[&3], format!("ROWS {:?}", ids_rows(&[0, 1])));
    assert_eq!(between[&7], format!("ROWS {:?}", ids_rows(&[2])));
    assert_eq!(fifo[0], "PONG");
    assert!(fifo[1].starts_with("ROWS"));
    assert_eq!(fifo[2], format!("ROWS {:?}", ids_rows(&[0, 1])));
    assert_eq!(fifo[3], "ERR");
    assert_eq!(fifo[4], format!("ROWS {:?}", expected.rows));
    front.shutdown();
}

fn ids_rows(ids: &[u64]) -> Vec<masksearch_query::ResultRow> {
    ids.iter()
        .map(|&id| masksearch_query::ResultRow::mask(MaskId::new(id), None))
        .collect()
}
