//! The serving stack the workloads run against, wired only from surfaces the
//! roadmap keeps: `MaskDb` → `Session::with_store_maintained_index` →
//! `Engine` → `Server` (and `Coordinator` / `CoordinatorServer` on top of two
//! of those for the cluster workload).

use crate::setup;
use masksearch_cluster::{ClusterConfig, Coordinator, CoordinatorHandle, CoordinatorServer};
use masksearch_db::MaskDb;
use masksearch_query::{Session, SessionConfig};
use masksearch_service::{Engine, Server, ServerHandle, ServiceConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine workers per node (`ServiceConfig::new(2)`, the issue's fixed value).
const ENGINE_WORKERS: usize = 2;
/// How long a closing node waits for its connection threads to notice their
/// clients have gone.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// One durable database behind a TCP server.
pub struct Node {
    db: MaskDb,
    server: ServerHandle,
}

impl Node {
    /// Serves an open database. `cache_bytes` is the session's mask cache
    /// budget; everything else is the product default.
    pub fn serve(db: MaskDb, side: u32, cache_bytes: u64) -> Result<Self, String> {
        let session = Session::with_store_maintained_index(
            db.mask_store(),
            db.catalog(),
            SessionConfig::new(setup::chi_config(side)).cache_bytes(cache_bytes),
            db.chi_store(),
        );
        let engine = Engine::new(session, ServiceConfig::new(ENGINE_WORKERS));
        let server = Server::bind("127.0.0.1:0", engine)
            .map_err(|e| format!("bind shard server: {e}"))?
            .spawn();
        Ok(Self { db, server })
    }

    /// Opens (recovering if needed) the database in `dir` and serves it.
    /// Returns the node and the time `MaskDb::open` alone took.
    pub fn open(dir: &Path, side: u32, cache_bytes: u64) -> Result<(Self, f64), String> {
        let started = Instant::now();
        let db = MaskDb::open(dir, setup::db_config(side))
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        let open_s = started.elapsed().as_secs_f64();
        Ok((Self::serve(db, side, cache_bytes)?, open_s))
    }

    /// The database handle.
    pub fn db(&self) -> &MaskDb {
        &self.db
    }

    /// The engine behind the server.
    pub fn engine(&self) -> &Engine {
        self.server.engine()
    }

    /// The engine's shared session.
    pub fn session(&self) -> &Arc<Session> {
        self.server.engine().session()
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops serving and returns the database handle — the only remaining
    /// reference to the store, so dropping it closes the files. Clients must
    /// have disconnected.
    pub fn close(self) -> Result<MaskDb, String> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.server.active_connections() > 0 {
            if Instant::now() > deadline {
                return Err("server connections did not drain".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let engine = self.server.engine().clone();
        self.server.shutdown();
        engine.shutdown();
        Ok(self.db)
    }
}

/// Two shard nodes behind one coordinator front end.
pub struct Cluster {
    shards: Vec<Node>,
    front: CoordinatorHandle,
}

impl Cluster {
    /// Connects a coordinator to serving shards and starts its front end.
    pub fn serve(shards: Vec<Node>) -> Result<Self, String> {
        let addrs = shards.iter().map(|n| n.addr().to_string()).collect();
        let coordinator = Coordinator::connect(ClusterConfig::new(addrs))
            .map_err(|e| format!("connect coordinator: {e}"))?;
        let front = CoordinatorServer::bind("127.0.0.1:0", coordinator)
            .map_err(|e| format!("bind coordinator: {e}"))?
            .spawn();
        Ok(Self { shards, front })
    }

    /// The shard nodes.
    pub fn shards(&self) -> &[Node] {
        &self.shards
    }

    /// The coordinator behind the front end.
    pub fn coordinator(&self) -> &Coordinator {
        self.front.coordinator()
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Stops the front end, then the shards; returns their databases.
    pub fn close(self) -> Result<Vec<MaskDb>, String> {
        // The coordinator's shard links close with it; the shard servers
        // then see their connections drain.
        self.front.shutdown();
        self.shards.into_iter().map(Node::close).collect()
    }
}
