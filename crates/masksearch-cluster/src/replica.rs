//! Read replicas: a second serving copy of a shard that tails the
//! primary's write-ahead log and applies committed transactions as they
//! land, staying queryable throughout.
//!
//! ## Topology
//!
//! Replication is **WAL shipping over a shared filesystem**: the replica
//! reads the primary's `masks.wal` file directly (primary and replica run
//! on the same host or a shared mount — the deployment this repo's
//! in-process cluster tests and benchmarks model). The tailer keeps the file
//! open and remembers a byte watermark into it; each poll reads only what
//! was appended past the watermark and scans it with the same
//! torn-tail-tolerant scanner crash recovery uses
//! ([`masksearch_db::wal::scan_committed`]): a half-written transaction is
//! simply not there yet, and only whole committed transactions are applied.
//!
//! Each applied transaction goes through
//! [`DurableMaskStore::apply_replicated`](masksearch_db::DurableMaskStore::apply_replicated).
//! The transaction's directory delta says which masks it removes and
//! upserts, and its page images hold the upserted masks' extents; the
//! replica commits exactly that batch through its *own* WAL, free space and
//! checkpoints (so it crash-recovers like any database and may checkpoint
//! whenever it likes — it shares masks with the primary, not page numbers),
//! and maintains the CHI and tile indexes; the serving session then
//! refreshes its catalog and caches. A query on the replica therefore always
//! sees a committed prefix of the primary's write history — possibly a beat
//! behind, never torn.
//!
//! ## Requirements on the primary
//!
//! The primary's WAL is the only thing shipped, so it must hold the
//! primary's whole history and keep growing while replicas tail it: open the
//! primary with `checkpoint_wal_bytes(0)` (no automatic checkpoint) and do
//! not call `checkpoint()` on it. An explicit checkpoint truncates the log;
//! an automatic one *recycles* it — same length, the first frame's header
//! zeroed, new transactions written over the old ones from the head —
//! so a shrinking file no longer catches every checkpoint. On every poll
//! the tailer therefore checks, after reading what lies past its watermark,
//! that the log still starts with the database's bootstrap (a page frame of
//! transaction 0), and that each transaction it is about to apply has a
//! greater id than the last one it applied; together with the file
//! shrinking below the watermark, any of these reports a "checkpointed
//! while replicated" error and stops the tailer rather than serving a
//! partial copy or applying a transaction twice.

use crate::error::{ClusterError, ClusterResult};
use masksearch_db::wal::{
    header_page_size, scan_committed, starts_with_bootstrap, FRAME_ID_LEN, WAL_HEADER_LEN,
};
use masksearch_db::{DbConfig, MaskDb, WAL_FILE};
use masksearch_query::{Session, SessionConfig};
use masksearch_service::{Engine, Server, ServerHandle, ServiceConfig};
use std::fs::File;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often an idle tailer re-polls the primary's WAL file.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// A serving read replica of one shard: its own durable database plus a
/// TCP server, kept in sync by a background WAL tailer.
pub struct ReplicaShard {
    db: MaskDb,
    session: Arc<Session>,
    handle: Option<ServerHandle>,
    stop: Arc<AtomicBool>,
    applied: Arc<AtomicU64>,
    error: Arc<Mutex<Option<String>>>,
    tailer: Option<std::thread::JoinHandle<()>>,
}

impl ReplicaShard {
    /// Opens a replica database in `replica_dir`, starts its server on an
    /// ephemeral port, and spawns the tailer over the primary database in
    /// `primary_dir`. `db_config` must use the primary's page size (the
    /// tailer verifies this against the primary's WAL header and fails the
    /// start otherwise).
    pub fn start(
        primary_dir: impl AsRef<Path>,
        replica_dir: impl AsRef<Path>,
        db_config: DbConfig,
        session_config: SessionConfig,
        service_config: ServiceConfig,
    ) -> ClusterResult<Self> {
        let primary_wal = primary_dir.as_ref().join(WAL_FILE);
        let db = MaskDb::open(replica_dir.as_ref(), db_config)
            .map_err(|e| ClusterError::Internal(format!("opening replica database: {e}")))?;
        let page_size = db.store().config().page_size;
        // Fail fast on a mismatched primary instead of letting the tailer
        // discover it asynchronously.
        let wal_error = |e| {
            ClusterError::Internal(format!(
                "reading primary wal {}: {e}",
                primary_wal.display()
            ))
        };
        let primary_wal_file = File::open(&primary_wal).map_err(wal_error)?;
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        primary_wal_file
            .read_exact_at(&mut header, 0)
            .map_err(wal_error)?;
        let primary_page_size = header_page_size(&header)
            .map_err(|e| ClusterError::Internal(format!("primary wal header: {e}")))?;
        if primary_page_size != page_size {
            return Err(ClusterError::Config(format!(
                "replica page size {page_size} does not match primary wal page size \
                 {primary_page_size}"
            )));
        }

        let session = Arc::new(Session::with_store_maintained_index(
            db.mask_store(),
            db.catalog(),
            session_config,
            db.chi_store(),
        ));
        let engine = Engine::with_shared_session(Arc::clone(&session), service_config);
        let handle = Server::bind("127.0.0.1:0", engine)
            .map_err(|e| ClusterError::Internal(format!("binding replica server: {e}")))?
            .spawn();

        let stop = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicU64::new(WAL_HEADER_LEN));
        let error = Arc::new(Mutex::new(None));
        let tailer = {
            let db = db.clone();
            let session = Arc::clone(&session);
            let stop = Arc::clone(&stop);
            let applied = Arc::clone(&applied);
            let error = Arc::clone(&error);
            std::thread::Builder::new()
                .name("masksearch-replica-tailer".to_string())
                .spawn(move || {
                    if let Err(e) =
                        tail_wal(&primary_wal_file, page_size, &db, &session, &stop, &applied)
                    {
                        *error.lock().unwrap() = Some(e);
                    }
                })
                .expect("spawn replica tailer")
        };

        Ok(Self {
            db,
            session,
            handle: Some(handle),
            stop,
            applied,
            error,
            tailer: Some(tailer),
        })
    }

    /// The replica server's address.
    pub fn addr(&self) -> SocketAddr {
        self.handle
            .as_ref()
            .expect("replica server is running")
            .local_addr()
    }

    /// The replica's own database handle.
    pub fn db(&self) -> &MaskDb {
        &self.db
    }

    /// The serving session (e.g. for catalog assertions in tests).
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Byte offset into the primary's WAL up to which every committed
    /// transaction has been applied.
    pub fn applied_bytes(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// The tailer's terminal error (e.g. a desync after the primary
    /// checkpointed its WAL), if it died.
    pub fn tailer_error(&self) -> Option<String> {
        self.error.lock().unwrap().clone()
    }

    /// Blocks until the tailer's watermark reaches `bytes` (a primary
    /// `wal_bytes()` reading). Returns `false` on timeout or tailer death.
    pub fn wait_applied(&self, bytes: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.applied_bytes() < bytes {
            if Instant::now() >= deadline || self.tailer_error().is_some() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Stops the tailer and the server.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(tailer) = self.tailer.take() {
            let _ = tailer.join();
        }
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

impl Drop for ReplicaShard {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The tailer loop: poll the primary's WAL for bytes past the applied
/// watermark, apply the transactions committed in them, refresh the serving
/// session. Returns `Ok` on a requested stop and `Err` with a description on
/// desync or an apply failure.
fn tail_wal(
    primary_wal: &File,
    page_size: u32,
    db: &MaskDb,
    session: &Session,
    stop: &AtomicBool,
    applied: &AtomicU64,
) -> Result<(), String> {
    let checkpointed = |what: String| {
        format!(
            "{what}: the primary checkpointed while replicated, and the masks written \
             until then are not in its log; replicas require checkpoint_wal_bytes(0)"
        )
    };
    let mut watermark = applied.load(Ordering::Acquire);
    let mut last_applied: Option<u64> = None;
    while !stop.load(Ordering::Acquire) {
        let len = primary_wal
            .metadata()
            .map_err(|e| format!("reading primary wal length: {e}"))?
            .len();
        if len < watermark {
            return Err(checkpointed(format!(
                "primary wal shrank below the applied watermark ({len} < {watermark})"
            )));
        }
        // The file may grow between the length and the read; what is past
        // `len` is picked up by the next poll.
        let mut bytes = vec![0u8; (len - watermark) as usize];
        primary_wal
            .read_exact_at(&mut bytes, watermark)
            .map_err(|e| format!("reading primary wal at {watermark}: {e}"))?;
        // Read after the bytes: a checkpoint that recycled the log before or
        // while they were read — its length unchanged, its blocks being
        // overwritten from the head — has already replaced the bootstrap.
        let mut head = [0u8; FRAME_ID_LEN];
        let bootstrapped = match primary_wal.read_exact_at(&mut head, WAL_HEADER_LEN) {
            Ok(()) => starts_with_bootstrap(&head),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => false,
            Err(e) => return Err(format!("reading primary wal head: {e}")),
        };
        if !bootstrapped {
            return Err(checkpointed(
                "primary wal no longer starts with the database's bootstrap".to_string(),
            ));
        }
        let (txns, consumed) = scan_committed(&bytes, page_size);
        if txns.is_empty() {
            // Nothing new, or a transaction still being written.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }
        // The scan keeps the ids of one batch increasing; across batches a
        // repeated or older id is a transaction of an earlier generation.
        if let Some(last) = last_applied.filter(|&last| txns[0].txn_id <= last) {
            return Err(checkpointed(format!(
                "primary wal holds transaction {} after {last}",
                txns[0].txn_id
            )));
        }
        let mut changed = Vec::new();
        for txn in &txns {
            let ids = db
                .store()
                .apply_replicated(txn)
                .map_err(|e| format!("applying replicated txn {}: {e}", txn.txn_id))?;
            changed.extend(ids);
        }
        // One catalog swap per poll round, after the whole committed batch
        // applied: readers see shard-atomic states, never a half-applied
        // transaction.
        session.sync_replicated(db.catalog(), &changed);
        last_applied = txns.last().map(|txn| txn.txn_id);
        watermark += consumed as u64;
        applied.store(watermark, Ordering::Release);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{Mask, MaskId, MaskRecord};
    use masksearch_index::ChiConfig;
    use masksearch_storage::MaskStore;

    #[test]
    fn a_log_that_lost_its_beginning_is_refused_not_half_applied() {
        let base =
            std::env::temp_dir().join(format!("masksearch-replica-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let chi = ChiConfig::new(4, 4, 4).unwrap();
        let config = DbConfig::default()
            .page_size(256)
            .chi_config(chi)
            .checkpoint_wal_bytes(0);
        let entry = |id: u64| {
            (
                MaskRecord::builder(MaskId::new(id)).shape(8, 8).build(),
                Mask::from_fn(8, 8, move |x, y| ((x + y + id as u32) % 7) as f32 / 7.0),
            )
        };
        // The primary checkpointed masks 1 and 2 out of its log before the
        // replica attached; what the log still holds deletes one of them
        // and adds a third.
        let primary = MaskDb::open(base.join("primary"), config).unwrap();
        primary.insert_masks(&[entry(1), entry(2)]).unwrap();
        primary.checkpoint().unwrap();
        primary.delete_masks(&[MaskId::new(1)]).unwrap();
        primary.insert_masks(&[entry(3)]).unwrap();

        let replica = ReplicaShard::start(
            base.join("primary"),
            base.join("replica"),
            config,
            SessionConfig::new(chi),
            ServiceConfig::new(1),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while replica.tailer_error().is_none() {
            assert!(Instant::now() < deadline, "the tailer kept going");
            std::thread::sleep(Duration::from_millis(2));
        }
        let error = replica.tailer_error().unwrap();
        assert!(error.contains("bootstrap"), "{error}");
        assert!(replica.db().store().is_empty());
        assert_eq!(replica.applied_bytes(), WAL_HEADER_LEN);
        replica.shutdown();
        drop(primary);
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// A primary on the default configuration checkpoints by itself once its
    /// log passes the threshold, and recycles the log: same length, new
    /// transactions written over the old ones. The tailer stops with an
    /// error, its replica holding a committed prefix of the primary's
    /// history with each transaction applied once.
    #[test]
    fn a_recycled_primary_log_stops_the_tailer_at_a_committed_prefix() {
        let base =
            std::env::temp_dir().join(format!("masksearch-replica-recycle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let config = DbConfig::default();
        let primary = MaskDb::open(base.join("primary"), config).unwrap();
        let replica = ReplicaShard::start(
            base.join("primary"),
            base.join("replica"),
            config,
            SessionConfig::new(config.chi_config),
            ServiceConfig::new(1),
        )
        .unwrap();
        // Every commit inserts 16 new 64x64 masks (five 4 KiB pages each),
        // so the state after `k` commits is masks `0..16k`.
        let batch = 16u64;
        let mask = |id: u64| {
            Mask::from_fn(64, 64, move |x, y| {
                ((x * 3 + y + id as u32) % 13) as f32 / 13.0
            })
        };
        let mut commits = 0u64;
        let mut after_checkpoint = 0;
        while after_checkpoint < 3 {
            let inserts: Vec<(MaskRecord, Mask)> = (commits * batch..(commits + 1) * batch)
                .map(|id| {
                    let record = MaskRecord::builder(MaskId::new(id)).shape(64, 64).build();
                    (record, mask(id))
                })
                .collect();
            primary.insert_masks(&inserts).unwrap();
            commits += 1;
            after_checkpoint += (primary.ingest_stats().checkpoints > 0) as u32;
        }
        assert!(primary.store().take_checkpoint_error().is_none());

        let deadline = Instant::now() + Duration::from_secs(60);
        while replica.tailer_error().is_none() {
            assert!(Instant::now() < deadline, "the tailer kept going");
            std::thread::sleep(Duration::from_millis(2));
        }
        let error = replica.tailer_error().unwrap();
        assert!(error.contains("checkpointed while replicated"), "{error}");
        let store = replica.db().store();
        let applied = store.len() as u64;
        assert_eq!(applied % batch, 0, "a transaction was applied in part");
        assert!(applied / batch <= commits);
        assert_eq!(
            store.ids(),
            (0..applied).map(MaskId::new).collect::<Vec<_>>()
        );
        for id in 0..applied {
            assert!(store.get(MaskId::new(id)).unwrap() == mask(id), "mask {id}");
        }
        assert_eq!(
            replica.db().ingest_stats().commits,
            applied / batch,
            "a transaction was applied twice"
        );
        replica.shutdown();
        drop(primary);
        std::fs::remove_dir_all(&base).unwrap();
    }
}
