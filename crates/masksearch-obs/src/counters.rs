//! Process-global atomic counters for events the thread-local span stack
//! cannot follow.
//!
//! The query executors fan work out to scoped worker threads, and the cache
//! and catalog are hit from every connection thread; a per-trace span stack
//! sees none of that. These counters are global, lock-free, and always on —
//! they answer "how much lock waiting is happening on this server", which
//! is exactly the question behind the 1→2 worker QPS plateau, and they feed
//! the `METRICS` Prometheus exposition through [`ROWS`].

use crate::keys::{help, Kind, Merge, Metric, Unit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

macro_rules! global_counters {
    ($( $(#[doc = $doc:literal])+ ($name:ident, $text:literal) ),+ $(,)?) => {
        $(
            $(#[doc = $doc])+
            pub static $name: AtomicU64 = AtomicU64::new(0);
        )+

        /// Snapshot of every global counter as `(name, value)` pairs, in
        /// declaration order. Names are the Prometheus metric suffixes.
        pub fn snapshot() -> Vec<(&'static str, u64)> {
            vec![$( ($text, $name.load(Ordering::Relaxed)) ),+]
        }

        /// The counters' metric rows, exported as `masksearch_<name>_total`
        /// with their doc comments as HELP, in declaration order.
        pub const ROWS: [Metric; [$($text),+].len()] = [$(
            Metric {
                key: "",
                prom: concat!("masksearch_", $text, "_total"),
                help: help!($($doc)+),
                kind: Kind::Counter,
                merge: Merge::Own,
                unit: Unit::Count,
            },
        )+];

        /// Every counter's value, in [`ROWS`] order.
        pub fn values() -> [f64; ROWS.len()] {
            [$( $name.load(Ordering::Relaxed) as f64 ),+]
        }
    };
}

global_counters! {
    /// Microseconds spent waiting to acquire the session catalog lock for
    /// reading.
    (CATALOG_READ_WAIT_US, "catalog_read_wait_us"),
    /// Microseconds spent waiting to acquire the session catalog lock for
    /// writing.
    (CATALOG_WRITE_WAIT_US, "catalog_write_wait_us"),
    /// Catalog lock acquisitions (reads and writes).
    (CATALOG_LOCK_ACQUIRES, "catalog_lock_acquires"),
    /// Microseconds spent waiting on the mask-cache mutex.
    (CACHE_LOCK_WAIT_US, "cache_lock_wait_us"),
    /// Mask-cache mutex acquisitions.
    (CACHE_LOCK_ACQUIRES, "cache_lock_acquires"),
    /// Cell-kernel invocations (one per `CP` term of a mask verification
    /// counts by CHI cell).
    (KERNEL_CALLS, "kernel_calls"),
    /// Masks verified in place: the rows left to scan read from the store
    /// and counted off the bytes, with no decode and no cache admission
    /// (each also counts as a mask loaded).
    (VERIFY_IN_PLACE, "verify_in_place"),
    /// WAL commits.
    (WAL_COMMITS, "wal_commits"),
    /// Microseconds spent inside WAL commits (serialize + append + fsync).
    (WAL_COMMIT_US, "wal_commit_us"),
    /// Checkpoints taken.
    (DB_CHECKPOINTS, "db_checkpoints"),
    /// Microseconds spent inside checkpoints.
    (DB_CHECKPOINT_US, "db_checkpoint_us"),
    /// Bytes checkpoints wrote to the index file (`masks.chi`): appended
    /// segments plus compacting rewrites.
    (DB_INDEX_SEGMENT_BYTES, "db_index_segment_bytes"),
    /// Index files rewritten as one segment, because an explicit checkpoint
    /// asked or dead entries had reached the size of the live ones.
    (DB_INDEX_COMPACTIONS, "db_index_compactions"),
    /// Positioned reads the pager issued against the page file (one per run
    /// of non-dirty pages in an extent; dirty pages are copied, not read).
    (PAGER_READS, "pager_reads"),
    /// Bytes those reads transferred; ÷ `pager_reads` = bytes per read.
    (PAGER_READ_BYTES, "pager_read_bytes"),
    /// Page images handed to the pager (they wait in its dirty table until
    /// the next checkpoint).
    (PAGER_WRITES, "pager_writes"),
    /// Shard requests issued by coordinator scatter rounds.
    (SCATTER_REQUESTS, "scatter_requests"),
    /// Microseconds spent in coordinator scatter round-trips (summed across
    /// shards; concurrent waits overlap in wall time).
    (SCATTER_WAIT_US, "scatter_wait_us"),
    /// Queries whose end-to-end latency exceeded the slow-query threshold.
    (SLOW_QUERIES, "slow_queries"),
    /// Candidate resolutions that walked the full catalog (no secondary
    /// index applied, or the planner estimated the scan cheaper).
    (CATALOG_SCANS, "catalog_scans"),
    /// Secondary-index point probes issued during candidate resolution.
    (META_INDEX_PROBES, "meta_index_probes"),
}

/// Adds `delta` to a counter. Thin wrapper so call sites read uniformly.
#[inline]
pub fn add(counter: &AtomicU64, delta: u64) {
    if delta > 0 {
        counter.fetch_add(delta, Ordering::Relaxed);
    }
}

/// Increments a counter by one.
#[inline]
pub fn incr(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Acquires a lock, counting the acquisition in `acquires` and charging the
/// wait to `wait_us` — when there is one: `try_acquire` is tried first, and
/// only if the lock is held does `acquire` run between two clock reads.
///
/// The uncontended path is the hot one (every statement pins its read
/// version through one), so it pays no `clock_gettime` and touches one
/// shared counter, not two. A wait it does not see is one that ended
/// before `try_acquire` returned — nothing a microsecond counter holds.
#[inline]
pub fn timed_acquire<T>(
    wait_us: &AtomicU64,
    acquires: &AtomicU64,
    try_acquire: impl FnOnce() -> Option<T>,
    acquire: impl FnOnce() -> T,
) -> T {
    incr(acquires);
    try_acquire().unwrap_or_else(|| {
        let started = Instant::now();
        let guard = acquire();
        add(wait_us, started.elapsed().as_micros() as u64);
        guard
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lists_every_counter_once() {
        let snap = snapshot();
        assert!(snap.iter().any(|(k, _)| *k == "catalog_read_wait_us"));
        assert!(snap.iter().any(|(k, _)| *k == "scatter_requests"));
        let mut names: Vec<&str> = snap.iter().map(|(k, _)| *k).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), snap.len());
    }

    #[test]
    fn timed_acquire_counts_and_returns() {
        let wait = AtomicU64::new(0);
        let acquires = AtomicU64::new(0);
        let value = timed_acquire(&wait, &acquires, || Some(42), || unreachable!());
        assert_eq!(value, 42);
        assert_eq!(timed_acquire(&wait, &acquires, || None, || 7), 7);
        assert_eq!(acquires.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn timed_acquire_charges_a_wait_and_nothing_else() {
        let lock = std::sync::RwLock::new(());
        let wait = AtomicU64::new(0);
        let acquires = AtomicU64::new(0);
        let read = || {
            timed_acquire(
                &wait,
                &acquires,
                || lock.try_read().ok(),
                || lock.read().expect("no writer panics"),
            )
        };
        for _ in 0..10_000 {
            drop(read());
        }
        assert_eq!(wait.load(Ordering::Relaxed), 0);
        assert_eq!(acquires.load(Ordering::Relaxed), 10_000);

        // A writer that holds its guard for two milliseconds from before
        // the reader asks.
        let held = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let guard = lock.write().expect("no reader panics");
                held.wait();
                std::thread::sleep(std::time::Duration::from_millis(2));
                drop(guard);
            });
            held.wait();
            drop(read());
        });
        assert!(wait.load(Ordering::Relaxed) >= 1_000);
        assert_eq!(acquires.load(Ordering::Relaxed), 10_001);
    }
}
