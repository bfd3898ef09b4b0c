//! Disk cost model and I/O statistics.
//!
//! The paper's evaluation runs on an EBS gp3 volume provisioned with
//! 125 MiB/s of throughput and 3000 IOPS, and demonstrates that the baselines
//! are bound by that throughput (§4.2: "the disk read bandwidth was fully
//! utilized, reaching 125 MiB/s"). Local reproduction hardware has neither
//! that disk nor a way to clear the page cache deterministically, so this
//! module substitutes a **deterministic cost model**: every logical read is
//! charged
//!
//! ```text
//! virtual_time = per_op_latency + bytes / bandwidth
//! ```
//!
//! and the charges accumulate in a shared [`IoStats`]. Query executors report
//! both real (wall-clock) time and modelled I/O time; the experiment harness
//! combines them (`total = cpu_wall + io_virtual`) to regenerate the paper's
//! figures. Because every engine in this workspace reads through the same
//! accounting layer, relative comparisons (who wins, by what factor, where
//! crossovers fall) are preserved.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Performance characteristics of the modelled storage device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Sustained read bandwidth in bytes per second.
    pub read_bandwidth_bytes_per_sec: u64,
    /// Sustained write bandwidth in bytes per second.
    pub write_bandwidth_bytes_per_sec: u64,
    /// Fixed latency charged per read or write operation (seek + request
    /// overhead). Derived from the provisioned IOPS limit.
    pub per_op_latency: Duration,
}

impl DiskProfile {
    /// The paper's evaluation volume: EBS gp3 with 125 MiB/s and 3000 IOPS.
    pub fn ebs_gp3() -> Self {
        DiskProfile {
            read_bandwidth_bytes_per_sec: 125 * 1024 * 1024,
            write_bandwidth_bytes_per_sec: 125 * 1024 * 1024,
            // 3000 IOPS -> ~333 µs of queueing/seek budget per operation.
            per_op_latency: Duration::from_micros(333),
        }
    }

    /// Object-storage-class media (S3 and friends): modest bandwidth and a
    /// millisecond of request latency per operation. The regime where
    /// sharding a catalog pays off — per-request latency dominates, so
    /// overlapping requests across shards and pipelined connections is the
    /// whole game.
    pub fn cloud_object() -> Self {
        DiskProfile {
            read_bandwidth_bytes_per_sec: 100 * 1024 * 1024,
            write_bandwidth_bytes_per_sec: 100 * 1024 * 1024,
            per_op_latency: Duration::from_millis(1),
        }
    }

    /// A fast local NVMe-class device (useful for sensitivity analysis).
    pub fn local_nvme() -> Self {
        DiskProfile {
            read_bandwidth_bytes_per_sec: 2 * 1024 * 1024 * 1024,
            write_bandwidth_bytes_per_sec: 1024 * 1024 * 1024,
            per_op_latency: Duration::from_micros(20),
        }
    }

    /// A cost-free profile: no virtual time is charged. Used by unit tests
    /// that only care about functional behaviour.
    pub fn unthrottled() -> Self {
        DiskProfile {
            read_bandwidth_bytes_per_sec: u64::MAX,
            write_bandwidth_bytes_per_sec: u64::MAX,
            per_op_latency: Duration::ZERO,
        }
    }

    /// Virtual time charged for reading `bytes` bytes in `ops` operations.
    pub fn read_cost(&self, bytes: u64, ops: u64) -> Duration {
        self.cost(bytes, ops, self.read_bandwidth_bytes_per_sec)
    }

    /// Virtual time charged for writing `bytes` bytes in `ops` operations.
    pub fn write_cost(&self, bytes: u64, ops: u64) -> Duration {
        self.cost(bytes, ops, self.write_bandwidth_bytes_per_sec)
    }

    fn cost(&self, bytes: u64, ops: u64, bandwidth: u64) -> Duration {
        let latency = self
            .per_op_latency
            .checked_mul(ops as u32)
            .unwrap_or(Duration::MAX);
        if bandwidth == u64::MAX {
            return latency;
        }
        let transfer_nanos = (bytes as u128)
            .saturating_mul(1_000_000_000)
            .checked_div(bandwidth as u128)
            .unwrap_or(0);
        latency + Duration::from_nanos(transfer_nanos.min(u64::MAX as u128) as u64)
    }
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile::ebs_gp3()
    }
}

/// Shared, thread-safe I/O accounting.
///
/// Every store in this crate increments these counters. The reads are also
/// counted per thread ([`thread_reads`]): a statement charges itself what
/// its own threads read, so statements running side by side do not charge
/// each other — the number of masks loaded and the fraction of masks loaded
/// (FML), which the paper shows is the dominant driver of query time (§4.4,
/// Figure 9), are per statement.
#[derive(Debug, Default)]
pub struct IoStats {
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    masks_loaded: AtomicU64,
    virtual_read_nanos: AtomicU64,
    virtual_write_nanos: AtomicU64,
}

impl IoStats {
    /// Creates a zeroed statistics block behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records a read of `bytes` bytes costing `cost` of virtual time.
    pub fn record_read(&self, bytes: u64, cost: Duration) {
        THREAD_READS.with(|reads| {
            let mut r = reads.get();
            r.bytes_read += bytes;
            r.virtual_read += cost;
            reads.set(r);
        });
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.virtual_read_nanos.fetch_add(
            cost.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Records a write of `bytes` bytes costing `cost` of virtual time.
    pub fn record_write(&self, bytes: u64, cost: Duration) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.virtual_write_nanos.fetch_add(
            cost.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Records that one full mask was materialised from storage.
    pub fn record_mask_loaded(&self) {
        THREAD_READS.with(|reads| {
            let mut r = reads.get();
            r.masks_loaded += 1;
            reads.set(r);
        });
        self.masks_loaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of read operations performed.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::Relaxed)
    }

    /// Number of write operations performed.
    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Ordering::Relaxed)
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Number of masks materialised from storage.
    pub fn masks_loaded(&self) -> u64 {
        self.masks_loaded.load(Ordering::Relaxed)
    }

    /// Accumulated virtual read time.
    pub fn virtual_read_time(&self) -> Duration {
        Duration::from_nanos(self.virtual_read_nanos.load(Ordering::Relaxed))
    }

    /// Accumulated virtual write time.
    pub fn virtual_write_time(&self) -> Duration {
        Duration::from_nanos(self.virtual_write_nanos.load(Ordering::Relaxed))
    }

    /// Accumulated virtual I/O time (reads + writes).
    pub fn virtual_io_time(&self) -> Duration {
        self.virtual_read_time() + self.virtual_write_time()
    }

    /// Takes an immutable snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            read_ops: self.read_ops(),
            write_ops: self.write_ops(),
            bytes_read: self.bytes_read(),
            bytes_written: self.bytes_written(),
            masks_loaded: self.masks_loaded(),
            virtual_read: self.virtual_read_time(),
            virtual_write: self.virtual_write_time(),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.masks_loaded.store(0, Ordering::Relaxed);
        self.virtual_read_nanos.store(0, Ordering::Relaxed);
        self.virtual_write_nanos.store(0, Ordering::Relaxed);
    }
}

/// What the calling thread has read through every [`IoStats`], since it
/// started (see [`thread_reads`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reads {
    /// Masks materialised from storage.
    pub masks_loaded: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Virtual read time.
    pub virtual_read: Duration,
}

impl Reads {
    /// What was read between `earlier` and `self`, two readings of one
    /// thread.
    pub fn since(&self, earlier: &Reads) -> Reads {
        Reads {
            masks_loaded: self.masks_loaded - earlier.masks_loaded,
            bytes_read: self.bytes_read - earlier.bytes_read,
            virtual_read: self.virtual_read.saturating_sub(earlier.virtual_read),
        }
    }

    /// Adds another share.
    pub fn add(&mut self, other: &Reads) {
        self.masks_loaded += other.masks_loaded;
        self.bytes_read += other.bytes_read;
        self.virtual_read += other.virtual_read;
    }

    /// Runs `read` and adds what the calling thread read meanwhile.
    pub fn count<T>(&mut self, read: impl FnOnce() -> T) -> T {
        let before = thread_reads();
        let out = read();
        self.add(&thread_reads().since(&before));
        out
    }
}

thread_local! {
    static THREAD_READS: std::cell::Cell<Reads> = const {
        std::cell::Cell::new(Reads {
            masks_loaded: 0,
            bytes_read: 0,
            virtual_read: Duration::ZERO,
        })
    };
}

/// Everything the calling thread has read through any [`IoStats`] so far:
/// the difference of two readings is what the thread read between them,
/// whatever other threads read meanwhile.
pub fn thread_reads() -> Reads {
    THREAD_READS.with(std::cell::Cell::get)
}

/// An immutable snapshot of [`IoStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Number of read operations.
    pub read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Masks materialised from storage.
    pub masks_loaded: u64,
    /// Virtual read time.
    pub virtual_read: Duration,
    /// Virtual write time.
    pub virtual_write: Duration,
}

impl IoSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn delta_since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            masks_loaded: self.masks_loaded.saturating_sub(earlier.masks_loaded),
            virtual_read: self.virtual_read.saturating_sub(earlier.virtual_read),
            virtual_write: self.virtual_write.saturating_sub(earlier.virtual_write),
        }
    }

    /// Total virtual I/O time in the snapshot.
    pub fn virtual_io(&self) -> Duration {
        self.virtual_read + self.virtual_write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ebs_gp3_read_cost_matches_provisioned_bandwidth() {
        let profile = DiskProfile::ebs_gp3();
        // Reading 125 MiB in one op should take ~1 second plus one op latency.
        let cost = profile.read_cost(125 * 1024 * 1024, 1);
        assert!(cost >= Duration::from_secs(1));
        assert!(cost < Duration::from_millis(1010));
        // 1.33M ImageNet masks of 224*224*4 bytes ≈ 250 GB ≈ 2000+ seconds:
        // the paper's ">30 minutes per query" figure.
        let imagenet_bytes = 1_331_167u64 * 224 * 224 * 4;
        let cost = profile.read_cost(imagenet_bytes, 1_331_167);
        assert!(cost > Duration::from_secs(1700));
    }

    #[test]
    fn unthrottled_profile_charges_nothing() {
        let profile = DiskProfile::unthrottled();
        assert_eq!(profile.read_cost(1 << 30, 1000), Duration::ZERO);
        assert_eq!(profile.write_cost(1 << 30, 1000), Duration::ZERO);
    }

    #[test]
    fn per_op_latency_scales_with_ops() {
        let profile = DiskProfile {
            read_bandwidth_bytes_per_sec: u64::MAX,
            write_bandwidth_bytes_per_sec: u64::MAX,
            per_op_latency: Duration::from_micros(100),
        };
        assert_eq!(profile.read_cost(0, 10), Duration::from_millis(1));
    }

    #[test]
    fn io_stats_accumulate_and_snapshot() {
        let stats = IoStats::new_shared();
        stats.record_read(1000, Duration::from_millis(2));
        stats.record_read(500, Duration::from_millis(1));
        stats.record_write(100, Duration::from_millis(3));
        stats.record_mask_loaded();

        assert_eq!(stats.read_ops(), 2);
        assert_eq!(stats.bytes_read(), 1500);
        assert_eq!(stats.write_ops(), 1);
        assert_eq!(stats.bytes_written(), 100);
        assert_eq!(stats.masks_loaded(), 1);
        assert_eq!(stats.virtual_read_time(), Duration::from_millis(3));
        assert_eq!(stats.virtual_io_time(), Duration::from_millis(6));

        let before = stats.snapshot();
        stats.record_read(1, Duration::from_nanos(10));
        stats.record_mask_loaded();
        let delta = stats.snapshot().delta_since(&before);
        assert_eq!(delta.read_ops, 1);
        assert_eq!(delta.bytes_read, 1);
        assert_eq!(delta.masks_loaded, 1);

        stats.reset();
        assert_eq!(stats.bytes_read(), 0);
        assert_eq!(stats.virtual_io_time(), Duration::ZERO);
    }

    #[test]
    fn stats_are_thread_safe() {
        let stats = IoStats::new_shared();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stats = Arc::clone(&stats);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        stats.record_read(10, Duration::from_nanos(5));
                    }
                });
            }
        });
        assert_eq!(stats.read_ops(), 4000);
        assert_eq!(stats.bytes_read(), 40_000);
    }
}
