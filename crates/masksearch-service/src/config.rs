//! Service configuration: execution slots, the admission bound, deadlines,
//! and observability sinks.

use std::path::PathBuf;
use std::time::Duration;

/// Default flight-recorder byte budget (64 MiB): enough for millions of
/// captured statements while bounding disk use on a forgotten recorder.
pub const DEFAULT_RECORDER_BUDGET: u64 = 64 << 20;

/// Configuration of a [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Statements executing at once, process-wide. Each runs on the thread
    /// that submitted it (a connection's, for TCP clients); the session's
    /// own intra-query parallelism is divided across these slots.
    pub workers: usize,
    /// Callers waiting for a slot at most; the next caller is rejected with
    /// [`crate::ServiceError::QueueFull`] instead of building an unbounded
    /// backlog. Must be at least 1.
    pub queue_depth: usize,
    /// Deadline applied to every statement, measured from submission: a
    /// statement whose deadline passes while it waits for a slot fails with
    /// [`crate::ServiceError::DeadlineExceeded`] without executing. `None`
    /// means no deadline.
    pub default_deadline: Option<Duration>,
    /// Whether the engine traces each query (on by default; every traced
    /// statement is profiled). Traces feed the profile ring (`STATS
    /// PROFILES`) and the slow-query log; a trace is flat records in buffers
    /// its thread reuses, copied into a preallocated ring slot, so in steady
    /// state it allocates nothing and frees nothing another thread
    /// allocated. With tracing off the hot path takes the pre-observability
    /// code path and produces byte-identical responses.
    pub tracing: bool,
    /// Threshold above which a completed query is written to the structured
    /// slow-query log. `None` disables the log.
    pub slow_query: Option<Duration>,
    /// Destination file for the slow-query log (JSON lines, appended).
    /// `None` keeps the historical default of stderr.
    pub slow_query_path: Option<PathBuf>,
    /// When set, the flight recorder starts capturing to this file as soon
    /// as the engine comes up (an existing recording is appended to, so a
    /// recording survives a restart). Recording can also be started and
    /// stopped over the wire with `RECORD START/STOP`.
    pub record_to: Option<PathBuf>,
    /// Byte budget for the flight recorder; statements past the budget are
    /// counted as dropped instead of growing the recording.
    pub recorder_budget: u64,
}

impl ServiceConfig {
    /// A configuration with `workers` execution slots and defaults otherwise
    /// (up to 1024 waiting callers, no deadline).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            queue_depth: 1024,
            default_deadline: None,
            tracing: true,
            slow_query: None,
            slow_query_path: None,
            record_to: None,
            recorder_budget: DEFAULT_RECORDER_BUDGET,
        }
    }

    /// Sets how many callers may wait for a slot (clamped to at least 1).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the per-statement deadline.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Enables or disables per-query tracing (profiles and slow-query log).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Sets the slow-query threshold (queries at least this slow are logged).
    pub fn slow_query(mut self, threshold: Duration) -> Self {
        self.slow_query = Some(threshold);
        self
    }

    /// Sends the slow-query log to a file (JSON lines, appended) instead of
    /// stderr.
    pub fn slow_query_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.slow_query_path = Some(path.into());
        self
    }

    /// Starts the flight recorder at engine construction, capturing every
    /// executed statement to `path`.
    pub fn record_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.record_to = Some(path.into());
        self
    }

    /// Sets the flight-recorder byte budget.
    pub fn recorder_budget(mut self, bytes: u64) -> Self {
        self.recorder_budget = bytes.max(1);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_and_sets() {
        let c = ServiceConfig::new(0)
            .queue_depth(0)
            .default_deadline(Duration::from_millis(5))
            .tracing(false)
            .slow_query(Duration::from_millis(100))
            .slow_query_path("/tmp/slow.jsonl")
            .record_to("/tmp/flight.bin")
            .recorder_budget(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.queue_depth, 1);
        assert_eq!(c.default_deadline, Some(Duration::from_millis(5)));
        assert!(!c.tracing);
        assert_eq!(c.slow_query, Some(Duration::from_millis(100)));
        assert_eq!(c.slow_query_path, Some(PathBuf::from("/tmp/slow.jsonl")));
        assert_eq!(c.record_to, Some(PathBuf::from("/tmp/flight.bin")));
        assert_eq!(c.recorder_budget, 1);
    }

    #[test]
    fn default_uses_available_parallelism() {
        let c = ServiceConfig::default();
        assert!(c.workers >= 1);
        assert!(c.default_deadline.is_none());
        assert!(c.tracing);
        assert!(c.slow_query.is_none());
        assert!(c.slow_query_path.is_none());
        assert!(c.record_to.is_none());
        assert_eq!(c.recorder_budget, DEFAULT_RECORDER_BUDGET);
    }
}
