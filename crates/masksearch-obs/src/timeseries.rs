//! Windowed time-series metrics: fixed-width per-second buckets in bounded
//! rings over query completions and the global counter registry.
//!
//! Cumulative counters answer "how much since the server started"; they
//! cannot localize behaviour in time. This module keeps short histories in
//! bounded rings — by default one second of resolution for the last five
//! minutes and ten seconds of resolution for the last hour — so an operator
//! can ask "what was the p99 over the last 30 s" or "when did the catalog
//! lock waits spike" without any external scrape infrastructure.
//!
//! The rings are event-driven: buckets advance when observations arrive, so
//! there is no background thread. Each bucket lazily captures a snapshot of
//! the [`crate::counters`] registry at its first observation, which lets a
//! window report *deltas* of the global counters (lock waits, kernel calls,
//! WAL commits) over its span.

use crate::counters;
use crate::histogram::{LogHistogram, HISTOGRAM_BUCKETS};
use std::sync::Mutex;
use std::time::Instant;

/// Per-query stage counters carried into a time-series observation.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounts {
    /// Candidate masks considered by the filter stage.
    pub candidates: u64,
    /// Candidates pruned by CHI bounds without loading.
    pub pruned: u64,
    /// Candidates that required pixel-level verification.
    pub verified: u64,
    /// Masks loaded from the store.
    pub loaded: u64,
}

#[derive(Debug, Clone)]
struct Bucket {
    /// Bucket number since the epoch (`elapsed_secs / width_s`);
    /// `u64::MAX` marks a slot that has never been written.
    index: u64,
    queries: u64,
    failed: u64,
    total_us: u64,
    latency: [u64; HISTOGRAM_BUCKETS],
    stages: StageCounts,
    /// Global-counter values (declaration order) captured at the first
    /// observation that landed in this bucket.
    counters_at_start: Option<Vec<u64>>,
}

impl Bucket {
    fn empty() -> Self {
        Self {
            index: u64::MAX,
            queries: 0,
            failed: 0,
            total_us: 0,
            latency: [0; HISTOGRAM_BUCKETS],
            stages: StageCounts::default(),
            counters_at_start: None,
        }
    }

    fn reset(&mut self, index: u64) {
        *self = Self::empty();
        self.index = index;
    }
}

#[derive(Debug)]
struct Ring {
    width_s: u64,
    buckets: Vec<Bucket>,
}

impl Ring {
    fn span_s(&self) -> u64 {
        self.width_s * self.buckets.len() as u64
    }

    fn slot_for(&mut self, at_s: u64) -> &mut Bucket {
        let index = at_s / self.width_s;
        let slot = (index % self.buckets.len() as u64) as usize;
        let bucket = &mut self.buckets[slot];
        if bucket.index != index {
            bucket.reset(index);
        }
        bucket
    }
}

/// A Prometheus gauge of the windowed exposition: its series, its HELP, and
/// what it reports of a window.
#[derive(Debug, Clone, Copy)]
pub struct WindowGauge {
    /// Series name.
    pub prom: &'static str,
    /// HELP text.
    pub help: &'static str,
    /// The sample of a window; `None` for the counter deltas, one sample per
    /// global counter (labelled `counter`).
    value: Option<fn(&WindowSummary) -> f64>,
}

const fn window_gauge(
    prom: &'static str,
    help: &'static str,
    value: fn(&WindowSummary) -> f64,
) -> WindowGauge {
    WindowGauge {
        prom,
        help,
        value: Some(value),
    }
}

/// Every gauge `METRICS WINDOW` and `METRICS` emit per window (labelled
/// `window_s`), in emission order: the one place each is named.
pub const WINDOW_GAUGES: [WindowGauge; 11] = [
    window_gauge(
        "masksearch_window_queries",
        "Statements completed in the window, failed ones included.",
        |s| s.queries as f64,
    ),
    window_gauge(
        "masksearch_window_failed",
        "Statements that failed in the window.",
        |s| s.failed as f64,
    ),
    window_gauge(
        "masksearch_window_qps",
        "Statements per second over the window.",
        |s| s.qps,
    ),
    window_gauge(
        "masksearch_window_p50_us",
        "Median statement wall time in the window, microseconds (upper edge of its log2 bucket).",
        |s| s.p50_us as f64,
    ),
    window_gauge(
        "masksearch_window_p99_us",
        "99th-percentile statement wall time in the window, microseconds (upper edge of its log2 bucket).",
        |s| s.p99_us as f64,
    ),
    window_gauge(
        "masksearch_window_mean_us",
        "Mean statement wall time in the window, microseconds.",
        |s| s.mean_us as f64,
    ),
    window_gauge(
        "masksearch_window_candidates",
        "Candidate masks the filter stage considered in the window.",
        |s| s.stages.candidates as f64,
    ),
    window_gauge(
        "masksearch_window_pruned",
        "Candidates CHI bounds decided without a load in the window.",
        |s| s.stages.pruned as f64,
    ),
    window_gauge(
        "masksearch_window_verified",
        "Candidates verified pixel by pixel in the window.",
        |s| s.stages.verified as f64,
    ),
    window_gauge(
        "masksearch_window_loaded",
        "Masks loaded from the store in the window.",
        |s| s.stages.loaded as f64,
    ),
    WindowGauge {
        prom: "masksearch_window_counter_delta",
        help: "Growth of the process-global counter named by the counter label over the window.",
        value: None,
    },
];

/// Summary of activity over one time window, produced by
/// [`TimeSeries::window`].
#[derive(Debug, Clone)]
pub struct WindowSummary {
    /// The window actually summarized in seconds (the request is clamped to
    /// the longest ring span).
    pub window_s: u64,
    /// Width of the ring buckets the summary was computed from.
    pub bucket_s: u64,
    /// Statements observed in the window.
    pub queries: u64,
    /// Statements that failed.
    pub failed: u64,
    /// Observed rate over the window (`queries / window_s`).
    pub qps: f64,
    /// Upper-bound p50 wall time in microseconds (log₂ bucket edge).
    pub p50_us: u64,
    /// Upper-bound p99 wall time in microseconds.
    pub p99_us: u64,
    /// Mean wall time in microseconds.
    pub mean_us: u64,
    /// Stage counters summed over the window.
    pub stages: StageCounts,
    /// Global-counter deltas over the window, in [`counters::snapshot`]
    /// order: current value minus the value captured at the start of the
    /// oldest populated bucket in the window.
    pub counter_deltas: Vec<(&'static str, u64)>,
}

impl WindowSummary {
    /// Delta of one global counter over the window (0 when absent).
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counter_deltas
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Bounded rings of fixed-width time buckets over query completions.
#[derive(Debug)]
pub struct TimeSeries {
    epoch: Instant,
    rings: Mutex<Vec<Ring>>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSeries {
    /// Default geometry: 1 s × 300 buckets (5 minutes at second resolution)
    /// and 10 s × 360 buckets (one hour at coarse resolution).
    pub fn new() -> Self {
        Self::with_rings(&[(1, 300), (10, 360)])
    }

    /// A time series with explicit `(bucket_width_s, num_buckets)` rings.
    /// Rings must be sorted by increasing width; zero-width or empty rings
    /// are ignored.
    pub fn with_rings(rings: &[(u64, usize)]) -> Self {
        let rings = rings
            .iter()
            .filter(|(w, n)| *w > 0 && *n > 0)
            .map(|&(width_s, n)| Ring {
                width_s,
                buckets: vec![Bucket::empty(); n],
            })
            .collect();
        Self {
            epoch: Instant::now(),
            rings: Mutex::new(rings),
        }
    }

    /// Records one completed statement at the current time.
    pub fn observe(&self, wall_us: u64, ok: bool, stages: StageCounts) {
        self.observe_at(self.epoch.elapsed().as_micros() as u64, wall_us, ok, stages);
    }

    /// Records one completed statement at an explicit time offset from the
    /// epoch (used by tests for determinism).
    pub fn observe_at(&self, at_us: u64, wall_us: u64, ok: bool, stages: StageCounts) {
        let at_s = at_us / 1_000_000;
        let snap = counters::snapshot();
        let mut rings = self.rings.lock().unwrap();
        for ring in rings.iter_mut() {
            let bucket = ring.slot_for(at_s);
            if bucket.counters_at_start.is_none() {
                bucket.counters_at_start = Some(snap.iter().map(|(_, v)| *v).collect());
            }
            bucket.queries += 1;
            if !ok {
                bucket.failed += 1;
            }
            bucket.total_us += wall_us;
            bucket.latency[LogHistogram::bucket_of(wall_us)] += 1;
            bucket.stages.candidates += stages.candidates;
            bucket.stages.pruned += stages.pruned;
            bucket.stages.verified += stages.verified;
            bucket.stages.loaded += stages.loaded;
        }
    }

    /// Summarizes the last `secs` seconds ending now.
    pub fn window(&self, secs: u64) -> WindowSummary {
        self.window_at(self.epoch.elapsed().as_micros() as u64, secs)
    }

    /// Summarizes the last `secs` seconds ending at an explicit time offset
    /// from the epoch.
    pub fn window_at(&self, now_us: u64, secs: u64) -> WindowSummary {
        let now_s = now_us / 1_000_000;
        let rings = self.rings.lock().unwrap();
        // The finest ring whose span covers the request; fall back to the
        // coarsest ring (clamping the window to its span).
        let ring = rings
            .iter()
            .find(|r| r.span_s() >= secs)
            .or_else(|| rings.last())
            .expect("TimeSeries has at least one ring");
        let secs = secs.clamp(ring.width_s, ring.span_s());
        let newest = now_s / ring.width_s;
        let needed = secs.div_ceil(ring.width_s);
        let oldest = newest.saturating_sub(needed - 1);

        let mut queries = 0u64;
        let mut failed = 0u64;
        let mut total_us = 0u64;
        let mut latency = [0u64; HISTOGRAM_BUCKETS];
        let mut stages = StageCounts::default();
        let mut earliest: Option<(u64, &Vec<u64>)> = None;
        for bucket in &ring.buckets {
            if bucket.index < oldest || bucket.index > newest {
                continue;
            }
            queries += bucket.queries;
            failed += bucket.failed;
            total_us += bucket.total_us;
            for (acc, c) in latency.iter_mut().zip(bucket.latency.iter()) {
                *acc += c;
            }
            stages.candidates += bucket.stages.candidates;
            stages.pruned += bucket.stages.pruned;
            stages.verified += bucket.stages.verified;
            stages.loaded += bucket.stages.loaded;
            if let Some(start) = &bucket.counters_at_start {
                if earliest.is_none_or(|(i, _)| bucket.index < i) {
                    earliest = Some((bucket.index, start));
                }
            }
        }

        let current = counters::snapshot();
        let counter_deltas = match earliest {
            Some((_, start)) => current
                .iter()
                .enumerate()
                .map(|(i, (name, v))| (*name, v.saturating_sub(start.get(i).copied().unwrap_or(0))))
                .collect(),
            None => current.iter().map(|(name, _)| (*name, 0)).collect(),
        };

        WindowSummary {
            window_s: secs,
            bucket_s: ring.width_s,
            queries,
            failed,
            qps: queries as f64 / secs as f64,
            p50_us: LogHistogram::percentile_of(&latency, 50.0),
            p99_us: LogHistogram::percentile_of(&latency, 99.0),
            mean_us: total_us.checked_div(queries).unwrap_or(0),
            stages,
            counter_deltas,
        }
    }

    /// Renders window summaries for each requested span as Prometheus gauge
    /// samples labelled by `window_s`, appended to `out`. Emits one `# TYPE`
    /// header per metric family.
    pub fn render_prometheus(&self, windows: &[u64], out: &mut String) {
        let summaries: Vec<WindowSummary> = windows.iter().map(|&w| self.window(w)).collect();
        self.render_summaries(&summaries, out);
    }

    /// Renders pre-computed window summaries as Prometheus gauges (split out
    /// so tests can render deterministic `window_at` results): every row of
    /// [`WINDOW_GAUGES`], each with its `# HELP` and `# TYPE` headers.
    pub fn render_summaries(&self, summaries: &[WindowSummary], out: &mut String) {
        for gauge in &WINDOW_GAUGES {
            let name = gauge.prom;
            out.push_str(&format!("# HELP {name} {}\n", gauge.help));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for s in summaries {
                let window_s = s.window_s;
                match gauge.value {
                    Some(value) => {
                        out.push_str(&format!("{name}{{window_s=\"{window_s}\"}} {}\n", value(s)));
                    }
                    None => {
                        for (counter, delta) in &s.counter_deltas {
                            out.push_str(&format!(
                                "{name}{{window_s=\"{window_s}\",counter=\"{counter}\"}} {delta}\n"
                            ));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000;

    fn stages(candidates: u64, loaded: u64) -> StageCounts {
        StageCounts {
            candidates,
            pruned: candidates.saturating_sub(loaded),
            verified: loaded,
            loaded,
        }
    }

    #[test]
    fn window_sums_only_buckets_in_range() {
        let ts = TimeSeries::with_rings(&[(1, 10)]);
        ts.observe_at(0, 100, true, stages(10, 2));
        ts.observe_at(S, 200, true, stages(10, 2));
        ts.observe_at(5 * S, 400, false, stages(4, 4));
        // Window of 2 s ending at t=5s covers buckets 4..=5: one query.
        let w = ts.window_at(5 * S, 2);
        assert_eq!(w.queries, 1);
        assert_eq!(w.failed, 1);
        assert_eq!(w.stages.loaded, 4);
        // Window of 10 s sees all three.
        let w = ts.window_at(5 * S, 10);
        assert_eq!(w.queries, 3);
        assert_eq!(w.failed, 1);
        assert_eq!(w.stages.candidates, 24);
        assert_eq!(w.mean_us, (100 + 200 + 400) / 3);
    }

    #[test]
    fn ring_wraps_and_forgets_old_buckets() {
        let ts = TimeSeries::with_rings(&[(1, 4)]);
        ts.observe_at(0, 100, true, StageCounts::default());
        // 6 s later the t=0 bucket has been overwritten (ring of 4).
        ts.observe_at(6 * S, 100, true, StageCounts::default());
        let w = ts.window_at(6 * S, 4);
        assert_eq!(w.queries, 1);
    }

    #[test]
    fn falls_back_to_coarse_ring_for_long_windows() {
        let ts = TimeSeries::with_rings(&[(1, 5), (10, 6)]);
        ts.observe_at(0, 100, true, StageCounts::default());
        ts.observe_at(30 * S, 100, true, StageCounts::default());
        // 60 s exceeds the fine ring's 5 s span; the 10 s ring serves it.
        let w = ts.window_at(30 * S, 60);
        assert_eq!(w.bucket_s, 10);
        assert_eq!(w.window_s, 60);
        assert_eq!(w.queries, 2);
        // 3 s is served by the fine ring and only sees the recent query.
        let w = ts.window_at(30 * S, 3);
        assert_eq!(w.bucket_s, 1);
        assert_eq!(w.queries, 1);
    }

    #[test]
    fn percentiles_use_log2_edges() {
        let ts = TimeSeries::with_rings(&[(1, 10)]);
        for wall in [1u64, 2, 4, 8, 1000] {
            ts.observe_at(0, wall, true, StageCounts::default());
        }
        let w = ts.window_at(0, 5);
        assert_eq!(w.p50_us, 8);
        assert!(w.p99_us >= 1024);
        assert_eq!(w.mean_us, 203);
    }

    #[test]
    fn counter_deltas_cover_the_window() {
        let ts = TimeSeries::with_rings(&[(1, 10)]);
        ts.observe_at(0, 100, true, StageCounts::default());
        crate::counters::add(&crate::counters::KERNEL_CALLS, 7);
        ts.observe_at(2 * S, 100, true, StageCounts::default());
        let w = ts.window_at(2 * S, 5);
        // Other tests in the process may bump the counter concurrently, so
        // assert a lower bound only.
        assert!(w.counter_delta("kernel_calls") >= 7);
        assert_eq!(w.counter_delta("no_such_counter"), 0);
    }

    #[test]
    fn prometheus_rendering_validates() {
        let ts = TimeSeries::new();
        ts.observe(123, true, stages(10, 3));
        let mut out = String::new();
        ts.render_prometheus(&[60, 300], &mut out);
        assert!(out.contains("masksearch_window_qps{window_s=\"60\"}"));
        assert!(out.contains("counter=\"catalog_write_wait_us\""));
        crate::prom::validate(&out).expect("window gauges validate");
    }
}
