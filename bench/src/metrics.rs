//! The registry of workloads and metrics. `BENCHMARK.json` at the repository
//! root states the same lists for the driver; a test keeps the two equal.

use crate::json::Value;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its fixed name and why it exists.
pub struct Workload {
    /// Name later issues cite.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scan_cold",
        why: "mask cache 5% of pixel bytes: db pager reads and storage decode/cache do the work, index and wire almost none",
    },
    Workload {
        name: "filter_hot",
        why: "cache holds the dataset: candidate resolution, CHI bounds, planner and verify kernel do the work, the store little",
    },
    Workload {
        name: "point_meta",
        why: "sub-millisecond indexed statements: sql parse/lower, plan, engine queue and wire protocol are their largest share",
    },
    Workload {
        name: "ingest_mixed",
        why: "writer commits beside a TCP reader: WAL, pager, CHI/tile maintenance, cache invalidation and checkpoint stalls",
    },
    Workload {
        name: "cluster_fanout",
        why: "two durable shards behind a coordinator: scatter/merge and top-k refinement rounds are on the blocking path",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn end_to_end_metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
///
/// Bounds: the driver varies the seed between runs and accepts a metric only
/// while its ten-run quartile spread stays inside the bound. On the 2-core
/// sandbox the timings of one seed already spread 5–15% with the host's other
/// tenants, so timings take the widest bound the contract allows; memory and
/// the two size ratios repeat almost exactly and keep tight ones.
pub const END_TO_END: [EndToEnd; 8] = [
    end_to_end_metric("setup_s", "s", Better::Lower, 0.25),
    end_to_end_metric("query_p50_ms", "ms", Better::Lower, 0.25),
    end_to_end_metric("qps", "1/s", Better::Higher, 0.25),
    end_to_end_metric("commit_p50_ms", "ms", Better::Lower, 0.25),
    end_to_end_metric("ingest_masks_per_s", "1/s", Better::Higher, 0.25),
    end_to_end_metric("peak_rss_mb", "MB", Better::Lower, 0.10),
    end_to_end_metric("disk_bytes_per_mask_byte", "ratio", Better::Lower, 0.01),
    end_to_end_metric("index_bytes_ratio", "ratio", Better::Lower, 0.01),
];

/// A per-layer metric: layer = crate name without `masksearch-`.
pub struct PerLayer {
    /// Metric name, `layer.what_unit`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, reported by every workload with `--trace 1`.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 55] = [
    layer("sql.parse_us", "us", Better::Lower),
    layer("sql.lower_us", "us", Better::Lower),
    layer("plan.plan_us", "us", Better::Lower),
    layer("plan.kernel_on_ratio", "ratio", Better::Higher),
    layer("plan.index_on_ratio", "ratio", Better::Higher),
    layer("query.resolve_us", "us", Better::Lower),
    layer("query.filter_ms", "ms", Better::Lower),
    layer("query.verify_ms", "ms", Better::Lower),
    layer("query.verify_load_est_ms", "ms", Better::Lower),
    layer("query.other_ms", "ms", Better::Lower),
    layer("query.exec_ms", "ms", Better::Lower),
    layer("query.candidates_per_stmt", "count", Better::Lower),
    layer("query.rows_per_stmt", "count", Better::Lower),
    layer("index.fml", "ratio", Better::Lower),
    layer("index.decided_ratio", "ratio", Better::Higher),
    layer("index.bounds_ns_per_candidate", "ns", Better::Lower),
    layer("index.tiles_decided_ratio", "ratio", Better::Higher),
    layer("index.chi_build_us_per_mask", "us", Better::Lower),
    layer("storage.cache_hit_ratio", "ratio", Better::Higher),
    layer("storage.cache_evictions", "count", Better::Lower),
    layer("storage.cache_lock_wait_us", "us", Better::Lower),
    layer("storage.catalog_lock_wait_us", "us", Better::Lower),
    layer("storage.decode_mb_per_s", "MB/s", Better::Higher),
    layer("storage.index_probes_per_stmt", "count", Better::Lower),
    layer("db.load_us_per_mask", "us", Better::Lower),
    layer("db.pager_reads_per_load", "count", Better::Lower),
    layer("db.bytes_read_per_stmt", "bytes", Better::Lower),
    layer("db.insert_us_per_mask_first", "us", Better::Lower),
    layer("db.insert_us_per_mask_last", "us", Better::Lower),
    layer("db.commit_us", "us", Better::Lower),
    layer("db.commit_p95_ms", "ms", Better::Lower),
    layer("db.wal_bytes_per_mask_byte", "ratio", Better::Lower),
    layer("db.pager_writes_per_mask", "count", Better::Lower),
    layer("db.checkpoints", "count", Better::Lower),
    layer("db.checkpoint_ms", "ms", Better::Lower),
    layer("db.open_ms", "ms", Better::Lower),
    layer("core.cp_scan_mpix_per_s", "Mpix/s", Better::Higher),
    layer("core.cp_tiled_mpix_per_s", "Mpix/s", Better::Higher),
    layer("core.kernel_calls_per_stmt", "count", Better::Lower),
    layer("core.tile_build_us_per_mask", "us", Better::Lower),
    layer("service.query_p95_ms", "ms", Better::Lower),
    layer("service.queue_wait_us", "us", Better::Lower),
    layer("service.exec_ms", "ms", Better::Lower),
    layer("service.engine_overhead_us", "us", Better::Lower),
    layer("service.wire_overhead_us", "us", Better::Lower),
    layer("service.rejected", "count", Better::Lower),
    layer("service.unattributed_ratio", "ratio", Better::Lower),
    layer("cluster.shard_requests_per_stmt", "count", Better::Lower),
    layer("cluster.scatter_wait_ms_per_stmt", "ms", Better::Lower),
    layer("cluster.topk_rounds_per_ranked", "count", Better::Lower),
    layer("cluster.refined_requests", "count", Better::Lower),
    layer("cluster.coord_self_ms", "ms", Better::Lower),
    layer("cluster.failed", "count", Better::Lower),
    layer("datagen.gen_us_per_mask", "us", Better::Lower),
    layer("obs.bench_trace_overhead_ratio", "ratio", Better::Lower),
];

/// What the driver runs, as `BENCHMARK.json` states it.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
    "run",
];
/// Seconds one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u32 = 10;

/// The `BENCHMARK.json` document this registry stands for (`bench describe`
/// prints it; a test keeps the committed file equal to it).
pub fn describe() -> Value {
    let text = |s: &str| Value::string(s);
    Value::object([
        (
            "command",
            Value::Arr(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Arr(vec![text("bench")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::object([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: std::collections::BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric. The name must be registered above: a typo would
    /// otherwise surface only as a missing key in the driver.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of any registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` lives outside this package; where the file is
    /// reachable (a full checkout), it must say what this registry says.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        assert!(text.len() <= 64 * 1024);
        assert_eq!(json::parse(&text).unwrap(), describe());
    }
}
