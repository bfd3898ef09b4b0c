//! One benchmark run: set up a seeded durable database, check the regime
//! guards and the oracle, drive one workload in closed loop for the asked
//! number of seconds, and reduce what was seen to the registered metrics.
//!
//! With `trace` off the run reports the end-to-end metrics. With `trace` on
//! it spends the first [`BASELINE_SHARE`] of the window exactly like an
//! untraced run (clean per-statement counters, and the p50 the tracing
//! overhead is measured against) and the rest in the traced loop, where each
//! statement is also pushed through every layer's public entry point under a
//! span (see [`crate::trace`]).

use crate::dataset::{self, DatasetSpec};
use crate::metrics::Metrics;
use crate::micro;
use crate::oracle::{self, Source};
use crate::setup::{self, BuildTimings, DirBytes, ScratchDir};
use crate::stack::{Cluster, Node};
use crate::statements::{self, Calibration, Generator, Kind, Statement};
use crate::stats;
use crate::trace::{SpanId, Trace};
use masksearch_cluster::{ClusterMetricsSnapshot, ClusterReply, ShardMap};
use masksearch_core::{MaskId, MaskRecord, ModelId};
use masksearch_db::MaskDb;
use masksearch_query::{MaskUpdate, Mutation, Query, QueryKind, QueryStats};
use masksearch_service::{Client, Response};
use masksearch_sql::Statement as SqlStatement;
use masksearch_storage::Catalog;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Closed-loop clients (and connections) of every read phase: the analysts.
const CLIENTS: u64 = 2;
/// Shards of the cluster workload.
const SHARDS: usize = 2;
/// Share of the images the cluster workload spreads over its shards.
const CLUSTER_SHARE: f64 = 0.4;
/// Share of a traced run's window spent untraced first.
const BASELINE_SHARE: f64 = 0.3;
/// Mask cache of the cold workload, as a share of the raw pixel bytes.
const COLD_CACHE_SHARE: f64 = 0.05;
/// Mask cache of every other workload, as a multiple of the raw pixel bytes
/// (decoded masks carry their tile summaries, so 1× would not hold them).
const HOT_CACHE_MULTIPLE: u64 = 2;
/// Statements the oracle checks per workload, at least.
const ORACLE_STATEMENTS: usize = 8;
/// Masks per writer insert (and delete) batch in `ingest_mixed`.
const WRITER_BATCH: usize = 16;
/// One writer cycle: this many insert batches, as many delete batches (once
/// the writer is [`WRITER_LEAD_CYCLES`] ahead), and `WRITER_UPDATES`
/// single-mask updates in between — the database stays the same size, so
/// the reader's latency is stationary.
const WRITER_INSERTS_PER_CYCLE: usize = 8;
const WRITER_UPDATES_PER_CYCLE: usize = 16;
const WRITER_LEAD_CYCLES: usize = 2;
/// Model id of everything the writer inserts and deletes. A statement that
/// has resolved a mask id fails with `UnknownMask` when the mask is deleted
/// before it is loaded, so the reader's statements select the dataset's own
/// models (1 and 2) and the writer's churn stays outside their candidates;
/// its updates re-mask base masks the reader does target.
const WRITER_MODEL: u64 = 3;
/// Distinct generated masks the writer cycles through.
const WRITER_POOL: u64 = 64;
/// Bytes the writer must commit, as a multiple of the checkpoint threshold,
/// whatever the window: at least three automatic checkpoints.
const WRITER_MIN_CHECKPOINT_MULTIPLE: u64 = 3;
/// Insert batches committed (without a checkpoint) before each reopen of
/// `ingest_mixed`, so every reopen recovers the same amount of WAL.
const REOPEN_WAL_BATCHES: usize = 4;
/// Reopens per run; the median `MaskDb::open` time is reported.
const REOPENS: usize = 5;
/// One-second slices (each holding a p95's worth of statements) needed before
/// the reported p95 is the median of their p95s rather than the window's.
const MIN_P95_SLICES: usize = 3;
/// `service.unattributed_ratio` above this fails a traced run.
const MAX_UNATTRIBUTED: f64 = 0.25;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Cold cache, scan-shaped statements.
    ScanCold,
    /// Hot cache, scan-shaped statements plus `INTERSECT` groups.
    FilterHot,
    /// Hot cache, short indexed statements.
    PointMeta,
    /// A writer beside a reader.
    IngestMixed,
    /// Two shards behind a coordinator.
    ClusterFanout,
}

impl WorkloadKind {
    /// Every workload, in the registry's order.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::ScanCold,
        WorkloadKind::FilterHot,
        WorkloadKind::PointMeta,
        WorkloadKind::IngestMixed,
        WorkloadKind::ClusterFanout,
    ];

    /// The registered name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ScanCold => "scan_cold",
            WorkloadKind::FilterHot => "filter_hot",
            WorkloadKind::PointMeta => "point_meta",
            WorkloadKind::IngestMixed => "ingest_mixed",
            WorkloadKind::ClusterFanout => "cluster_fanout",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. Two exist: the measured one and the test-suite's smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Images in the dataset (two masks each).
    pub images: u64,
    /// Mask side in pixels.
    pub side: u32,
    /// Complete database builds per run; `setup_s` uses their median.
    pub setup_reps: usize,
    /// Blocks of eight statements in a scan pool.
    pub scan_blocks: usize,
    /// Statements in the point pool.
    pub point_statements: usize,
    /// Statements of each coordinator route in the fan-out pool.
    pub fanout_per_kind: usize,
}

impl Scale {
    /// The measured size: 3,000 masks of 112×112 (≈150 MB of pixels), the
    /// most the contract's time cap leaves room to build three times a run.
    pub const FULL: Scale = Scale {
        images: 1_500,
        side: 112,
        setup_reps: 3,
        scan_blocks: 8,
        point_statements: 1_024,
        fanout_per_kind: 8,
    };
    /// The smoke size: 1,000 masks of 64×64, every code path, seconds.
    pub const SMOKE: Scale = Scale {
        images: 500,
        side: 64,
        setup_reps: 2,
        scan_blocks: 1,
        point_statements: 64,
        fanout_per_kind: 3,
    };
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadKind,
    /// Seed of the dataset and the statement streams.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where scratch directories and trace files go.
    pub out_dir: PathBuf,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// No operation failed, no result differed, and (traced runs) the
    /// independently timed parts account for the client's latency.
    pub correct: bool,
    /// Operations attempted: statements, commits and oracle checks.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong rows.
    pub failed: u64,
    /// The metrics of the chosen mode.
    pub metrics: Metrics,
    /// Program-side regime values and sample counts, for the log only.
    pub notes: Vec<String>,
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// What the repeated database builds measured.
struct SetupSummary {
    /// Wall time of each complete build (all databases of the workload).
    rep_s: Vec<f64>,
    /// Every full-size `insert_masks` call of every repetition, milliseconds.
    commit_ms: Vec<f64>,
    /// Masks per second inside `insert_masks`, over every repetition.
    ingest_masks_per_s: f64,
    /// Generation wall time per mask, microseconds.
    gen_us_per_mask: f64,
    /// `insert_masks` time per mask over the first and last fifth of a build.
    insert_us_first: f64,
    insert_us_last: f64,
    /// Masks of one build.
    masks: u64,
}

/// Builds every database of the workload `reps` times (fresh directories,
/// earlier ones removed) and keeps the last. The first build also feeds the
/// calibration.
fn build_all(
    scratch: &Path,
    spec: &DatasetSpec,
    parts: &[Vec<MaskRecord>],
    reps: usize,
    threads: usize,
    calibration: &mut Calibration,
) -> Result<(Vec<(PathBuf, MaskDb)>, SetupSummary), String> {
    let mut kept: Vec<(PathBuf, MaskDb)> = Vec::new();
    let mut rep_s = Vec::new();
    let mut commit_ms = Vec::new();
    let (mut insert_s, mut inserted, mut generate_s) = (0.0, 0usize, 0.0);
    let (mut first, mut last) = ((0.0, 0usize), (0.0, 0usize));
    for rep in 0..reps.max(1) {
        for (dir, db) in kept.drain(..) {
            drop(db);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
        }
        let mut timings = Vec::new();
        for (i, records) in parts.iter().enumerate() {
            let dir = scratch.join(format!("rep{rep}-db{i}"));
            let (db, t) = setup::build_database(&dir, spec, records, threads, |record, mask| {
                if rep == 0 {
                    calibration.observe(record, mask);
                }
            })?;
            kept.push((dir, db));
            timings.push(t);
        }
        rep_s.push(timings.iter().map(BuildTimings::total_s).sum());
        for t in &timings {
            generate_s += t.generate_s;
            insert_s += t.insert_s();
            inserted += t.masks();
            commit_ms.extend(
                t.inserts
                    .iter()
                    .filter(|(n, _)| *n == setup::SETUP_BATCH)
                    .map(|(_, s)| s * 1e3),
            );
            let fifth = (t.inserts.len() / 5).max(1);
            for (n, s) in &t.inserts[..fifth] {
                first = (first.0 + s, first.1 + n);
            }
            for (n, s) in &t.inserts[t.inserts.len() - fifth..] {
                last = (last.0 + s, last.1 + n);
            }
        }
    }
    let per_mask_us = |(s, n): (f64, usize)| s * 1e6 / n.max(1) as f64;
    let summary = SetupSummary {
        rep_s,
        commit_ms,
        ingest_masks_per_s: inserted as f64 / insert_s,
        gen_us_per_mask: generate_s * 1e6 / inserted.max(1) as f64,
        insert_us_first: per_mask_us(first),
        insert_us_last: per_mask_us(last),
        masks: parts.iter().map(|p| p.len() as u64).sum(),
    };
    Ok((kept, summary))
}

/// The records each database of the workload holds.
fn partition(workload: WorkloadKind, spec: &DatasetSpec) -> Result<Vec<Vec<MaskRecord>>, String> {
    if workload != WorkloadKind::ClusterFanout {
        return Ok(vec![spec.records()]);
    }
    let map = ShardMap::new(SHARDS).map_err(|e| e.to_string())?;
    let images = ((spec.images as f64 * CLUSTER_SHARE) as u64).max(SHARDS as u64);
    let mut parts = vec![Vec::new(); SHARDS];
    for record in spec.records_from(0, images) {
        parts[map.shard_for_record(&record)].push(record);
    }
    Ok(parts)
}

// ---------------------------------------------------------------------------
// The serving stack of a run
// ---------------------------------------------------------------------------

enum Stack {
    Single(Node),
    Cluster(Cluster),
}

impl Stack {
    fn addr(&self) -> SocketAddr {
        match self {
            Stack::Single(node) => node.addr(),
            Stack::Cluster(cluster) => cluster.addr(),
        }
    }

    fn nodes(&self) -> &[Node] {
        match self {
            Stack::Single(node) => std::slice::from_ref(node),
            Stack::Cluster(cluster) => cluster.shards(),
        }
    }

    fn close(self) -> Result<Vec<MaskDb>, String> {
        match self {
            Stack::Single(node) => Ok(vec![node.close()?]),
            Stack::Cluster(cluster) => cluster.close(),
        }
    }

    fn serve(dbs: Vec<MaskDb>, side: u32, cache_bytes: u64) -> Result<Self, String> {
        let mut nodes = dbs
            .into_iter()
            .map(|db| Node::serve(db, side, cache_bytes))
            .collect::<Result<Vec<_>, _>>()?;
        if nodes.len() == 1 {
            Ok(Stack::Single(nodes.remove(0)))
        } else {
            Ok(Stack::Cluster(Cluster::serve(nodes)?))
        }
    }

    /// Oracle inputs: every node's store with the ids it holds, and one
    /// catalog over all of them (as the sessions see it now).
    fn oracle_inputs(&self) -> (Vec<Source>, Catalog) {
        let mut merged = Catalog::new();
        let sources = self
            .nodes()
            .iter()
            .map(|node| {
                let catalog = node.session().catalog();
                for record in catalog.records() {
                    merged.insert(record.clone());
                }
                Source {
                    store: node.db().mask_store(),
                    ids: catalog.mask_ids(),
                }
            })
            .collect();
        (sources, merged)
    }

    /// Hit/miss/eviction totals of the nodes' mask caches.
    fn cache_totals(&self) -> (u64, u64, u64) {
        self.nodes().iter().fold((0, 0, 0), |acc, node| {
            let s = node.session().cache().stats();
            (acc.0 + s.hits, acc.1 + s.misses, acc.2 + s.evictions)
        })
    }

    fn rejected(&self) -> u64 {
        self.nodes()
            .iter()
            .map(|n| n.engine().metrics().rejected)
            .sum()
    }

    fn cluster_metrics(&self) -> ClusterMetricsSnapshot {
        match self {
            Stack::Single(_) => ClusterMetricsSnapshot::default(),
            Stack::Cluster(cluster) => cluster.coordinator().metrics(),
        }
    }
}

// ---------------------------------------------------------------------------
// Client loops
// ---------------------------------------------------------------------------

/// One statement over the wire, as its client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    latency_ms: f64,
    /// When the answer arrived.
    end: Instant,
}

/// What one client saw.
#[derive(Debug, Default)]
struct ClientStats {
    samples: Vec<Sample>,
    failed: u64,
    candidates: u64,
    verified: u64,
    loaded: u64,
}

impl ClientStats {
    fn merge(&mut self, other: ClientStats) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
        self.candidates += other.candidates;
        self.verified += other.verified;
        self.loaded += other.loaded;
    }

    fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    /// The latencies of the statements answered in each whole second after
    /// `origin`.
    fn per_second(&self, origin: Instant) -> Vec<Vec<f64>> {
        let mut seconds: Vec<Vec<f64>> = Vec::new();
        for sample in &self.samples {
            let second = sample.end.saturating_duration_since(origin).as_secs() as usize;
            if seconds.len() <= second {
                seconds.resize(second + 1, Vec::new());
            }
            seconds[second].push(sample.latency_ms);
        }
        seconds
    }

    /// The window's p95. Interference on a shared host comes in bursts of a
    /// second or two and lands on the tail first, so where the one-second
    /// slices hold enough statements for a p95 of their own (ten samples
    /// beyond it) the median of the slices' p95s is reported; a slow workload
    /// falls back to the p95 of the whole window.
    fn p95_ms(&self, origin: Instant) -> f64 {
        let slices: Vec<f64> = self
            .per_second(origin)
            .iter()
            .filter(|slice| slice.len() >= stats::MIN_SAMPLES_FOR_P95)
            .map(|slice| stats::percentile(slice, 95.0))
            .collect();
        if slices.len() >= MIN_P95_SLICES {
            stats::median(&slices)
        } else {
            stats::percentile(&self.latencies_ms(), 95.0)
        }
    }

    /// `(kind, count, p50 ms)` of every statement kind seen.
    fn by_kind(&self) -> Vec<(Kind, usize, f64)> {
        let mut kinds: Vec<Kind> = self.samples.iter().map(|s| s.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
            .into_iter()
            .map(|kind| {
                let of_kind: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.latency_ms)
                    .collect();
                (kind, of_kind.len(), stats::percentile(&of_kind, 50.0))
            })
            .collect()
    }

    /// How much slower this client population's median statement is than
    /// `base`'s, kind by kind, weighted by `base`'s mix — so that two windows
    /// holding different numbers of each statement kind compare like with
    /// like.
    fn median_slowdown(&self, base: &ClientStats) -> f64 {
        let ours = self.by_kind();
        let (mut weighted, mut weight) = (0.0, 0.0);
        for (kind, count, base_p50) in base.by_kind() {
            if let Some((_, _, p50)) = ours.iter().find(|(k, _, _)| *k == kind) {
                weighted += count as f64 * ratio(*p50, base_p50);
                weight += count as f64;
            }
        }
        ratio(weighted, weight) - 1.0
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Sends one statement, timing the round trip. On read-only data every
/// answer to a statement must repeat the first one any client saw
/// (`first_seen`); the oracle separately checks a subset exactly.
fn timed_query(
    client: &mut Client,
    statement: &Statement,
    first_seen: Option<&OnceLock<u64>>,
    stats: &mut ClientStats,
) -> (Instant, Instant, Option<masksearch_service::WireResponse>) {
    let start = Instant::now();
    let reply = client.query(&statement.sql);
    let end = Instant::now();
    stats.samples.push(Sample {
        kind: statement.kind,
        latency_ms: end.duration_since(start).as_secs_f64() * 1e3,
        end,
    });
    match reply {
        Ok(response) => {
            if let Some(first_seen) = first_seen {
                let digest = oracle::digest_rows(&response.rows);
                if *first_seen.get_or_init(|| digest) != digest {
                    eprintln!("rows differ from the first answer: {}", statement.sql);
                    stats.failed += 1;
                }
            }
            stats.candidates += response.summary.candidates;
            stats.verified += response.summary.verified;
            stats.loaded += response.summary.loaded;
            (start, end, Some(response))
        }
        Err(e) => {
            eprintln!("statement failed: {e}: {}", statement.sql);
            stats.failed += 1;
            (start, end, None)
        }
    }
}

/// What a client thread hands back: its view, its spans, its layer sums (the
/// last two empty for an untraced client).
type ClientResult = Result<(ClientStats, Trace, LayerSums), String>;

/// A closed-loop client: laps over the pool in its own order, one statement
/// in flight, until `stop` says so.
fn untraced_client(
    addr: SocketAddr,
    pool: &[Statement],
    order: &[usize],
    expected: Option<&[OnceLock<u64>]>,
    origin: Instant,
    stop: &dyn Fn() -> bool,
) -> ClientResult {
    let mut client = connect(addr)?;
    let mut stats = ClientStats::default();
    'laps: loop {
        for &i in order {
            if stop() {
                break 'laps;
            }
            timed_query(&mut client, &pool[i], expected.map(|e| &e[i]), &mut stats);
        }
    }
    client.quit().map_err(|e| format!("quit: {e}"))?;
    Ok((stats, Trace::new(origin), LayerSums::default()))
}

/// What the traced loop adds to the client's view: the `QueryStats` of the
/// direct `Session::execute` calls.
#[derive(Debug, Default)]
struct LayerSums {
    statements: u64,
    stats: QueryStats,
    rows: u64,
}

impl LayerSums {
    /// Adds the statistics of `statements` executions returning `rows` rows.
    fn add(&mut self, s: &QueryStats, rows: u64, statements: u64) {
        self.statements += statements;
        self.rows += rows;
        let t = &mut self.stats;
        t.candidates += s.candidates;
        t.masks_loaded += s.masks_loaded;
        t.bytes_read += s.bytes_read;
        t.tiles_pruned += s.tiles_pruned;
        t.tiles_hist += s.tiles_hist;
        t.tiles_scanned += s.tiles_scanned;
        t.planner_kernel_on += s.planner_kernel_on;
        t.planner_kernel_off += s.planner_kernel_off;
        t.planner_index_on += s.planner_index_on;
        t.planner_index_off += s.planner_index_off;
        t.index_probes += s.index_probes;
        t.filter_wall += s.filter_wall;
    }

    fn merge(&mut self, other: LayerSums) {
        self.add(&other.stats, other.rows, other.statements);
    }
}

/// The traced closed-loop client. Per statement, under one `stmt` span: the
/// SQL front end (`parse_statement`, `lower_statement`), the planner
/// (`Session::plan_query`), the wire path (`Client::query`, with the
/// server's reported `wall_us` as a derived child), the engine path
/// (`Engine::execute_statement`, children from `QueryResponse`), the session
/// path (`Session::execute`, children from `QueryStats`), and a `PING` round
/// trip as the wire's fixed cost. On a cluster the in-process calls are
/// `Coordinator::execute_sql` instead of engine and session.
fn traced_client(
    stack: &Stack,
    client_no: u64,
    pool: &[Statement],
    order: &[usize],
    expected: Option<&[OnceLock<u64>]>,
    origin: Instant,
    stop: &dyn Fn() -> bool,
) -> ClientResult {
    let mut client = connect(stack.addr())?;
    let mut stats = ClientStats::default();
    let mut trace = Trace::new(origin);
    let mut sums = LayerSums::default();
    let mut lap = 0u64;
    let mut traced_statements = 0usize;
    'laps: loop {
        for &i in order {
            if stop() {
                break 'laps;
            }
            let statement = &pool[i];
            // Statement ids are unique across clients and laps.
            let stmt_id = (lap * pool.len() as u64 + i as u64) * CLIENTS + client_no;
            let stmt_start = Instant::now();
            // The root's end is not known yet: record it open so children
            // can name it, close it after the last of them.
            let stmt: SpanId = trace.record("stmt", stmt_id, None, stmt_start, stmt_start);
            let root = Some(stmt);

            let (ast, _) = trace.timed("sql.parse", stmt_id, root, || {
                masksearch_sql::parse_statement(&statement.sql)
            });
            let ast = ast.map_err(|e| format!("parse {}: {e}", statement.sql))?;
            let (lowered, _) = trace.timed("sql.lower", stmt_id, root, || {
                masksearch_sql::lower_statement(&ast)
            });
            let SqlStatement::Query(query) =
                lowered.map_err(|e| format!("lower {}: {e}", statement.sql))?
            else {
                return Err(format!("not a query: {}", statement.sql));
            };

            // The executions of one statement run in rotating order: on a
            // cold cache whichever goes first pays the loads the others then
            // find cached, and no path should always be that one.
            let paths = match stack {
                Stack::Single(_) => 3,
                Stack::Cluster(_) => 2,
            };
            for step in 0..paths {
                match (stack, (step + traced_statements) % paths) {
                    (_, 0) => {
                        let (start, end, response) = timed_query(
                            &mut client,
                            statement,
                            expected.map(|e| &e[i]),
                            &mut stats,
                        );
                        let wire = trace.record("client.query", stmt_id, root, start, end);
                        if let Some(response) = &response {
                            trace.derive_children(
                                wire,
                                &[(
                                    "server.wall",
                                    Duration::from_micros(response.summary.wall_us),
                                )],
                            );
                        }
                    }
                    (Stack::Single(node), 1) => {
                        let (reply, call) =
                            trace.timed("engine.execute_statement", stmt_id, root, || {
                                node.engine().execute_statement(&statement.sql)
                            });
                        match reply {
                            Ok(Response::Single(r)) => trace.derive_children(
                                call,
                                &[
                                    ("service.queue", r.queue_wait),
                                    ("service.exec", r.exec_time),
                                ],
                            ),
                            Ok(_) => return Err("engine answered a query with a non-query".into()),
                            Err(e) => return Err(format!("engine: {e}: {}", statement.sql)),
                        }
                    }
                    (Stack::Single(node), _) => {
                        trace.timed("plan.plan", stmt_id, root, || {
                            node.session().plan_query(&query)
                        });
                        let (output, call) = trace.timed("session.execute", stmt_id, root, || {
                            node.session().execute(&query)
                        });
                        let output =
                            output.map_err(|e| format!("session: {e}: {}", statement.sql))?;
                        let s = &output.stats;
                        trace.derive_children(
                            call,
                            &[
                                ("query.resolve", s.resolve_wall),
                                ("query.filter", s.filter_wall),
                                ("query.verify", s.verify_wall),
                            ],
                        );
                        sums.add(s, output.rows.len() as u64, 1);
                    }
                    (Stack::Cluster(cluster), _) => {
                        let (reply, _) = trace.timed("cluster.execute_sql", stmt_id, root, || {
                            cluster.coordinator().execute_sql(&statement.sql)
                        });
                        match reply {
                            Ok(ClusterReply::Rows(output)) => {
                                sums.add(&output.stats, output.rows.len() as u64, 1)
                            }
                            Ok(_) => {
                                return Err("coordinator answered a query with a non-query".into())
                            }
                            Err(e) => return Err(format!("coordinator: {e}: {}", statement.sql)),
                        }
                    }
                }
            }
            traced_statements += 1;
            let (pong, _) = trace.timed("client.ping", stmt_id, root, || client.ping());
            pong.map_err(|e| format!("ping: {e}"))?;
            trace.close(stmt, Instant::now());
        }
        lap += 1;
    }
    client.quit().map_err(|e| format!("quit: {e}"))?;
    Ok((stats, trace, sums))
}

/// Result of one measured phase.
struct Phase {
    clients: ClientStats,
    origin: Instant,
    wall_s: f64,
    trace: Option<Trace>,
    sums: LayerSums,
}

impl Phase {
    fn qps(&self) -> f64 {
        self.clients.attempted() as f64 / self.wall_s
    }
}

/// Runs [`CLIENTS`] closed-loop clients against the stack for `seconds`.
fn read_phase(
    stack: &Stack,
    pool: &[Statement],
    expected: Option<&[OnceLock<u64>]>,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let stop = move || Instant::now() >= deadline;
    let mut phase = Phase {
        clients: ClientStats::default(),
        origin,
        wall_s: 0.0,
        trace: traced.then(|| Trace::new(origin)),
        sums: LayerSums::default(),
    };
    std::thread::scope(|scope| -> Result<(), String> {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let order = statements::client_order(seed, c, pool.len());
                let stop = &stop;
                scope.spawn(move || {
                    if traced {
                        traced_client(stack, c, pool, &order, expected, origin, stop)
                    } else {
                        untraced_client(stack.addr(), pool, &order, expected, origin, stop)
                    }
                })
            })
            .collect();
        for worker in workers {
            let (stats, trace, sums) = worker.join().map_err(|_| "client thread panicked")??;
            phase.clients.merge(stats);
            if let Some(all) = &mut phase.trace {
                all.absorb(trace);
            }
            phase.sums.merge(sums);
        }
        Ok(())
    })?;
    phase.wall_s = origin.elapsed().as_secs_f64();
    Ok(phase)
}

// ---------------------------------------------------------------------------
// The ingest writer
// ---------------------------------------------------------------------------

/// The `ingest_mixed` writer: insert batches, single-mask updates of base
/// masks and delete batches of its own oldest inserts, through
/// `Engine::execute_mutation`.
struct Writer {
    spec: DatasetSpec,
    /// Generated pixels the writer cycles through (ids are always fresh).
    pool: Vec<masksearch_core::Mask>,
    next_image: u64,
    next_pool: usize,
    /// Ids it inserted and has not deleted yet, oldest first.
    live: VecDeque<MaskId>,
    cycles: usize,
    inserted_batches: usize,
    commit_ms: Vec<f64>,
    inserted: u64,
    updated: u64,
    failed: u64,
    attempted: u64,
}

impl Writer {
    fn new(spec: DatasetSpec, threads: usize) -> Self {
        let donors = spec.records_from(spec.images, WRITER_POOL / dataset::MODELS);
        let pool = spec
            .masks_of(&donors, threads)
            .into_iter()
            .map(|(_, mask)| mask)
            .collect();
        Self {
            spec,
            pool,
            next_image: spec.images,
            next_pool: 0,
            live: VecDeque::new(),
            cycles: 0,
            inserted_batches: 0,
            commit_ms: Vec::new(),
            inserted: 0,
            updated: 0,
            failed: 0,
            attempted: 0,
        }
    }

    fn next_mask(&mut self) -> masksearch_core::Mask {
        self.next_pool = (self.next_pool + 1) % self.pool.len();
        self.pool[self.next_pool].clone()
    }

    /// A batch of [`WRITER_BATCH`] fresh records with pooled pixels.
    fn next_batch(&mut self) -> Vec<(MaskRecord, masksearch_core::Mask)> {
        let images = WRITER_BATCH as u64 / dataset::MODELS;
        let records = self.spec.records_from(self.next_image, images);
        self.next_image += images;
        records
            .into_iter()
            .map(|mut record| {
                record.model_id = ModelId::new(WRITER_MODEL);
                let mask = self.next_mask();
                (record, mask)
            })
            .collect()
    }

    /// Insert batches the writer commits whatever the window's length.
    fn min_insert_batches(&self) -> usize {
        let threshold = masksearch_db::DbConfig::default().checkpoint_wal_bytes;
        let batch_bytes = WRITER_BATCH as u64 * self.spec.mask_bytes();
        (WRITER_MIN_CHECKPOINT_MULTIPLE * threshold).div_ceil(batch_bytes) as usize
    }

    /// Applies one mutation, timing it; `trace` wraps it in a span with the
    /// response's queue and execution times as derived children.
    fn apply(&mut self, node: &Node, mutation: Mutation, trace: &mut Option<Trace>) -> Option<f64> {
        self.attempted += 1;
        let start = Instant::now();
        let reply = node.engine().execute_mutation(mutation);
        let end = Instant::now();
        let seconds = end.duration_since(start).as_secs_f64();
        match reply {
            Ok(response) => {
                if let Some(trace) = trace {
                    let call =
                        trace.record("engine.execute_mutation", self.attempted, None, start, end);
                    trace.derive_children(
                        call,
                        &[
                            ("service.queue", response.queue_wait),
                            ("service.exec", response.exec_time),
                        ],
                    );
                }
                self.inserted += response.outcome.inserted as u64;
                self.updated += response.outcome.updated as u64;
                Some(seconds)
            }
            Err(e) => {
                eprintln!("mutation failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// Runs whole cycles until `stop` (and the minimum is met).
    fn run(&mut self, node: &Node, stop: &dyn Fn() -> bool, trace: &mut Option<Trace>) {
        let minimum = self.min_insert_batches();
        let done = |w: &Writer| stop() && w.inserted_batches >= minimum;
        while !done(self) {
            for _ in 0..WRITER_INSERTS_PER_CYCLE {
                let batch = self.next_batch();
                let ids: Vec<MaskId> = batch.iter().map(|(r, _)| r.mask_id).collect();
                if let Some(s) = self.apply(node, Mutation::Insert(batch), trace) {
                    self.commit_ms.push(s * 1e3);
                    self.live.extend(ids);
                }
                self.inserted_batches += 1;
            }
            for u in 0..WRITER_UPDATES_PER_CYCLE {
                let index = (self.cycles * WRITER_UPDATES_PER_CYCLE + u) as u64;
                let target = dataset::mix(self.spec.seed ^ 0x0075_7064, index) % self.spec.masks();
                let mask = self.next_mask();
                let update = MaskUpdate {
                    pixels: Some(mask.into_data()),
                    shape: Some((self.spec.side, self.spec.side)),
                    ..MaskUpdate::of(MaskId::new(target))
                };
                self.apply(node, Mutation::Update(vec![update]), trace);
            }
            self.cycles += 1;
            if self.cycles > WRITER_LEAD_CYCLES {
                for _ in 0..WRITER_INSERTS_PER_CYCLE {
                    let ids: Vec<MaskId> = self
                        .live
                        .drain(..WRITER_BATCH.min(self.live.len()))
                        .collect();
                    self.apply(node, Mutation::Delete(ids), trace);
                }
            }
        }
    }
}

/// Writer and reader side by side for `seconds`; the reader stops when the
/// writer does.
fn mixed_phase(
    node_stack: &Stack,
    writer: &mut Writer,
    pool: &[Statement],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let Stack::Single(node) = node_stack else {
        return Err("ingest_mixed runs on a single node".to_string());
    };
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let writer_done = AtomicBool::new(false);
    let order = statements::client_order(seed, 0, pool.len());
    let mut writer_trace = traced.then(|| Trace::new(origin));
    let mut phase = Phase {
        clients: ClientStats::default(),
        origin,
        wall_s: 0.0,
        trace: None,
        sums: LayerSums::default(),
    };
    std::thread::scope(|scope| -> Result<(), String> {
        let reader = scope.spawn(|| {
            // Release/Acquire: the flag publishes nothing but itself.
            let stop = || writer_done.load(Ordering::Acquire);
            if traced {
                traced_client(node_stack, 0, pool, &order, None, origin, &stop)
            } else {
                untraced_client(node.addr(), pool, &order, None, origin, &stop)
            }
        });
        writer.run(node, &|| Instant::now() >= deadline, &mut writer_trace);
        writer_done.store(true, Ordering::Release);
        let (stats, trace, sums) = reader.join().map_err(|_| "reader thread panicked")??;
        phase.clients = stats;
        phase.sums = sums;
        if let Some(mut all) = writer_trace.take() {
            all.absorb(trace);
            phase.trace = Some(all);
        }
        Ok(())
    })?;
    phase.wall_s = origin.elapsed().as_secs_f64();
    Ok(phase)
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Snapshot of every count the per-layer metrics difference.
struct Counts {
    obs: Vec<(&'static str, u64)>,
    cache: (u64, u64, u64),
    rejected: u64,
    wal_bytes: u64,
    cluster: ClusterMetricsSnapshot,
}

impl Counts {
    fn take(stack: &Stack) -> Self {
        Self {
            obs: masksearch_obs::counters::snapshot(),
            cache: stack.cache_totals(),
            rejected: stack.rejected(),
            wal_bytes: stack
                .nodes()
                .iter()
                .map(|n| n.db().ingest_stats().wal_bytes)
                .sum(),
            cluster: stack.cluster_metrics(),
        }
    }

    fn obs(&self, name: &str) -> u64 {
        micro::counter(&self.obs, name)
    }

    /// `later - self` of one obs counter.
    fn obs_delta(&self, later: &Counts, name: &str) -> f64 {
        later.obs(name).saturating_sub(self.obs(name)) as f64
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The statements the oracle checks: the first of every kind in turn until
/// at least [`ORACLE_STATEMENTS`] are chosen.
fn oracle_choice(pool: &[Statement]) -> Vec<usize> {
    let mut kinds: Vec<Kind> = pool.iter().map(|s| s.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut chosen = Vec::new();
    let mut round = 0;
    while chosen.len() < ORACLE_STATEMENTS.min(pool.len()) {
        let before = chosen.len();
        for kind in &kinds {
            if let Some((i, _)) = pool
                .iter()
                .enumerate()
                .filter(|(_, s)| s.kind == *kind)
                .nth(round)
            {
                chosen.push(i);
            }
        }
        if chosen.len() == before {
            break;
        }
        round += 1;
    }
    chosen
}

/// Checks the chosen statements through a client against `BruteForce`.
/// Returns `(attempted, failed)`.
fn check_oracle(stack: &Stack, pool: &[Statement], chosen: &[usize]) -> Result<(u64, u64), String> {
    let queries: Vec<Query> = chosen
        .iter()
        .map(|&i| {
            masksearch_sql::compile(&pool[i].sql).map_err(|e| format!("{}: {e}", pool[i].sql))
        })
        .collect::<Result<_, _>>()?;
    let (sources, catalog) = stack.oracle_inputs();
    let expected = oracle::brute_force(&sources, &catalog, &queries)?;
    let mut client = connect(stack.addr())?;
    let mut failed = 0;
    for (&i, want) in chosen.iter().zip(&expected) {
        match client.query(&pool[i].sql) {
            Ok(response) => {
                if let Some(difference) = oracle::first_difference(&response.rows, want) {
                    eprintln!("ORACLE MISMATCH {}: {difference}", pool[i].sql);
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("oracle statement failed: {e}: {}", pool[i].sql);
                failed += 1;
            }
        }
    }
    client.quit().map_err(|e| format!("quit: {e}"))?;
    Ok((chosen.len() as u64, failed))
}

/// One unmeasured lap over the pool: settles lazy set-up and planner
/// feedback on a warmed cache, and records every statement's first answer.
fn warm_lap(
    addr: SocketAddr,
    pool: &[Statement],
    first_seen: &[OnceLock<u64>],
) -> Result<(), String> {
    let mut client = connect(addr)?;
    for (statement, slot) in pool.iter().zip(first_seen) {
        let response = client
            .query(&statement.sql)
            .map_err(|e| format!("warm-up {}: {e}", statement.sql))?;
        slot.get_or_init(|| oracle::digest_rows(&response.rows));
    }
    client.quit().map_err(|e| format!("quit: {e}"))
}

/// Loads every mask through the session's cache, on `threads` threads.
fn load_everything(node: &Node, threads: usize) -> Result<(), String> {
    let ids = node.session().catalog().mask_ids();
    let chunk = ids.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .try_for_each(|id| node.session().load_mask(*id).map(drop))
                })
            })
            .collect();
        workers.into_iter().try_for_each(|w| {
            w.join()
                .map_err(|_| "warm-up thread panicked".to_string())?
                .map_err(|e| format!("warm-up load: {e}"))
        })
    })
}

/// Input-side regime guards: properties of the generated inputs and the
/// chosen configuration that a later program change cannot trip.
fn check_guards(
    cfg: &RunConfig,
    spec: &DatasetSpec,
    pool: &[Statement],
    records: &[MaskRecord],
    cache_bytes: u64,
    pixel_bytes: u64,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let cache_share = cache_bytes as f64 / pixel_bytes as f64;
    notes.push(format!("guard cache_bytes/pixel_bytes = {cache_share:.4}"));
    match cfg.workload {
        WorkloadKind::ScanCold => {
            if (cache_share - COLD_CACHE_SHARE).abs() > 1e-3 {
                return Err(format!("cold cache share is {cache_share}"));
            }
            let shares: Vec<f64> = pool.iter().filter_map(|s| s.selectivity).collect();
            let mean = stats::mean(&shares);
            notes.push(format!(
                "guard scan_cold oracle selectivity = {mean:.4} over {} filters",
                shares.len()
            ));
            if !(0.01..=0.10).contains(&mean) {
                return Err(format!("scan_cold selectivity {mean} is outside 1–10%"));
            }
        }
        _ if cache_share < 1.0 => {
            return Err(format!("hot cache share is {cache_share}"));
        }
        WorkloadKind::PointMeta => {
            let catalog: Catalog = records.iter().cloned().fold(Catalog::new(), |mut c, r| {
                c.insert(r);
                c
            });
            let mut candidates = Vec::new();
            for statement in pool {
                let query = masksearch_sql::compile(&statement.sql).map_err(|e| e.to_string())?;
                let n = catalog
                    .records()
                    .filter(|r| query.selection.matches(r))
                    .count();
                candidates.push(n as f64);
            }
            let share = stats::mean(&candidates) / spec.masks() as f64;
            notes.push(format!("guard point_meta candidates/catalog = {share:.5}"));
            if share > 0.01 {
                return Err(format!("point_meta targets {share} of the catalog"));
            }
        }
        _ => {}
    }
    Ok(())
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    setup::sweep_stale_scratch(&cfg.out_dir);
    setup::check_free_disk(&cfg.out_dir)?;
    let scratch = ScratchDir::create(&cfg.out_dir, &format!("tmp-{}", std::process::id()))
        .map_err(|e| format!("create scratch directory: {e}"))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = cfg.scale;
    let spec = DatasetSpec {
        images: scale.images,
        side: scale.side,
        seed: cfg.seed,
    };
    let mut notes = vec![format!(
        "workload {} seed {} seconds {} trace {} host_cores {threads}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace
    )];
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut attribution_holds = true;

    // --- set-up: build the database(s), several times -----------------------
    let obs_start = masksearch_obs::counters::snapshot();
    let parts = partition(cfg.workload, &spec)?;
    let records: Vec<MaskRecord> = parts.iter().flatten().cloned().collect();
    let mut calibration = Calibration::new(cfg.seed, spec.side);
    let (kept, built) = build_all(
        scratch.path(),
        &spec,
        &parts,
        scale.setup_reps,
        threads,
        &mut calibration,
    )?;
    let pixel_bytes = built.masks * spec.mask_bytes();
    let setup_wal_bytes: u64 = kept.iter().map(|(_, db)| db.ingest_stats().wal_bytes).sum();
    let obs_built = masksearch_obs::counters::snapshot();
    let obs_between = |name: &str| {
        micro::counter(&obs_built, name).saturating_sub(micro::counter(&obs_start, name)) as f64
    };

    // --- the statement pool ---------------------------------------------------
    let mut generator = Generator::new(
        cfg.seed,
        &calibration,
        spec.side,
        built.masks,
        dataset::CLASSES,
    );
    let pool = match cfg.workload {
        // Cold statements name a model, as the paper's Example 1 does: half
        // the candidates, so a window holds enough statements for a p95.
        WorkloadKind::ScanCold => generator
            .every_statement_names_a_model()
            .scan_mix(scale.scan_blocks, false),
        WorkloadKind::FilterHot => generator.scan_mix(scale.scan_blocks, true),
        // The reader reads the dataset's two models; the writer writes under
        // a third (see `WRITER_MODEL`). No INTERSECT statements: every write
        // drops the aggregated-mask index they rely on, and rebuilding it
        // would be nine tenths of the reader's time.
        WorkloadKind::IngestMixed => generator
            .every_statement_names_a_model()
            .scan_mix(scale.scan_blocks, false),
        WorkloadKind::PointMeta => generator.point_mix(scale.point_statements),
        WorkloadKind::ClusterFanout => generator.fanout_mix(scale.fanout_per_kind),
    };
    let cache_bytes = match cfg.workload {
        WorkloadKind::ScanCold => (pixel_bytes as f64 * COLD_CACHE_SHARE) as u64,
        _ => pixel_bytes * HOT_CACHE_MULTIPLE,
    };
    check_guards(
        cfg,
        &spec,
        &pool,
        &records,
        cache_bytes,
        pixel_bytes,
        &mut notes,
    )?;

    // --- the workload's own open and warm-up ---------------------------------
    let warm_start = Instant::now();
    let (dirs, dbs): (Vec<PathBuf>, Vec<MaskDb>) = kept.into_iter().unzip();
    let stack = Stack::serve(dbs, spec.side, cache_bytes)?;
    if cfg.workload != WorkloadKind::ScanCold {
        for node in stack.nodes() {
            load_everything(node, threads)?;
        }
    }
    if cfg.workload == WorkloadKind::PointMeta {
        let mut client = connect(stack.addr())?;
        client
            .query("CREATE INDEX by_label ON masks (predicted_label)")
            .map_err(|e| format!("CREATE INDEX: {e}"))?;
        client.quit().map_err(|e| format!("quit: {e}"))?;
    }
    for statement in pool.iter().filter(|s| s.kind == Kind::Intersect) {
        // Build the aggregated-mask index of the INTERSECT shape ahead of
        // time (paper §3.4), from the statement's own lowered form.
        let query = masksearch_sql::compile(&statement.sql).map_err(|e| e.to_string())?;
        if let QueryKind::MaskAggregate { agg, .. } = &query.kind {
            for node in stack.nodes() {
                node.session()
                    .build_aggregate_index(agg, &query.selection)
                    .map_err(|e| format!("aggregate index: {e}"))?;
            }
        }
    }
    let first_seen: Vec<OnceLock<u64>> = pool.iter().map(|_| OnceLock::new()).collect();
    if cfg.workload != WorkloadKind::ScanCold {
        // The cold workload starts cold: its users pay the first lap.
        warm_lap(stack.addr(), &pool, &first_seen)?;
    }
    let warm_s = warm_start.elapsed().as_secs_f64();
    let expected = (cfg.workload != WorkloadKind::IngestMixed).then_some(first_seen.as_slice());

    // --- the oracle, before the window on read-only data ---------------------
    let chosen = oracle_choice(&pool);
    if cfg.workload != WorkloadKind::IngestMixed {
        let (a, f) = check_oracle(&stack, &pool, &chosen)?;
        attempted += a;
        failed += f;
    }

    // --- the measured window ----------------------------------------------------
    let mut writer =
        (cfg.workload == WorkloadKind::IngestMixed).then(|| Writer::new(spec, threads));
    let mut window = |seconds: f64, traced: bool| -> Result<Phase, String> {
        match &mut writer {
            Some(writer) => mixed_phase(&stack, writer, &pool, cfg.seed, seconds, traced),
            None => read_phase(&stack, &pool, expected, cfg.seed, seconds, traced),
        }
    };
    let before = Counts::take(&stack);
    let (baseline, between, traced) = if cfg.trace {
        let baseline = window(cfg.seconds * BASELINE_SHARE, false)?;
        let between = Counts::take(&stack);
        let traced = window(cfg.seconds * (1.0 - BASELINE_SHARE), true)?;
        (baseline, between, Some(traced))
    } else {
        let baseline = window(cfg.seconds, false)?;
        let between = Counts::take(&stack);
        (baseline, between, None)
    };
    let after = Counts::take(&stack);
    attempted += baseline.clients.attempted();
    failed += baseline.clients.failed;
    if let Some(traced) = &traced {
        attempted += traced.clients.attempted();
        failed += traced.clients.failed;
    }
    if let Some(writer) = &writer {
        attempted += writer.attempted;
        failed += writer.failed;
    }

    // --- the oracle, after the window on written data ------------------------
    if cfg.workload == WorkloadKind::IngestMixed {
        let (a, f) = check_oracle(&stack, &pool, &chosen)?;
        attempted += a;
        failed += f;
    }

    // --- program-side regime values: printed, never asserted -----------------
    let hits = (after.cache.0 - before.cache.0) as f64;
    let misses = (after.cache.1 - before.cache.1) as f64;
    notes.push(format!(
        "regime cache_hit_ratio = {:.4}, fml = {:.4}, checkpoints in window = {}",
        ratio(hits, hits + misses),
        ratio(
            baseline.clients.loaded as f64,
            baseline.clients.candidates as f64
        ),
        before.obs_delta(&after, "db_checkpoints"),
    ));
    let by_kind: Vec<String> = baseline
        .clients
        .by_kind()
        .into_iter()
        .map(|(kind, count, p50)| format!("{kind:?} {count} x p50 {p50:.3} ms"))
        .collect();
    notes.push(format!("latency by kind: {}", by_kind.join("; ")));
    let per_second: Vec<usize> = baseline
        .clients
        .per_second(baseline.origin)
        .iter()
        .map(Vec::len)
        .collect();
    notes.push(format!("statements answered per second: {per_second:?}"));
    let samples = baseline.clients.samples.len();
    let query_p95_ms = baseline.clients.p95_ms(baseline.origin);
    notes.push(format!(
        "samples: {samples} query latencies (highest quotable percentile p{}; p95 {query_p95_ms:.4} ms), \
         {} set-up commits",
        stats::highest_supported_percentile(samples),
        built.commit_ms.len(),
    ));

    // --- micro timings need the store; take them before closing ---------------
    if cfg.trace {
        let node = &stack.nodes()[0];
        micro::measure(
            node.db().store().as_ref(),
            &node.session().catalog().mask_ids(),
            &setup::chi_config(spec.side),
            cfg.seed,
            &mut metrics,
        )?;
    }

    // --- close, size, reopen ------------------------------------------------------
    let live_masks: u64 = stack
        .nodes()
        .iter()
        .map(|n| n.session().catalog_len() as u64)
        .sum();
    let mut dbs = stack.close()?;
    let mut bytes = DirBytes::default();
    for (db, dir) in dbs.iter().zip(&dirs) {
        db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        bytes = bytes + setup::dir_bytes(dir).map_err(|e| format!("size {dir:?}: {e}"))?;
    }
    let mut open_ms = Vec::new();
    for _ in 0..REOPENS {
        if let Some(writer) = &mut writer {
            for _ in 0..REOPEN_WAL_BATCHES {
                let batch = writer.next_batch();
                dbs[0]
                    .insert_masks(&batch)
                    .map_err(|e| format!("reopen tail: {e}"))?;
            }
        }
        drop(dbs);
        let mut nodes = Vec::new();
        let mut open_s = 0.0;
        for dir in &dirs {
            let (node, s) = Node::open(dir, spec.side, cache_bytes)?;
            open_s += s;
            nodes.push(node);
        }
        open_ms.push(open_s * 1e3);
        dbs = nodes
            .into_iter()
            .map(Node::close)
            .collect::<Result<_, _>>()?;
    }
    let reopened: u64 = dbs.iter().map(|db| db.catalog().len() as u64).sum();
    let expected_masks = live_masks
        + writer
            .as_ref()
            .map_or(0, |_| (REOPENS * REOPEN_WAL_BATCHES * WRITER_BATCH) as u64);
    attempted += 1;
    if reopened != expected_masks {
        eprintln!("reopen found {reopened} masks, expected {expected_masks}");
        failed += 1;
    }
    drop(dbs);

    // --- metrics ---------------------------------------------------------------
    // Commits: the writer's insert batches on `ingest_mixed`, the set-up
    // builds' elsewhere.
    let (commit_ms, ingest_rate) = match &writer {
        Some(w) => (
            w.commit_ms.as_slice(),
            w.inserted as f64 / (baseline.wall_s + traced.as_ref().map_or(0.0, |t| t.wall_s)),
        ),
        None => (built.commit_ms.as_slice(), built.ingest_masks_per_s),
    };
    if !cfg.trace {
        metrics.set("setup_s", stats::median(&built.rep_s) + warm_s);
        metrics.set(
            "query_p50_ms",
            stats::percentile(&baseline.clients.latencies_ms(), 50.0),
        );
        metrics.set("qps", baseline.qps());
        metrics.set("commit_p50_ms", stats::percentile(commit_ms, 50.0));
        metrics.set("ingest_masks_per_s", ingest_rate);
        metrics.set("peak_rss_mb", setup::peak_rss_mb());
        metrics.set(
            "disk_bytes_per_mask_byte",
            bytes.total as f64 / (live_masks * spec.mask_bytes()) as f64,
        );
        metrics.set("index_bytes_ratio", bytes.index as f64 / bytes.pages as f64);
        notes.push(format!(
            "set-up builds: {:?} s, warm-up {warm_s:.3} s",
            built.rep_s
        ));
    } else {
        let traced = traced.expect("traced phase ran");
        let trace = traced.trace.as_ref().expect("traced phase recorded spans");
        let totals = trace.totals();
        let span = |name: &str| totals.get(name).copied().unwrap_or_default();
        let statements = baseline.clients.attempted() as f64;
        let sums = &traced.sums;
        let s = &sums.stats;
        let n = sums.statements as f64;

        metrics.set("sql.parse_us", span("sql.parse").mean_us());
        metrics.set("sql.lower_us", span("sql.lower").mean_us());
        metrics.set("plan.plan_us", span("plan.plan").mean_us());
        metrics.set(
            "plan.kernel_on_ratio",
            ratio(
                s.planner_kernel_on as f64,
                (s.planner_kernel_on + s.planner_kernel_off) as f64,
            ),
        );
        metrics.set(
            "plan.index_on_ratio",
            ratio(
                s.planner_index_on as f64,
                (s.planner_index_on + s.planner_index_off) as f64,
            ),
        );
        metrics.set("query.resolve_us", span("query.resolve").mean_us());
        metrics.set("query.filter_ms", span("query.filter").mean_us() / 1e3);
        metrics.set("query.verify_ms", span("query.verify").mean_us() / 1e3);
        metrics.set(
            "query.other_ms",
            span("session.execute").mean_self_us() / 1e3,
        );
        metrics.set("query.exec_ms", span("session.execute").mean_us() / 1e3);
        metrics.set("query.candidates_per_stmt", ratio(s.candidates as f64, n));
        metrics.set("query.rows_per_stmt", ratio(sums.rows as f64, n));
        // FML and the decided share come from the wire summaries of the
        // untraced part, so the cluster workload reports them too.
        let c = &baseline.clients;
        metrics.set("index.fml", ratio(c.loaded as f64, c.candidates as f64));
        metrics.set(
            "index.decided_ratio",
            ratio(
                (c.candidates - c.verified.min(c.candidates)) as f64,
                c.candidates as f64,
            ),
        );
        metrics.set(
            "index.bounds_ns_per_candidate",
            ratio(s.filter_wall.as_nanos() as f64, s.candidates as f64),
        );
        let tiles = (s.tiles_pruned + s.tiles_hist + s.tiles_scanned) as f64;
        metrics.set(
            "index.tiles_decided_ratio",
            ratio((s.tiles_pruned + s.tiles_hist) as f64, tiles),
        );
        let base_hits = (between.cache.0 - before.cache.0) as f64;
        let base_misses = (between.cache.1 - before.cache.1) as f64;
        metrics.set(
            "storage.cache_hit_ratio",
            ratio(base_hits, base_hits + base_misses),
        );
        metrics.set(
            "storage.cache_evictions",
            ratio((between.cache.2 - before.cache.2) as f64, statements),
        );
        metrics.set(
            "storage.cache_lock_wait_us",
            ratio(before.obs_delta(&between, "cache_lock_wait_us"), statements),
        );
        metrics.set(
            "storage.catalog_lock_wait_us",
            ratio(
                before.obs_delta(&between, "catalog_read_wait_us")
                    + before.obs_delta(&between, "catalog_write_wait_us"),
                statements,
            ),
        );
        metrics.set(
            "storage.index_probes_per_stmt",
            ratio(s.index_probes as f64, n),
        );
        metrics.set("db.bytes_read_per_stmt", ratio(s.bytes_read as f64, n));
        let load_us = metrics.get("db.load_us_per_mask").unwrap_or(0.0);
        metrics.set(
            "query.verify_load_est_ms",
            ratio(s.masks_loaded as f64, n) * load_us / 1e3,
        );
        metrics.set("db.insert_us_per_mask_first", built.insert_us_first);
        metrics.set("db.insert_us_per_mask_last", built.insert_us_last);
        // Write-path counters: the window's on `ingest_mixed`, set-up's (all
        // repetitions) everywhere else, where the window writes nothing.
        let reps = scale.setup_reps.max(1) as f64;
        let written = |name: &str| match &writer {
            Some(_) => before.obs_delta(&after, name),
            None => obs_between(name),
        };
        let (masks_written, wal_bytes, builds) = match &writer {
            Some(w) => (
                (w.inserted + w.updated) as f64,
                (after.wal_bytes - before.wal_bytes) as f64,
                1.0,
            ),
            None => (
                built.masks as f64 * reps,
                setup_wal_bytes as f64 * reps,
                reps,
            ),
        };
        metrics.set(
            "db.commit_us",
            ratio(written("wal_commit_us"), written("wal_commits")),
        );
        metrics.set(
            "db.wal_bytes_per_mask_byte",
            ratio(wal_bytes, masks_written * spec.mask_bytes() as f64),
        );
        metrics.set(
            "db.pager_writes_per_mask",
            ratio(written("pager_writes"), masks_written),
        );
        metrics.set("db.checkpoints", written("db_checkpoints") / builds);
        metrics.set(
            "db.checkpoint_ms",
            ratio(written("db_checkpoint_us"), written("db_checkpoints")) / 1e3,
        );
        metrics.set("db.commit_p95_ms", stats::percentile(commit_ms, 95.0));
        metrics.set("db.open_ms", stats::median(&open_ms));
        metrics.set(
            "core.kernel_calls_per_stmt",
            ratio(before.obs_delta(&between, "kernel_calls"), statements),
        );
        metrics.set("service.query_p95_ms", query_p95_ms);
        metrics.set("service.queue_wait_us", span("service.queue").mean_us());
        metrics.set("service.exec_ms", span("service.exec").mean_us() / 1e3);
        metrics.set(
            "service.engine_overhead_us",
            span("engine.execute_statement").mean_self_us(),
        );
        metrics.set(
            "service.wire_overhead_us",
            span("client.query").mean_self_us(),
        );
        metrics.set(
            "service.rejected",
            (after.rejected - before.rejected) as f64,
        );

        // Two independently timed parts should add up to a statement over the
        // wire: the same statement through the in-process entry point (engine,
        // or coordinator on a cluster — itself split by the spans above) and a
        // PING round trip for the wire's fixed cost.
        let client_us = span("client.query").mean_us();
        let execution_us = match cfg.workload {
            WorkloadKind::ClusterFanout => span("cluster.execute_sql").mean_us(),
            _ => span("engine.execute_statement").mean_us(),
        };
        let unattributed = 1.0 - ratio(execution_us + span("client.ping").mean_us(), client_us);
        metrics.set("service.unattributed_ratio", unattributed);
        if unattributed > MAX_UNATTRIBUTED {
            eprintln!("service.unattributed_ratio {unattributed:.3} exceeds {MAX_UNATTRIBUTED}");
            attribution_holds = false;
        }

        let cluster = (&before.cluster, &between.cluster);
        let queries = (cluster.1.queries - cluster.0.queries) as f64;
        let scatter_ms = before.obs_delta(&between, "scatter_wait_us") / SHARDS as f64 / 1e3;
        metrics.set(
            "cluster.shard_requests_per_stmt",
            ratio(
                (cluster.1.shard_requests - cluster.0.shard_requests) as f64,
                queries,
            ),
        );
        metrics.set(
            "cluster.scatter_wait_ms_per_stmt",
            ratio(scatter_ms, queries),
        );
        metrics.set(
            "cluster.topk_rounds_per_ranked",
            ratio(
                (cluster.1.topk_rounds - cluster.0.topk_rounds) as f64,
                (cluster.1.ranked_queries - cluster.0.ranked_queries) as f64,
            ),
        );
        metrics.set(
            "cluster.refined_requests",
            (after.cluster.topk_refined_requests - before.cluster.topk_refined_requests) as f64,
        );
        metrics.set(
            "cluster.coord_self_ms",
            if queries > 0.0 {
                stats::mean(&baseline.clients.latencies_ms()) - ratio(scatter_ms, queries)
            } else {
                0.0
            },
        );
        metrics.set(
            "cluster.failed",
            (after.cluster.failed - before.cluster.failed) as f64,
        );
        metrics.set("datagen.gen_us_per_mask", built.gen_us_per_mask);
        let traced_p50 = stats::percentile(&traced.clients.latencies_ms(), 50.0);
        let base_p50 = stats::percentile(&baseline.clients.latencies_ms(), 50.0);
        metrics.set(
            "obs.bench_trace_overhead_ratio",
            traced.clients.median_slowdown(&baseline.clients),
        );
        notes.push(format!(
            "mean us: client.query {client_us:.1} = in-process {execution_us:.1} + ping {:.1} + unattributed",
            span("client.ping").mean_us()
        ));
        notes.push(format!(
            "traced {} statements, untraced {} before them; p50 {traced_p50:.3} ms vs {base_p50:.3} ms",
            traced.clients.attempted(),
            baseline.clients.attempted()
        ));

        let path = cfg
            .out_dir
            .join(format!("trace-{}.jsonl", cfg.workload.name()));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            trace.spans().len(),
            path.display()
        ));
    }

    Ok(RunOutput {
        correct: failed == 0 && attribution_holds,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    })
}
