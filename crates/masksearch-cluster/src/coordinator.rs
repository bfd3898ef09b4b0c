//! The [`Coordinator`]: scatter-gather execution of the masksearch-sql
//! dialect over a set of shard servers, plus its TCP front end — the
//! service crate's one connection server, with the coordinator as its
//! [`Backend`] — so a cluster looks exactly like a bigger server to any
//! client.
//!
//! Statement routing follows [`masksearch_sql::Statement::routing`]:
//!
//! * `Broadcast` (filters, plain and `HAVING` aggregations) — forward the
//!   raw SQL to every shard in parallel and merge the disjoint row sets by
//!   key ([`masksearch_query::merge::merge_unordered`]).
//! * `Ranked` (`ORDER BY … LIMIT`) — the distributed threshold algorithm of
//!   [`crate::topk`] over `PARTIAL K=<n>` shard requests.
//! * `ByImage` (`INSERT`) — split the batch by the [`ShardMap`] owner of
//!   each tuple's image id and apply each sub-batch atomically on its shard;
//!   overwrites that move a mask to a different image first delete the stale
//!   copy from its old shard.
//! * `ByMaskId` (`DELETE`, `UPDATE`) — resolve each id's owning shard from
//!   the coordinator's **owner index** (below) and split; an id that exists
//!   nowhere fails the statement before any side effect, matching
//!   single-node semantics.
//! * `Ddl` (`CREATE INDEX` / `DROP INDEX`) — apply on every shard so index
//!   definitions cannot drift between shards.
//! * `Control` — a bare `BEGIN`/`COMMIT`/`ROLLBACK` is rejected; a whole
//!   `BEGIN; …; COMMIT` script is routed to the single shard owning every
//!   mask it touches and applied there as one atomic commit. A script whose
//!   statements span shards is rejected loudly before any side effect —
//!   there is no cross-shard transaction.
//!
//! ## The owner index
//!
//! The coordinator keeps an in-memory `mask id → owning shard` map, seeded
//! with a `LOOKUP *` scatter at connect time and maintained by every routed
//! write (inserts add, deletes remove; `UPDATE` cannot move a mask because
//! the sharding key is immutable). Write routing resolves owners from this
//! map, so steady-state `DELETE`/`UPDATE`/overwrite routing costs **zero
//! `LOOKUP` broadcasts** — a broadcast happens only for ids the map does not
//! know (counted by `lookup_broadcasts`), and its answer heals the map.
//! Writes that bypass the coordinator and land on a shard directly are
//! outside this model, exactly as they already were for `LOOKUP`-routed
//! deletes.
//!
//! ## Shard links: one pipelined connection each
//!
//! Each shard is reached through a single multiplexed
//! [`MuxClient`] connection (protocol v6, `@<id>`-tagged frames). A scatter
//! writes every shard's request before waiting on any response, so a
//! fan-out over N shards costs **one round trip**, not N — the fix for the
//! fan-out regression where per-shard synchronous round trips made a
//! 4-shard cluster slower per-coordinator-thread than one shard.
//!
//! ## One endpoint per shard
//!
//! A shard is one endpoint: there are no replicas and no failover. A
//! request that dies with a transport error is resent once by the link's
//! bounded reconnect (reads as they are, writes `TOKEN`-wrapped so the
//! resend applies exactly once); if the shard is still unreachable the
//! statement fails with an error naming the shard and its address.
//!
//! Consistency model: each shard applies its sub-batch atomically (and
//! durably, on a `masksearch-db` backed shard), but there is **no
//! cross-shard transaction** — a reader racing a multi-shard write can
//! observe a state where only some shards have applied it. Because a mask
//! lives on exactly one shard, per-mask reads are still never torn.

use crate::error::{ClusterError, ClusterResult};
use crate::shard::ShardMap;
use crate::topk;
use masksearch_core::{Mask, MaskId, MaskRecord};
use masksearch_obs::keys::{self as obs_keys, ClusterMetricsSnapshot, MetricsSnapshot};
use masksearch_obs::{counters as obs_counters, prom::PromText};
use masksearch_obs::{ProfileRing, QueryProfile, RecorderStatus};
use masksearch_query::merge::{self, RankedPartial};
use masksearch_query::{Mutation, MutationOutcome, Order, QueryOutput, QueryStats};
use masksearch_service::mux::MuxClient;
use masksearch_service::protocol::{ClientRequest, Frame, RecordControl, WireResponse};
use masksearch_service::{
    Admission, Backend, MutationResponse, PartialResponse, QueryResponse, Response, Server,
    ServerHandle, ServiceError,
};
use masksearch_sql::{Routing, Statement};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster topology and tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard addresses; index in this list is the shard id the
    /// [`ShardMap`] routes to.
    pub shard_addrs: Vec<String>,
    /// Hash seed of the shard map (must match what loaded the shards).
    pub shard_seed: u64,
    /// Whether coordinated statements are traced into the coordinator's
    /// profile ring (`STATS PROFILES`); on by default. Scatter spans cost
    /// two `Instant` reads per round, and recording a successful statement
    /// copies its flat trace records into a preallocated ring slot without
    /// allocating in steady state. Disabling restores the exact pre-tracing
    /// path.
    pub tracing: bool,
}

impl ClusterConfig {
    /// A configuration over the given shard addresses with defaults
    /// (seed 0, tracing on).
    pub fn new(shard_addrs: Vec<String>) -> Self {
        Self {
            shard_addrs,
            shard_seed: 0,
            tracing: true,
        }
    }

    /// Sets the shard-map hash seed.
    pub fn shard_seed(mut self, seed: u64) -> Self {
        self.shard_seed = seed;
        self
    }

    /// Enables or disables coordinator-side query tracing.
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }
}

/// What one coordinated statement produced.
#[derive(Debug)]
pub enum ClusterReply {
    /// Merged rows of a read statement (boxed: `QueryOutput` dwarfs the
    /// other variants).
    Rows(Box<QueryOutput>),
    /// Outcome of a routed write.
    Mutation(MutationOutcome),
    /// Rendered plan of an `EXPLAIN [ANALYZE]` statement: the coordinator's
    /// scatter root with each shard's plan as an indented sub-tree.
    Plan(Vec<String>),
}

/// Capacity of the coordinator's profile ring.
const PROFILE_RING_CAPACITY: usize = 128;

/// One shard: its address and one multiplexed connection to it.
struct Endpoint {
    addr: String,
    client: MuxClient,
}

struct Inner {
    links: Vec<Endpoint>,
    map: ShardMap,
    /// When the coordinator came up.
    started: Instant,
    /// One count per row of [`ClusterMetricsSnapshot::ROWS`].
    metrics: [AtomicU64; ClusterMetricsSnapshot::N],
    /// The owner index: which shard currently holds each mask id. Seeded
    /// from a `LOOKUP *` scatter at connect and maintained by every routed
    /// write, so steady-state write routing never broadcasts `LOOKUP`s.
    owners: std::sync::Mutex<HashMap<MaskId, usize>>,
    /// Client-facing mutation tokens: a resend of an already-routed write is
    /// answered from the recorded outcome instead of being re-routed (the
    /// per-shard sub-batches carry fresh tokens of their own, so only the
    /// coordinator can deduplicate the *whole* statement).
    dedup: masksearch_service::MutationDedup,
    /// Recent coordinated-query span trees, served by `STATS PROFILES`.
    profiles: ProfileRing,
    /// Windowed time series over coordinated statements (`METRICS WINDOW`).
    timeseries: masksearch_obs::TimeSeries,
    /// Whether coordinated statements open a trace (see
    /// [`ClusterConfig::tracing`]).
    tracing: bool,
}

/// A connected cluster coordinator. Cloning is cheap and shares the shard
/// links and metrics.
#[derive(Clone)]
pub struct Coordinator {
    inner: Arc<Inner>,
}

impl Coordinator {
    /// Connects one multiplexed link to every shard (verifying liveness and
    /// protocol version via the `PING` handshake) and returns a coordinator
    /// over them.
    pub fn connect(config: ClusterConfig) -> ClusterResult<Self> {
        if config.shard_addrs.is_empty() {
            return Err(ClusterError::Config(
                "a cluster needs at least one shard".to_string(),
            ));
        }
        let map = ShardMap::with_seed(config.shard_addrs.len(), config.shard_seed)?;
        let links = config
            .shard_addrs
            .iter()
            .enumerate()
            .map(|(shard, addr)| {
                let client = MuxClient::connect(addr).map_err(|source| ClusterError::Shard {
                    shard,
                    addr: addr.clone(),
                    source,
                })?;
                Ok(Endpoint {
                    addr: addr.clone(),
                    client: client.with_reconnect(true),
                })
            })
            .collect::<ClusterResult<Vec<_>>>()?;
        let coordinator = Self {
            inner: Arc::new(Inner {
                links,
                map,
                started: Instant::now(),
                metrics: [const { AtomicU64::new(0) }; ClusterMetricsSnapshot::N],
                owners: std::sync::Mutex::new(HashMap::new()),
                dedup: masksearch_service::MutationDedup::new(),
                profiles: ProfileRing::new(PROFILE_RING_CAPACITY),
                timeseries: masksearch_obs::TimeSeries::new(),
                tracing: config.tracing,
            }),
        };
        // Seed the owner index so routed writes start at zero LOOKUP
        // broadcasts even against shards loaded before this coordinator.
        let seeded = coordinator.fetch_all_owners()?;
        *coordinator.inner.owners.lock().expect("owner index lock") = seeded;
        Ok(coordinator)
    }

    /// One `LOOKUP *` scatter over the shards: the full
    /// `mask id → owning shard` map as the shards currently hold it.
    fn fetch_all_owners(&self) -> ClusterResult<HashMap<MaskId, usize>> {
        let wires = self.scatter_rows(self.all(&ClientRequest::LookupAll.line()))?;
        let mut owners = HashMap::new();
        for (shard, wire) in wires.into_iter().enumerate() {
            for id in wire.mask_ids() {
                owners.insert(id, shard);
            }
        }
        Ok(owners)
    }

    /// The partitioning function this cluster agreed on.
    pub fn shard_map(&self) -> ShardMap {
        self.inner.map
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.links.len()
    }

    /// Coordinator-level metrics.
    pub fn metrics(&self) -> ClusterMetricsSnapshot {
        let mut m = ClusterMetricsSnapshot::load(&self.inner.metrics);
        m.shards = self.shards() as u64;
        m.uptime_ms = self.inner.started.elapsed().as_millis() as u64;
        m.profiles_recorded = self.inner.profiles.recorded();
        m
    }

    /// Adds the counts `set` writes into a zero snapshot; the rows it
    /// leaves at zero do not move.
    fn count(&self, set: impl FnOnce(&mut ClusterMetricsSnapshot)) {
        ClusterMetricsSnapshot::add(&self.inner.metrics, set);
    }

    fn shard_err(&self, shard: usize, source: ServiceError) -> ClusterError {
        ClusterError::Shard {
            shard,
            addr: self.inner.links[shard].addr.clone(),
            source,
        }
    }

    /// The same request line addressed to every shard.
    fn all(&self, line: &str) -> Vec<(usize, String)> {
        (0..self.shards()).map(|s| (s, line.to_string())).collect()
    }

    /// Pipelined scatter: **phase 1** starts every request on its shard
    /// without waiting (the whole fan-out is in flight after one pass),
    /// **phase 2** gathers responses in request order. The whole scatter
    /// therefore costs one round trip to the slowest shard instead of one
    /// per shard. Mutations go out `TOKEN`-wrapped so the link's bounded
    /// reconnect can resend them exactly-once. `expect` checks each answer
    /// is the frame kind the request asks for ([`Frame::into_rows`] and its
    /// siblings); any failure fails the scatter with that shard's identity.
    fn scatter<T>(
        &self,
        requests: Vec<(usize, String)>,
        expect: impl Fn(Frame) -> Result<T, ServiceError>,
    ) -> ClusterResult<Vec<T>> {
        self.count(|m| m.shard_requests = requests.len() as u64);
        obs_counters::add(&obs_counters::SCATTER_REQUESTS, requests.len() as u64);
        // Inert unless a trace is open on this thread (both phases run on
        // the coordinating thread, so the span nests under the query).
        let _span = masksearch_obs::span("scatter");
        masksearch_obs::add_counter("shards", requests.len() as u64);
        let started = Instant::now();
        let inflight: Vec<_> = requests
            .into_iter()
            .map(|(shard, line)| (shard, self.inner.links[shard].client.begin_query(line)))
            .collect();
        let result = inflight
            .into_iter()
            .map(|(shard, pending)| {
                pending
                    .wait()
                    .and_then(&expect)
                    .map_err(|e| self.shard_err(shard, e))
            })
            .collect();
        obs_counters::add(
            &obs_counters::SCATTER_WAIT_US,
            started.elapsed().as_micros() as u64,
        );
        result
    }

    /// Scatter expecting an `OK` frame from every shard.
    fn scatter_rows(&self, requests: Vec<(usize, String)>) -> ClusterResult<Vec<WireResponse>> {
        self.scatter(requests, Frame::into_rows)
    }

    /// Compiles and executes one SQL statement against the cluster.
    ///
    /// `EXPLAIN [ANALYZE] <query>` is recognised here too and answered with
    /// [`ClusterReply::Plan`] — the coordinator's scatter root over each
    /// shard's own plan (see [`Coordinator::explain_sql`]).
    pub fn execute_sql(&self, sql: &str) -> ClusterResult<ClusterReply> {
        self.run(None, sql)
    }

    /// Executes one SQL statement carrying a client deduplication token
    /// (`TOKEN <id> <sql>`): reads pass straight through, and a mutation
    /// whose token already applied is answered from the recorded outcome
    /// without touching any shard — the coordinator-level half of
    /// exactly-once client resends.
    pub fn execute_sql_tokened(&self, token: u64, sql: &str) -> ClusterResult<ClusterReply> {
        self.run(Some(token), sql)
    }

    /// The one statement path: traces the statement (when tracing is on),
    /// routes it, and counts any failure — compilation included — as a
    /// failed statement.
    fn run(&self, token: Option<u64>, sql: &str) -> ClusterResult<ClusterReply> {
        let trace = self
            .inner
            .tracing
            .then(|| masksearch_obs::trace("cluster_query"));
        let started = Instant::now();
        let result = self.route(token, sql);
        if result.is_err() {
            self.count(|m| m.failed = 1);
        }
        self.observe_series(started.elapsed(), &result);
        self.observe(trace, sql, started, result.is_ok());
        result
    }

    fn route(&self, token: Option<u64>, sql: &str) -> ClusterResult<ClusterReply> {
        if let Some((mode, inner)) = masksearch_sql::strip_explain(sql) {
            // Explains never mutate, so a token is meaningless.
            let analyze = mode == masksearch_sql::ExplainMode::Analyze;
            return Ok(ClusterReply::Plan(self.explain_sql(analyze, inner)?));
        }
        // A transaction script mutates as one unit, so it dedups as one
        // unit too (mirroring the shard engine's script path).
        if let Some((mutations, commit)) =
            masksearch_sql::compile_transaction_script(sql).map_err(ClusterError::Sql)?
        {
            return self
                .deduped(token, || {
                    self.run_transaction_script(sql, mutations, commit)
                })
                .map(ClusterReply::Mutation);
        }
        match masksearch_sql::compile_statement(sql)? {
            Statement::Mutation(mutation) => self
                .deduped(token, || self.routed_write(sql, mutation))
                .map(ClusterReply::Mutation),
            Statement::Control(_) => Err(ClusterError::Sql(
                "BEGIN/COMMIT/ROLLBACK control a connection's open transaction; \
                 on a cluster send the whole transaction as one `BEGIN; ...; COMMIT` script"
                    .to_string(),
            )),
            query => {
                self.count(|m| m.queries = 1);
                let output = match query.routing() {
                    Routing::Ranked { k, order } => self.ranked_query(sql, k, order)?,
                    _ => self.broadcast_query(sql)?,
                };
                Ok(ClusterReply::Rows(Box::new(output)))
            }
        }
    }

    /// Applies a write at most once per client token: a resend whose
    /// original already applied is answered from the recorded outcome
    /// without touching any shard. Without a token the write just applies.
    fn deduped(
        &self,
        token: Option<u64>,
        apply: impl FnOnce() -> ClusterResult<MutationOutcome>,
    ) -> ClusterResult<MutationOutcome> {
        let Some(token) = token else {
            return apply();
        };
        match self.inner.dedup.begin(token) {
            Admission::Replay(outcome) => {
                self.count(|m| m.mutations_deduped = 1);
                Ok(outcome)
            }
            Admission::Execute => {
                // The permit abandons the token on error or unwind, so a
                // resend never parks behind a dead execution.
                let permit = self.inner.dedup.permit(token);
                let outcome = apply()?;
                permit.finish(outcome);
                Ok(outcome)
            }
        }
    }

    /// Feeds one coordinated statement into the windowed time series.
    fn observe_series(&self, wall: Duration, result: &ClusterResult<ClusterReply>) {
        let stages = match result {
            Ok(ClusterReply::Rows(output)) => masksearch_obs::StageCounts::from(&output.stats),
            _ => masksearch_obs::StageCounts::default(),
        };
        self.inner
            .timeseries
            .observe(wall.as_micros() as u64, result.is_ok(), stages);
    }

    /// Closes `trace` and, when the statement succeeded, records it in the
    /// profile ring. A failed statement's trace is discarded —
    /// its timings describe an aborted scatter, not a query.
    fn observe(
        &self,
        trace: Option<masksearch_obs::TraceGuard>,
        sql: &str,
        started: Instant,
        ok: bool,
    ) {
        let (Some(trace), true) = (trace, ok) else {
            return;
        };
        trace.finish(|records| {
            self.inner
                .profiles
                .record(sql.trim(), started.elapsed().as_micros() as u64, records)
        });
    }

    /// Renders the distributed plan of a query: a `cluster` root naming the
    /// scatter routing, then one `shard <i>` node per shard with the shard's
    /// own plan indented beneath it. With `analyze`, each shard *executes*
    /// the query and its sub-tree carries measured stage times and counters
    /// (the single-node `EXPLAIN ANALYZE` contract: counters equal the
    /// shard's `QueryStats` exactly), and the root records the scatter's
    /// wall time.
    ///
    /// Ranked queries are explained shard-locally as full queries; at
    /// execution time the coordinator instead issues bounded `PARTIAL`
    /// requests plus refinement rounds, which the root line names so the
    /// plan does not overstate what each shard returns.
    pub fn explain_sql(&self, analyze: bool, sql: &str) -> ClusterResult<Vec<String>> {
        let statement = masksearch_sql::compile_statement(sql)?;
        let routing = match statement.routing() {
            Routing::Broadcast => "broadcast".to_string(),
            Routing::Ranked { k, .. } => format!("ranked_partial k={k}"),
            Routing::ByImage | Routing::ByMaskId | Routing::Ddl => {
                return Err(ClusterError::Sql(
                    "EXPLAIN applies to queries, not writes".to_string(),
                ))
            }
            Routing::Control => {
                return Err(ClusterError::Sql(
                    "EXPLAIN applies to queries, not transaction control".to_string(),
                ))
            }
        };
        let started = Instant::now();
        let explain = masksearch_sql::explain_statement(analyze, sql);
        let plans = self.scatter(self.all(&explain), |frame| frame.into_lines("PLAN"))?;
        let mut lines = Vec::with_capacity(plans.iter().map(Vec::len).sum::<usize>() + 1);
        let mut root = format!("cluster shards={} routing={routing}", self.shards());
        if analyze {
            root.push_str(&format!(
                " {}={}",
                obs_keys::WALL_US,
                started.elapsed().as_micros()
            ));
        }
        lines.push(root);
        for (shard, plan) in plans.iter().enumerate() {
            lines.push(format!(
                "  shard {shard} addr={}",
                self.inner.links[shard].addr
            ));
            for line in plan {
                lines.push(format!("    {line}"));
            }
        }
        Ok(lines)
    }

    /// Routes one write: `INSERT` by the owner of each tuple's image,
    /// `DELETE` / `UPDATE` to each mask's owning shard, DDL to every shard.
    fn routed_write(&self, sql: &str, mutation: Mutation) -> ClusterResult<MutationOutcome> {
        match mutation {
            Mutation::Insert(batch) => self.routed_insert(batch),
            Mutation::Delete(ids) => self.routed_delete(ids),
            Mutation::Update(updates) => self.routed_update(sql, updates),
            Mutation::CreateIndex { .. } | Mutation::DropIndex { .. } => self.broadcast_ddl(sql),
        }
    }

    /// Forwards `sql` to every shard and merges the disjoint row sets.
    fn broadcast_query(&self, sql: &str) -> ClusterResult<QueryOutput> {
        let partials = self
            .scatter_rows(self.all(sql))?
            .into_iter()
            .map(wire_to_output)
            .collect();
        Ok(merge::merge_unordered(partials))
    }

    /// Distributed top-k over `PARTIAL` requests. The planner picks between
    /// the threshold algorithm (small first-round budgets, refinement
    /// rounds as needed) and single-round mode (full `k` to every shard) —
    /// both return byte-identical rows, so the choice is purely a
    /// bandwidth-vs-round-trips trade informed by observed convergence.
    fn ranked_query(&self, sql: &str, k: usize, order: Order) -> ClusterResult<QueryOutput> {
        let single_round = masksearch_plan::choose_single_round(
            k,
            self.shards(),
            ClusterMetricsSnapshot::load(&self.inner.metrics).mean_threshold_rounds(),
        );
        let run = topk::distributed_topk(k, order, self.shards(), single_round, |requests| {
            let lines: Vec<(usize, String)> = requests
                .iter()
                .map(|&(shard, k)| {
                    let sql = sql.to_string();
                    (shard, ClientRequest::Partial { k, sql }.line())
                })
                .collect();
            let wires = self.scatter_rows(lines)?;
            Ok::<Vec<RankedPartial>, ClusterError>(
                wires
                    .into_iter()
                    .map(|wire| {
                        let bound = wire.summary.bound;
                        RankedPartial {
                            output: wire_to_output(wire),
                            bound,
                        }
                    })
                    .collect(),
            )
        })?;
        self.count(|m| {
            m.ranked_queries = 1;
            m.topk_rounds = run.rounds as u64;
            m.topk_refined_requests = run.refined_requests as u64;
            m.topk_single_round = single_round as u64;
        });
        Ok(run.output)
    }

    /// Which shards currently hold each of `ids` (shard → present ids),
    /// resolved with a `LOOKUP` broadcast.
    /// Write routing goes through [`Coordinator::resolve_owners`] instead,
    /// which only falls back to this broadcast for ids the owner index does
    /// not know.
    fn locate(&self, ids: &[MaskId]) -> ClusterResult<Vec<Vec<MaskId>>> {
        if ids.is_empty() {
            return Ok(vec![Vec::new(); self.shards()]);
        }
        let wires = self.scatter_rows(self.all(&ClientRequest::Lookup(ids.to_vec()).line()))?;
        Ok(wires.into_iter().map(|w| w.mask_ids()).collect())
    }

    /// Union of the shards' holdings for `ids`, ascending and deduplicated.
    /// Always asks the shards; what it learns heals the owner index.
    pub fn lookup(&self, ids: &[MaskId]) -> ClusterResult<Vec<MaskId>> {
        let located = self.locate(ids)?;
        {
            let mut owners = self.inner.owners.lock().expect("owner index lock");
            for id in ids {
                owners.remove(id);
            }
            for (shard, present) in located.iter().enumerate() {
                for &id in present {
                    owners.insert(id, shard);
                }
            }
        }
        let mut present: Vec<MaskId> = located.into_iter().flatten().collect();
        present.sort_unstable();
        present.dedup();
        Ok(present)
    }

    /// Resolves the owning shard of each of `ids`. Owner-index hits cost no
    /// shard round trip; the ids the index does not know (if any) are
    /// resolved with **one** `LOOKUP` broadcast whose answer heals the
    /// index. Ids held by no shard are absent from the result.
    fn resolve_owners(&self, ids: &[MaskId]) -> ClusterResult<HashMap<MaskId, usize>> {
        let mut resolved = HashMap::with_capacity(ids.len());
        let mut unknown: Vec<MaskId> = Vec::new();
        {
            let owners = self.inner.owners.lock().expect("owner index lock");
            for &id in ids {
                match owners.get(&id) {
                    Some(&shard) => {
                        resolved.insert(id, shard);
                    }
                    None => unknown.push(id),
                }
            }
        }
        self.count(|m| {
            m.owner_resolutions = resolved.len() as u64;
            m.lookup_broadcasts = u64::from(!unknown.is_empty());
        });
        if !unknown.is_empty() {
            let located = self.locate(&unknown)?;
            let mut owners = self.inner.owners.lock().expect("owner index lock");
            for (shard, present) in located.into_iter().enumerate() {
                for id in present {
                    owners.insert(id, shard);
                    resolved.insert(id, shard);
                }
            }
        }
        Ok(resolved)
    }

    /// Routes an `INSERT` batch: each tuple goes to the shard owning its
    /// image id; stale copies of overwritten mask ids that lived on other
    /// shards (the overwrite moved the mask to a new image) are deleted
    /// first so no id ever resolves on two shards.
    fn routed_insert(&self, batch: Vec<(MaskRecord, Mask)>) -> ClusterResult<MutationOutcome> {
        // The single-node wire contract reports one insert per *tuple*, so
        // remember the requested count before deduplication.
        let requested = batch.len();
        // Within one statement, the last tuple for a mask id wins (the
        // single-node batch applies tuples in order, so its final state is
        // the last write); earlier duplicates are dropped before routing so
        // two shards cannot both end up holding the id.
        let mut dedup: BTreeMap<MaskId, (MaskRecord, Mask)> = BTreeMap::new();
        for (record, mask) in batch {
            dedup.insert(record.mask_id, (record, mask));
        }
        let mut owner: HashMap<MaskId, usize> = HashMap::new();
        let mut per_shard: Vec<Vec<(MaskRecord, Mask)>> = vec![Vec::new(); self.shards()];
        for (id, (record, mask)) in dedup {
            let shard = self.inner.map.shard_for_record(&record);
            owner.insert(id, shard);
            per_shard[shard].push((record, mask));
        }
        // Phase 1: evict stale copies from non-owner shards. The owner
        // index knows each overwritten id's current holder, so this costs
        // no `LOOKUP` broadcast — an id the index does not know is new and
        // cannot have a stale copy anywhere.
        let mut relocated = 0u64;
        let mut stale_per_shard: Vec<Vec<MaskId>> = vec![Vec::new(); self.shards()];
        {
            let owners = self.inner.owners.lock().expect("owner index lock");
            for (&id, &new_shard) in &owner {
                if let Some(&current) = owners.get(&id) {
                    if current != new_shard {
                        stale_per_shard[current].push(id);
                    }
                }
            }
        }
        self.count(|m| m.owner_resolutions = owner.len() as u64);
        let stale_work: Vec<(usize, String)> = stale_per_shard
            .iter()
            .enumerate()
            .filter(|(_, stale)| !stale.is_empty())
            .map(|(shard, stale)| (shard, render_delete(stale)))
            .collect();
        if !stale_work.is_empty() {
            let deleted = self.scatter_rows(stale_work)?;
            relocated += deleted.iter().map(|r| r.summary.deleted).sum::<u64>();
        }

        // Phase 2: per-shard atomic inserts.
        let requests: Vec<(usize, String)> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(shard, batch)| (shard, render_insert(batch)))
            .collect();
        let responses = self.scatter_rows(requests)?;
        let applied: u64 = responses.iter().map(|r| r.summary.inserted).sum();
        {
            let mut owners = self.inner.owners.lock().expect("owner index lock");
            for (id, shard) in owner {
                owners.insert(id, shard);
            }
        }
        self.count(|m| {
            m.mutations = 1;
            m.masks_inserted = applied;
            m.masks_relocated = relocated;
        });
        // Report the requested tuple count, matching what a single-node
        // server answers for the same statement (duplicate-id tuples count
        // once per tuple there too, the later ones overwriting in place).
        Ok(MutationOutcome {
            inserted: requested,
            deleted: 0,
            updated: 0,
        })
    }

    /// Routes a `DELETE`: owners come from the owner index (steady state
    /// costs zero `LOOKUP` broadcasts; unknown ids fall back to one); an id
    /// held by no shard fails the whole statement *before* any shard is
    /// mutated (single-node `DELETE` semantics); the rest splits into
    /// per-shard atomic batches.
    fn routed_delete(&self, ids: Vec<MaskId>) -> ClusterResult<MutationOutcome> {
        let ids: Vec<MaskId> = {
            let mut seen = BTreeSet::new();
            ids.into_iter().filter(|id| seen.insert(*id)).collect()
        };
        if ids.is_empty() {
            return Ok(MutationOutcome::default());
        }
        let owners = self.resolve_owners(&ids)?;
        for &id in &ids {
            if !owners.contains_key(&id) {
                return Err(ClusterError::UnknownMask(id));
            }
        }
        let mut per_shard: Vec<Vec<MaskId>> = vec![Vec::new(); self.shards()];
        for &id in &ids {
            per_shard[owners[&id]].push(id);
        }
        let requests: Vec<(usize, String)> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, present)| !present.is_empty())
            .map(|(shard, present)| (shard, render_delete(present)))
            .collect();
        self.scatter_rows(requests)?;
        {
            let mut map = self.inner.owners.lock().expect("owner index lock");
            for &id in &ids {
                map.remove(&id);
            }
        }
        self.count(|m| {
            m.mutations = 1;
            m.masks_deleted = ids.len() as u64;
        });
        Ok(MutationOutcome {
            inserted: 0,
            deleted: ids.len(),
            updated: 0,
        })
    }

    /// Routes an `UPDATE`: the sharding key is immutable, so the statement
    /// is forwarded verbatim to the shard owning its target mask (resolved
    /// from the owner index — steady state costs zero `LOOKUP` broadcasts).
    /// An id held by no shard fails before any side effect.
    fn routed_update(
        &self,
        sql: &str,
        updates: Vec<masksearch_query::MaskUpdate>,
    ) -> ClusterResult<MutationOutcome> {
        let ids: Vec<MaskId> = updates.iter().map(|u| u.mask_id).collect();
        let owners = self.resolve_owners(&ids)?;
        for &id in &ids {
            if !owners.contains_key(&id) {
                return Err(ClusterError::UnknownMask(id));
            }
        }
        let shards: BTreeSet<usize> = ids.iter().map(|id| owners[id]).collect();
        // The grammar scopes one UPDATE to one mask id, so one owning shard.
        let Some(&shard) = shards.first().filter(|_| shards.len() == 1) else {
            return Err(ClusterError::Internal(
                "UPDATE statement spans shards".to_string(),
            ));
        };
        let responses = self.scatter_rows(vec![(shard, sql.to_string())])?;
        let updated: u64 = responses.iter().map(|r| r.summary.updated).sum();
        self.count(|m| {
            m.mutations = 1;
            m.masks_updated = updated;
        });
        Ok(MutationOutcome {
            inserted: 0,
            deleted: 0,
            updated: updated as usize,
        })
    }

    /// Applies a DDL statement (`CREATE INDEX` / `DROP INDEX`) on every
    /// shard. Every shard must succeed, so index definitions cannot
    /// drift between shards; `IF [NOT] EXISTS` makes retries after a
    /// partial failure idempotent.
    fn broadcast_ddl(&self, sql: &str) -> ClusterResult<MutationOutcome> {
        self.scatter_rows(self.all(sql))?;
        self.count(|m| m.mutations = 1);
        Ok(MutationOutcome::default())
    }

    /// Executes a recognised `BEGIN; …; COMMIT` script: every statement
    /// must resolve to the same owning shard, and the raw script is then
    /// forwarded there verbatim so the shard applies it as **one** atomic
    /// storage commit. A script that would touch two shards — including an
    /// overwrite that would move a mask between shards — is rejected loudly
    /// before any side effect: there is no cross-shard transaction. A
    /// script ending in `ROLLBACK` answers a zero outcome without touching
    /// any shard.
    fn run_transaction_script(
        &self,
        sql: &str,
        mutations: Vec<Mutation>,
        commit: bool,
    ) -> ClusterResult<MutationOutcome> {
        if !commit || mutations.is_empty() {
            return Ok(MutationOutcome::default());
        }
        let mut target: Option<usize> = None;
        let mut require = |shard: usize| -> ClusterResult<()> {
            match target {
                None => {
                    target = Some(shard);
                    Ok(())
                }
                Some(t) if t == shard => Ok(()),
                Some(t) => Err(ClusterError::Sql(format!(
                    "cross-shard transaction: statements land on shard {t} and shard {shard}; \
                     a cluster transaction must touch a single shard"
                ))),
            }
        };
        // Ids created by an earlier statement in the same script: later
        // DELETEs and UPDATEs must observe them (single-node transaction
        // semantics) without consulting the owner index, which only knows
        // committed state.
        let mut pending: HashMap<MaskId, usize> = HashMap::new();
        for mutation in &mutations {
            match mutation {
                Mutation::Insert(batch) => {
                    for (record, _) in batch {
                        let shard = self.inner.map.shard_for_record(record);
                        if let Some(&current) = self
                            .inner
                            .owners
                            .lock()
                            .expect("owner index lock")
                            .get(&record.mask_id)
                        {
                            if current != shard {
                                return Err(ClusterError::Sql(format!(
                                    "cross-shard transaction: overwriting mask {} would move \
                                     it from shard {current} to shard {shard}; relocate it \
                                     outside a transaction",
                                    record.mask_id.raw()
                                )));
                            }
                        }
                        require(shard)?;
                        pending.insert(record.mask_id, shard);
                    }
                }
                Mutation::Delete(ids) => {
                    let committed: Vec<MaskId> = ids
                        .iter()
                        .copied()
                        .filter(|id| !pending.contains_key(id))
                        .collect();
                    let owners = self.resolve_owners(&committed)?;
                    for &id in ids {
                        match pending.get(&id).or_else(|| owners.get(&id)) {
                            Some(&shard) => require(shard)?,
                            None => return Err(ClusterError::UnknownMask(id)),
                        }
                    }
                }
                Mutation::Update(updates) => {
                    let committed: Vec<MaskId> = updates
                        .iter()
                        .map(|u| u.mask_id)
                        .filter(|id| !pending.contains_key(id))
                        .collect();
                    let owners = self.resolve_owners(&committed)?;
                    for update in updates {
                        let id = update.mask_id;
                        match pending.get(&id).or_else(|| owners.get(&id)) {
                            Some(&shard) => require(shard)?,
                            None => return Err(ClusterError::UnknownMask(id)),
                        }
                    }
                }
                Mutation::CreateIndex { .. } | Mutation::DropIndex { .. } => {
                    return Err(ClusterError::Sql(
                        "DDL inside a transaction script is not supported on a cluster; \
                         run CREATE INDEX / DROP INDEX as its own statement"
                            .to_string(),
                    ))
                }
            }
        }
        let Some(shard) = target else {
            return Ok(MutationOutcome::default());
        };
        let responses = self.scatter_rows(vec![(shard, sql.to_string())])?;
        let summary = responses[0].summary;
        // Replay the script's ownership effects into the owner index in
        // statement order, so a later DELETE wins over an earlier INSERT.
        {
            let mut owners = self.inner.owners.lock().expect("owner index lock");
            for mutation in &mutations {
                match mutation {
                    Mutation::Insert(batch) => {
                        for (record, _) in batch {
                            owners.insert(record.mask_id, shard);
                        }
                    }
                    Mutation::Delete(ids) => {
                        for id in ids {
                            owners.remove(id);
                        }
                    }
                    _ => {}
                }
            }
        }
        self.count(|m| {
            m.transactions = 1;
            m.mutations = 1;
            m.masks_inserted = summary.inserted;
            m.masks_deleted = summary.deleted;
            m.masks_updated = summary.updated;
        });
        Ok(MutationOutcome {
            inserted: summary.inserted as usize,
            deleted: summary.deleted as usize,
            updated: summary.updated as usize,
        })
    }
}

/// Converts a parsed shard wire response into a [`QueryOutput`] for the
/// merge layer (stage counters travel in the summary; timings stay
/// shard-local).
fn wire_to_output(wire: WireResponse) -> QueryOutput {
    let stats = QueryStats {
        candidates: wire.summary.candidates,
        pruned: wire.summary.pruned,
        verified: wire.summary.verified,
        masks_loaded: wire.summary.loaded,
        ..Default::default()
    };
    QueryOutput {
        rows: wire.rows,
        stats,
    }
}

/// Renders a per-shard `INSERT` sub-batch back into the dialect. Pixels use
/// Rust's shortest round-trip `f32` formatting, which re-parses (via `f64`)
/// to the identical bits — the shard stores exactly what the client sent.
fn render_insert(batch: &[(MaskRecord, Mask)]) -> String {
    let tuples: Vec<String> = batch
        .iter()
        .map(|(record, mask)| {
            let pixels: Vec<String> = mask.data().iter().map(|v| format!("{v}")).collect();
            format!(
                "({}, {}, {}, {}, ({}))",
                record.mask_id.raw(),
                record.image_id.raw(),
                record.width,
                record.height,
                pixels.join(", ")
            )
        })
        .collect();
    format!("INSERT INTO masks VALUES {}", tuples.join(", "))
}

/// Renders a per-shard `DELETE` sub-batch.
fn render_delete(ids: &[MaskId]) -> String {
    let list: Vec<String> = ids.iter().map(|id| id.raw().to_string()).collect();
    format!("DELETE FROM masks WHERE mask_id IN ({})", list.join(", "))
}

/// The coordinator behind a [`CoordinatorServer`]. A connection keeps no
/// state of its own, so an interactive `BEGIN` is rejected like any other
/// statement a cluster cannot route.
impl Backend for Coordinator {
    type Conn = ();
    type Error = ClusterError;

    fn statement(&self, token: Option<u64>, sql: &str) -> ClusterResult<Response> {
        let started = Instant::now();
        Ok(match self.run(token, sql)? {
            ClusterReply::Rows(output) => Response::Single(QueryResponse {
                output: *output,
                queue_wait: Duration::ZERO,
                exec_time: started.elapsed(),
            }),
            ClusterReply::Mutation(outcome) => Response::Mutation(MutationResponse {
                outcome,
                queue_wait: Duration::ZERO,
                exec_time: started.elapsed(),
            }),
            ClusterReply::Plan(lines) => Response::Plan(lines),
        })
    }

    /// `PARTIAL` is a shard-internal request; a coordinator is not a shard
    /// of another coordinator (no recursive sharding).
    fn partial(&self, _k: usize, _sql: &str) -> ClusterResult<PartialResponse> {
        Err(ClusterError::Sql(
            "PARTIAL is not served by a coordinator".to_string(),
        ))
    }

    /// One aggregated `STATS` line ([`merged_stats_line`] over every
    /// shard's).
    fn stats_line(&self, _active_connections: u64) -> ClusterResult<String> {
        let lines = self.scatter(self.all(&ClientRequest::Stats.line()), Frame::into_control)?;
        Ok(merged_stats_line(&lines, &self.metrics()))
    }

    /// The coordinator's own Prometheus text exposition: its
    /// [`ClusterMetricsSnapshot::ROWS`] plus the process-global counters
    /// (scatter width and wait time among them). Shard-level metrics are
    /// scraped from the shards directly — summing histograms across
    /// processes is the scraper's job, not the coordinator's.
    fn prometheus_text(&self) -> String {
        let mut p = PromText::new();
        p.metrics(&ClusterMetricsSnapshot::ROWS, &self.metrics().values());
        p.metrics(&obs_counters::ROWS, &obs_counters::values());
        p.finish()
    }

    /// The coordinator's windowed gauges for `secs` as a Prometheus text
    /// exposition (the payload of a `METRICS WINDOW <secs>` frame).
    fn metrics_window_text(&self, secs: u64) -> String {
        let mut text = String::new();
        self.inner.timeseries.render_prometheus(&[secs], &mut text);
        text
    }

    /// Broadcasts a `RECORD` control to every shard and merges the
    /// replies. `START` derives one file per shard (`<path>.shard<i>`) from
    /// the given base path, so a cluster capture replays shard-by-shard;
    /// counters are summed and `active` means *every* shard is recording.
    fn record(&self, control: &RecordControl) -> ClusterResult<RecorderStatus> {
        let requests = match control {
            RecordControl::Start(Some(base)) => (0..self.shards())
                .map(|shard| {
                    let path = Some(format!("{base}.shard{shard}"));
                    let request = ClientRequest::Record(RecordControl::Start(path));
                    (shard, request.line())
                })
                .collect(),
            RecordControl::Start(None) => {
                return Err(ClusterError::Sql(
                    "RECORD START needs a path on a coordinator (per-shard \
                     files are derived from it)"
                        .to_string(),
                ))
            }
            RecordControl::Stop | RecordControl::Status => {
                self.all(&ClientRequest::Record(control.clone()).line())
            }
        };
        let lines = self.scatter(requests, Frame::into_control)?;
        let mut merged = RecorderStatus {
            active: !lines.is_empty(),
            path: if let RecordControl::Start(Some(base)) = control {
                Some(base.into())
            } else {
                None
            },
            records: 0,
            bytes: 0,
            dropped: 0,
        };
        for line in &lines {
            for token in line.split_ascii_whitespace().skip(1) {
                let Some((key, value)) = token.split_once('=') else {
                    continue;
                };
                match key {
                    "active" => merged.active &= value == "1",
                    // No base path to report (STOP/STATUS): the first
                    // shard's file stands in for the family.
                    "path" if merged.path.is_none() && value != "-" => {
                        merged.path = Some(value.into());
                    }
                    "records" => merged.records += value.parse::<u64>().unwrap_or(0),
                    "bytes" => merged.bytes += value.parse::<u64>().unwrap_or(0),
                    "dropped" => merged.dropped += value.parse::<u64>().unwrap_or(0),
                    _ => {}
                }
            }
        }
        Ok(merged)
    }

    /// The most recent `n` coordinated-query profiles, newest first.
    fn profiles(&self, n: usize) -> Vec<QueryProfile> {
        self.inner.profiles.recent(n)
    }

    /// `LOOKUP` asks the shards ([`Coordinator::lookup`]); `LOOKUP *`
    /// scatters over them and reseeds the owner index from the answer.
    fn lookup(&self, ids: Option<&[MaskId]>) -> ClusterResult<Vec<MaskId>> {
        if let Some(ids) = ids {
            return Coordinator::lookup(self, ids);
        }
        let owners = self.fetch_all_owners()?;
        let mut ids: Vec<MaskId> = owners.keys().copied().collect();
        ids.sort_unstable();
        *self.inner.owners.lock().expect("owner index lock") = owners;
        Ok(ids)
    }
}

/// A coordinator's `STATS` line: `shards=`, then its shards' `STATS` lines
/// merged by each [`MetricsSnapshot::ROWS`] row's rule — summed keys, then
/// maxed keys, each group alphabetical — then the coordinator's own
/// [`ClusterMetricsSnapshot::ROWS`].
pub fn merged_stats_line(shard_lines: &[String], own: &ClusterMetricsSnapshot) -> String {
    let mut merged: Vec<_> = MetricsSnapshot::ROWS
        .iter()
        .zip(obs_keys::merge_stats(shard_lines))
        .filter(|(row, _)| row.merge != obs_keys::Merge::Own)
        .collect();
    merged.sort_by_key(|(row, _)| (row.merge, row.key));
    let mut line = format!("STATS shards={}", own.shards);
    for (row, value) in merged {
        row.write_stat(&mut line, value);
    }
    obs_keys::write_stats(&mut line, &ClusterMetricsSnapshot::ROWS, &own.values());
    line
}

/// The coordinator's TCP front end: the service crate's [`Server`] over a
/// [`Coordinator`] — the same connection loop, dispatch and frames as a
/// shard server, so `masksearch_service::Client`, [`MuxClient`], and
/// anything else speaking the dialect can talk to a cluster without knowing
/// it is one.
pub struct CoordinatorServer(Server<Coordinator>);

impl CoordinatorServer {
    /// Binds to `addr` (port 0 for an ephemeral port) without accepting yet.
    pub fn bind(addr: impl ToSocketAddrs, coordinator: Coordinator) -> ClusterResult<Self> {
        Server::bind(addr, coordinator)
            .map(Self)
            .map_err(|e| ClusterError::Config(format!("bind failed: {e}")))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Serves connections until shut down, blocking the calling thread.
    pub fn run(self) {
        self.0.run()
    }

    /// Starts the accept loop on a background thread.
    pub fn spawn(self) -> CoordinatorHandle {
        CoordinatorHandle(self.0.spawn())
    }
}

/// Control handle for a [`CoordinatorServer::spawn`].
pub struct CoordinatorHandle(ServerHandle<Coordinator>);

impl CoordinatorHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// The coordinator behind the front end (e.g. for metrics).
    pub fn coordinator(&self) -> &Coordinator {
        self.0.backend()
    }

    /// Stops accepting and joins the accept loop; open connections are
    /// dropped (the coordinator is the only state that outlives them).
    pub fn shutdown(self) {
        self.0.kill()
    }
}
