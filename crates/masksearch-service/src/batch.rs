//! Batched multi-query execution with shared filter and verification work.
//!
//! The MaskSearch demonstration scenario is a group of analysts (or one
//! exploration loop) firing many related queries at a single mask database.
//! Executing the group naively repeats the most expensive step — loading
//! undecided masks from storage — once per query that targets the mask. This
//! module executes a *batch* of queries together:
//!
//! 1. **Shared filter stage.** Every filter query classifies its candidates
//!    from CHI bounds alone (accept / prune / verify), exactly as the
//!    single-query executor does.
//! 2. **Shared verification stage.** The verify sets of all queries in the
//!    batch are unioned. Each undecided mask is loaded **once** (building its
//!    CHI as a side effect in incremental mode) and every query interested in
//!    that mask evaluates its predicate on the loaded pixels.
//!
//! Query shapes other than `Filter` (top-k, aggregation, mask aggregation)
//! fall back to the ordinary executor, still benefiting from the shared
//! session cache and any CHIs built by step 2.
//!
//! Results are **identical** to executing each query separately: the filter
//! stage classifications and exact verifications are the same computations,
//! only scheduled differently (this is asserted by the service concurrency
//! tests).

use masksearch_core::{MaskId, TileStats};
use masksearch_query::error::QueryResult;
use masksearch_query::eval;
use masksearch_query::{
    Predicate, Query, QueryKind, QueryOutput, QueryStats, ResultRow, Session, Truth,
};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Batch-level execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Queries that went through the shared filter–verification path.
    pub shared_path_queries: usize,
    /// Distinct masks loaded by the shared verification stage.
    pub unique_masks_verified: u64,
    /// Mask loads avoided relative to running each query separately (the sum
    /// of per-query verify-set sizes minus the distinct union, counting only
    /// masks that would have missed the cache).
    pub duplicate_loads_avoided: u64,
    /// Masks actually read from storage during the whole batch.
    pub masks_loaded: u64,
    /// Bytes read from storage during the whole batch.
    pub bytes_read: u64,
    /// Wall-clock time for the whole batch.
    pub total_wall: Duration,
}

/// Output of a batch: one [`QueryOutput`] per input query, in input order,
/// plus batch-level statistics.
#[derive(Debug)]
pub struct BatchOutput {
    /// Per-query outputs, ordered as the input queries.
    pub outputs: Vec<QueryOutput>,
    /// Batch-level statistics.
    pub stats: BatchStats,
}

/// Per-query bookkeeping on the shared path.
struct FilterPlan {
    /// Index of the query in the input batch.
    query_index: usize,
    predicate: Predicate,
    candidates: u64,
    /// Ids accepted from bounds alone.
    accepted: Vec<MaskId>,
    pruned: u64,
    /// Size of the verify set.
    verify: u64,
    filter_wall: Duration,
}

/// Executes a group of queries against one session with shared work.
///
/// Errors abort the whole batch (first error wins), matching the behaviour
/// of running the queries serially and stopping at the first failure.
pub fn execute(session: &Session, queries: &[Query]) -> QueryResult<BatchOutput> {
    let batch_start = Instant::now();
    let io_before = session.store().io_stats().snapshot();
    let fallback = session.config().object_box_fallback;
    let verify_opts = session.verify_options();

    let mut outputs: Vec<Option<QueryOutput>> = (0..queries.len()).map(|_| None).collect();
    let mut plans: Vec<FilterPlan> = Vec::new();
    // mask id -> indices into `plans` that must verify it.
    let mut verify_union: BTreeMap<MaskId, Vec<usize>> = BTreeMap::new();
    let mut duplicate_requests = 0u64;

    // ---- Shared filter stage ---------------------------------------------
    for (query_index, query) in queries.iter().enumerate() {
        let QueryKind::Filter { predicate } = &query.kind else {
            continue;
        };
        let filter_start = Instant::now();
        let candidates = session.resolve_selection(&query.selection);
        let mut plan = FilterPlan {
            query_index,
            predicate: predicate.clone(),
            candidates: candidates.len() as u64,
            accepted: Vec::new(),
            pruned: 0,
            verify: 0,
            filter_wall: Duration::ZERO,
        };
        let plan_slot = plans.len();
        let mut bounds = eval::CompiledBounds::predicate(predicate, &[], fallback);
        let truths = session.bounds_of(&candidates, |record, chi| bounds.classify(record, chi))?;
        for (mask_id, truth) in candidates.into_iter().zip(truths) {
            match truth.unwrap_or(Truth::Unknown) {
                Truth::True => plan.accepted.push(mask_id),
                Truth::False => plan.pruned += 1,
                Truth::Unknown => {
                    plan.verify += 1;
                    let interested = verify_union.entry(mask_id).or_default();
                    if !interested.is_empty() {
                        duplicate_requests += 1;
                    }
                    interested.push(plan_slot);
                }
            }
        }
        plan.filter_wall = filter_start.elapsed();
        plans.push(plan);
    }

    // ---- Shared verification stage ---------------------------------------
    // Load each undecided mask once and evaluate every interested predicate.
    let verify_start = Instant::now();
    let entries: Vec<(MaskId, Vec<usize>)> = verify_union.into_iter().collect();
    let verified_hits: Mutex<Vec<(usize, MaskId)>> = Mutex::new(Vec::new());
    // Kernel tile counters per plan: each predicate evaluation is attributed
    // to the query it verified for, even though the mask load is shared.
    let plan_tiles: Mutex<Vec<TileStats>> = Mutex::new(vec![TileStats::default(); plans.len()]);
    let first_error: Mutex<Option<masksearch_query::QueryError>> = Mutex::new(None);
    let threads = session.config().threads.max(1).min(entries.len().max(1));

    std::thread::scope(|scope| {
        let chunk = entries.len().div_ceil(threads).max(1);
        for part in entries.chunks(chunk) {
            let verified_hits = &verified_hits;
            let plan_tiles = &plan_tiles;
            let first_error = &first_error;
            let plans = &plans;
            let verify_opts = &verify_opts;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut local_tiles = vec![TileStats::default(); plans.len()];
                for (mask_id, interested) in part {
                    let mut step = || -> QueryResult<()> {
                        let record = session.record(*mask_id)?;
                        let (mask, _built) = session.load_and_index(*mask_id)?;
                        for &plan_slot in interested {
                            let plan = &plans[plan_slot];
                            if eval::predicate_exact_tiled(
                                &plan.predicate,
                                &record,
                                &mask,
                                verify_opts,
                                &mut local_tiles[plan_slot],
                            )? {
                                local.push((plan_slot, *mask_id));
                            }
                        }
                        Ok(())
                    };
                    if let Err(e) = step() {
                        let mut slot = first_error.lock().unwrap_or_else(|p| p.into_inner());
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                }
                verified_hits
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .extend(local);
                let mut shared = plan_tiles.lock().unwrap_or_else(|p| p.into_inner());
                for (slot, tiles) in shared.iter_mut().zip(&local_tiles) {
                    slot.merge(tiles);
                }
            });
        }
    });
    if let Some(err) = first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(err);
    }
    let verify_wall = verify_start.elapsed();

    // ---- Assemble shared-path outputs ------------------------------------
    let mut per_plan_hits: Vec<Vec<MaskId>> = (0..plans.len()).map(|_| Vec::new()).collect();
    for (plan_slot, mask_id) in verified_hits
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
    {
        per_plan_hits[plan_slot].push(mask_id);
    }
    let unique_masks_verified = entries.len() as u64;
    let shared_path_queries = plans.len();
    let plan_tiles = plan_tiles.into_inner().unwrap_or_else(|p| p.into_inner());
    for ((plan, hits), tiles) in plans.into_iter().zip(per_plan_hits).zip(plan_tiles) {
        let mut accepted = plan.accepted;
        let accepted_without_load = accepted.len() as u64;
        accepted.extend(hits);
        accepted.sort_unstable();
        let stats = QueryStats {
            candidates: plan.candidates,
            pruned: plan.pruned,
            accepted_without_load,
            verified: plan.verify,
            tiles_pruned: tiles.tiles_pruned,
            tiles_hist: tiles.tiles_hist,
            tiles_scanned: tiles.tiles_scanned,
            filter_wall: plan.filter_wall,
            verify_wall,
            total_wall: plan.filter_wall + verify_wall,
            // Per-query I/O attribution is meaningless under sharing; the
            // batch-level stats carry the real load counts.
            ..Default::default()
        };
        outputs[plan.query_index] = Some(QueryOutput {
            rows: accepted
                .into_iter()
                .map(|id| ResultRow::mask(id, None))
                .collect(),
            stats,
        });
    }

    // ---- Fallback path for non-filter shapes -----------------------------
    for (query_index, query) in queries.iter().enumerate() {
        if outputs[query_index].is_none() {
            outputs[query_index] = Some(session.execute(query)?);
        }
    }

    let io_delta = session
        .store()
        .io_stats()
        .snapshot()
        .delta_since(&io_before);
    Ok(BatchOutput {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("filled above"))
            .collect(),
        stats: BatchStats {
            queries: queries.len(),
            shared_path_queries,
            unique_masks_verified,
            duplicate_loads_avoided: duplicate_requests,
            masks_loaded: io_delta.masks_loaded,
            bytes_read: io_delta.bytes_read,
            total_wall: batch_start.elapsed(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{ImageId, Mask, MaskRecord, PixelRange, Roi};
    use masksearch_index::ChiConfig;
    use masksearch_query::{IndexingMode, SessionConfig};
    use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
    use std::sync::Arc;

    fn blob_db(n: u64) -> (Arc<MemoryMaskStore>, Catalog) {
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        for i in 0..n {
            let radius = 2.0 + (i as f32) * 0.8;
            let mask = Mask::from_fn(32, 32, move |x, y| {
                let dx = x as f32 - 16.0;
                let dy = y as f32 - 16.0;
                if (dx * dx + dy * dy).sqrt() < radius {
                    0.9
                } else {
                    0.05
                }
            });
            store.put(MaskId::new(i), &mask).unwrap();
            catalog.insert(
                MaskRecord::builder(MaskId::new(i))
                    .image_id(ImageId::new(i / 2))
                    .shape(32, 32)
                    .object_box(Roi::new(8, 8, 24, 24).unwrap())
                    .build(),
            );
        }
        (store, catalog)
    }

    fn session(mode: IndexingMode) -> Session {
        let (store, catalog) = blob_db(20);
        Session::new(
            store as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 8).unwrap())
                .threads(2)
                .indexing_mode(mode),
        )
        .unwrap()
    }

    fn mixed_queries() -> Vec<Query> {
        let roi = Roi::new(4, 4, 28, 28).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        vec![
            Query::filter_cp_gt(roi, range, 40.0),
            Query::filter_cp_gt(roi, range, 150.0),
            Query::filter_cp_lt(roi, range, 90.0),
            Query::top_k_cp(roi, range, 5, masksearch_query::Order::Desc),
            Query::aggregate(
                masksearch_query::Expr::cp(roi, range),
                masksearch_query::ScalarAgg::Avg,
            ),
        ]
    }

    fn assert_batch_matches_serial(mode: IndexingMode) {
        let queries = mixed_queries();
        // Serial reference on a fresh session.
        let serial_session = session(mode);
        let serial: Vec<QueryOutput> = queries
            .iter()
            .map(|q| serial_session.execute(q).unwrap())
            .collect();
        // Batched execution on another fresh session.
        let batch_session = session(mode);
        let batch = execute(&batch_session, &queries).unwrap();
        assert_eq!(batch.outputs.len(), serial.len());
        for (b, s) in batch.outputs.iter().zip(&serial) {
            assert_eq!(b.rows, s.rows, "mode {mode:?}");
        }
        assert_eq!(batch.stats.queries, 5);
        assert_eq!(batch.stats.shared_path_queries, 3);
    }

    #[test]
    fn batch_matches_serial_eager() {
        assert_batch_matches_serial(IndexingMode::Eager);
    }

    #[test]
    fn batch_matches_serial_incremental() {
        assert_batch_matches_serial(IndexingMode::Incremental);
    }

    #[test]
    fn batch_matches_serial_disabled() {
        assert_batch_matches_serial(IndexingMode::Disabled);
    }

    #[test]
    fn sharing_avoids_duplicate_loads() {
        // With indexing disabled every candidate of every filter query needs
        // verification; batching loads each mask once instead of three times.
        let queries = mixed_queries();
        let s = session(IndexingMode::Disabled);
        let batch = execute(&s, &queries[..3]).unwrap();
        assert_eq!(batch.stats.unique_masks_verified, 20);
        // Two extra requests per mask beyond the first (three filter queries).
        assert_eq!(batch.stats.duplicate_loads_avoided, 40);
        assert_eq!(batch.stats.masks_loaded, 20);

        // Serial execution on a fresh disabled session loads 60.
        let serial_session = session(IndexingMode::Disabled);
        let before = serial_session.store().io_stats().snapshot();
        for q in &queries[..3] {
            serial_session.execute(q).unwrap();
        }
        let serial_loads = serial_session
            .store()
            .io_stats()
            .snapshot()
            .delta_since(&before)
            .masks_loaded;
        assert_eq!(serial_loads, 60);
    }

    #[test]
    fn empty_batch_is_fine() {
        let s = session(IndexingMode::Eager);
        let batch = execute(&s, &[]).unwrap();
        assert!(batch.outputs.is_empty());
        assert_eq!(batch.stats.queries, 0);
    }
}
