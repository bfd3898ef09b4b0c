//! Pair-query execution: the filter–verification framework applied to
//! multi-mask (self-join) queries.
//!
//! A pair candidate is one image with two bound masks (see
//! [`crate::query::MaskJoin`]). The filter stage bounds every `CP` term —
//! including terms over the pixelwise composition of the two masks — from
//! the two per-mask CHIs via the bound algebra of
//! `masksearch_index::compose`, so undecidable candidates are the only ones
//! that load pixels. Records and CHIs come from the statement's version,
//! through one cursor per side over each of its maps. Verification loads
//! *both* masks through the buffer cache and counts with the reference
//! scans (`cp` / `cp_composed`). Pair top-k bounds
//! every pair up front and runs the shared ranked pass
//! (`exec::top_k`): best composed bound first, stopping at the
//! first that cannot enter.
//!
//! Result rows are keyed by image id (ascending for filters, rank order
//! with an image-id tie-break for top-k), which is exactly the key the
//! cluster's shard map hashes — so pair partials merge exactly.

use crate::error::{QueryError, QueryResult};
use crate::eval::{self, PairRecords};
use crate::exec::{apply_reads, chunks_for_threads, elapsed, top_k, TopK};
use crate::expr::{Expr, Interval};
use crate::predicate::{Predicate, Truth};
use crate::result::{QueryOutput, QueryStats, ResultRow};
use crate::session::{ReadVersion, Session};
use crate::spec::Order;
use masksearch_core::{ImageId, MaskId, MaskRecord};
use masksearch_index::{ChiCursor, ChiView};
use masksearch_obs::keys as obs_keys;
use masksearch_storage::disk::Reads;
use masksearch_storage::IdCursor;
use parking_lot::Mutex;
use std::time::Instant;

/// One resolved pair candidate: the image plus its two bound mask ids.
pub type PairCandidate = (ImageId, MaskId, MaskId);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FilterOutcome {
    Accept,
    Prune,
    Verify,
}

/// Both sides' records and indexes for a run of pairs ascending by image:
/// one cursor per side over each map of the statement's version.
struct PairLookup<'v> {
    records: [IdCursor<'v, MaskRecord>; 2],
    chis: Option<[ChiCursor<'v>; 2]>,
}

impl<'v> PairLookup<'v> {
    fn new(version: &'v ReadVersion) -> Self {
        Self {
            records: [version.catalog().cursor(), version.catalog().cursor()],
            chis: version.chi().map(|chi| [chi.cursor(), chi.cursor()]),
        }
    }

    /// The records of a pair's two masks.
    fn records(&mut self, &(_, left, right): &PairCandidate) -> QueryResult<PairRecords<'v>> {
        let [left_records, right_records] = &mut self.records;
        let missing = QueryError::UnknownMask;
        Ok(PairRecords {
            left: left_records.seek(left).ok_or(missing(left))?,
            right: right_records.seek(right).ok_or(missing(right))?,
        })
    }

    /// The indexes of a pair's two masks, when both have one.
    fn chis(&mut self, &(_, left, right): &PairCandidate) -> Option<(ChiView<'v>, ChiView<'v>)> {
        let [left_chis, right_chis] = self.chis.as_mut()?;
        Some((left_chis.seek(left)?, right_chis.seek(right)?))
    }
}

/// Classifies one pair candidate from bounds alone (when both CHIs exist).
///
/// `composes` is whether the predicate composes the two masks: then the
/// record shapes are checked here, *before* any bound can decide the
/// candidate — so a mismatched pair fails identically whether or not the
/// CHI would have been decisive (and in every indexing mode).
fn classify(
    lookup: &mut PairLookup<'_>,
    pair: &PairCandidate,
    predicate: &Predicate,
    fallback: bool,
    composes: bool,
) -> QueryResult<FilterOutcome> {
    let records = lookup.records(pair)?;
    if composes {
        eval::check_pair_record_shapes(&records)?;
    }
    let Some((chi_left, chi_right)) = lookup.chis(pair) else {
        return Ok(FilterOutcome::Verify);
    };
    let truth = eval::pair_predicate_bounds(predicate, &records, chi_left, chi_right, fallback)?;
    Ok(match truth {
        Truth::True => FilterOutcome::Accept,
        Truth::False => FilterOutcome::Prune,
        Truth::Unknown => FilterOutcome::Verify,
    })
}

/// Executes a pair-filter query over resolved pair candidates: the
/// composed-bounds classify stage first, then verification of the pairs it
/// leaves undecided.
pub fn execute_filter(
    session: &Session,
    version: &ReadVersion,
    pairs: &[PairCandidate],
    predicate: &Predicate,
) -> QueryResult<QueryOutput> {
    let total_start = Instant::now();
    let fallback = session.config().object_box_fallback;
    let threads = session.config().threads;
    let composes = eval::predicate_composes(predicate);

    // ---- Filter stage -----------------------------------------------------
    let filter_span = masksearch_obs::span("filter");
    let filter_start = Instant::now();
    let mut accepted: Vec<ImageId> = Vec::new();
    let mut pruned = 0u64;
    let chunks = chunks_for_threads(pairs, threads);
    let results: Mutex<Vec<(PairCandidate, FilterOutcome)>> =
        Mutex::new(Vec::with_capacity(pairs.len()));
    let first_error: Mutex<Option<crate::error::QueryError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for chunk in &chunks {
            scope.spawn(|| {
                let mut local = Vec::with_capacity(chunk.len());
                let mut lookup = PairLookup::new(version);
                for pair in *chunk {
                    match classify(&mut lookup, pair, predicate, fallback, composes) {
                        Ok(outcome) => local.push((*pair, outcome)),
                        Err(e) => {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            return;
                        }
                    }
                }
                results.lock().extend(local);
            });
        }
    });
    if let Some(err) = first_error.into_inner() {
        return Err(err);
    }
    let outcomes = results.into_inner();
    let mut to_verify: Vec<PairCandidate> = Vec::new();
    for (pair, outcome) in outcomes {
        match outcome {
            FilterOutcome::Accept => accepted.push(pair.0),
            FilterOutcome::Prune => pruned += 1,
            FilterOutcome::Verify => to_verify.push(pair),
        }
    }
    let filter_wall = elapsed(filter_start);
    to_verify.sort_unstable();
    masksearch_obs::add_counter(obs_keys::CANDIDATES, pairs.len() as u64);
    masksearch_obs::add_counter(obs_keys::PAIRS_BOUND, pairs.len() as u64);
    masksearch_obs::add_counter(obs_keys::PRUNED, pruned);
    masksearch_obs::add_counter(obs_keys::VERIFIED, to_verify.len() as u64);
    drop(filter_span);

    // ---- Verification stage ----------------------------------------------
    let verify_span = masksearch_obs::span("verify");
    let verify_start = Instant::now();
    let verify_chunks = chunks_for_threads(&to_verify, threads);
    let verified_hits: Mutex<Vec<ImageId>> = Mutex::new(Vec::new());
    let indexes_built: Mutex<u64> = Mutex::new(0);
    let reads: Mutex<Reads> = Mutex::new(Reads::default());
    let first_error: Mutex<Option<crate::error::QueryError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for chunk in &verify_chunks {
            scope.spawn(|| {
                let mut local_hits = Vec::new();
                let mut local_built = 0u64;
                let mut local_reads = Reads::default();
                for &(image_id, left_id, right_id) in *chunk {
                    let mut step = || -> QueryResult<(bool, u64)> {
                        let records = PairRecords {
                            left: version.record(left_id)?,
                            right: version.record(right_id)?,
                        };
                        let (left, built_l) =
                            local_reads.count(|| session.load_and_index(left_id))?;
                        let (right, built_r) =
                            local_reads.count(|| session.load_and_index(right_id))?;
                        let satisfied = eval::pair_predicate_exact(
                            predicate,
                            &records,
                            &left.mask,
                            &right.mask,
                            session.config().object_box_fallback,
                        )?;
                        Ok((satisfied, u64::from(built_l) + u64::from(built_r)))
                    };
                    match step() {
                        Ok((satisfied, built)) => {
                            if satisfied {
                                local_hits.push(image_id);
                            }
                            local_built += built;
                        }
                        Err(e) => {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            return;
                        }
                    }
                }
                verified_hits.lock().extend(local_hits);
                *indexes_built.lock() += local_built;
                reads.lock().add(&local_reads);
            });
        }
    });
    if let Some(err) = first_error.into_inner() {
        return Err(err);
    }
    let verify_wall = elapsed(verify_start);
    // Both masks of every verified pair take the reference scan.
    let scanned = 2 * to_verify.len() as u64;
    masksearch_obs::add_counter(obs_keys::INDEXES_BUILT, *indexes_built.lock());
    masksearch_obs::add_counter(obs_keys::PLANNER_KERNEL_OFF, scanned);
    drop(verify_span);

    accepted.extend(verified_hits.into_inner());
    accepted.sort_unstable();

    let mut stats = QueryStats {
        candidates: pairs.len() as u64,
        pairs_bound: pairs.len() as u64,
        pruned,
        accepted_without_load: (pairs.len() as u64)
            .saturating_sub(pruned)
            .saturating_sub(to_verify.len() as u64),
        verified: to_verify.len() as u64,
        indexes_built: *indexes_built.lock(),
        planner_kernel_off: scanned,
        filter_wall,
        verify_wall,
        total_wall: elapsed(total_start),
        ..Default::default()
    };
    apply_reads(&mut stats, &reads.into_inner());

    Ok(QueryOutput {
        rows: accepted
            .into_iter()
            .map(|id| ResultRow::image(id, None))
            .collect(),
        stats,
    })
}

/// Executes a pair top-k query over resolved pair candidates, pruning
/// against the k-th value with composed CHI bounds (§3.5 applied to the
/// pair's bound algebra).
pub fn execute_topk(
    session: &Session,
    version: &ReadVersion,
    pairs: &[PairCandidate],
    expr: &Expr,
    k: usize,
    order: Order,
) -> QueryResult<QueryOutput> {
    let total_start = Instant::now();
    let fallback = session.config().object_box_fallback;
    let composes = eval::expr_composes(expr);

    if k == 0 {
        return Ok(QueryOutput::default());
    }

    // Filter pass: every pair's composed bounds, when both CHIs exist.
    // Mismatched shapes under a composing expression fail first — before
    // any bound or rank decision, identically in every indexing mode.
    let filter_start = Instant::now();
    let mut items: Vec<(ImageId, Option<Interval>)> = Vec::with_capacity(pairs.len());
    let mut records = Vec::with_capacity(pairs.len());
    let mut lookup = PairLookup::new(version);
    for pair in pairs {
        let pair_records = lookup.records(pair)?;
        if composes {
            eval::check_pair_record_shapes(&pair_records)?;
        }
        let bounds = match lookup.chis(pair) {
            Some((chi_left, chi_right)) => Some(eval::pair_expr_bounds(
                expr,
                &pair_records,
                chi_left,
                chi_right,
                fallback,
            )?),
            None => None,
        };
        items.push((pair.0, bounds));
        records.push(pair_records);
    }
    let filter_wall = elapsed(filter_start);

    // Ranked pass: load both masks, evaluate exactly.
    let verify_start = Instant::now();
    let mut indexes_built = 0u64;
    let mut reads = Reads::default();
    let verify = |i: usize| {
        let (_, left_id, right_id) = pairs[i];
        let (left, built_l) = reads.count(|| session.load_and_index(left_id))?;
        let (right, built_r) = reads.count(|| session.load_and_index(right_id))?;
        indexes_built += u64::from(built_l) + u64::from(built_r);
        eval::pair_expr_exact(expr, &records[i], &left.mask, &right.mask, fallback)
    };
    // Composed bounds have no per-cell refinement.
    let TopK {
        rows,
        verified,
        pruned,
    } = top_k(&items, k, order, None, |_| Ok(None), verify)?;
    let verify_wall = elapsed(verify_start);
    // Both masks of every verified pair take the reference scan.
    let scanned = 2 * verified;
    masksearch_obs::add_counter(obs_keys::PLANNER_KERNEL_OFF, scanned);

    let mut stats = QueryStats {
        candidates: pairs.len() as u64,
        pairs_bound: pairs.len() as u64,
        pruned,
        accepted_without_load: 0,
        verified,
        indexes_built,
        planner_kernel_off: scanned,
        filter_wall,
        verify_wall,
        total_wall: elapsed(total_start),
        ..Default::default()
    };
    apply_reads(&mut stats, &reads);

    Ok(QueryOutput {
        rows: rows
            .into_iter()
            .map(|(value, id)| ResultRow::image(id, Some(value)))
            .collect(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sort_ranked;
    use crate::query::{MaskJoin, Query, Selection};
    use crate::session::{IndexingMode, SessionConfig};
    use crate::spec::RoiSpec;
    use masksearch_core::{cp, cp_composed, Mask, MaskOp, MaskRecord, ModelId, PixelRange, Roi};
    use masksearch_index::ChiConfig;
    use masksearch_storage::{Catalog, MaskStore, MemoryMaskStore};
    use std::sync::Arc;

    /// Two models' masks per image: model 1 is a blob, model 2 the same blob
    /// shifted by an image-dependent offset (so disagreement varies).
    fn pair_db(n: u64) -> (Arc<MemoryMaskStore>, Catalog, Vec<(Mask, Mask)>) {
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        let mut masks = Vec::new();
        for i in 0..n {
            let shift = (i % 7) as f32;
            let make = move |cx: f32, cy: f32| {
                Mask::from_fn(40, 40, move |x, y| {
                    let dx = x as f32 - cx;
                    let dy = y as f32 - cy;
                    (0.95 * (-(dx * dx + dy * dy) / 40.0).exp()).min(0.999)
                })
            };
            let a = make(20.0, 20.0);
            let b = make(20.0 + shift, 17.0);
            for (slot, (mask, model)) in [(&a, 1u64), (&b, 2u64)].iter().enumerate() {
                let mask_id = MaskId::new(i * 2 + slot as u64);
                store.put(mask_id, mask).unwrap();
                catalog.insert(
                    MaskRecord::builder(mask_id)
                        .image_id(ImageId::new(i))
                        .model_id(ModelId::new(*model))
                        .shape(40, 40)
                        .object_box(Roi::new(10, 10, 30, 30).unwrap())
                        .build(),
                );
            }
            masks.push((a, b));
        }
        (store, catalog, masks)
    }

    fn join() -> MaskJoin {
        MaskJoin::new(
            Selection::all().with_model(ModelId::new(1)),
            Selection::all().with_model(ModelId::new(2)),
        )
    }

    fn session(store: Arc<MemoryMaskStore>, catalog: Catalog, mode: IndexingMode) -> Session {
        Session::new(
            store as Arc<dyn MaskStore>,
            catalog,
            SessionConfig::new(ChiConfig::new(8, 8, 16).unwrap())
                .threads(3)
                .indexing_mode(mode),
        )
        .unwrap()
    }

    #[test]
    fn pair_filter_matches_brute_force_in_every_mode() {
        let (store, catalog, masks) = pair_db(18);
        let roi = Roi::new(5, 5, 35, 35).unwrap();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        for mode in [
            IndexingMode::Eager,
            IndexingMode::Incremental,
            IndexingMode::Disabled,
        ] {
            let s = session(Arc::clone(&store), catalog.clone(), mode);
            for t in [0.0, 5.0, 40.0, 2000.0] {
                let predicate = Predicate::gt(
                    Expr::cp_composed(MaskOp::Diff, RoiSpec::Constant(roi), range),
                    t,
                );
                let query = Query::pair_filter(join(), predicate);
                let out = s.execute(&query).unwrap();
                let expected: Vec<ImageId> = masks
                    .iter()
                    .enumerate()
                    .filter(|(_, (a, b))| {
                        (cp_composed(a, b, MaskOp::Diff, &roi, &range).unwrap() as f64) > t
                    })
                    .map(|(i, _)| ImageId::new(i as u64))
                    .collect();
                assert_eq!(out.image_ids(), expected, "mode {mode:?} threshold {t}");
                assert_eq!(out.stats.candidates, 18);
                assert_eq!(out.stats.pairs_bound, 18);
                assert_eq!(
                    out.stats.pruned + out.stats.accepted_without_load + out.stats.verified,
                    18
                );
            }
        }
    }

    #[test]
    fn pair_topk_iou_matches_brute_force() {
        let (store, catalog, masks) = pair_db(21);
        let s = session(store, catalog, IndexingMode::Eager);
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let expr = Expr::iou(RoiSpec::FullMask, range);
        let query = Query::pair_top_k(join(), expr, 6, Order::Asc);
        let out = s.execute(&query).unwrap();
        let roi = Roi::new(0, 0, 40, 40).unwrap();
        let mut expected: Vec<(f64, ImageId)> = masks
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let inter = cp_composed(a, b, MaskOp::Intersect, &roi, &range).unwrap() as f64;
                let union = cp_composed(a, b, MaskOp::Union, &roi, &range).unwrap() as f64;
                let mut v = inter / union;
                if v.is_nan() {
                    v = f64::INFINITY;
                }
                (v, ImageId::new(i as u64))
            })
            .collect();
        sort_ranked(&mut expected, Order::Asc, 6);
        let got: Vec<(f64, ImageId)> = out
            .rows
            .iter()
            .map(|r| {
                let id = match r.key {
                    crate::result::RowKey::Image(id) => id,
                    _ => panic!("image rows expected"),
                };
                (r.value.unwrap(), id)
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn pair_terms_can_mix_sides_and_composition() {
        // "Images where the models disagree a lot relative to how salient
        // model 1 thinks the image is": DIFF count > 0.3 * left count.
        let (store, catalog, masks) = pair_db(15);
        let s = session(store, catalog, IndexingMode::Eager);
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let predicate = Predicate::gt(
            Expr::cp_composed(MaskOp::Diff, RoiSpec::FullMask, range).sub(
                Expr::cp_side(crate::spec::TermSource::Left, RoiSpec::FullMask, range)
                    .mul(Expr::Const(0.3)),
            ),
            0.0,
        );
        let out = s.execute(&Query::pair_filter(join(), predicate)).unwrap();
        let roi = Roi::new(0, 0, 40, 40).unwrap();
        let expected: Vec<ImageId> = masks
            .iter()
            .enumerate()
            .filter(|(_, (a, b))| {
                let diff = cp_composed(a, b, MaskOp::Diff, &roi, &range).unwrap() as f64;
                let left = cp(a, &roi, &range) as f64;
                diff - left * 0.3 > 0.0
            })
            .map(|(i, _)| ImageId::new(i as u64))
            .collect();
        assert_eq!(out.image_ids(), expected);
    }

    #[test]
    fn composed_bounds_prune_identical_pairs() {
        // Every image's two masks are concentrated blobs: `CP(DIFF) ≤
        // CP∪ ≤ CPa + CPb`, which the composed bound algebra derives from
        // the two CHIs alone — so a threshold above that sum must prune
        // every candidate without loading a single mask.
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        for i in 0..12u64 {
            let mask = Mask::from_fn(32, 32, move |x, y| {
                let dx = x as f32 - 16.0;
                let dy = y as f32 - (i % 5) as f32 - 12.0;
                (0.9 * (-(dx * dx + dy * dy) / 30.0).exp()).min(0.999)
            });
            for (slot, model) in [1u64, 2u64].iter().enumerate() {
                let mask_id = MaskId::new(i * 2 + slot as u64);
                store.put(mask_id, &mask).unwrap();
                catalog.insert(
                    MaskRecord::builder(mask_id)
                        .image_id(ImageId::new(i))
                        .model_id(ModelId::new(*model))
                        .shape(32, 32)
                        .build(),
                );
            }
        }
        let s = session(Arc::clone(&store), catalog, IndexingMode::Eager);
        store.io_stats().reset();
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let predicate = Predicate::gt(
            Expr::cp_composed(MaskOp::Diff, RoiSpec::FullMask, range),
            600.0,
        );
        let out = s.execute(&Query::pair_filter(join(), predicate)).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.stats.pruned, 12);
        assert_eq!(out.stats.masks_loaded, 0, "composed bounds failed to prune");
    }

    #[test]
    fn pair_terms_in_single_mask_queries_fail_loudly() {
        // A pair-sourced term smuggled into a plain filter / top-k query
        // must error, never silently evaluate against the candidate's own
        // mask.
        let (store, catalog, _) = pair_db(4);
        for mode in [IndexingMode::Eager, IndexingMode::Disabled] {
            let s = session(Arc::clone(&store), catalog.clone(), mode);
            let range = PixelRange::new(0.5, 1.0).unwrap();
            let composed = Expr::cp_composed(MaskOp::Diff, RoiSpec::FullMask, range);
            let filter = Query::filter(Predicate::gt(composed.clone(), 0.0));
            assert!(s.execute(&filter).is_err(), "filter, mode {mode:?}");
            let topk = Query::top_k(composed, 3, Order::Desc);
            assert!(s.execute(&topk).is_err(), "topk, mode {mode:?}");
            let side = Query::filter(Predicate::gt(
                Expr::cp_side(crate::spec::TermSource::Left, RoiSpec::FullMask, range),
                0.0,
            ));
            assert!(s.execute(&side).is_err(), "side term, mode {mode:?}");
        }
    }

    #[test]
    fn unpaired_images_are_skipped_and_shapes_must_match() {
        let store = Arc::new(MemoryMaskStore::for_tests());
        let mut catalog = Catalog::new();
        let add = |store: &Arc<MemoryMaskStore>,
                   catalog: &mut Catalog,
                   id: u64,
                   image: u64,
                   model: u64,
                   side: u32| {
            let mask = Mask::constant(side, side, 0.5).unwrap();
            store.put(MaskId::new(id), &mask).unwrap();
            catalog.insert(
                MaskRecord::builder(MaskId::new(id))
                    .image_id(ImageId::new(image))
                    .model_id(ModelId::new(model))
                    .shape(side, side)
                    .build(),
            );
        };
        // Image 0: complete pair. Image 1: left only. Image 2: mismatched
        // shapes.
        add(&store, &mut catalog, 0, 0, 1, 16);
        add(&store, &mut catalog, 1, 0, 2, 16);
        add(&store, &mut catalog, 2, 1, 1, 16);
        add(&store, &mut catalog, 3, 2, 1, 16);
        add(&store, &mut catalog, 4, 2, 2, 8);
        let s = session(store, catalog, IndexingMode::Disabled);
        let range = PixelRange::full();
        let predicate = Predicate::gt(
            Expr::cp_composed(MaskOp::Union, RoiSpec::FullMask, range),
            0.0,
        );
        // With the mismatched image included, execution fails loudly.
        let err = s.execute(&Query::pair_filter(join(), predicate.clone()));
        assert!(err.is_err());
        // Restricting to the complete image works and skips the unpaired one.
        let query = Query::pair_filter(join(), predicate).with_selection(
            Selection::all().with_image_ids(vec![ImageId::new(0), ImageId::new(1)]),
        );
        let out = s.execute(&query).unwrap();
        assert_eq!(out.image_ids(), vec![ImageId::new(0)]);
        assert_eq!(out.stats.pairs_bound, 1);
    }
}
