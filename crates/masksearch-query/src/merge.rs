//! Merging partial query outputs from a partitioned catalog.
//!
//! A cluster coordinator (or any caller that split a catalog into disjoint
//! partitions) executes a query against each partition independently and
//! merges the partial [`QueryOutput`]s back into the answer the single-node
//! executor would have produced. The merge rules depend on the query shape:
//!
//! * **Filter** and **HAVING-aggregation** queries return one row per
//!   qualifying key, ascending by key, and the qualifying keys of the
//!   partitions are disjoint — the merge is a sorted union
//!   ([`merge_unordered`]).
//! * **Ranked** (top-k) queries return each partition's *local* top-k. The
//!   global top-k is contained in the union of local top-k's when every
//!   partition was asked for the full `k`; with smaller per-partition
//!   budgets the coordinator additionally needs each partition's k-th value
//!   as a bound and must refine ([`merge_ranked`], [`partial_may_improve`],
//!   and [`Session::execute_topk_partial`](crate::Session::execute_topk_partial)).
//!
//! Exactness requires the partition to respect the grouping key: grouped
//! (`GROUP BY image_id`) queries aggregate *within* an image, so all masks
//! of one image must live in the same partition. Partitions produced by
//! hashing the image id (the cluster's `ShardMap`) satisfy this by
//! construction.

use crate::exec::sort_ranked;
use crate::result::{QueryOutput, QueryStats, ResultRow, RowKey};
use crate::spec::Order;

/// A partition's share of a ranked query: its local top-k plus the bound
/// that any mask (or group) it did *not* return cannot beat.
#[derive(Debug, Clone)]
pub struct RankedPartial {
    /// The partition's local top-k rows (with exact values) and stats.
    pub output: QueryOutput,
    /// The partition's k-th value, present exactly when the partition holds
    /// more candidates than it returned. Every unreturned candidate on the
    /// partition ranks no better than this value, and among ties carries a
    /// larger key than every returned tied row — the two facts
    /// [`partial_may_improve`] builds on.
    pub bound: Option<f64>,
}

/// Sums the execution statistics of partial outputs.
pub fn merge_stats<'a>(partials: impl IntoIterator<Item = &'a QueryStats>) -> QueryStats {
    let mut merged = QueryStats::default();
    for s in partials {
        merged.candidates += s.candidates;
        merged.pruned += s.pruned;
        merged.accepted_without_load += s.accepted_without_load;
        merged.verified += s.verified;
        merged.masks_loaded += s.masks_loaded;
        merged.verified_in_place += s.verified_in_place;
        merged.bytes_read += s.bytes_read;
        merged.indexes_built += s.indexes_built;
        merged.tiles_pruned += s.tiles_pruned;
        merged.tiles_hist += s.tiles_hist;
        merged.tiles_scanned += s.tiles_scanned;
        merged.pairs_bound += s.pairs_bound;
        merged.planner_kernel_on += s.planner_kernel_on;
        merged.planner_kernel_off += s.planner_kernel_off;
        merged.resolve_wall += s.resolve_wall;
        merged.filter_wall += s.filter_wall;
        merged.verify_wall += s.verify_wall;
        merged.total_wall += s.total_wall;
        merged.io_virtual += s.io_virtual;
    }
    merged
}

/// Merges partial outputs of an *unordered* query (filter, plain
/// aggregation, or HAVING aggregation) over disjoint partitions: the rows
/// are unioned and sorted ascending by key, matching the single-node
/// executors' output order; statistics are summed.
pub fn merge_unordered(partials: Vec<QueryOutput>) -> QueryOutput {
    let stats = merge_stats(partials.iter().map(|p| &p.stats));
    let mut rows: Vec<ResultRow> = partials.into_iter().flat_map(|p| p.rows).collect();
    rows.sort_by_key(|r| r.key);
    QueryOutput { rows, stats }
}

/// Merges partial outputs of a ranked query: rows are unioned and re-ranked
/// under `order` with the single-node executors' deterministic id tie-break,
/// then truncated to `k`.
///
/// The result is the exact global top-k **provided** every partition's
/// unreturned candidates are covered — either because the partition returned
/// all candidates it holds, or because its [`RankedPartial::bound`] fails
/// [`partial_may_improve`] against this merge.
pub fn merge_ranked(partials: &[QueryOutput], k: usize, order: Order) -> QueryOutput {
    let stats = merge_stats(partials.iter().map(|p| &p.stats));
    let mut ranked: Vec<(f64, RowKey)> = partials
        .iter()
        .flat_map(|p| p.rows.iter())
        .map(|row| {
            // Ranked rows always carry their exact value; the executors map
            // NaN to the worst value under the order before ranking.
            let value = row.value.unwrap_or(match order {
                Order::Desc => f64::NEG_INFINITY,
                Order::Asc => f64::INFINITY,
            });
            (value, row.key)
        })
        .collect();
    sort_ranked(&mut ranked, order, k);
    QueryOutput {
        rows: ranked
            .into_iter()
            .map(|(value, key)| ResultRow {
                key,
                value: Some(value),
            })
            .collect(),
        stats,
    }
}

/// Returns `true` if the partition behind `partial` could still change the
/// merged top-k in `merged` — i.e. it must be re-queried with a larger `k`.
///
/// A hidden row on the partition ranks no better than [`RankedPartial::bound`],
/// so a bound strictly worse than the merged k-th value rules the partition
/// out, and a strictly better bound rules it in. The tie case is decided
/// exactly: hidden rows tied with the bound all carry **larger** keys than
/// every returned row with that value (the executors keep the smallest keys
/// among ties), so they can displace the k-th row only if the partition's
/// largest returned tied key still precedes the merged k-th key.
pub fn partial_may_improve(
    partial: &RankedPartial,
    merged: &QueryOutput,
    k: usize,
    order: Order,
) -> bool {
    let Some(bound) = partial.bound else {
        // The partition returned everything it holds; nothing is hidden.
        return false;
    };
    if merged.rows.len() < k {
        // The merge has not even filled k rows; anything hidden matters.
        return true;
    }
    let Some(kth) = merged.rows.last() else {
        return true;
    };
    let Some(kth_value) = kth.value else {
        return true;
    };
    if order.better(bound, kth_value) {
        return true;
    }
    if bound != kth_value {
        return false;
    }
    // Tie with the k-th value: a hidden row must beat the k-th row's key,
    // and every hidden tied key exceeds the partition's largest returned
    // tied key.
    match partial
        .output
        .rows
        .iter()
        .filter(|r| r.value == Some(bound))
        .map(|r| r.key)
        .max()
    {
        Some(max_tied_key) => max_tied_key < kth.key,
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{ImageId, MaskId};

    fn mask_row(id: u64, value: Option<f64>) -> ResultRow {
        ResultRow::mask(MaskId::new(id), value)
    }

    fn out(rows: Vec<ResultRow>) -> QueryOutput {
        QueryOutput {
            rows,
            stats: QueryStats {
                candidates: 10,
                pruned: 2,
                ..Default::default()
            },
        }
    }

    #[test]
    fn unordered_merge_is_a_sorted_union() {
        let a = out(vec![mask_row(5, None), mask_row(1, None)]);
        let b = out(vec![mask_row(3, None)]);
        let merged = merge_unordered(vec![a, b]);
        assert_eq!(
            merged.rows,
            vec![mask_row(1, None), mask_row(3, None), mask_row(5, None)]
        );
        assert_eq!(merged.stats.candidates, 20);
        assert_eq!(merged.stats.pruned, 4);
    }

    #[test]
    fn unordered_merge_orders_image_rows_too() {
        let a = out(vec![ResultRow::image(ImageId::new(9), Some(1.0))]);
        let b = out(vec![ResultRow::image(ImageId::new(2), None)]);
        let merged = merge_unordered(vec![a, b]);
        assert_eq!(merged.image_ids(), vec![ImageId::new(2), ImageId::new(9)]);
    }

    #[test]
    fn ranked_merge_re_ranks_with_id_tie_break() {
        let a = out(vec![mask_row(7, Some(3.0)), mask_row(9, Some(1.0))]);
        let b = out(vec![mask_row(2, Some(3.0)), mask_row(4, Some(2.0))]);
        let merged = merge_ranked(&[a, b], 3, Order::Desc);
        assert_eq!(
            merged.rows,
            vec![
                mask_row(2, Some(3.0)),
                mask_row(7, Some(3.0)),
                mask_row(4, Some(2.0)),
            ]
        );
    }

    fn partial(rows: Vec<ResultRow>, bound: Option<f64>) -> RankedPartial {
        RankedPartial {
            output: out(rows),
            bound,
        }
    }

    #[test]
    fn bound_checks_respect_order_and_ties() {
        let merged = merge_ranked(
            &[out(vec![mask_row(1, Some(5.0)), mask_row(2, Some(3.0))])],
            2,
            Order::Desc,
        );
        // A strictly worse bound can never improve the merge.
        let p = partial(vec![mask_row(9, Some(2.9))], Some(2.9));
        assert!(!partial_may_improve(&p, &merged, 2, Order::Desc));
        // A strictly better bound always can.
        let p = partial(vec![mask_row(9, Some(3.1))], Some(3.1));
        assert!(partial_may_improve(&p, &merged, 2, Order::Desc));
        // A bound-less partition returned everything already.
        let p = partial(vec![mask_row(9, Some(10.0))], None);
        assert!(!partial_may_improve(&p, &merged, 2, Order::Desc));
        // Under-filled merges always refine.
        let p = partial(vec![mask_row(9, Some(0.0))], Some(0.0));
        assert!(partial_may_improve(&p, &merged, 3, Order::Desc));

        // Ties: hidden tied rows have keys beyond the partition's largest
        // returned tied key, so only a partition whose ties precede the
        // merged k-th key refines.
        let p = partial(vec![mask_row(0, Some(3.0))], Some(3.0));
        assert!(
            partial_may_improve(&p, &merged, 2, Order::Desc),
            "hidden ids 1.. could precede the k-th key (mask 2)"
        );
        let p = partial(vec![mask_row(7, Some(3.0))], Some(3.0));
        assert!(
            !partial_may_improve(&p, &merged, 2, Order::Desc),
            "hidden ids are all beyond mask 7 > mask 2"
        );

        let merged = merge_ranked(
            &[out(vec![mask_row(1, Some(1.0)), mask_row(2, Some(4.0))])],
            2,
            Order::Asc,
        );
        let p = partial(vec![mask_row(9, Some(4.1))], Some(4.1));
        assert!(!partial_may_improve(&p, &merged, 2, Order::Asc));
        let p = partial(vec![mask_row(0, Some(4.0))], Some(4.0));
        assert!(partial_may_improve(&p, &merged, 2, Order::Asc));
    }

    #[test]
    fn single_partition_ties_do_not_refine() {
        // One partition returning its exact top-k must never be re-queried,
        // even when every value ties: the k-th row is its own largest tied
        // key.
        let rows = vec![mask_row(1, Some(7.0)), mask_row(2, Some(7.0))];
        let p = partial(rows.clone(), Some(7.0));
        let merged = merge_ranked(&[out(rows)], 2, Order::Desc);
        assert!(!partial_may_improve(&p, &merged, 2, Order::Desc));
    }
}
