//! Query executors: one module per query shape.
//!
//! All executors share the same skeleton (§3.2): a **filter stage** that
//! classifies each targeted mask from its CHI bounds alone, and a
//! **verification stage** that loads only the masks the bounds could not
//! decide. Bounds come in two grades: the region bounds of Eqs. 3–4 for
//! every candidate, and per-cell bounds (`TermBounds::cell_bounds`) only
//! for a candidate the region bounds leave undecided, just before it would
//! cost a load. Ranked (top-k) statements bound every item first and then
//! run one shared pass, `top_k`: best optimistic bound first, refining an
//! item once before verifying it, stopping at the first bound that cannot
//! enter the current top-k (§3.5); grouped execution pushes bounds through
//! monotone scalar aggregates before loading any member mask (§3.4).

pub mod aggregate;
pub mod filter;
pub mod mask_agg;
pub mod pair;
pub mod topk;

use crate::error::QueryResult;
use crate::expr::{Expr, Interval};
use crate::predicate::{CmpOp, Comparison, Truth};
use crate::result::{QueryStats, ResultRow};
use crate::spec::Order;
use masksearch_core::ImageId;
use masksearch_storage::disk::Reads;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Fills the I/O-derived fields of [`QueryStats`] from what the statement's
/// own threads read.
pub(crate) fn apply_reads(stats: &mut QueryStats, reads: &Reads) {
    stats.masks_loaded = reads.masks_loaded;
    stats.bytes_read = reads.bytes_read;
    stats.io_virtual = reads.virtual_read;
}

/// Splits a slice into `parts` nearly equal chunks (at least one element per
/// chunk; fewer chunks if the slice is short).
pub(crate) fn chunks_for_threads<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    if items.is_empty() {
        return Vec::new();
    }
    let parts = parts.max(1).min(items.len());
    let chunk = items.len().div_ceil(parts);
    items.chunks(chunk).collect()
}

/// Where `(value, key)` ranks under `order`: a larger rank is better, and
/// on an equal value the smaller key wins. Values compare by
/// [`f64::total_cmp`] with `-0.0` folded into `0.0` (so zeros tie, as under
/// `==`); callers map a NaN exact value to the order's worst infinity first.
type Rank<K> = (i64, Reverse<K>);

fn rank<K>(value: f64, order: Order, key: K) -> Rank<K> {
    let score = match order {
        Order::Desc => value,
        Order::Asc => -value,
    } + 0.0;
    // `f64::total_cmp`'s key: the bits as a signed integer, with the
    // magnitude bits of negative values flipped.
    let bits = score.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, Reverse(key))
}

/// Sorts `(value, key)` pairs best first under `order` (the [`rank`]
/// order: ties go to the smaller key) and truncates to `k`.
pub(crate) fn sort_ranked<K: Ord + Copy>(rows: &mut Vec<(f64, K)>, order: Order, k: usize) {
    rows.sort_by_key(|&(value, key)| Reverse(rank(value, order, key)));
    rows.truncate(k);
}

/// Duration since a start instant, saturating at zero.
pub(crate) fn elapsed(start: std::time::Instant) -> Duration {
    start.elapsed()
}

/// The outcome of [`top_k`].
pub(crate) struct TopK<K> {
    /// The top rows, best first, with their exact values.
    pub rows: Vec<(f64, K)>,
    /// Items whose exact value was computed.
    pub verified: u64,
    /// Items never verified: bounds (refined or not) that made `HAVING`
    /// false, refined bounds that fell below the k-th row, and the
    /// unvisited tail.
    pub pruned: u64,
}

/// Three-valued truth of `HAVING` on a group or item's bounds.
fn having_bounds((op, threshold): (CmpOp, f64), bounds: &Interval) -> Truth {
    Comparison::new(Expr::Const(0.0), op, threshold).eval_bounds(bounds)
}

/// The ranked pass every ranked executor runs (§3.5, Eq. 15): the top `k`
/// of `items` by exact value under `order`, keeping only values that pass
/// `having`. `verify(i)` computes the exact value of `items[i]`;
/// `refine(i)` tighter bounds on it than `items[i]`'s, or `None` when it
/// has none to give.
///
/// Items without a usable bound (`None`, or a NaN optimistic end) are
/// verified first, in key order; the rest are visited best optimistic end
/// first (`hi` for `DESC`, `lo` for `ASC`; ties by ascending key). Once the
/// top holds `k` rows, the first item whose bound ranks below the k-th row
/// ends the pass: every item after it ranks lower still, so none of them
/// can enter, and the rows equal a full sort's. An item reached on its
/// first bound that can still enter is refined once, before it costs a
/// load: under a usable refined bound it goes back among the rest, to be
/// reached again (or never) under its refined optimistic end; otherwise it
/// is verified. Every entry still bounds its item and the pass still takes
/// the best entry left, so the stop rule holds. `HAVING` prunes an item
/// whose bounds — refined, once they are — make it false. A refinement is
/// neither verified nor pruned. A NaN exact value ranks worst under either
/// order.
pub(crate) fn top_k<K: Ord + Copy>(
    items: &[(K, Option<Interval>)],
    k: usize,
    order: Order,
    having: Option<(CmpOp, f64)>,
    mut refine: impl FnMut(usize) -> QueryResult<Option<Interval>>,
    mut verify: impl FnMut(usize) -> QueryResult<f64>,
) -> QueryResult<TopK<K>> {
    if k == 0 {
        let pruned = items.len() as u64;
        return Ok(TopK {
            rows: Vec::new(),
            verified: 0,
            pruned,
        });
    }
    let usable = |bounds: Option<Interval>| {
        let end = bounds.map(|b| match order {
            Order::Desc => b.hi,
            Order::Asc => b.lo,
        });
        end.filter(|end| !end.is_nan())
    };
    let mut unbounded = Vec::new();
    let mut bounded = Vec::with_capacity(items.len());
    for (i, &(key, bounds)) in items.iter().enumerate() {
        match usable(bounds) {
            Some(end) => bounded.push((rank(end, order, key), i, None)),
            None => unbounded.push((key, i)),
        }
    }
    unbounded.sort_unstable();
    let mut unbounded = unbounded.into_iter().map(|(_, i)| i);
    // Built in O(n); one pop per visit. An entry is `(rank, index,
    // refined bounds as bits)`: rank and index are unique, so the bits
    // never decide the order.
    let mut bounded: BinaryHeap<(Rank<K>, usize, Option<[u64; 2]>)> = BinaryHeap::from(bounded);

    // The current top as a min-heap on rank, so its root is the k-th row;
    // the exact value rides along as bits.
    let mut top: BinaryHeap<Reverse<(Rank<K>, u64)>> = BinaryHeap::with_capacity(k + 1);
    let mut verified = 0u64;
    loop {
        let i = match unbounded.next() {
            Some(i) => i,
            None => {
                let Some((bound, i, refined)) = bounded.pop() else {
                    break;
                };
                if let Some(Reverse((kth, _))) = top.peek() {
                    if top.len() == k && bound < *kth {
                        break;
                    }
                }
                let bounds = match refined {
                    Some([lo, hi]) => Interval::new(f64::from_bits(lo), f64::from_bits(hi)),
                    None => items[i].1.expect("a bounded item"),
                };
                if having.is_some_and(|having| having_bounds(having, &bounds) == Truth::False) {
                    continue;
                }
                if refined.is_none() {
                    if let Some(b) = refine(i)? {
                        if let Some(end) = usable(Some(b)) {
                            let bits = [b.lo.to_bits(), b.hi.to_bits()];
                            bounded.push((rank(end, order, items[i].0), i, Some(bits)));
                            continue;
                        }
                    }
                }
                i
            }
        };
        verified += 1;
        let mut value = verify(i)?;
        if having.is_some_and(|(op, threshold)| !op.eval(value, threshold)) {
            continue;
        }
        if value.is_nan() {
            // NaN (e.g. a 0/0 ratio) ranks worst under either order.
            value = match order {
                Order::Desc => f64::NEG_INFINITY,
                Order::Asc => f64::INFINITY,
            };
        }
        let entry = (rank(value, order, items[i].0), value.to_bits());
        if top.len() < k {
            top.push(Reverse(entry));
        } else if top.peek().is_some_and(|Reverse(kth)| entry > *kth) {
            top.pop();
            top.push(Reverse(entry));
        }
    }
    Ok(TopK {
        rows: top
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse(((_, Reverse(key)), bits))| (f64::from_bits(bits), key))
            .collect(),
        verified,
        pruned: items.len() as u64 - verified,
    })
}

/// The pass of a grouped statement over its groups: through [`top_k`]
/// under `ORDER BY … LIMIT`; otherwise every group whose value passes
/// `having`, ascending by image. A group its bounds decide under `HAVING` is
/// never verified, and an accepted one is returned without a value; one
/// they leave undecided is decided by `refine(i)`'s bounds if it can be,
/// as in [`top_k`].
pub(crate) fn grouped(
    items: &[(ImageId, Option<Interval>)],
    having: Option<(CmpOp, f64)>,
    limit: Option<(usize, Order)>,
    mut refine: impl FnMut(usize) -> QueryResult<Option<Interval>>,
    mut verify: impl FnMut(usize) -> QueryResult<f64>,
) -> QueryResult<(Vec<ResultRow>, QueryStats)> {
    let mut stats = QueryStats::default();
    if let Some((k, order)) = limit {
        let top = top_k(items, k, order, having, refine, verify)?;
        (stats.pruned, stats.verified) = (top.pruned, top.verified);
        let rows = top
            .rows
            .into_iter()
            .map(|(v, image)| ResultRow::image(image, Some(v)));
        return Ok((rows.collect(), stats));
    }
    let mut rows = Vec::new();
    for (i, &(image, bounds)) in items.iter().enumerate() {
        if let (Some(bounds), Some(having)) = (bounds, having) {
            let mut truth = having_bounds(having, &bounds);
            if truth == Truth::Unknown {
                if let Some(refined) = refine(i)? {
                    truth = having_bounds(having, &refined);
                }
            }
            match truth {
                Truth::False => {
                    stats.pruned += 1;
                    continue;
                }
                Truth::True => {
                    stats.accepted_without_load += 1;
                    rows.push(ResultRow::image(image, None));
                    continue;
                }
                Truth::Unknown => {}
            }
        }
        stats.verified += 1;
        let value = verify(i)?;
        if having.is_none_or(|(op, threshold)| op.eval(value, threshold)) {
            rows.push(ResultRow::image(image, Some(value)));
        } else {
            stats.pruned += 1;
        }
    }
    rows.sort_by_key(|r| r.key);
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Order;

    #[test]
    fn chunking_covers_all_items() {
        let items: Vec<u32> = (0..10).collect();
        let chunks = chunks_for_threads(&items, 3);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 10);
        assert!(chunks.len() <= 3);
        assert!(chunks_for_threads::<u32>(&[], 4).is_empty());
        let single = chunks_for_threads(&items, 100);
        assert_eq!(single.len(), 10);
    }

    #[test]
    fn ranked_sort_is_deterministic() {
        let mut rows = vec![(3.0, 5u64), (3.0, 2), (7.0, 9), (1.0, 1)];
        sort_ranked(&mut rows, Order::Desc, 3);
        assert_eq!(rows, vec![(7.0, 9), (3.0, 2), (3.0, 5)]);
        let mut rows = vec![(3.0, 5u64), (3.0, 2), (7.0, 9), (1.0, 1)];
        sort_ranked(&mut rows, Order::Asc, 2);
        assert_eq!(rows, vec![(1.0, 1), (3.0, 2)]);
    }

    #[test]
    fn ranked_sort_is_total_over_nan_and_ties_signed_zeros() {
        // A comparator that is not a total order panics in the standard
        // sort on inputs like this one.
        let mut rows: Vec<(f64, u64)> = (0..64)
            .map(|i| (if i % 3 == 0 { f64::NAN } else { (i % 5) as f64 }, i))
            .collect();
        sort_ranked(&mut rows, Order::Desc, 64);
        let mut rows = vec![(0.0, 3u64), (-0.0, 1), (0.0, 2)];
        sort_ranked(&mut rows, Order::Asc, 3);
        assert_eq!(rows.iter().map(|r| r.1).collect::<Vec<_>>(), [1, 2, 3]);
    }

    /// `(key, bounds, exact)` items through [`top_k`], recording the visits.
    fn run(
        items: &[(u64, Option<Interval>, f64)],
        k: usize,
        order: Order,
        having: Option<(CmpOp, f64)>,
    ) -> (TopK<u64>, Vec<u64>) {
        run_refined(items, k, order, having, |_| None)
    }

    /// [`run`] with `refine` giving an item's refined bounds.
    fn run_refined(
        items: &[(u64, Option<Interval>, f64)],
        k: usize,
        order: Order,
        having: Option<(CmpOp, f64)>,
        refine: impl Fn(&(u64, Option<Interval>, f64)) -> Option<Interval>,
    ) -> (TopK<u64>, Vec<u64>) {
        let keyed: Vec<(u64, Option<Interval>)> = items.iter().map(|i| (i.0, i.1)).collect();
        let mut visited = Vec::new();
        let top = top_k(
            &keyed,
            k,
            order,
            having,
            |i| Ok(refine(&items[i])),
            |i| {
                visited.push(items[i].0);
                Ok(items[i].2)
            },
        )
        .unwrap();
        (top, visited)
    }

    #[test]
    fn refined_bounds_go_back_into_the_order_and_spare_loads() {
        let b = |lo, hi| Some(Interval::new(lo, hi));
        let items = [
            (1, b(0.0, 10.0), 5.0),
            (2, b(0.0, 9.0), 8.0),
            (3, b(0.0, 8.0), 2.0),
        ];
        // Keys 1 and 2 are refined to their exact values and go back; key
        // 2 is verified on its refined 8, and key 3's region bound 8 ties
        // it with a larger key: the pass ends with one load.
        let (top, visited) = run_refined(&items, 1, Order::Desc, None, |i| b(i.2, i.2));
        assert_eq!((top.rows, visited), (vec![(8.0, 2)], vec![2]));
        assert_eq!((top.verified, top.pruned), (1, 2));
        // Without a usable refinement an item is verified when reached.
        for refined in [None, b(f64::NAN, f64::NAN)] {
            let (top, visited) = run_refined(&items, 1, Order::Desc, None, |_| refined);
            assert_eq!((top.rows, visited), (vec![(8.0, 2)], vec![1, 2]));
        }
        // `HAVING` prunes on the refined bounds.
        let (top, visited) = run_refined(&items, 3, Order::Desc, Some((CmpOp::Gt, 6.0)), |i| {
            b(i.2, i.2 + 0.5)
        });
        assert_eq!((top.rows, visited), (vec![(8.0, 2)], vec![2]));
        assert_eq!((top.verified, top.pruned), (1, 2));
    }

    #[test]
    fn visits_unbounded_items_first_then_best_bound_and_stops() {
        let b = |lo, hi| Some(Interval::new(lo, hi));
        let items = [
            (4, b(0.0, 9.0), 8.0),
            (7, None, 1.0),
            (2, b(f64::NAN, f64::NAN), 2.0),
            (9, b(5.0, 6.0), 5.0),
            (1, b(0.0, 3.0), 3.0),
            (3, b(0.0, 9.0), 9.0),
        ];
        let (top, visited) = run(&items, 2, Order::Desc, None);
        // Unbounded (7, then the NaN bound 2) in key order, then bound 9
        // (keys 3, 4); bound 6 < the k-th value 8 ends the pass.
        assert_eq!(visited, [2, 7, 3, 4]);
        assert_eq!(top.rows, [(9.0, 3), (8.0, 4)]);
        assert_eq!((top.verified, top.pruned), (4, 2));
        let (top, _) = run(&items, 0, Order::Desc, None);
        assert_eq!((top.rows.len(), top.verified, top.pruned), (0, 0, 6));
    }

    #[test]
    fn an_equal_bound_enters_only_with_a_smaller_key() {
        let b = |lo, hi| Some(Interval::new(lo, hi));
        // Key 5's loose bound is visited first and holds the k-th value 3;
        // key 1's exact bound ties it with a smaller key and must enter,
        // key 8's ties it with a larger key and ends the pass.
        let items = [
            (5, b(0.0, 10.0), 3.0),
            (1, b(3.0, 3.0), 3.0),
            (8, b(3.0, 3.0), 3.0),
        ];
        let (top, visited) = run(&items, 1, Order::Desc, None);
        assert_eq!(top.rows, [(3.0, 1)]);
        assert_eq!(visited, [5, 1]);
        let items = [
            (5, b(-4.0, 3.0), 3.0),
            (1, b(3.0, 3.0), 3.0),
            (8, b(3.0, 3.0), 3.0),
        ];
        let (top, visited) = run(&items, 1, Order::Asc, None);
        assert_eq!(top.rows, [(3.0, 1)]);
        assert_eq!(visited, [5, 1]);
    }

    #[test]
    fn having_prunes_on_bounds_and_filters_exact_values() {
        let b = |lo, hi| Some(Interval::new(lo, hi));
        let items = [
            (1, b(0.0, 4.0), 4.0),  // bounds fail `> 5`: never verified
            (2, b(0.0, 20.0), 5.0), // verified, fails `> 5`
            (3, None, 7.0),         // verified first, passes
            (4, b(6.0, 9.0), f64::NAN),
        ];
        let (top, visited) = run(&items, 3, Order::Asc, Some((CmpOp::Gt, 5.0)));
        assert_eq!(top.rows, [(7.0, 3)]);
        assert_eq!(visited, [3, 2, 4]);
        assert_eq!((top.verified, top.pruned), (3, 1));
    }

    #[test]
    fn nan_exact_values_rank_worst() {
        let items = [(1, None, f64::NAN), (2, None, 1.0), (3, None, f64::NAN)];
        let (top, _) = run(&items, 3, Order::Desc, None);
        assert_eq!(
            top.rows,
            [(1.0, 2), (f64::NEG_INFINITY, 1), (f64::NEG_INFINITY, 3)]
        );
        let (top, _) = run(&items, 2, Order::Asc, None);
        assert_eq!(top.rows, [(1.0, 2), (f64::INFINITY, 1)]);
    }

    #[test]
    fn top_k_equals_a_full_sort_on_tie_heavy_items() {
        // A small LCG: exact values in 0..6 (many ties), bounds absent,
        // exact or loose.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for case in 0..400 {
            let len = 1 + next(14) as usize;
            let mut keys: Vec<u64> = (0..len as u64 * 3).collect();
            let items: Vec<(u64, Option<Interval>, f64)> = (0..len)
                .map(|_| {
                    let key = keys.remove(next(keys.len() as u64) as usize);
                    let exact = next(6) as f64;
                    let bounds = match next(3) {
                        0 => None,
                        1 => Some(Interval::point(exact)),
                        _ => Some(Interval::new(
                            exact - next(3) as f64,
                            exact + next(3) as f64,
                        )),
                    };
                    (key, bounds, exact)
                })
                .collect();
            let k = next(len as u64 + 2) as usize;
            let order = if next(2) == 0 {
                Order::Desc
            } else {
                Order::Asc
            };
            let having = (next(2) == 0).then_some((CmpOp::Ge, 2.0));
            let mut expected: Vec<(f64, u64)> = items
                .iter()
                .filter(|i| having.is_none() || i.2 >= 2.0)
                .map(|i| (i.2, i.0))
                .collect();
            sort_ranked(&mut expected, order, k);
            let (top, _) = run(&items, k, order, having);
            assert_eq!(top.rows, expected, "case {case}: {items:?} k={k} {order:?}");
            // Refinements inside the bounds — none, exact, narrower or NaN
            // by key — leave the rows as they are.
            let refine = |&(key, bounds, exact): &(u64, Option<Interval>, f64)| {
                let b: Interval = bounds?;
                match key % 4 {
                    0 => None,
                    1 => Some(Interval::point(exact)),
                    2 => Some(Interval::new(b.lo.max(exact - 1.0), b.hi.min(exact + 1.0))),
                    _ => Some(Interval::new(f64::NAN, f64::NAN)),
                }
            };
            let (top, _) = run_refined(&items, k, order, having, refine);
            assert_eq!(
                top.rows, expected,
                "case {case} refined: {items:?} k={k} {order:?}"
            );
        }
    }
}
