//! The one strategy choice MaskSearch still makes at run time, as a pure
//! function: the cluster's top-k merge. Single-round and threshold merges
//! both produce the exact global top-k, so the choice reads only the
//! request fan-out and can cost time but never rows.

/// Chooses single-round top-k (ask every shard for the full `k` once) over
/// the threshold algorithm (small first round, refine while a shard's bound
/// may improve the merge).
///
/// Single-round wins when the threshold algorithm would ask for almost `k`
/// anyway (small `k` relative to the shard count) or when observed rounds
/// show refinement rarely converging in one pass. Both merges produce the
/// exact global top-k, so this only trades request fan-out against rounds.
pub fn choose_single_round(k: usize, shards: usize, observed_avg_rounds: Option<f64>) -> bool {
    if shards <= 1 {
        return true;
    }
    // The threshold algorithm's first round asks ceil(k/shards)+1; when that
    // already reaches k the refinement machinery can only add rounds.
    let first_k = (k.div_ceil(shards) + 1).min(k);
    if first_k >= k {
        return true;
    }
    match observed_avg_rounds {
        Some(avg) => avg >= 1.5,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_round_covers_trivial_and_slow_converging_cases() {
        assert!(choose_single_round(10, 1, None));
        // k=2 over 4 shards: the threshold first round already asks k per
        // shard, so refinement can only add rounds.
        assert!(choose_single_round(2, 4, None));
        // Large k over few shards: threshold saves fan-out, keep it.
        assert!(!choose_single_round(100, 4, None));
        // ... unless observed rounds say refinement rarely converges.
        assert!(choose_single_round(100, 4, Some(2.0)));
        assert!(!choose_single_round(100, 4, Some(1.1)));
    }
}
