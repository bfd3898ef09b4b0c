//! The two strategy choices MaskSearch still makes at run time, as pure
//! functions.
//!
//! The paper's execution is filter-verify over the CHI with no cost model
//! (§3). Two places choose between *byte-identical* strategies: the
//! verification of a loaded mask (the tiled kernel or the reference scan
//! return the same counts) and the cluster's top-k merge (single-round and
//! threshold merges both produce the exact global top-k). Both choices
//! read only what the code can observe directly — whether a mask already
//! carries its tile grid, and the request fan-out — so a wrong choice can
//! cost time but never rows.
//!
//! Grids come from the write path's pixel pass; a durable store seeds each
//! loaded mask with its persisted grid. Under [`KernelMode::Auto`] a mask
//! that has one is counted by the kernel and a mask that has none by the
//! scan, so no statement ever pays to build a grid.

/// Session-level policy for the verification kernel.
///
/// Counts are byte-identical under every mode; forcing exists for
/// benchmarking and conformance tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// A mask that already carries its tile grid takes the kernel; any
    /// other mask takes the scan.
    #[default]
    Auto,
    /// Always route verification through the tiled kernel (building a grid
    /// on a mask that has none).
    ForceOn,
    /// Always use the reference batched scan.
    ForceOff,
}

impl KernelMode {
    /// Stable lowercase label (`auto` / `on` / `off`) used in shape keys and
    /// plan signatures.
    pub fn label(&self) -> &'static str {
        match self {
            KernelMode::Auto => "auto",
            KernelMode::ForceOn => "on",
            KernelMode::ForceOff => "off",
        }
    }

    /// Whether a mask is counted by the tiled kernel under this mode, given
    /// whether it already carries its tile grid.
    pub fn kernel_on(&self, has_grid: bool) -> bool {
        match self {
            KernelMode::Auto => has_grid,
            KernelMode::ForceOn => true,
            KernelMode::ForceOff => false,
        }
    }
}

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
    fn kernel_mode_labels_are_stable() {
        assert_eq!(KernelMode::Auto.label(), "auto");
        assert_eq!(KernelMode::ForceOn.label(), "on");
        assert_eq!(KernelMode::ForceOff.label(), "off");
        assert_eq!(KernelMode::default(), KernelMode::Auto);
    }

    #[test]
    fn forced_kernel_modes_ignore_every_feature() {
        for has_grid in [false, true] {
            assert!(KernelMode::ForceOn.kernel_on(has_grid));
            assert!(!KernelMode::ForceOff.kernel_on(has_grid));
        }
    }

    #[test]
    fn auto_kernel_follows_the_tile_grid() {
        assert!(KernelMode::Auto.kernel_on(true));
        assert!(!KernelMode::Auto.kernel_on(false));
    }

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
