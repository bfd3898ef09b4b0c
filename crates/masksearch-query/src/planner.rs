//! The plan of one statement: the session's kernel policy and the access
//! path its candidate resolution takes.
//!
//! Nothing here estimates anything. The verification kernel follows one
//! observable rule ([`KernelMode::kernel_on`]): under `Auto` a loaded mask
//! is counted by the tiled kernel if it already carries its tile grid (the
//! write path's pixel pass built it; a durable store seeds it on load) and
//! by the reference scan if it does not. The access path is the secondary
//! index [`Session`] would probe for the selection, computed by the same
//! decision the resolution makes, so `EXPLAIN` cannot disagree with
//! execution.

use crate::query::{Query, QueryKind};
use crate::session::Session;
use masksearch_core::TiledMask;
use masksearch_plan::KernelMode;

/// An executable plan: the kernel policy the executors apply per mask, and
/// the access path `EXPLAIN` and the slow-query log show.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// The session's verification-kernel policy.
    pub kernel_mode: KernelMode,
    /// Name of the secondary index the candidate resolution probes for the
    /// query's selection, `None` on the catalog-scan path.
    pub index_access: Option<String>,
    /// Pair queries: the index access of the left and right binding's
    /// resolution (`selection ∧ join.side`), in that order.
    pub pair_index_access: [Option<String>; 2],
}

impl ExecPlan {
    /// Compact strategy signature for the slow-query log:
    /// `kernel=<auto|on|off> index=<name|scan>`. A pair query that probes an
    /// index on either binding side shows both sides, comma-joined.
    pub fn signature(&self) -> String {
        let access = |a: &Option<String>| a.as_deref().unwrap_or("scan").to_string();
        let index = if self.pair_index_access.iter().any(Option::is_some) {
            self.pair_index_access
                .iter()
                .map(access)
                .collect::<Vec<_>>()
                .join(",")
        } else {
            access(&self.index_access)
        };
        format!("kernel={} index={index}", self.kernel_mode.label())
    }

    /// Whether one loaded mask is counted by the tiled kernel.
    pub fn kernel_on_for(&self, tiled: &TiledMask) -> bool {
        self.kernel_mode.kernel_on(tiled.has_grid())
    }
}

/// Builds the plan of a query under the session's configuration. Pair
/// kinds resolve each binding side separately.
pub(crate) fn plan_query(session: &Session, query: &Query) -> ExecPlan {
    let (index_access, pair_index_access) = match &query.kind {
        QueryKind::PairFilter { join, .. } | QueryKind::PairTopK { join, .. } => (
            None,
            [
                session.index_access_for(&[&query.selection, &join.left]),
                session.index_access_for(&[&query.selection, &join.right]),
            ],
        ),
        _ => (session.index_access_for(&[&query.selection]), [None, None]),
    };
    ExecPlan {
        kernel_mode: session.config().kernel_mode,
        index_access,
        pair_index_access,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::Mask;

    fn plan(kernel_mode: KernelMode) -> ExecPlan {
        ExecPlan {
            kernel_mode,
            index_access: None,
            pair_index_access: [None, None],
        }
    }

    #[test]
    fn fixed_plans_reproduce_the_forced_pipeline() {
        let gridless = TiledMask::from_mask(Mask::constant(8, 8, 0.4).unwrap());
        let gridded = TiledMask::from_mask(Mask::constant(8, 8, 0.4).unwrap());
        let _ = gridded.grid();
        for mask in [&gridless, &gridded] {
            assert!(plan(KernelMode::ForceOn).kernel_on_for(mask));
            assert!(!plan(KernelMode::ForceOff).kernel_on_for(mask));
        }
        assert!(!gridless.has_grid(), "deciding builds no grid");
    }

    #[test]
    fn auto_plans_take_the_kernel_exactly_on_gridded_masks() {
        let mask = TiledMask::from_mask(Mask::constant(8, 8, 0.4).unwrap());
        assert!(!plan(KernelMode::Auto).kernel_on_for(&mask));
        let _ = mask.grid();
        assert!(plan(KernelMode::Auto).kernel_on_for(&mask));
    }

    #[test]
    fn signatures_name_the_kernel_mode_and_access_path() {
        assert_eq!(plan(KernelMode::Auto).signature(), "kernel=auto index=scan");
        let mut indexed = plan(KernelMode::ForceOff);
        indexed.index_access = Some("by_model".into());
        assert_eq!(indexed.signature(), "kernel=off index=by_model");
        let mut pair = plan(KernelMode::ForceOn);
        pair.pair_index_access = [None, Some("by_model".into())];
        assert_eq!(pair.signature(), "kernel=on index=scan,by_model");
    }
}
