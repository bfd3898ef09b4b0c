//! The plan of one statement: the access path its candidate resolution
//! takes.
//!
//! Nothing here estimates anything, and execution does not read the plan:
//! the access path is the secondary index [`Session`] probes for the
//! selection, computed by the same decision the resolution makes, so
//! `EXPLAIN` cannot disagree with execution. Verification has no choice to
//! plan: a mask is counted by CHI cell when the statement's index
//! summarises its pixels and by the reference scan otherwise (see
//! `crate::verify`).

use crate::query::{Query, QueryKind};
use crate::session::Session;

/// A statement's plan: the access path `EXPLAIN` and the slow-query log
/// show.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// Name of the secondary index the candidate resolution probes for the
    /// query's selection, `None` on the catalog-scan path.
    pub index_access: Option<String>,
    /// Pair queries: the index access of the left and right binding's
    /// resolution (`selection ∧ join.side`), in that order.
    pub pair_index_access: [Option<String>; 2],
}

impl ExecPlan {
    /// Compact strategy signature for the slow-query log:
    /// `index=<name|scan>`. A pair query that probes an index on either
    /// binding side shows both sides, comma-joined.
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
        format!("index={index}")
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
        index_access,
        pair_index_access,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_name_the_access_path() {
        let mut plan = ExecPlan {
            index_access: None,
            pair_index_access: [None, None],
        };
        assert_eq!(plan.signature(), "index=scan");
        plan.index_access = Some("by_model".into());
        assert_eq!(plan.signature(), "index=by_model");
        plan.pair_index_access = [None, Some("by_model".into())];
        assert_eq!(plan.signature(), "index=scan,by_model");
    }
}
