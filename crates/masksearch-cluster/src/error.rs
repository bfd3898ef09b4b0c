//! Cluster-level errors: everything that can go wrong between a statement
//! arriving at the coordinator and its merged result leaving it.

use masksearch_core::MaskId;
use masksearch_service::ServiceError;

/// Result alias for cluster operations.
pub type ClusterResult<T> = Result<T, ClusterError>;

/// An error produced by the cluster layer.
#[derive(Debug)]
pub enum ClusterError {
    /// The cluster was misconfigured (no shards, bad shard-map encoding, …).
    Config(String),
    /// A SQL statement failed to parse or lower at the coordinator.
    Sql(String),
    /// A shard request failed (after the client's bounded reconnect).
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// Address of the failing shard.
        addr: String,
        /// The underlying service error.
        source: ServiceError,
    },
    /// A `DELETE` referenced a mask id no shard holds (reported before any
    /// shard is mutated, matching single-node semantics).
    UnknownMask(MaskId),
    /// The coordinator produced or received something inconsistent.
    Internal(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "cluster configuration error: {msg}"),
            Self::Sql(msg) => write!(f, "SQL error: {msg}"),
            Self::Shard {
                shard,
                addr,
                source,
            } => write!(f, "shard {shard} ({addr}) failed: {source}"),
            Self::UnknownMask(id) => write!(f, "unknown mask id {}", id.raw()),
            Self::Internal(msg) => write!(f, "cluster internal error: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<masksearch_sql::SqlError> for ClusterError {
    fn from(e: masksearch_sql::SqlError) -> Self {
        Self::Sql(e.to_string())
    }
}
