//! Service-level errors: everything that can go wrong between a query
//! arriving at the service and its result leaving it.

use masksearch_query::QueryError;
use std::time::Duration;

/// Result alias for service operations.
pub type ServiceResult<T> = Result<T, ServiceError>;

/// An error produced by the serving layer (as opposed to query execution
/// itself, which is wrapped as [`ServiceError::Query`]).
#[derive(Debug)]
pub enum ServiceError {
    /// Every execution slot was busy and `queue_depth` callers were already
    /// waiting for one.
    QueueFull {
        /// Configured queue depth (waiting callers) at the time of rejection.
        depth: usize,
    },
    /// The statement's deadline passed before it got an execution slot.
    DeadlineExceeded {
        /// How long the statement had waited when it was abandoned.
        waited: Duration,
    },
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
    /// Query execution failed.
    Query(QueryError),
    /// A SQL statement failed to parse or lower.
    Sql(String),
    /// A network or protocol failure on the TCP front end.
    Io(String),
    /// The server sent a response the client could not interpret.
    Protocol(String),
    /// The server answered with an `ERR` frame: the request failed on the
    /// peer, but the frame was well-formed and fully consumed — the
    /// connection remains usable.
    Remote(String),
    /// Query execution panicked (the panic was contained: the caller's
    /// thread, and its connection, kept running).
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { depth } => {
                write!(
                    f,
                    "admission queue full ({depth} callers waiting for a slot); admission denied"
                )
            }
            Self::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after {waited:?}")
            }
            Self::ShuttingDown => write!(f, "engine is shutting down"),
            Self::Query(e) => write!(f, "query failed: {e}"),
            Self::Sql(msg) => write!(f, "SQL error: {msg}"),
            Self::Io(msg) => write!(f, "I/O error: {msg}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
            Self::Remote(msg) => write!(f, "server error: {msg}"),
            Self::Internal(msg) => write!(f, "internal error: query panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        Self::Query(e)
    }
}

impl From<masksearch_sql::SqlError> for ServiceError {
    fn from(e: masksearch_sql::SqlError) -> Self {
        Self::Sql(e.to_string())
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

impl ServiceError {
    /// A stable, single-line rendering used by the wire protocol.
    pub fn wire_message(&self) -> String {
        self.to_string().replace(['\r', '\n'], " ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_single_line_on_the_wire() {
        let e = ServiceError::Sql("unexpected\ntoken".to_string());
        assert!(!e.wire_message().contains('\n'));
        let e = ServiceError::QueueFull { depth: 8 };
        assert!(e.wire_message().contains("8"));
    }

    #[test]
    fn query_errors_convert() {
        let q = QueryError::UnknownMask(masksearch_core::MaskId::new(7));
        let s: ServiceError = q.into();
        assert!(matches!(s, ServiceError::Query(_)));
        assert!(std::error::Error::source(&s).is_some());
    }
}
