//! What the front end serves: the [`Backend`] trait, and `answer`, the one
//! dispatch from a parsed request to its response frames.
//!
//! A shard's [`Engine`](crate::Engine) and a cluster coordinator both
//! implement the trait, and [`Server`](crate::Server) is generic over it, so
//! the two speak the protocol through the same connection loop, the same
//! `PING` / `MONITOR` handling and the same frame encoders. The trait holds
//! only what differs between them.

use crate::error::ServiceError;
use crate::job::{PartialResponse, Response};
use crate::protocol::{self, ClientRequest, RecordControl};
use masksearch_core::MaskId;
use masksearch_obs::{keys, QueryProfile, RecorderStatus};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One kind of server behind the front end: answers each request kind whose
/// answer differs between a single engine and a cluster coordinator.
pub trait Backend: Clone + Send + Sync + 'static {
    /// State one connection carries between its untagged requests, dropped
    /// with the connection (the engine's open `BEGIN … COMMIT` buffer).
    type Conn: Default + Send;

    /// Why a request failed; answered as a one-line `ERR` frame.
    type Error: std::fmt::Display;

    /// Answers an untagged request from the connection's own state, or
    /// returns `None` to leave it to the shared dispatch. Tagged requests
    /// never come here. The default keeps no state.
    fn connection_request(
        &self,
        _conn: &mut Self::Conn,
        _request: &ClientRequest,
    ) -> Option<Result<Response, Self::Error>> {
        None
    }

    /// Executes one SQL statement: a query, a write, an `EXPLAIN` or a
    /// `BEGIN; …; COMMIT` script. A `TOKEN <id>` makes a write's resend
    /// exactly-once.
    fn statement(&self, token: Option<u64>, sql: &str) -> Result<Response, Self::Error>;

    /// Executes a ranked statement in partial mode (`PARTIAL K=<k>`).
    fn partial(&self, k: usize, sql: &str) -> Result<PartialResponse, Self::Error>;

    /// The `STATS` line; `active_connections` is the front end's count.
    fn stats_line(&self, active_connections: u64) -> Result<String, Self::Error>;

    /// The `METRICS` Prometheus text exposition.
    fn prometheus_text(&self) -> String;

    /// The `METRICS WINDOW <secs>` exposition.
    fn metrics_window_text(&self, secs: u64) -> String;

    /// Applies a `RECORD` flight-recorder control.
    fn record(&self, control: &RecordControl) -> Result<RecorderStatus, Self::Error>;

    /// The most recent `n` query profiles, newest first.
    fn profiles(&self, n: usize) -> Vec<QueryProfile>;

    /// Which of `ids` are held (`LOOKUP`), or every held id for `None`
    /// (`LOOKUP *`).
    fn lookup(&self, ids: Option<&[MaskId]>) -> Result<Vec<MaskId>, Self::Error>;
}

/// Answers one request, handing each rendered frame — `@<id>`-prefixed when
/// `tag` is set — to `emit`. `MONITOR` emits one frame per tick; every other
/// request exactly one. A failed request is an `ERR` frame, not an error:
/// the returned error is `emit`'s, and means the connection is gone.
pub(crate) fn answer<B: Backend>(
    backend: &B,
    active_connections: &AtomicU64,
    tag: Option<u64>,
    request: ClientRequest,
    emit: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    match request {
        // QUIT closes the connection loop; a tagged QUIT or MONITOR is
        // rejected before it gets here.
        ClientRequest::Quit => Ok(()),
        ClientRequest::Monitor {
            frames,
            interval_ms,
        } => {
            // Each frame reads the counters off the backend's own `STATS`
            // line, and the subscriber's baseline is zero, so frame 0
            // carries the cumulative counters and the deltas summed over
            // the subscription equal the final STATS.
            let mut prev = vec![0u64; keys::MONITOR_DELTA_KEYS.len()];
            for seq in 0..frames {
                let values = match backend.stats_line(active_connections.load(Ordering::Relaxed)) {
                    Ok(line) => keys::monitor_values(&keys::merge_stats(&[line])),
                    Err(e) => return emit(&frame(tag, |buf| protocol::write_error(buf, &e))),
                };
                let deltas: Vec<(&str, u64)> = values
                    .iter()
                    .zip(&prev)
                    .map(|(&(key, value), &p)| (key, value.saturating_sub(p)))
                    .collect();
                emit(&frame(tag, |buf| {
                    protocol::write_delta_frame(buf, u64::from(seq), &deltas)
                }))?;
                prev = values.iter().map(|&(_, value)| value).collect();
                if seq + 1 < frames {
                    std::thread::sleep(Duration::from_millis(interval_ms));
                }
            }
            Ok(())
        }
        request => emit(&frame(tag, |buf| match request {
            ClientRequest::Quit | ClientRequest::Monitor { .. } => unreachable!("answered above"),
            ClientRequest::Ping => protocol::write_pong(buf),
            ClientRequest::Stats => {
                match backend.stats_line(active_connections.load(Ordering::Relaxed)) {
                    Ok(line) => writeln!(buf, "{line}\n{}", protocol::END_MARKER),
                    Err(e) => protocol::write_error(buf, &e),
                }
            }
            ClientRequest::Metrics => {
                protocol::write_metrics_response(buf, &backend.prometheus_text())
            }
            ClientRequest::MetricsWindow(secs) => {
                protocol::write_metrics_response(buf, &backend.metrics_window_text(secs))
            }
            ClientRequest::Record(control) => match backend.record(&control) {
                Ok(status) => protocol::write_record_status(buf, &status),
                Err(e) => protocol::write_error(buf, &e),
            },
            ClientRequest::Profiles(n) => {
                let lines: Vec<String> = backend
                    .profiles(n)
                    .iter()
                    .flat_map(|p| p.render())
                    .collect();
                protocol::write_profiles_response(buf, &lines)
            }
            ClientRequest::Lookup(ids) => write_lookup(buf, backend.lookup(Some(&ids))),
            ClientRequest::LookupAll => write_lookup(buf, backend.lookup(None)),
            ClientRequest::Partial { k, sql } => match backend.partial(k, &sql) {
                Ok(partial) => {
                    protocol::write_response_with_bound(buf, &partial.response, partial.bound)
                }
                Err(e) => protocol::write_error(buf, &e),
            },
            ClientRequest::Tokened { token, sql } => {
                write_statement(buf, backend.statement(Some(token), &sql))
            }
            ClientRequest::Sql(sql) => write_statement(buf, backend.statement(None, &sql)),
        })),
    }
}

/// Renders one frame into a fresh buffer, prefixed with its `@<id>` tag.
pub(crate) fn frame(
    tag: Option<u64>,
    render: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    if let Some(id) = tag {
        let _ = write!(buf, "@{id} ");
    }
    // Writes into a Vec cannot fail.
    let _ = render(&mut buf);
    buf
}

/// Writes the outcome of a SQL statement as one frame.
pub(crate) fn write_statement<E: std::fmt::Display>(
    buf: &mut Vec<u8>,
    result: Result<Response, E>,
) -> std::io::Result<()> {
    match result {
        Ok(Response::Single(response)) => protocol::write_response(buf, &response),
        Ok(Response::Mutation(response)) => protocol::write_mutation_response(buf, &response),
        Ok(Response::Plan(lines)) => protocol::write_plan_response(buf, &lines),
        // The statement path never produces partial responses.
        Ok(Response::Partial(_)) => protocol::write_error(
            buf,
            &ServiceError::Protocol("unexpected response kind for a SQL statement".to_string()),
        ),
        Err(e) => protocol::write_error(buf, &e),
    }
}

fn write_lookup<E: std::fmt::Display>(
    buf: &mut Vec<u8>,
    result: Result<Vec<MaskId>, E>,
) -> std::io::Result<()> {
    match result {
        Ok(present) => protocol::write_lookup_response(buf, &present),
        Err(e) => protocol::write_error(buf, &e),
    }
}
