//! The line-oriented wire protocol of the TCP front end.
//!
//! Requests are single lines of UTF-8. A line equal to `PING`, `STATS`, or
//! `QUIT` (case-insensitive) is a control command; any other non-empty line
//! is a SQL statement in the `masksearch-sql` dialect.
//!
//! Every request produces one response *frame*: a sequence of lines
//! terminated by `END`.
//!
//! ```text
//! >> SELECT mask_id FROM masks WHERE CP(mask, (0,0,16,16), (0.5,1.0)) > 50
//! << OK 2 candidates=10 pruned=7 verified=1 loaded=1 wall_us=184
//! << mask 3
//! << mask 7
//! << END
//! >> PING
//! << PONG v2
//! << END
//! >> garbage
//! << ERR SQL error: ...
//! << END
//! ```
//!
//! Row values (when a query computes them) are appended to the row line
//! using Rust's shortest round-trip float formatting, so a value parsed back
//! by the client is bit-identical to the value the server computed.

use crate::error::{ServiceError, ServiceResult};
use crate::job::{MutationResponse, QueryResponse};
use crate::metrics::MetricsSnapshot;
use masksearch_core::{ImageId, MaskId};
use masksearch_query::{QueryOutput, ResultRow, RowKey};

use std::io::{BufRead, Write};

/// Terminates every response frame.
pub const END_MARKER: &str = "END";

/// Version of the wire protocol spoken by this build. Carried in the `PONG`
/// handshake reply (`PONG v<N>`); peers with a different version reject the
/// connection with a clear error instead of mis-parsing frames.
///
/// History: v1 — the original PR-1 protocol (bare `PONG`); v2 — versioned
/// handshake, `PARTIAL K=<n>` bounded top-k with `bound=` summaries,
/// `LOOKUP`, and saturation fields in `STATS`; v3 — `TOKEN <id> <sql>`
/// deduplicated mutations (exactly-once resend after transport errors),
/// self-join pair queries in the SQL dialect, and `deduped=` /
/// `pairs_bound=` in `STATS`; v4 — observability: `EXPLAIN [ANALYZE]`
/// statements answered with `PLAN <n>` frames, `METRICS` returning a
/// Prometheus text exposition, and `STATS PROFILES [n]` returning recent
/// traced query profiles; v5 — temporal observability: `METRICS WINDOW
/// <secs>` windowed gauges, `RECORD START/STOP/STATUS` flight-recorder
/// control answered with `RECORD` control frames, and `MONITOR <frames>
/// [<interval_ms>]` streaming counted `DELTA <n>` metric-delta frames.
/// Within v5 the query planner added `planner_*` counters to `STATS` —
/// additive key/value tokens, so no version bump was needed; v6 —
/// multiplexing: a request line may be prefixed with a `@<id>` tag, and the
/// server answers it with a frame whose header line carries the same
/// `@<id>` prefix. Tagged requests may be pipelined — many in flight on one
/// connection, answered in completion order — while untagged requests keep
/// the v5 one-at-a-time FIFO contract. `MONITOR` subscriptions stream
/// multiple frames and therefore stay untagged-only; v7 — indexes and
/// transactions: mutation `OK` headers carry `updated=` (in-place
/// re-masking), `STATS` grows `updated` / `index_probes` / `index_rows` /
/// `planner_index_on` / `planner_index_off`, `LOOKUP *` answers with every
/// mask id the server holds (cluster owner-map seeding), and connections
/// accept interactive `BEGIN` / `COMMIT` / `ROLLBACK` plus one-line
/// `BEGIN; …; COMMIT` scripts applied as a single storage commit.
pub const PROTOCOL_VERSION: u32 = 7;

/// Default number of profiles returned by a bare `STATS PROFILES`.
pub const DEFAULT_PROFILES: usize = 16;

/// Default delta interval of a `MONITOR` subscription in milliseconds.
pub const DEFAULT_MONITOR_INTERVAL_MS: u64 = 1000;

/// Upper bound on frames per `MONITOR` subscription; a subscription is one
/// blocking request on its connection, so its span must be bounded.
pub const MAX_MONITOR_FRAMES: u32 = 3600;

/// Longest request line (newline included) the front end buffers on behalf
/// of a peer. The server — shard or coordinator alike — answers a longer
/// line with a protocol `ERR` and closes the connection instead of growing
/// the buffer. A 16-mask `INSERT` of 112x112 pixel literals is about 2 MB.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// The error the front end answers an over-long request line with.
pub fn line_too_long() -> ServiceError {
    ServiceError::Protocol(format!(
        "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
    ))
}

/// A parsed `RECORD <cmd>` flight-recorder control command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordControl {
    /// Start (or resume) capturing. With a path, record there; without, the
    /// server uses its configured recording path.
    Start(Option<String>),
    /// Flush and stop capturing.
    Stop,
    /// Report recorder state without changing it.
    Status,
}

/// A parsed client request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientRequest {
    /// Liveness check and version handshake.
    Ping,
    /// Server metrics summary.
    Stats,
    /// Prometheus text exposition of every server metric.
    Metrics,
    /// Windowed time-series gauges over the last `secs` seconds
    /// (`METRICS WINDOW <secs>`), answered with a `METRICS` frame.
    MetricsWindow(u64),
    /// Flight-recorder control (`RECORD START [<path>] | STOP | STATUS`),
    /// answered with a `RECORD` control frame.
    Record(RecordControl),
    /// Subscribe this connection to `frames` periodic metric-delta frames
    /// (`MONITOR <frames> [<interval_ms>]`), each a counted `DELTA` frame.
    Monitor {
        /// Number of delta frames to stream before the request completes.
        frames: u32,
        /// Milliseconds between frames.
        interval_ms: u64,
    },
    /// The most recent `n` traced query profiles (`STATS PROFILES [n]`).
    Profiles(usize),
    /// Close the connection.
    Quit,
    /// Which of the given mask ids this server holds (cluster routing).
    Lookup(Vec<MaskId>),
    /// Every mask id this server holds (`LOOKUP *`) — how a cluster
    /// coordinator seeds its mask-id → shard owner map in one round trip.
    LookupAll,
    /// A ranked SQL statement executed in partial (cluster-shard) mode with
    /// the per-shard `k` override.
    Partial {
        /// Per-shard `k` replacing the statement's own `LIMIT`.
        k: usize,
        /// The SQL statement.
        sql: String,
    },
    /// A SQL statement carrying a client-chosen deduplication token: if a
    /// mutation with this token already applied, the server replays the
    /// recorded outcome instead of re-applying — making a post-transport-
    /// error resend exactly-once.
    Tokened {
        /// The client's per-request token.
        token: u64,
        /// The SQL statement.
        sql: String,
    },
    /// A SQL statement to compile and execute.
    Sql(String),
}

impl ClientRequest {
    /// Classifies one request line.
    pub fn parse(line: &str) -> Option<Self> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return None;
        }
        let upper = trimmed.to_ascii_uppercase();
        if let Some(rest) = upper.strip_prefix("LOOKUP ") {
            if rest.trim() == "*" {
                return Some(Self::LookupAll);
            }
            let ids: Option<Vec<MaskId>> = rest
                .split_ascii_whitespace()
                .map(|t| t.parse::<u64>().ok().map(MaskId::new))
                .collect();
            // A malformed LOOKUP falls through to the SQL path, which
            // produces a descriptive ERR frame.
            if let Some(ids) = ids {
                return Some(Self::Lookup(ids));
            }
        }
        if upper.starts_with("TOKEN ") {
            let rest = trimmed[5..].trim_start();
            if let Some(tok) = rest.split_ascii_whitespace().next() {
                if let Ok(token) = tok.parse::<u64>() {
                    let sql = rest[tok.len()..].trim_start().to_string();
                    if !sql.is_empty() {
                        return Some(Self::Tokened { token, sql });
                    }
                }
            }
        }
        if let Some(rest) = upper.strip_prefix("METRICS WINDOW") {
            if let Ok(secs) = rest.trim().parse::<u64>() {
                if secs > 0 {
                    return Some(Self::MetricsWindow(secs));
                }
            }
            // Malformed window: fall through to the SQL path (-> ERR frame).
        }
        if let Some(rest) = upper.strip_prefix("RECORD ") {
            let cmd = rest.trim();
            if cmd == "STOP" {
                return Some(Self::Record(RecordControl::Stop));
            }
            if cmd == "STATUS" {
                return Some(Self::Record(RecordControl::Status));
            }
            if cmd == "START" {
                return Some(Self::Record(RecordControl::Start(None)));
            }
            if cmd.starts_with("START ") {
                // Take the path from the original line: paths are
                // case-sensitive.
                let path = trimmed[trimmed.len() - rest.len()..].trim()["START ".len()..]
                    .trim()
                    .to_string();
                if !path.is_empty() {
                    return Some(Self::Record(RecordControl::Start(Some(path))));
                }
            }
            // Unknown subcommand: fall through to the SQL path (-> ERR).
        }
        if let Some(rest) = upper.strip_prefix("MONITOR") {
            let mut parts = rest.split_ascii_whitespace();
            let frames = parts.next().map(|t| t.parse::<u32>());
            let interval = parts.next().map(|t| t.parse::<u64>());
            match (frames, interval, parts.next()) {
                (None, None, None) => {
                    return Some(Self::Monitor {
                        frames: 1,
                        interval_ms: DEFAULT_MONITOR_INTERVAL_MS,
                    });
                }
                (Some(Ok(frames)), None, None) if frames > 0 => {
                    return Some(Self::Monitor {
                        frames: frames.min(MAX_MONITOR_FRAMES),
                        interval_ms: DEFAULT_MONITOR_INTERVAL_MS,
                    });
                }
                (Some(Ok(frames)), Some(Ok(interval_ms)), None) if frames > 0 => {
                    return Some(Self::Monitor {
                        frames: frames.min(MAX_MONITOR_FRAMES),
                        interval_ms,
                    });
                }
                // Malformed: fall through to the SQL path (-> ERR frame).
                _ => {}
            }
        }
        if let Some(rest) = upper.strip_prefix("STATS PROFILES") {
            let rest = rest.trim();
            if rest.is_empty() {
                return Some(Self::Profiles(DEFAULT_PROFILES));
            }
            if let Ok(n) = rest.parse::<usize>() {
                return Some(Self::Profiles(n));
            }
            // Malformed count: fall through to the SQL path (-> ERR frame).
        }
        if upper.starts_with("PARTIAL ") {
            let rest = trimmed[7..].trim_start();
            if let Some(kv) = rest.split_ascii_whitespace().next() {
                if let Some(k) = kv
                    .strip_prefix("K=")
                    .or_else(|| kv.strip_prefix("k="))
                    .and_then(|v| v.parse::<usize>().ok())
                {
                    let sql = rest[kv.len()..].trim_start().to_string();
                    if !sql.is_empty() {
                        return Some(Self::Partial { k, sql });
                    }
                }
            }
        }
        Some(match upper.as_str() {
            "PING" => Self::Ping,
            "STATS" => Self::Stats,
            "METRICS" => Self::Metrics,
            "QUIT" => Self::Quit,
            // A LOOKUP of zero ids is a valid (empty) question.
            "LOOKUP" => Self::Lookup(Vec::new()),
            _ => Self::Sql(trimmed.to_string()),
        })
    }
}

/// Encodes one result row as a protocol line.
pub fn encode_row(row: &ResultRow) -> String {
    let mut line = String::new();
    encode_row_into(&mut line, row);
    line
}

/// Appends [`encode_row`]'s line for `row` to `out` (no trailing newline).
/// The allocation-free form the response digests use per row.
fn encode_row_into(out: &mut String, row: &ResultRow) {
    use std::fmt::Write as _;
    let (kind, id) = match row.key {
        RowKey::Mask(id) => ("mask", id.raw()),
        RowKey::Image(id) => ("image", id.raw()),
    };
    match row.value {
        Some(v) => write!(out, "{kind} {id} {v}").expect("write to string"),
        None => write!(out, "{kind} {id}").expect("write to string"),
    }
}

/// Decodes a protocol line produced by [`encode_row`].
pub fn parse_row(line: &str) -> ServiceResult<ResultRow> {
    let mut parts = line.split_ascii_whitespace();
    let kind = parts
        .next()
        .ok_or_else(|| ServiceError::Protocol("empty row line".to_string()))?;
    let id: u64 = parts
        .next()
        .ok_or_else(|| ServiceError::Protocol(format!("row line missing id: {line:?}")))?
        .parse()
        .map_err(|_| ServiceError::Protocol(format!("bad row id in {line:?}")))?;
    let value = match parts.next() {
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| ServiceError::Protocol(format!("bad row value in {line:?}")))?,
        ),
        None => None,
    };
    match kind {
        "mask" => Ok(ResultRow {
            key: RowKey::Mask(MaskId::new(id)),
            value,
        }),
        "image" => Ok(ResultRow {
            key: RowKey::Image(ImageId::new(id)),
            value,
        }),
        other => Err(ServiceError::Protocol(format!(
            "unknown row kind {other:?}"
        ))),
    }
}

/// Writes a successful query response frame.
pub fn write_response<W: Write>(w: &mut W, response: &QueryResponse) -> std::io::Result<()> {
    write_response_with_bound(w, response, None)
}

/// Writes a query response frame carrying a partial-execution `bound=`
/// summary token (the shard's k-th value; see `PARTIAL K=<n>` requests).
pub fn write_response_with_bound<W: Write>(
    w: &mut W,
    response: &QueryResponse,
    bound: Option<f64>,
) -> std::io::Result<()> {
    let s = &response.output.stats;
    write!(
        w,
        "OK {} candidates={} pruned={} verified={} loaded={} wall_us={}",
        response.output.rows.len(),
        s.candidates,
        s.pruned,
        s.verified,
        s.masks_loaded,
        response.exec_time.as_micros(),
    )?;
    if let Some(bound) = bound {
        write!(w, " bound={bound}")?;
    }
    writeln!(w)?;
    for row in &response.output.rows {
        writeln!(w, "{}", encode_row(row))?;
    }
    writeln!(w, "{END_MARKER}")
}

/// Writes a `LOOKUP` response frame: one mask row per id this server holds.
pub fn write_lookup_response<W: Write>(w: &mut W, present: &[MaskId]) -> std::io::Result<()> {
    writeln!(w, "OK {}", present.len())?;
    for id in present {
        writeln!(w, "mask {}", id.raw())?;
    }
    writeln!(w, "{END_MARKER}")
}

/// Writes a successful mutation response frame: an `OK` header with zero
/// rows and `inserted=` / `deleted=` / `updated=` counters, so query-only
/// clients parse it as an empty result while write-aware clients read the
/// counts.
pub fn write_mutation_response<W: Write>(
    w: &mut W,
    response: &MutationResponse,
) -> std::io::Result<()> {
    writeln!(
        w,
        "OK 0 inserted={} deleted={} updated={} wall_us={}",
        response.outcome.inserted,
        response.outcome.deleted,
        response.outcome.updated,
        response.exec_time.as_micros(),
    )?;
    writeln!(w, "{END_MARKER}")
}

/// Writes a plan frame (the answer to an `EXPLAIN [ANALYZE]` statement):
/// a `PLAN <n>` header followed by the n rendered plan lines.
pub fn write_plan_response<W: Write>(w: &mut W, lines: &[String]) -> std::io::Result<()> {
    write_text_frame(w, "PLAN", lines.iter().map(String::as_str))
}

/// Writes a `METRICS` frame: a `METRICS <n>` header followed by the n lines
/// of a Prometheus text exposition.
pub fn write_metrics_response<W: Write>(w: &mut W, exposition: &str) -> std::io::Result<()> {
    write_text_frame(w, "METRICS", exposition.lines())
}

/// Writes a `STATS PROFILES` frame: a `PROFILES <n>` header followed by the
/// n rendered profile lines (each profile is a `profile seq=..` header line
/// with its span tree indented under it).
pub fn write_profiles_response<W: Write>(w: &mut W, lines: &[String]) -> std::io::Result<()> {
    write_text_frame(w, "PROFILES", lines.iter().map(String::as_str))
}

/// Writes one `MONITOR` delta frame: a counted `DELTA <n>` frame whose
/// payload is a `seq=<k>` line followed by `key=value` delta lines.
pub fn write_delta_frame<W: Write>(
    w: &mut W,
    seq: u64,
    deltas: &[(&str, u64)],
) -> std::io::Result<()> {
    let lines: Vec<String> = std::iter::once(format!("seq={seq}"))
        .chain(deltas.iter().map(|(k, v)| format!("{k}={v}")))
        .collect();
    write_text_frame(w, "DELTA", lines.iter().map(String::as_str))
}

/// Parses one `DELTA` frame payload back into its sequence number and
/// `(key, delta)` pairs. Unknown or malformed lines are skipped.
pub fn parse_delta_lines(lines: &[String]) -> (u64, Vec<(String, u64)>) {
    let mut seq = 0;
    let mut deltas = Vec::with_capacity(lines.len().saturating_sub(1));
    for line in lines {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        if key == "seq" {
            seq = value;
        } else {
            deltas.push((key.to_string(), value));
        }
    }
    (seq, deltas)
}

/// Writes a `RECORD` control frame answering a recorder-control request.
pub fn write_record_status<W: Write>(
    w: &mut W,
    status: &masksearch_obs::RecorderStatus,
) -> std::io::Result<()> {
    writeln!(
        w,
        "RECORD active={} path={} records={} bytes={} dropped={}",
        u8::from(status.active),
        status
            .path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "-".to_string()),
        status.records,
        status.bytes,
        status.dropped,
    )?;
    writeln!(w, "{END_MARKER}")
}

/// Writes a counted raw-text frame: `<kind> <n>`, n lines verbatim, `END`.
/// The count (not a sentinel) delimits the payload, so payload lines may be
/// anything — including indented span trees and `#`-prefixed comments.
fn write_text_frame<'a, W: Write>(
    w: &mut W,
    kind: &str,
    lines: impl Iterator<Item = &'a str> + Clone,
) -> std::io::Result<()> {
    writeln!(w, "{kind} {}", lines.clone().count())?;
    for line in lines {
        writeln!(w, "{line}")?;
    }
    writeln!(w, "{END_MARKER}")
}

/// Writes an error frame: `ERR` and the error's rendering on one line.
pub fn write_error<W: Write>(w: &mut W, error: &dyn std::fmt::Display) -> std::io::Result<()> {
    writeln!(w, "ERR {}", error.to_string().replace(['\r', '\n'], " "))?;
    writeln!(w, "{END_MARKER}")
}

/// Writes a `PONG` frame carrying the protocol version (`PONG v<N>`).
pub fn write_pong<W: Write>(w: &mut W) -> std::io::Result<()> {
    writeln!(w, "PONG v{PROTOCOL_VERSION}")?;
    writeln!(w, "{END_MARKER}")
}

/// Extracts the protocol version from a `PONG` control line. A bare `PONG`
/// (the pre-versioning protocol) reports version 1.
pub fn pong_version(line: &str) -> Option<u32> {
    let rest = line.strip_prefix("PONG")?;
    let rest = rest.trim();
    if rest.is_empty() {
        return Some(1);
    }
    rest.strip_prefix('v').and_then(|v| v.parse().ok())
}

/// The `STATS` line of a server-metrics frame (the frame is this line and
/// the `END` marker).
///
/// Every aggregatable key is spelled via [`masksearch_obs::keys`], the same
/// registry the cluster coordinator's sum/max merge reads — renaming a key
/// there changes writer and aggregator together.
pub fn stats_line(m: &MetricsSnapshot) -> String {
    use masksearch_obs::keys as k;
    use std::fmt::Write as _;
    let mut line = format!("STATS {}={:.3}", k::QPS, m.qps);
    for (key, value) in [
        (k::COMPLETED, m.completed),
        (k::FAILED, m.failed),
        (k::REJECTED, m.rejected),
        (k::DEADLINE_EXPIRED, m.deadline_expired),
    ] {
        let _ = write!(line, " {key}={value}");
    }
    let _ = write!(
        line,
        " {}={} {}={} mean_us={} filter_rate={:.6} cache_hit_rate={:.6} uptime_ms={}",
        k::P50_US,
        m.p50_us,
        k::P99_US,
        m.p99_us,
        m.mean_us,
        m.filter_rate,
        m.cache_hit_rate,
        m.uptime.as_millis(),
    );
    for (key, value) in [
        (k::MUTATIONS, m.mutations),
        (k::INSERTED, m.masks_inserted),
        (k::DELETED, m.masks_deleted),
        (k::UPDATED, m.masks_updated),
        (k::DEDUPED, m.mutations_deduped),
        (k::WAL_BYTES, m.ingest.wal_bytes),
        (k::CHECKPOINTS, m.ingest.checkpoints),
        (k::COMMITS, m.ingest.commits),
        (k::TILES_PRUNED, m.tiles_pruned),
        (k::TILES_HIST, m.tiles_hist),
        (k::TILES_SCANNED, m.tiles_scanned),
        (k::PAIRS_BOUND, m.pairs_bound),
        (k::PLANNER_KERNEL_ON, m.planner_kernel_on),
        (k::PLANNER_KERNEL_OFF, m.planner_kernel_off),
        (k::INDEX_PROBES, m.index_probes),
        (k::INDEX_ROWS, m.index_rows),
        (k::PLANNER_INDEX_ON, m.planner_index_on),
        (k::PLANNER_INDEX_OFF, m.planner_index_off),
        (k::ACTIVE_CONNECTIONS, m.active_connections),
        (k::QUEUE_DEPTH, m.queue_depth),
    ] {
        let _ = write!(line, " {key}={value}");
    }
    line
}

/// Summary line of an `OK` frame, as parsed back by the client.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireSummary {
    /// Declared number of rows in the frame.
    pub rows: u64,
    /// `QueryStats::candidates` on the server.
    pub candidates: u64,
    /// `QueryStats::pruned` on the server.
    pub pruned: u64,
    /// `QueryStats::verified` on the server.
    pub verified: u64,
    /// `QueryStats::masks_loaded` on the server.
    pub loaded: u64,
    /// Masks inserted, when the frame answers a write statement.
    pub inserted: u64,
    /// Masks deleted, when the frame answers a write statement.
    pub deleted: u64,
    /// Masks re-masked in place, when the frame answers a write statement.
    pub updated: u64,
    /// Server-side execution time in microseconds.
    pub wall_us: u64,
    /// The shard's k-th value, when the frame answers a `PARTIAL K=<n>`
    /// request and candidates beyond the returned rows remain on the shard.
    pub bound: Option<f64>,
}

/// A parsed `OK` frame.
#[derive(Debug, Clone, Default)]
pub struct WireResponse {
    /// Result rows in server order.
    pub rows: Vec<ResultRow>,
    /// Parsed summary line.
    pub summary: WireSummary,
}

impl WireResponse {
    /// Mask ids of mask-keyed rows, in order (mirror of
    /// [`QueryOutput::mask_ids`]).
    pub fn mask_ids(&self) -> Vec<MaskId> {
        self.rows
            .iter()
            .filter_map(|r| match r.key {
                RowKey::Mask(id) => Some(id),
                RowKey::Image(_) => None,
            })
            .collect()
    }
}

fn parse_kv(token: &str, key: &str) -> ServiceResult<u64> {
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ServiceError::Protocol(format!("expected {key}=<n>, got {token:?}")))
}

/// Splits a `@<id>`-tagged line into its request id and the rest of the
/// line. Returns `None` when the line carries no well-formed tag — such a
/// line is an ordinary untagged request (or frame header) and keeps its v5
/// FIFO semantics, so a malformed tag degrades to an error *frame* rather
/// than a poisoned connection.
pub fn parse_tag(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix('@')?;
    let (id, rest) = rest.split_once(' ')?;
    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((id.parse().ok()?, rest))
}

/// Reads one response frame, peeling an optional `@<id>` multiplexing tag
/// from its header line.
///
/// The outer `Err` is a *transport or framing* failure: the stream is no
/// longer at a frame boundary and the connection must be torn down. The
/// inner result attributes a complete frame to its tag — `Err` there is
/// always [`ServiceError::Remote`] (a well-formed `ERR` frame), which a
/// multiplexing reader routes to the tagged caller instead of killing the
/// connection.
pub fn read_tagged_frame<R: BufRead>(
    reader: &mut R,
) -> ServiceResult<(Option<u64>, ServiceResult<Frame>)> {
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Err(ServiceError::Io("connection closed mid-frame".to_string()));
    }
    let header = header.trim_end();
    let (tag, header) = match parse_tag(header) {
        Some((id, rest)) => (Some(id), rest.to_string()),
        None => (None, header.to_string()),
    };
    match read_frame_body(&header, reader) {
        Ok(frame) => Ok((tag, Ok(frame))),
        Err(err @ ServiceError::Remote(_)) => Ok((tag, Err(err))),
        Err(fatal) => Err(fatal),
    }
}

/// Reads one response frame (all lines up to `END`) and interprets it.
///
/// Returns the frame's payload. `ERR` frames become `Err(..)`; `PONG` and
/// `STATS` frames are returned as raw lines in [`Frame::Control`]. A
/// `@<id>`-tagged frame is a protocol error here — callers expecting tags
/// use [`read_tagged_frame`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> ServiceResult<Frame> {
    match read_tagged_frame(reader)? {
        (None, result) => result,
        (Some(id), _) => Err(ServiceError::Protocol(format!(
            "unexpected @{id}-tagged frame on an untagged stream"
        ))),
    }
}

/// Interprets one frame whose (tag-stripped) header line has already been
/// read, consuming the frame's remaining lines from `reader`.
fn read_frame_body<R: BufRead>(header: &str, reader: &mut R) -> ServiceResult<Frame> {
    if let Some(msg) = header.strip_prefix("ERR ") {
        // Consume the END line: the frame is complete, so the connection
        // stays at a clean boundary and the error is a *remote* failure.
        expect_end(reader)?;
        return Err(ServiceError::Remote(msg.to_string()));
    }
    if header.starts_with("PONG") || header.starts_with("STATS ") || header.starts_with("RECORD ") {
        expect_end(reader)?;
        return Ok(Frame::Control(header.to_string()));
    }
    for (kind, make) in [
        ("PLAN", Frame::Plan as fn(Vec<String>) -> Frame),
        ("METRICS", Frame::Metrics as fn(Vec<String>) -> Frame),
        ("PROFILES", Frame::Profiles as fn(Vec<String>) -> Frame),
        ("DELTA", Frame::Delta as fn(Vec<String>) -> Frame),
    ] {
        if let Some(count) = header
            .strip_prefix(kind)
            .and_then(|rest| rest.strip_prefix(' '))
        {
            let count: usize = count
                .trim()
                .parse()
                .map_err(|_| ServiceError::Protocol(format!("bad line count in {header:?}")))?;
            return Ok(make(read_raw_lines(reader, count)?));
        }
    }
    let mut tokens = header.split_ascii_whitespace();
    match tokens.next() {
        Some("OK") => {}
        other => {
            return Err(ServiceError::Protocol(format!(
                "unexpected frame header {other:?}"
            )))
        }
    }
    let rows: u64 = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ServiceError::Protocol("OK header missing row count".to_string()))?;
    let mut summary = WireSummary {
        rows,
        ..Default::default()
    };
    for token in tokens {
        if let Ok(v) = parse_kv(token, "candidates") {
            summary.candidates = v;
        } else if let Ok(v) = parse_kv(token, "pruned") {
            summary.pruned = v;
        } else if let Ok(v) = parse_kv(token, "verified") {
            summary.verified = v;
        } else if let Ok(v) = parse_kv(token, "loaded") {
            summary.loaded = v;
        } else if let Ok(v) = parse_kv(token, "inserted") {
            summary.inserted = v;
        } else if let Ok(v) = parse_kv(token, "deleted") {
            summary.deleted = v;
        } else if let Ok(v) = parse_kv(token, "updated") {
            summary.updated = v;
        } else if let Ok(v) = parse_kv(token, "wall_us") {
            summary.wall_us = v;
        } else if let Some(v) = token
            .strip_prefix("bound=")
            .and_then(|v| v.parse::<f64>().ok())
        {
            summary.bound = Some(v);
        }
    }
    // Cap the pre-allocation: the count is wire data and must not let a
    // corrupt or hostile header drive an unbounded allocation.
    let mut parsed_rows = Vec::with_capacity(rows.min(1024) as usize);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ServiceError::Io("connection closed mid-frame".to_string()));
        }
        let line = line.trim_end();
        if line == END_MARKER {
            break;
        }
        parsed_rows.push(parse_row(line)?);
    }
    if parsed_rows.len() as u64 != rows {
        return Err(ServiceError::Protocol(format!(
            "frame declared {rows} rows but carried {}",
            parsed_rows.len()
        )));
    }
    Ok(Frame::Rows(WireResponse {
        rows: parsed_rows,
        summary,
    }))
}

/// Reads exactly `count` verbatim payload lines followed by the `END`
/// marker (the counted-frame body of `PLAN` / `METRICS` / `PROFILES`).
fn read_raw_lines<R: BufRead>(reader: &mut R, count: usize) -> ServiceResult<Vec<String>> {
    // Cap the pre-allocation: the count is wire data.
    let mut lines = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ServiceError::Io("connection closed mid-frame".to_string()));
        }
        lines.push(line.trim_end_matches(['\r', '\n']).to_string());
    }
    expect_end(reader)?;
    Ok(lines)
}

fn expect_end<R: BufRead>(reader: &mut R) -> ServiceResult<()> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ServiceError::Io("connection closed mid-frame".to_string()));
    }
    if line.trim_end() == END_MARKER {
        Ok(())
    } else {
        Err(ServiceError::Protocol(format!(
            "expected {END_MARKER}, got {:?}",
            line.trim_end()
        )))
    }
}

/// One parsed response frame.
#[derive(Debug)]
pub enum Frame {
    /// An `OK` frame with rows.
    Rows(WireResponse),
    /// A `PONG`, `STATS`, or `RECORD` control frame (raw first line).
    Control(String),
    /// A `PLAN` frame: rendered plan-tree lines of an `EXPLAIN [ANALYZE]`.
    Plan(Vec<String>),
    /// A `METRICS` frame: Prometheus text-exposition lines.
    Metrics(Vec<String>),
    /// A `PROFILES` frame: rendered recent query profiles.
    Profiles(Vec<String>),
    /// A `DELTA` frame: one `MONITOR` metric-delta sample
    /// (`seq=<k>` then `key=value` lines).
    Delta(Vec<String>),
}

/// Round-trip helper: renders a [`QueryOutput`]'s rows as wire lines.
pub fn encode_rows(output: &QueryOutput) -> Vec<String> {
    output.rows.iter().map(encode_row).collect()
}

// ---------------------------------------------------------------------------
// Response digests for the flight recorder.
//
// The recorder stores an FNV-1a digest of each response with wall time
// excluded, and the replay harness recomputes the same digest from the
// frames it reads back. The canonical form below is shared by both sides;
// because row values use shortest round-trip float formatting, a value
// parsed by the client re-encodes to the identical bytes the server wrote.
// ---------------------------------------------------------------------------

fn digest_ok_frame<'a>(
    rows: u64,
    stats: [u64; 7],
    bound: Option<f64>,
    row_iter: impl Iterator<Item = &'a ResultRow>,
) -> u64 {
    use std::fmt::Write as _;
    let mut h = masksearch_obs::Fnv64::new();
    let [candidates, pruned, verified, loaded, inserted, deleted, updated] = stats;
    // One reused buffer: the digest sits on the hot query path whenever the
    // recorder is active, so it must not allocate per row.
    let mut buf = String::with_capacity(64);
    write!(
        buf,
        "OK {rows} candidates={candidates} pruned={pruned} verified={verified} \
         loaded={loaded} inserted={inserted} deleted={deleted} updated={updated}"
    )
    .expect("write to string");
    if let Some(bound) = bound {
        write!(buf, " bound={bound}").expect("write to string");
    }
    buf.push('\n');
    h.update(buf.as_bytes());
    for row in row_iter {
        buf.clear();
        encode_row_into(&mut buf, row);
        buf.push('\n');
        h.update(buf.as_bytes());
    }
    h.finish()
}

/// Digest of a successful query response (wall time excluded), as stored in
/// flight recordings. `bound` must match what the wire frame carried.
pub fn digest_query_response(response: &QueryResponse, bound: Option<f64>) -> u64 {
    let s = &response.output.stats;
    digest_ok_frame(
        response.output.rows.len() as u64,
        [s.candidates, s.pruned, s.verified, s.masks_loaded, 0, 0, 0],
        bound,
        response.output.rows.iter(),
    )
}

/// Digest of a successful mutation response (wall time excluded).
pub fn digest_mutation_response(response: &MutationResponse) -> u64 {
    digest_ok_frame(
        0,
        [
            0,
            0,
            0,
            0,
            response.outcome.inserted as u64,
            response.outcome.deleted as u64,
            response.outcome.updated as u64,
        ],
        None,
        std::iter::empty(),
    )
}

/// Digest of a parsed `OK` frame, computed client-side by the replay
/// harness; matches [`digest_query_response`] / [`digest_mutation_response`]
/// for the same response.
pub fn digest_wire_response(response: &WireResponse) -> u64 {
    let s = &response.summary;
    digest_ok_frame(
        response.rows.len() as u64,
        [
            s.candidates,
            s.pruned,
            s.verified,
            s.loaded,
            s.inserted,
            s.deleted,
            s.updated,
        ],
        s.bound,
        response.rows.iter(),
    )
}

/// Digest of an error response: errors are part of a workload's observable
/// behaviour, so replays must reproduce them too.
pub fn digest_error_message(message: &str) -> u64 {
    masksearch_obs::fnv1a(format!("ERR {message}\n").as_bytes())
}

/// Digest of a `PLAN` frame with `wall_us=` values masked (EXPLAIN ANALYZE
/// plans embed per-node wall times, which legitimately vary run to run).
pub fn digest_plan_lines(lines: &[String]) -> u64 {
    let mut h = masksearch_obs::Fnv64::new();
    for line in lines {
        h.update(mask_wall_tokens(line).as_bytes());
        h.update(b"\n");
    }
    h.finish()
}

/// Replaces the digits of every `wall_us=<n>` token in a line with `_`.
fn mask_wall_tokens(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("wall_us=") {
        let after = at + "wall_us=".len();
        out.push_str(&rest[..after]);
        out.push('_');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_query::QueryStats;
    use std::io::BufReader;
    use std::time::Duration;

    #[test]
    fn request_classification() {
        assert_eq!(ClientRequest::parse("  PING "), Some(ClientRequest::Ping));
        assert_eq!(ClientRequest::parse("stats"), Some(ClientRequest::Stats));
        assert_eq!(ClientRequest::parse("Quit"), Some(ClientRequest::Quit));
        assert_eq!(
            ClientRequest::parse("SELECT mask_id FROM masks"),
            Some(ClientRequest::Sql("SELECT mask_id FROM masks".to_string()))
        );
        assert_eq!(ClientRequest::parse("   "), None);
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let rows = vec![
            ResultRow::mask(MaskId::new(7), None),
            ResultRow::mask(MaskId::new(8), Some(0.1 + 0.2)),
            ResultRow::image(ImageId::new(3), Some(f64::MIN_POSITIVE)),
            ResultRow::image(ImageId::new(4), Some(-1234.5678e-9)),
        ];
        for row in rows {
            let parsed = parse_row(&encode_row(&row)).unwrap();
            assert_eq!(parsed, row);
        }
    }

    #[test]
    fn response_frame_round_trips() {
        let response = QueryResponse {
            output: QueryOutput {
                rows: vec![
                    ResultRow::mask(MaskId::new(1), None),
                    ResultRow::mask(MaskId::new(5), Some(0.25)),
                ],
                stats: QueryStats {
                    candidates: 10,
                    pruned: 7,
                    verified: 1,
                    masks_loaded: 1,
                    ..Default::default()
                },
            },
            queue_wait: Duration::from_micros(5),
            exec_time: Duration::from_micros(184),
        };
        let mut wire = Vec::new();
        write_response(&mut wire, &response).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        match read_frame(&mut reader).unwrap() {
            Frame::Rows(parsed) => {
                assert_eq!(parsed.rows, response.output.rows);
                assert_eq!(parsed.summary.candidates, 10);
                assert_eq!(parsed.summary.pruned, 7);
                assert_eq!(parsed.summary.wall_us, 184);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn mutation_frames_round_trip() {
        let response = MutationResponse {
            outcome: masksearch_query::MutationOutcome {
                inserted: 3,
                deleted: 1,
                updated: 2,
            },
            queue_wait: Duration::from_micros(2),
            exec_time: Duration::from_micros(77),
        };
        let mut wire = Vec::new();
        write_mutation_response(&mut wire, &response).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        match read_frame(&mut reader).unwrap() {
            Frame::Rows(parsed) => {
                assert!(parsed.rows.is_empty());
                assert_eq!(parsed.summary.inserted, 3);
                assert_eq!(parsed.summary.deleted, 1);
                assert_eq!(parsed.summary.updated, 2);
                assert_eq!(parsed.summary.wall_us, 77);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn error_frames_surface_as_errors() {
        let mut wire = Vec::new();
        write_error(&mut wire, &ServiceError::Sql("bad token".to_string())).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert!(matches!(
            read_frame(&mut reader),
            Err(ServiceError::Remote(_))
        ));
    }

    #[test]
    fn truncated_frames_are_detected() {
        let wire = b"OK 2 candidates=5\nmask 1\n".to_vec();
        let mut reader = BufReader::new(&wire[..]);
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn control_frames_pass_through() {
        let mut wire = Vec::new();
        write_pong(&mut wire).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        match read_frame(&mut reader).unwrap() {
            Frame::Control(line) => assert_eq!(line, format!("PONG v{PROTOCOL_VERSION}")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pong_versions_parse() {
        assert_eq!(pong_version("PONG"), Some(1));
        assert_eq!(pong_version("PONG v2"), Some(2));
        assert_eq!(pong_version("PONG v17"), Some(17));
        assert_eq!(pong_version("PONG vX"), None);
        assert_eq!(pong_version("NOPE"), None);
    }

    #[test]
    fn partial_and_lookup_requests_parse() {
        assert_eq!(
            ClientRequest::parse("PARTIAL K=5 SELECT mask_id FROM masks ORDER BY s DESC LIMIT 9"),
            Some(ClientRequest::Partial {
                k: 5,
                sql: "SELECT mask_id FROM masks ORDER BY s DESC LIMIT 9".to_string()
            })
        );
        assert_eq!(
            ClientRequest::parse("partial k=2 select 1"),
            Some(ClientRequest::Partial {
                k: 2,
                sql: "select 1".to_string()
            })
        );
        // Malformed PARTIAL lines fall back to the SQL path (-> ERR frame).
        assert!(matches!(
            ClientRequest::parse("PARTIAL SELECT 1"),
            Some(ClientRequest::Sql(_))
        ));
        assert_eq!(
            ClientRequest::parse("LOOKUP 3 7 11"),
            Some(ClientRequest::Lookup(vec![
                MaskId::new(3),
                MaskId::new(7),
                MaskId::new(11)
            ]))
        );
        assert_eq!(
            ClientRequest::parse("lookup 4"),
            Some(ClientRequest::Lookup(vec![MaskId::new(4)]))
        );
        assert!(matches!(
            ClientRequest::parse("LOOKUP nope"),
            Some(ClientRequest::Sql(_))
        ));
        assert_eq!(
            ClientRequest::parse("LOOKUP *"),
            Some(ClientRequest::LookupAll)
        );
        assert_eq!(
            ClientRequest::parse("lookup  * "),
            Some(ClientRequest::LookupAll)
        );
    }

    #[test]
    fn bound_summaries_round_trip() {
        let response = QueryResponse {
            output: QueryOutput {
                rows: vec![ResultRow::mask(MaskId::new(1), Some(42.5))],
                stats: QueryStats::default(),
            },
            queue_wait: Duration::ZERO,
            exec_time: Duration::from_micros(9),
        };
        for bound in [Some(0.1 + 0.2), Some(f64::INFINITY), None] {
            let mut wire = Vec::new();
            write_response_with_bound(&mut wire, &response, bound).unwrap();
            let mut reader = BufReader::new(&wire[..]);
            match read_frame(&mut reader).unwrap() {
                Frame::Rows(parsed) => assert_eq!(parsed.summary.bound, bound),
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    fn metrics_and_profiles_requests_parse() {
        assert_eq!(
            ClientRequest::parse("METRICS"),
            Some(ClientRequest::Metrics)
        );
        assert_eq!(
            ClientRequest::parse("metrics "),
            Some(ClientRequest::Metrics)
        );
        assert_eq!(
            ClientRequest::parse("STATS PROFILES"),
            Some(ClientRequest::Profiles(DEFAULT_PROFILES))
        );
        assert_eq!(
            ClientRequest::parse("stats profiles 3"),
            Some(ClientRequest::Profiles(3))
        );
        // A malformed count falls through to the SQL path (-> ERR frame).
        assert!(matches!(
            ClientRequest::parse("STATS PROFILES nope"),
            Some(ClientRequest::Sql(_))
        ));
        // EXPLAIN is not a control command: it rides the SQL path and the
        // engine answers it with a PLAN frame.
        assert!(matches!(
            ClientRequest::parse("EXPLAIN SELECT mask_id FROM masks"),
            Some(ClientRequest::Sql(_))
        ));
    }

    #[test]
    fn counted_text_frames_round_trip() {
        // Plan lines include indentation and k=v tokens; metrics lines
        // include `#` comments; profile payloads may be empty. All must
        // survive verbatim because the count, not a sentinel, frames them.
        let plan = vec![
            "query kind=filter wall_us=12 candidates=10".to_string(),
            "  filter terms=1 pruned=7".to_string(),
            "  verify verified=1".to_string(),
        ];
        let mut wire = Vec::new();
        write_plan_response(&mut wire, &plan).unwrap();
        match read_frame(&mut BufReader::new(&wire[..])).unwrap() {
            Frame::Plan(lines) => assert_eq!(lines, plan),
            other => panic!("unexpected frame {other:?}"),
        }

        let exposition = "# HELP masksearch_up Up.\n# TYPE masksearch_up gauge\nmasksearch_up 1\n";
        let mut wire = Vec::new();
        write_metrics_response(&mut wire, exposition).unwrap();
        match read_frame(&mut BufReader::new(&wire[..])).unwrap() {
            Frame::Metrics(lines) => {
                assert_eq!(lines.len(), 3);
                assert_eq!(lines[2], "masksearch_up 1");
            }
            other => panic!("unexpected frame {other:?}"),
        }

        let mut wire = Vec::new();
        write_profiles_response(&mut wire, &[]).unwrap();
        match read_frame(&mut BufReader::new(&wire[..])).unwrap() {
            Frame::Profiles(lines) => assert!(lines.is_empty()),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn truncated_text_frames_are_detected() {
        let wire = b"PLAN 3\nquery wall_us=1\n".to_vec();
        assert!(read_frame(&mut BufReader::new(&wire[..])).is_err());
        let wire = b"PLAN nope\n".to_vec();
        assert!(read_frame(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn metrics_window_requests_parse() {
        assert_eq!(
            ClientRequest::parse("METRICS WINDOW 60"),
            Some(ClientRequest::MetricsWindow(60))
        );
        assert_eq!(
            ClientRequest::parse("metrics window 5"),
            Some(ClientRequest::MetricsWindow(5))
        );
        // Zero or malformed windows fall back to the SQL path (-> ERR).
        assert!(matches!(
            ClientRequest::parse("METRICS WINDOW 0"),
            Some(ClientRequest::Sql(_))
        ));
        assert!(matches!(
            ClientRequest::parse("METRICS WINDOW soon"),
            Some(ClientRequest::Sql(_))
        ));
    }

    #[test]
    fn record_requests_parse_and_keep_path_case() {
        assert_eq!(
            ClientRequest::parse("RECORD STOP"),
            Some(ClientRequest::Record(RecordControl::Stop))
        );
        assert_eq!(
            ClientRequest::parse("record status"),
            Some(ClientRequest::Record(RecordControl::Status))
        );
        assert_eq!(
            ClientRequest::parse("RECORD START"),
            Some(ClientRequest::Record(RecordControl::Start(None)))
        );
        assert_eq!(
            ClientRequest::parse("record start /tmp/Flight.bin"),
            Some(ClientRequest::Record(RecordControl::Start(Some(
                "/tmp/Flight.bin".to_string()
            ))))
        );
        assert!(matches!(
            ClientRequest::parse("RECORD REWIND"),
            Some(ClientRequest::Sql(_))
        ));
    }

    #[test]
    fn monitor_requests_parse() {
        assert_eq!(
            ClientRequest::parse("MONITOR"),
            Some(ClientRequest::Monitor {
                frames: 1,
                interval_ms: DEFAULT_MONITOR_INTERVAL_MS
            })
        );
        assert_eq!(
            ClientRequest::parse("monitor 5"),
            Some(ClientRequest::Monitor {
                frames: 5,
                interval_ms: DEFAULT_MONITOR_INTERVAL_MS
            })
        );
        assert_eq!(
            ClientRequest::parse("MONITOR 3 250"),
            Some(ClientRequest::Monitor {
                frames: 3,
                interval_ms: 250
            })
        );
        assert_eq!(
            ClientRequest::parse("MONITOR 999999 250"),
            Some(ClientRequest::Monitor {
                frames: MAX_MONITOR_FRAMES,
                interval_ms: 250
            })
        );
        assert!(matches!(
            ClientRequest::parse("MONITOR 0"),
            Some(ClientRequest::Sql(_))
        ));
        assert!(matches!(
            ClientRequest::parse("MONITOR 3 fast"),
            Some(ClientRequest::Sql(_))
        ));
        assert!(matches!(
            ClientRequest::parse("MONITORING SELECT 1"),
            Some(ClientRequest::Sql(_))
        ));
    }

    #[test]
    fn delta_frames_round_trip() {
        let deltas = [("completed", 12u64), ("failed", 0), ("tiles_pruned", 99)];
        let mut wire = Vec::new();
        write_delta_frame(&mut wire, 7, &deltas).unwrap();
        match read_frame(&mut BufReader::new(&wire[..])).unwrap() {
            Frame::Delta(lines) => {
                let (seq, parsed) = parse_delta_lines(&lines);
                assert_eq!(seq, 7);
                assert_eq!(
                    parsed,
                    deltas
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect::<Vec<_>>()
                );
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn record_status_frames_are_control() {
        let status = masksearch_obs::RecorderStatus {
            active: true,
            path: Some("/tmp/f.bin".into()),
            records: 12,
            bytes: 3400,
            dropped: 1,
        };
        let mut wire = Vec::new();
        write_record_status(&mut wire, &status).unwrap();
        match read_frame(&mut BufReader::new(&wire[..])).unwrap() {
            Frame::Control(line) => {
                assert_eq!(
                    line,
                    "RECORD active=1 path=/tmp/f.bin records=12 bytes=3400 dropped=1"
                );
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn digests_match_across_the_wire() {
        let response = QueryResponse {
            output: QueryOutput {
                rows: vec![
                    ResultRow::mask(MaskId::new(1), None),
                    ResultRow::mask(MaskId::new(5), Some(0.1 + 0.2)),
                ],
                stats: QueryStats {
                    candidates: 10,
                    pruned: 7,
                    verified: 1,
                    masks_loaded: 1,
                    ..Default::default()
                },
            },
            queue_wait: Duration::from_micros(5),
            exec_time: Duration::from_micros(184),
        };
        for bound in [None, Some(0.1 + 0.2)] {
            let server = digest_query_response(&response, bound);
            let mut wire = Vec::new();
            write_response_with_bound(&mut wire, &response, bound).unwrap();
            match read_frame(&mut BufReader::new(&wire[..])).unwrap() {
                Frame::Rows(parsed) => assert_eq!(digest_wire_response(&parsed), server),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // Different wall times must not change the digest...
        let mut slower = response;
        slower.exec_time = Duration::from_secs(2);
        let baseline = QueryResponse {
            exec_time: Duration::from_micros(184),
            queue_wait: slower.queue_wait,
            output: slower.output.clone(),
        };
        assert_eq!(
            digest_query_response(&slower, None),
            digest_query_response(&baseline, None)
        );
        // ...but different rows must.
        slower.output.rows.pop();
        assert_ne!(
            digest_query_response(&slower, None),
            digest_query_response(&baseline, None)
        );
    }

    #[test]
    fn mutation_digests_match_across_the_wire() {
        let response = MutationResponse {
            outcome: masksearch_query::MutationOutcome {
                inserted: 3,
                deleted: 1,
                updated: 2,
            },
            queue_wait: Duration::from_micros(2),
            exec_time: Duration::from_micros(77),
        };
        let server = digest_mutation_response(&response);
        let mut wire = Vec::new();
        write_mutation_response(&mut wire, &response).unwrap();
        match read_frame(&mut BufReader::new(&wire[..])).unwrap() {
            Frame::Rows(parsed) => assert_eq!(digest_wire_response(&parsed), server),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn plan_digests_mask_wall_times() {
        let a = vec![
            "query kind=filter wall_us=12 candidates=10".to_string(),
            "  filter terms=1 wall_us=7".to_string(),
        ];
        let b = vec![
            "query kind=filter wall_us=99999 candidates=10".to_string(),
            "  filter terms=1 wall_us=1".to_string(),
        ];
        assert_eq!(digest_plan_lines(&a), digest_plan_lines(&b));
        let c = vec![
            "query kind=filter wall_us=12 candidates=11".to_string(),
            "  filter terms=1 wall_us=7".to_string(),
        ];
        assert_ne!(digest_plan_lines(&a), digest_plan_lines(&c));
    }

    #[test]
    fn lookup_frames_round_trip() {
        let mut wire = Vec::new();
        write_lookup_response(&mut wire, &[MaskId::new(2), MaskId::new(9)]).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        match read_frame(&mut reader).unwrap() {
            Frame::Rows(parsed) => {
                assert_eq!(parsed.mask_ids(), vec![MaskId::new(2), MaskId::new(9)]);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}
