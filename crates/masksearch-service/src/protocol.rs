//! The line-oriented wire protocol of the TCP front end: the one place the
//! request grammar ([`ClientRequest`]) and the response frames are written
//! and read.
//!
//! Requests are single lines of UTF-8: a control command of the grammar on
//! [`ClientRequest`], or a SQL statement in the `masksearch-sql` dialect.
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
//! << PONG v7
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
use masksearch_query::{ResultRow, RowKey};

use std::io::{BufRead, Write};

/// Terminates every response frame.
pub const END_MARKER: &str = "END";

/// Version of the wire protocol spoken by this build. Carried in the `PONG`
/// handshake reply (`PONG v<N>`); peers with a different version reject the
/// connection with a clear error instead of mis-parsing frames.
///
/// History: v1 — bare `PONG`; v2 — versioned handshake, `PARTIAL K=<n>`
/// with `bound=` summaries, `LOOKUP`, saturation fields in `STATS`; v3 —
/// `TOKEN <id> <sql>` deduplicated mutations (exactly-once resends),
/// self-join pair queries, `deduped=` / `pairs_bound=` in `STATS`; v4 —
/// `EXPLAIN [ANALYZE]` answered with `PLAN <n>` frames, `METRICS`
/// (Prometheus text) and `STATS PROFILES [n]`; v5 — `METRICS WINDOW
/// <secs>`, `RECORD START/STOP/STATUS` and `MONITOR <frames>
/// [<interval_ms>]` streaming `DELTA <n>` frames (the planner's additive
/// `planner_*` `STATS` keys needed no bump); v6 — `@<id>`-tagged requests
/// and frames, pipelined and answered in completion order, while untagged
/// requests keep the one-at-a-time FIFO contract and `MONITOR` stays
/// untagged-only; v7 — `updated=` in mutation `OK` headers, `updated` /
/// `index_probes` / `index_rows` / `planner_index_on` / `planner_index_off`
/// in `STATS`, `LOOKUP *` (every held mask id), and interactive `BEGIN` /
/// `COMMIT` / `ROLLBACK` plus one-line `BEGIN; …; COMMIT` scripts applied
/// as a single storage commit.
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

/// One client request line: the request grammar of the protocol.
///
/// Keywords are case-insensitive; a line that is none of these is SQL, and
/// so is a malformed one (the SQL front end answers it with an `ERR` frame).
/// Any line may carry a `@<id> ` multiplexing tag in front ([`parse_tag`]).
///
/// ```text
/// PING                               version handshake -> PONG v<N>
/// STATS                              metrics summary   -> STATS k=v ...
/// STATS PROFILES [<n>]               recent profiles   -> PROFILES <n>
/// METRICS                            Prometheus text   -> METRICS <n>
/// METRICS WINDOW <secs>              secs > 0          -> METRICS <n>
/// RECORD START [<path>] | STOP | STATUS                -> RECORD k=v ...
/// MONITOR [<frames> [<interval_ms>]] frames > 0, at most MAX_MONITOR_FRAMES
///                                                      -> <frames> x DELTA <n>
/// LOOKUP [<id> ...] | LOOKUP *       held mask ids     -> OK <n>
/// PARTIAL K=<k> <sql>                shard-mode top-k  -> OK <n> ... bound=<v>
/// TOKEN <token> <sql>                deduplicated statement
/// QUIT                               close the connection (no frame)
/// <sql>                              any other line    -> OK | PLAN | ERR
/// ```
///
/// [`ClientRequest::parse`] reads a line and [`ClientRequest::line`] writes
/// one; every client in this crate builds its request lines with `line`.
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
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        if let Some(rest) = keyword(line, "LOOKUP ") {
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
        if let Some((token, sql)) =
            keyword(line, "TOKEN ").and_then(|rest| number_then_sql(rest, ""))
        {
            return Some(Self::Tokened { token, sql });
        }
        if let Some(rest) = keyword(line, "METRICS WINDOW") {
            if let Ok(secs @ 1..) = rest.trim().parse::<u64>() {
                return Some(Self::MetricsWindow(secs));
            }
            // Malformed window: fall through to the SQL path (-> ERR frame).
        }
        if let Some(cmd) = keyword(line, "RECORD ").map(str::trim) {
            let control = if cmd.eq_ignore_ascii_case("STOP") {
                Some(RecordControl::Stop)
            } else if cmd.eq_ignore_ascii_case("STATUS") {
                Some(RecordControl::Status)
            } else if cmd.eq_ignore_ascii_case("START") {
                Some(RecordControl::Start(None))
            } else {
                // Paths are case-sensitive: taken from the line as it came.
                keyword(cmd, "START ")
                    .map(str::trim)
                    .filter(|path| !path.is_empty())
                    .map(|path| RecordControl::Start(Some(path.to_string())))
            };
            // An unknown subcommand falls through to the SQL path (-> ERR).
            if let Some(control) = control {
                return Some(Self::Record(control));
            }
        }
        if let Some(rest) = keyword(line, "MONITOR") {
            let mut parts = rest.split_ascii_whitespace();
            let frames = parts.next().map(|t| t.parse::<u32>());
            let interval = parts.next().map(|t| t.parse::<u64>());
            let (frames, interval_ms) = match (frames, interval, parts.next()) {
                (None, None, None) => (1, DEFAULT_MONITOR_INTERVAL_MS),
                (Some(Ok(frames)), None, None) => (frames, DEFAULT_MONITOR_INTERVAL_MS),
                (Some(Ok(frames)), Some(Ok(interval_ms)), None) => (frames, interval_ms),
                // Malformed: fall through to the SQL path (-> ERR frame).
                _ => (0, 0),
            };
            if frames > 0 {
                return Some(Self::Monitor {
                    frames: frames.min(MAX_MONITOR_FRAMES),
                    interval_ms,
                });
            }
        }
        if let Some(rest) = keyword(line, "STATS PROFILES").map(str::trim) {
            if rest.is_empty() {
                return Some(Self::Profiles(DEFAULT_PROFILES));
            }
            if let Ok(n) = rest.parse::<usize>() {
                return Some(Self::Profiles(n));
            }
            // Malformed count: fall through to the SQL path (-> ERR frame).
        }
        if let Some((k, sql)) =
            keyword(line, "PARTIAL ").and_then(|rest| number_then_sql(rest, "K="))
        {
            return Some(Self::Partial { k, sql });
        }
        let bare = [
            ("PING", Self::Ping),
            ("STATS", Self::Stats),
            ("METRICS", Self::Metrics),
            ("QUIT", Self::Quit),
            // A LOOKUP of zero ids is a valid (empty) question.
            ("LOOKUP", Self::Lookup(Vec::new())),
        ];
        let bare = bare
            .into_iter()
            .find(|(word, _)| line.eq_ignore_ascii_case(word));
        Some(bare.map_or_else(|| Self::Sql(line.to_string()), |(_, request)| request))
    }

    /// The request line [`ClientRequest::parse`] reads back as `self`, for
    /// every request `parse` can produce.
    pub fn line(&self) -> String {
        match self {
            Self::Ping => "PING".to_string(),
            Self::Stats => "STATS".to_string(),
            Self::Metrics => "METRICS".to_string(),
            Self::MetricsWindow(secs) => format!("METRICS WINDOW {secs}"),
            Self::Record(RecordControl::Start(None)) => "RECORD START".to_string(),
            Self::Record(RecordControl::Start(Some(path))) => format!("RECORD START {path}"),
            Self::Record(RecordControl::Stop) => "RECORD STOP".to_string(),
            Self::Record(RecordControl::Status) => "RECORD STATUS".to_string(),
            Self::Monitor {
                frames,
                interval_ms,
            } => format!("MONITOR {frames} {interval_ms}"),
            Self::Profiles(n) => format!("STATS PROFILES {n}"),
            Self::Quit => "QUIT".to_string(),
            Self::Lookup(ids) => {
                use std::fmt::Write as _;
                let mut line = "LOOKUP".to_string();
                for id in ids {
                    write!(line, " {}", id.raw()).expect("write to a String");
                }
                line
            }
            Self::LookupAll => "LOOKUP *".to_string(),
            Self::Partial { k, sql } => format!("PARTIAL K={k} {sql}"),
            Self::Tokened { token, sql } => format!("TOKEN {token} {sql}"),
            Self::Sql(sql) => sql.clone(),
        }
    }
}

/// `line` after a leading `word`, matched case-insensitively.
pub(crate) fn keyword<'a>(line: &'a str, word: &str) -> Option<&'a str> {
    let head = line.get(..word.len())?;
    head.eq_ignore_ascii_case(word).then(|| &line[word.len()..])
}

/// Splits `<prefix><n> <sql>` into `n` and a non-empty `sql`.
fn number_then_sql<T: std::str::FromStr>(rest: &str, prefix: &str) -> Option<(T, String)> {
    let rest = rest.trim_start();
    let first = rest.split_ascii_whitespace().next()?;
    let n = keyword(first, prefix)?.parse().ok()?;
    let sql = rest[first.len()..].trim_start();
    (!sql.is_empty()).then(|| (n, sql.to_string()))
}

/// The first keyword of a SQL line (up to whitespace or `;`).
pub(crate) fn first_keyword(line: &str) -> &str {
    line.trim_start()
        .split([' ', '\t', ';'])
        .next()
        .unwrap_or("")
}

/// Encodes one result row as a protocol line.
pub fn encode_row(row: &ResultRow) -> String {
    let mut line = String::new();
    encode_row_into(&mut line, row);
    line
}

/// Appends [`encode_row`]'s line for `row` to `out` (no trailing newline):
/// how frames and response digests render each row without allocating.
fn encode_row_into(out: &mut String, row: &ResultRow) {
    use std::fmt::Write as _;
    let (kind, id) = match row.key {
        RowKey::Mask(id) => ("mask", id.raw()),
        RowKey::Image(id) => ("image", id.raw()),
    };
    match row.value {
        Some(v) => write!(out, "{kind} {id} {v}"),
        None => write!(out, "{kind} {id}"),
    }
    .expect("write to a String");
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

/// The `OK` lines a summary key is written on (bits of [`SUMMARY_KEYS`]).
const QUERY: u8 = 1;
const MUTATION: u8 = 2;
const DIGEST: u8 = 4;

/// A summary key's [`WireSummary`] field.
type Field = fn(&mut WireSummary) -> &mut u64;

/// The `key=<n>` tokens of an `OK` frame's summary line, in wire order,
/// each with the lines that carry it and its field: a query's frame carries
/// its stage counts, a write's its outcome, and both end with the wall
/// time; a response digest carries every count and no wall time.
/// `bound=<v>` ([`BOUND`]) follows them all when present.
const SUMMARY_KEYS: [(&str, u8, Field); 8] = [
    ("candidates", QUERY | DIGEST, |s| &mut s.candidates),
    ("pruned", QUERY | DIGEST, |s| &mut s.pruned),
    ("verified", QUERY | DIGEST, |s| &mut s.verified),
    ("loaded", QUERY | DIGEST, |s| &mut s.loaded),
    ("inserted", MUTATION | DIGEST, |s| &mut s.inserted),
    ("deleted", MUTATION | DIGEST, |s| &mut s.deleted),
    ("updated", MUTATION | DIGEST, |s| &mut s.updated),
    ("wall_us", QUERY | MUTATION, |s| &mut s.wall_us),
];

/// The last summary key: a partial answer's bound ([`WireSummary::bound`]).
const BOUND: &str = "bound";

/// Appends an `OK` summary line with the [`SUMMARY_KEYS`] `kind` selects.
fn summary_line(out: &mut String, kind: u8, summary: &WireSummary) {
    use std::fmt::Write as _;
    write!(out, "OK {}", summary.rows).expect("write to a String");
    // The fields are reached through `&mut` accessors: read them off a copy.
    let mut s = *summary;
    for (key, _, field) in SUMMARY_KEYS.iter().filter(|(_, on, _)| on & kind != 0) {
        write!(out, " {key}={}", field(&mut s)).expect("write to a String");
    }
    if let Some(bound) = summary.bound {
        write!(out, " {BOUND}={bound}").expect("write to a String");
    }
    out.push('\n');
}

/// Writes an `OK` frame — summary line, one line per row, `END` — in one
/// write.
fn write_ok<W: Write>(
    w: &mut W,
    kind: u8,
    summary: &WireSummary,
    rows: &[ResultRow],
) -> std::io::Result<()> {
    let mut frame = String::with_capacity(96 + 32 * rows.len());
    summary_line(&mut frame, kind, summary);
    for row in rows {
        encode_row_into(&mut frame, row);
        frame.push('\n');
    }
    frame.push_str(END_MARKER);
    frame.push('\n');
    w.write_all(frame.as_bytes())
}

impl WireSummary {
    /// The summary of a query's `OK` frame.
    pub(crate) fn of_query(response: &QueryResponse, bound: Option<f64>) -> Self {
        let s = &response.output.stats;
        Self {
            rows: response.output.rows.len() as u64,
            candidates: s.candidates,
            pruned: s.pruned,
            verified: s.verified,
            loaded: s.masks_loaded,
            wall_us: response.exec_time.as_micros() as u64,
            bound,
            ..Self::default()
        }
    }

    /// The summary of a write's `OK` frame.
    pub(crate) fn of_mutation(response: &MutationResponse) -> Self {
        let o = &response.outcome;
        Self {
            inserted: o.inserted as u64,
            deleted: o.deleted as u64,
            updated: o.updated as u64,
            wall_us: response.exec_time.as_micros() as u64,
            ..Self::default()
        }
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
    let summary = WireSummary::of_query(response, bound);
    write_ok(w, QUERY, &summary, &response.output.rows)
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
    write_ok(w, MUTATION, &WireSummary::of_mutation(response), &[])
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
/// the `END` marker): every row of [`MetricsSnapshot::ROWS`] that has a
/// `STATS` key, in row order — the same rows the cluster coordinator's
/// merge reads.
pub fn stats_line(m: &MetricsSnapshot) -> String {
    let mut line = String::from("STATS");
    masksearch_obs::keys::write_stats(&mut line, &MetricsSnapshot::ROWS, &m.values());
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
    /// [`QueryOutput::mask_ids`](masksearch_query::QueryOutput::mask_ids)).
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
    let line = next_line(reader)?;
    let header = line.trim_end();
    let (tag, header) = parse_tag(header).map_or((None, header), |(id, rest)| (Some(id), rest));
    match read_frame_body(header, reader) {
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
    // Unknown keys and malformed values are skipped.
    for (key, value) in tokens.filter_map(|token| token.split_once('=')) {
        if key == BOUND {
            summary.bound = value.parse().ok().or(summary.bound);
        } else if let Some((.., field)) = SUMMARY_KEYS.iter().find(|(k, ..)| *k == key) {
            if let Ok(value) = value.parse() {
                *field(&mut summary) = value;
            }
        }
    }
    // Cap the pre-allocation: the count is wire data and must not let a
    // corrupt or hostile header drive an unbounded allocation.
    let mut parsed_rows = Vec::with_capacity(rows.min(1024) as usize);
    loop {
        let line = next_line(reader)?;
        if line.trim_end() == END_MARKER {
            break;
        }
        parsed_rows.push(parse_row(line.trim_end())?);
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
        let mut line = next_line(reader)?;
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        lines.push(line);
    }
    expect_end(reader)?;
    Ok(lines)
}

/// Reads one line of a frame, its line break included; the stream ending
/// first is a transport failure.
fn next_line<R: BufRead>(reader: &mut R) -> ServiceResult<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ServiceError::Io("connection closed mid-frame".to_string()));
    }
    Ok(line)
}

fn expect_end<R: BufRead>(reader: &mut R) -> ServiceResult<()> {
    let line = next_line(reader)?;
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

impl Frame {
    /// The response of an `OK` frame; any other frame is a protocol error.
    pub fn into_rows(self) -> ServiceResult<WireResponse> {
        match self {
            Self::Rows(response) => Ok(response),
            other => Err(other.unexpected("an OK")),
        }
    }

    /// The line of a `PONG`, `STATS` or `RECORD` control frame; any other
    /// frame is a protocol error.
    pub fn into_control(self) -> ServiceResult<String> {
        match self {
            Self::Control(line) => Ok(line),
            other => Err(other.unexpected("a control")),
        }
    }

    /// The payload of a counted frame whose header keyword is `kind`
    /// (`PLAN`, `METRICS`, `PROFILES` or `DELTA`); any other frame is a
    /// protocol error.
    pub fn into_lines(self, kind: &str) -> ServiceResult<Vec<String>> {
        match (kind, self) {
            ("PLAN", Self::Plan(lines))
            | ("METRICS", Self::Metrics(lines))
            | ("PROFILES", Self::Profiles(lines))
            | ("DELTA", Self::Delta(lines)) => Ok(lines),
            (_, other) => Err(other.unexpected(&format!("a {kind}"))),
        }
    }

    fn unexpected(self, want: &str) -> ServiceError {
        ServiceError::Protocol(format!("expected {want} frame, got {self:?}"))
    }
}

// ---------------------------------------------------------------------------
// Response digests for the flight recorder.
//
// The recorder stores an FNV-1a digest of each response with wall time
// excluded, and the replay harness recomputes the same digest from the
// frames it reads back. Both hash the `OK` lines a frame carries, with the
// `DIGEST` keys; because row values use shortest round-trip float
// formatting, a value parsed by the client re-encodes to the identical
// bytes the server wrote.
// ---------------------------------------------------------------------------

/// Digest of an `OK` answer with `summary` and `rows` (wall time excluded).
pub(crate) fn digest_ok(summary: &WireSummary, rows: &[ResultRow]) -> u64 {
    // One reused buffer, hashed a line at a time: the digest sits on the
    // query path whenever the recorder is active.
    let mut h = masksearch_obs::Fnv64::new();
    let mut buf = String::with_capacity(96);
    summary_line(&mut buf, DIGEST, summary);
    h.update(buf.as_bytes());
    for row in rows {
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
    let summary = WireSummary::of_query(response, bound);
    digest_ok(&summary, &response.output.rows)
}

/// Digest of a successful mutation response (wall time excluded).
pub fn digest_mutation_response(response: &MutationResponse) -> u64 {
    digest_ok(&WireSummary::of_mutation(response), &[])
}

/// Digest of a parsed `OK` frame, computed client-side by the replay
/// harness; matches [`digest_query_response`] / [`digest_mutation_response`]
/// for the same response.
pub fn digest_wire_response(response: &WireResponse) -> u64 {
    let summary = WireSummary {
        rows: response.rows.len() as u64,
        ..response.summary
    };
    digest_ok(&summary, &response.rows)
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
    use masksearch_query::{QueryOutput, QueryStats};
    use proptest::prelude::*;
    use std::io::BufReader;
    use std::time::Duration;

    /// A request of every variant `parse` can produce, drawn from a few
    /// numbers: `variant` picks the variant, the rest fill it in.
    fn request_of(variant: u8, n: u64, ids: Vec<u64>, text: usize) -> ClientRequest {
        const SQL: [&str; 4] = [
            "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 8, 8), (0.5, 1.0)) > 3",
            "insert into masks values (1, 2, 1, 1, (0.5))",
            "EXPLAIN ANALYZE SELECT mask_id FROM masks ORDER BY CP(mask, object, (0.1, 0.9)) DESC LIMIT 5",
            "BEGIN; DELETE FROM masks WHERE mask_id IN (3); COMMIT",
        ];
        const PATHS: [&str; 3] = ["/tmp/Flight.bin", "Recordings/with space.bin", "x"];
        let sql = SQL[text % SQL.len()].to_string();
        match variant % 16 {
            0 => ClientRequest::Ping,
            1 => ClientRequest::Stats,
            2 => ClientRequest::Metrics,
            3 => ClientRequest::MetricsWindow(n.max(1)),
            4 => ClientRequest::Record(RecordControl::Start(None)),
            5 => ClientRequest::Record(RecordControl::Start(Some(
                PATHS[text % PATHS.len()].to_string(),
            ))),
            6 => ClientRequest::Record(RecordControl::Stop),
            7 => ClientRequest::Record(RecordControl::Status),
            8 => ClientRequest::Monitor {
                frames: (n % u64::from(MAX_MONITOR_FRAMES)) as u32 + 1,
                interval_ms: n,
            },
            9 => ClientRequest::Profiles(n as usize),
            10 => ClientRequest::Quit,
            11 => ClientRequest::Lookup(ids.into_iter().map(MaskId::new).collect()),
            12 => ClientRequest::LookupAll,
            13 => ClientRequest::Partial { k: n as usize, sql },
            14 => ClientRequest::Tokened { token: n, sql },
            _ => ClientRequest::Sql(sql),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_request_line_parses_back(
            variant in 0u8..16,
            n in any::<u64>(),
            ids in prop::collection::vec(any::<u64>(), 0..6),
            text in 0usize..12,
        ) {
            let request = request_of(variant, n, ids, text);
            let line = request.line();
            prop_assert_eq!(ClientRequest::parse(&line), Some(request.clone()));
            // Keywords are case-insensitive; arguments keep their case.
            prop_assert_eq!(
                ClientRequest::parse(&line.to_ascii_lowercase()).map(|r| r.line().to_ascii_lowercase()),
                Some(line.to_ascii_lowercase())
            );
        }
    }

    #[test]
    fn frame_kind_checks_name_what_they_got() {
        let frame = || Frame::Control("PONG v7".to_string());
        assert_eq!(frame().into_control().unwrap(), "PONG v7");
        for err in [
            frame().into_rows().unwrap_err(),
            frame().into_lines("PLAN").unwrap_err(),
            Frame::Metrics(vec![]).into_lines("PLAN").unwrap_err(),
        ] {
            assert!(
                matches!(err, ServiceError::Protocol(ref m) if m.contains("expected")),
                "{err}"
            );
        }
        assert_eq!(
            Frame::Delta(vec!["seq=1".to_string()])
                .into_lines("DELTA")
                .unwrap(),
            vec!["seq=1".to_string()]
        );
    }

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
