//! # masksearch-sql
//!
//! A SQL front end for the query dialect of the paper (§2.1–§2.2), lowered
//! onto the [`masksearch_query`] query model. The supported surface covers
//! the paper's examples:
//!
//! ```sql
//! -- Example 1 (filter):
//! SELECT mask_id FROM masks
//! WHERE CP(mask, (50, 50, 200, 200), (0.85, 1.0)) < 10000 AND model_id = 1;
//!
//! -- Example 1 (ratio top-k):
//! SELECT mask_id, CP(mask, object, (0.85, 1.0)) / CP(mask, full, (0.85, 1.0)) AS r
//! FROM masks ORDER BY r ASC LIMIT 25;
//!
//! -- Q4-style aggregation:
//! SELECT image_id, AVG(CP(mask, object, (0.8, 1.0))) AS s
//! FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 25;
//!
//! -- Example 2 / Q5-style mask aggregation:
//! SELECT image_id, CP(INTERSECT(mask > 0.7), object, (0.7, 1.0)) AS s
//! FROM masks WHERE mask_type IN (1, 2)
//! GROUP BY image_id ORDER BY s DESC LIMIT 10;
//! ```
//!
//! ROIs are written either as `(x0, y0, x1, y1)` (half-open pixel
//! coordinates), `object` (the per-mask foreground-object box), or `full`
//! (the whole mask). Metadata predicates (`model_id = n`,
//! `mask_type IN (...)`, `predicted_label = n`, `image_id IN (...)`) become
//! the query's relational selection; `CP` predicates become the
//! filter-predicate tree.
//!
//! The dialect also covers ingestion (see [`compile_statement`]):
//!
//! ```sql
//! -- Insert masks as (mask_id, image_id, width, height, (pixels...)):
//! INSERT INTO masks VALUES (7, 3, 2, 2, (0.1, 0.2, 0.3, 0.4)),
//!                          (8, 3, 2, 2, (0.9, 0.8, 0.7, 0.6));
//!
//! -- Delete masks by id:
//! DELETE FROM masks WHERE mask_id IN (7, 8);
//! ```
//!
//! Each statement lowers to one atomic batch, so a crash or a concurrent
//! reader sees either the whole statement applied or none of it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{
    SqlCreateIndex, SqlDelete, SqlDropIndex, SqlInsert, SqlQuery, SqlStatement, SqlUpdate,
};
pub use lexer::{tokenize, Token};
pub use lower::{lower, lower_statement};
pub use parser::{parse, parse_statement};

use masksearch_query::{Mutation, Order, Query, QueryKind};

/// A transaction-control statement: `BEGIN`, `COMMIT`, or `ROLLBACK`.
///
/// These do not execute against a session; they manipulate the
/// *connection's* transaction state (the service buffers mutations between
/// `BEGIN` and `COMMIT` and applies them as one atomic batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnControl {
    /// Open a multi-statement transaction.
    Begin,
    /// Apply the buffered statements atomically.
    Commit,
    /// Discard the buffered statements.
    Rollback,
}

/// An executable statement: a lowered query or a lowered write.
// Pair queries carry two extra selections, making `Query` the (much) larger
// variant; statements are compiled once and executed, never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Statement {
    /// A read-only query for `Session::execute`.
    Query(Query),
    /// A write for `Session::apply`.
    Mutation(Mutation),
    /// Transaction control, handled by the connection, not the session.
    Control(TxnControl),
}

/// How a compiled statement is routed across a sharded cluster.
///
/// This is *metadata only* — the dialect is unchanged — but it is derived
/// here, next to the lowering rules, so a coordinator never re-implements
/// the statement classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Send the statement to every shard and merge the disjoint row sets by
    /// key (filter queries, plain aggregations, `HAVING` aggregations).
    Broadcast,
    /// Send to every shard with a bounded per-shard `k` and refine with the
    /// distributed threshold algorithm (ranked queries: `ORDER BY .. LIMIT`).
    Ranked {
        /// The statement's global `k` (its `LIMIT`).
        k: usize,
        /// The ranking order.
        order: Order,
    },
    /// Split the write batch by the owning shard of each tuple's image id
    /// (`INSERT`): group members must co-locate for grouped queries to merge
    /// exactly.
    ByImage,
    /// Resolve each mask id's owning shard, then split (`DELETE`, `UPDATE`).
    ByMaskId,
    /// Apply on every shard and require every one to succeed
    /// (`CREATE INDEX` / `DROP INDEX`): index definitions must not drift
    /// between shards.
    Ddl,
    /// Not routable: `BEGIN`/`COMMIT`/`ROLLBACK` manipulate per-connection
    /// state, so a coordinator either scopes the whole transaction to one
    /// owning shard or rejects it.
    Control,
}

impl Statement {
    /// The cluster routing of this statement.
    pub fn routing(&self) -> Routing {
        match self {
            Statement::Query(query) => match &query.kind {
                QueryKind::TopK { k, order, .. } => Routing::Ranked {
                    k: *k,
                    order: *order,
                },
                QueryKind::Aggregate {
                    top_k: Some((k, order)),
                    ..
                }
                | QueryKind::MaskAggregate {
                    top_k: Some((k, order)),
                    ..
                } => Routing::Ranked {
                    k: *k,
                    order: *order,
                },
                // Pair queries key rows by image id — the shard map's hash
                // key — so ranked pairs refine like any ranked query and
                // pair filters merge as a broadcast.
                QueryKind::PairTopK { k, order, .. } => Routing::Ranked {
                    k: *k,
                    order: *order,
                },
                _ => Routing::Broadcast,
            },
            Statement::Mutation(Mutation::Insert(_)) => Routing::ByImage,
            Statement::Mutation(Mutation::Delete(_) | Mutation::Update(_)) => Routing::ByMaskId,
            Statement::Mutation(Mutation::CreateIndex { .. } | Mutation::DropIndex { .. }) => {
                Routing::Ddl
            }
            Statement::Control(_) => Routing::Control,
        }
    }
}

/// Which flavour of `EXPLAIN` a statement asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// `EXPLAIN <query>`: show the plan shape without executing.
    Plan,
    /// `EXPLAIN ANALYZE <query>`: execute and annotate the plan with the
    /// measured statistics.
    Analyze,
}

/// Recognizes an `EXPLAIN [ANALYZE]` prefix and returns the mode plus the
/// inner statement text, or `None` when the input is not an `EXPLAIN`.
///
/// The keywords are case-insensitive and must be whole words, so a query on
/// a hypothetical `explained` column is not misparsed. The inner statement is
/// *not* validated here — compilation happens wherever the caller already
/// compiles SQL, keeping one error path.
///
/// ```
/// use masksearch_sql::{strip_explain, ExplainMode};
/// let (mode, inner) = strip_explain("EXPLAIN ANALYZE SELECT mask_id FROM masks").unwrap();
/// assert_eq!(mode, ExplainMode::Analyze);
/// assert_eq!(inner, "SELECT mask_id FROM masks");
/// assert!(strip_explain("SELECT mask_id FROM masks").is_none());
/// ```
pub fn strip_explain(sql: &str) -> Option<(ExplainMode, &str)> {
    fn strip_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
        let trimmed = text.trim_start();
        // `get`, not indexing: the keyword's length may end inside a
        // multi-byte character of the statement, which is then no match.
        let head = trimmed.get(..keyword.len())?;
        if !head.eq_ignore_ascii_case(keyword) {
            return None;
        }
        let rest = &trimmed[keyword.len()..];
        // Whole-word match only: the keyword must be followed by whitespace
        // (a bare `EXPLAIN` with nothing after it is not a statement).
        rest.starts_with(|c: char| c.is_whitespace())
            .then_some(rest)
    }
    let rest = strip_keyword(sql, "EXPLAIN")?;
    match strip_keyword(rest, "ANALYZE") {
        Some(inner) => Some((ExplainMode::Analyze, inner.trim())),
        None => Some((ExplainMode::Plan, rest.trim())),
    }
}

/// The `EXPLAIN [ANALYZE] <sql>` statement [`strip_explain`] reads back as
/// `sql` (`ANALYZE` when `analyze` is set).
pub fn explain_statement(analyze: bool, sql: &str) -> String {
    let analyze = if analyze { " ANALYZE" } else { "" };
    format!("EXPLAIN{analyze} {sql}")
}

/// Parse error with a human-readable message and byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected (best effort).
    pub offset: usize,
}

impl SqlError {
    pub(crate) fn new(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset,
        }
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SqlError {}

/// Parses a SQL statement and lowers it to an executable [`Query`].
///
/// ```
/// use masksearch_sql::compile;
/// let query = compile(
///     "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 64, 64), (0.8, 1.0)) > 500 AND model_id = 1",
/// ).unwrap();
/// assert!(!query.is_grouped());
/// ```
pub fn compile(sql: &str) -> Result<Query, SqlError> {
    let statement = parse(sql)?;
    lower(&statement)
}

/// Parses any statement — `SELECT`, `INSERT`, or `DELETE` — and lowers it to
/// an executable [`Statement`].
///
/// ```
/// use masksearch_sql::{compile_statement, Statement};
/// let statement = compile_statement(
///     "INSERT INTO masks VALUES (7, 3, 2, 2, (0.1, 0.2, 0.3, 0.4))",
/// ).unwrap();
/// assert!(matches!(statement, Statement::Mutation(_)));
/// ```
pub fn compile_statement(sql: &str) -> Result<Statement, SqlError> {
    let statement = parse_statement(sql)?;
    lower_statement(&statement)
}

/// Compiles a `;`-separated script into its statements, in order.
///
/// The dialect has no string literals, so every `;` is a statement
/// separator. Empty statements (trailing `;`, doubled separators) are
/// skipped; reported error offsets are relative to the whole script.
///
/// ```
/// use masksearch_sql::{compile_script, Statement, TxnControl};
/// let script = compile_script(
///     "BEGIN; DELETE FROM masks WHERE mask_id = 1; COMMIT;",
/// ).unwrap();
/// assert_eq!(script.len(), 3);
/// assert!(matches!(script[0], Statement::Control(TxnControl::Begin)));
/// assert!(matches!(script[2], Statement::Control(TxnControl::Commit)));
/// ```
pub fn compile_script(sql: &str) -> Result<Vec<Statement>, SqlError> {
    let mut statements = Vec::new();
    let mut offset = 0usize;
    for piece in sql.split(';') {
        if !piece.trim().is_empty() {
            let statement = compile_statement(piece).map_err(|mut e| {
                e.offset += offset;
                e
            })?;
            statements.push(statement);
        }
        offset += piece.len() + 1;
    }
    Ok(statements)
}

/// Recognises a multi-statement `BEGIN; …; COMMIT` (or `… ROLLBACK`) script
/// and returns its mutations plus whether it commits. `Ok(None)` means `sql`
/// is a single statement (a lone trailing `;` is fine) that takes the
/// ordinary [`compile_statement`] path. A multi-statement script that is not
/// a well-formed transaction is rejected loudly — nothing is ever partially
/// applied. One compiler serves a single server and a cluster coordinator,
/// so a script means the same thing to both.
///
/// The error is the message a server answers with: a parse error's
/// rendering, or the reason the script is not a transaction.
///
/// ```
/// use masksearch_sql::compile_transaction_script;
/// let (mutations, commit) =
///     compile_transaction_script("BEGIN; DELETE FROM masks WHERE mask_id = 1; COMMIT")
///         .unwrap()
///         .unwrap();
/// assert_eq!((mutations.len(), commit), (1, true));
/// assert!(compile_transaction_script("DELETE FROM masks WHERE mask_id = 1;")
///     .unwrap()
///     .is_none());
/// ```
pub fn compile_transaction_script(sql: &str) -> Result<Option<(Vec<Mutation>, bool)>, String> {
    if !sql.contains(';') {
        return Ok(None);
    }
    let statements = compile_script(sql).map_err(|e| e.to_string())?;
    if statements.len() <= 1 {
        return Ok(None);
    }
    let err = |msg: &str| Err(msg.to_string());
    let mut iter = statements.into_iter();
    if !matches!(iter.next(), Some(Statement::Control(TxnControl::Begin))) {
        return err("a multi-statement script must be wrapped in BEGIN ... COMMIT");
    }
    let mut mutations = Vec::new();
    let mut finished = None;
    for statement in iter {
        if finished.is_some() {
            return err("statements after COMMIT/ROLLBACK in a transaction script");
        }
        match statement {
            Statement::Mutation(m) => mutations.push(m),
            Statement::Control(TxnControl::Commit) => finished = Some(true),
            Statement::Control(TxnControl::Rollback) => finished = Some(false),
            Statement::Control(TxnControl::Begin) => {
                return err("nested BEGIN in a transaction script");
            }
            Statement::Query(_) => {
                return err("queries are not allowed inside a transaction script");
            }
        }
    }
    match finished {
        Some(commit) => Ok(Some((mutations, commit))),
        None => err("a transaction script must end with COMMIT (or ROLLBACK)"),
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;

    #[test]
    fn explain_prefix_is_recognized_case_insensitively() {
        let (mode, inner) = strip_explain("explain select mask_id from masks").unwrap();
        assert_eq!(mode, ExplainMode::Plan);
        assert_eq!(inner, "select mask_id from masks");

        let (mode, inner) =
            strip_explain("  EXPLAIN  Analyze  SELECT mask_id FROM masks  ").unwrap();
        assert_eq!(mode, ExplainMode::Analyze);
        assert_eq!(inner, "SELECT mask_id FROM masks");
    }

    #[test]
    fn non_explain_statements_pass_through() {
        assert!(strip_explain("SELECT mask_id FROM masks").is_none());
        assert!(strip_explain("INSERT INTO masks VALUES (1, 1, 1, 1, (0.5))").is_none());
        // Keyword must be a whole word…
        assert!(strip_explain("EXPLAINED SELECT 1").is_none());
        // …and must be followed by an actual statement.
        assert!(strip_explain("EXPLAIN").is_none());
        assert!(strip_explain("").is_none());
    }

    #[test]
    fn a_multi_byte_character_across_a_keyword_end_is_no_match() {
        // A four-byte character after each prefix of a keyword: those that
        // start on the 5th to 7th byte straddle the byte where the 7-byte
        // keyword would end.
        let wide = '\u{1D518}';
        for keyword in ["EXPLAIN", "ANALYZE"] {
            for split in 1..keyword.len() {
                let word = format!("{}{wide}{}", &keyword[..split], &keyword[split..]);
                let text = format!("{word} SELECT mask_id FROM masks");
                assert!(strip_explain(&text).is_none(), "{text}");
                let explain = format!("EXPLAIN {text}");
                assert_eq!(
                    strip_explain(&explain),
                    Some((ExplainMode::Plan, text.as_str()))
                );
            }
        }
        let create = format!("CREAT{wide}E INDEX by_label ON masks (predicted_label)");
        assert!(strip_explain(&create).is_none());
    }

    #[test]
    fn explain_analyze_needs_word_boundary_too() {
        // `ANALYZER` is not the ANALYZE keyword: the whole remainder is the
        // inner statement of a plain EXPLAIN.
        let (mode, inner) = strip_explain("EXPLAIN ANALYZER").unwrap();
        assert_eq!(mode, ExplainMode::Plan);
        assert_eq!(inner, "ANALYZER");
    }

    #[test]
    fn inner_statement_still_compiles() {
        let (mode, inner) = strip_explain(
            "EXPLAIN ANALYZE SELECT mask_id FROM masks \
             WHERE CP(mask, (0, 0, 8, 8), (0.5, 1.0)) > 5",
        )
        .unwrap();
        assert_eq!(mode, ExplainMode::Analyze);
        assert!(matches!(
            compile_statement(inner).unwrap(),
            Statement::Query(_)
        ));
    }
}

#[cfg(test)]
mod routing_tests {
    use super::*;

    #[test]
    fn statements_classify_into_cluster_routes() {
        let filter = compile_statement(
            "SELECT mask_id FROM masks WHERE CP(mask, (0, 0, 8, 8), (0.5, 1.0)) > 5",
        )
        .unwrap();
        assert_eq!(filter.routing(), Routing::Broadcast);

        let topk = compile_statement(
            "SELECT mask_id, CP(mask, full, (0.5, 1.0)) AS s FROM masks ORDER BY s DESC LIMIT 7",
        )
        .unwrap();
        assert_eq!(
            topk.routing(),
            Routing::Ranked {
                k: 7,
                order: Order::Desc
            }
        );

        let grouped_topk = compile_statement(
            "SELECT image_id, AVG(CP(mask, full, (0.5, 1.0))) AS s FROM masks \
             GROUP BY image_id ORDER BY s ASC LIMIT 3",
        )
        .unwrap();
        assert_eq!(
            grouped_topk.routing(),
            Routing::Ranked {
                k: 3,
                order: Order::Asc
            }
        );

        let having = compile_statement(
            "SELECT image_id, SUM(CP(mask, full, (0.5, 1.0))) AS s FROM masks \
             GROUP BY image_id HAVING s > 10",
        )
        .unwrap();
        assert_eq!(having.routing(), Routing::Broadcast);

        let insert =
            compile_statement("INSERT INTO masks VALUES (7, 3, 2, 2, (0.1, 0.2, 0.3, 0.4))")
                .unwrap();
        assert_eq!(insert.routing(), Routing::ByImage);

        let delete = compile_statement("DELETE FROM masks WHERE mask_id IN (7, 8)").unwrap();
        assert_eq!(delete.routing(), Routing::ByMaskId);

        let update = compile_statement("UPDATE masks SET model_id = 2 WHERE mask_id = 7").unwrap();
        assert_eq!(update.routing(), Routing::ByMaskId);

        let create = compile_statement("CREATE INDEX by_model ON masks (model_id)").unwrap();
        assert_eq!(create.routing(), Routing::Ddl);
        let drop = compile_statement("DROP INDEX by_model").unwrap();
        assert_eq!(drop.routing(), Routing::Ddl);

        for sql in ["BEGIN", "COMMIT", "ROLLBACK"] {
            assert_eq!(compile_statement(sql).unwrap().routing(), Routing::Control);
        }
    }

    #[test]
    fn scripts_split_on_semicolons() {
        let script = compile_script(
            "BEGIN;\
             INSERT INTO masks VALUES (1, 0, 1, 1, (0.5));\
             UPDATE masks SET model_id = 2 WHERE mask_id = 1;\
             DELETE FROM masks WHERE mask_id = 1;\
             COMMIT;",
        )
        .unwrap();
        assert_eq!(script.len(), 5);
        assert!(matches!(script[0], Statement::Control(TxnControl::Begin)));
        assert!(matches!(
            script[1],
            Statement::Mutation(Mutation::Insert(_))
        ));
        assert!(matches!(
            script[2],
            Statement::Mutation(Mutation::Update(_))
        ));
        assert!(matches!(
            script[3],
            Statement::Mutation(Mutation::Delete(_))
        ));
        assert!(matches!(script[4], Statement::Control(TxnControl::Commit)));

        // Empty pieces are skipped; errors carry script-relative offsets.
        assert_eq!(compile_script(" ; ;; ").unwrap().len(), 0);
        let err = compile_script("BEGIN; SELECT garbage;").unwrap_err();
        assert!(err.offset >= 6, "offset {} not script-relative", err.offset);
    }
}
