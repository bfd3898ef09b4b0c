//! Query plans: `EXPLAIN` and `EXPLAIN ANALYZE`.
//!
//! A [`PlanNode`] tree describes *how* a query will run — the selection and
//! its access path, the CP terms, whether the CHI bounds pass can classify
//! candidates or every mask must be loaded, and the verification kernel's
//! policy — before any work happens. `EXPLAIN ANALYZE` executes the query
//! and annotates the same tree with the measured [`QueryStats`], copying
//! each counter verbatim so the annotated plan and the stats can never
//! disagree (a property the integration tests assert).
//!
//! Plans render to indented `name key=value` lines, the same grammar the
//! span trees and `STATS PROFILES` use, so one parser serves every surface.

use crate::planner::ExecPlan;
use crate::query::{Query, QueryKind, Selection};
use crate::result::QueryStats;
use crate::session::{IndexingMode, SessionConfig};
use crate::spec::{CpTerm, RoiSpec, TermSource};
use masksearch_plan::KernelMode;

/// One node of a query plan: a named stage with ordered properties and
/// child stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Stage name (`query`, `select`, `filter`, `verify`, ...).
    pub name: String,
    /// Ordered `key=value` properties.
    pub props: Vec<(String, String)>,
    /// Child stages in execution order.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// An empty node named `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            props: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Appends (or overwrites) a property.
    pub fn set(&mut self, key: &str, value: impl ToString) {
        let value = value.to_string();
        if let Some(entry) = self.props.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value;
        } else {
            self.props.push((key.to_string(), value));
        }
    }

    /// Builder-style [`PlanNode::set`].
    pub fn with(mut self, key: &str, value: impl ToString) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up a property by key.
    pub fn prop(&self, key: &str) -> Option<&str> {
        self.props
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a property and parses it as an integer (the form every
    /// measured counter takes).
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.prop(key)?.parse().ok()
    }

    /// Finds the first node (depth-first, including `self`) named `name`.
    pub fn find(&self, name: &str) -> Option<&PlanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn find_mut(&mut self, name: &str) -> Option<&mut PlanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter_mut().find_map(|c| c.find_mut(name))
    }

    /// Renders the plan as indented text lines, two spaces per level.
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        self.render_into(0, &mut lines);
        lines
    }

    fn render_into(&self, depth: usize, lines: &mut Vec<String>) {
        let mut line = format!("{}{}", "  ".repeat(depth), self.name);
        for (k, v) in &self.props {
            line.push_str(&format!(" {k}={v}"));
        }
        lines.push(line);
        for child in &self.children {
            child.render_into(depth + 1, lines);
        }
    }
}

fn kind_name(kind: &QueryKind) -> &'static str {
    match kind {
        QueryKind::Filter { .. } => "filter",
        QueryKind::TopK { .. } => "topk",
        QueryKind::Aggregate { .. } => "aggregate",
        QueryKind::MaskAggregate { .. } => "mask_aggregate",
        QueryKind::PairFilter { .. } => "pair_filter",
        QueryKind::PairTopK { .. } => "pair_topk",
    }
}

fn indexing_name(mode: IndexingMode) -> &'static str {
    match mode {
        IndexingMode::Eager => "eager",
        IndexingMode::Incremental => "incremental",
        IndexingMode::Disabled => "disabled",
    }
}

fn describe_roi(roi: &RoiSpec) -> String {
    match roi {
        RoiSpec::Constant(r) => format!("box({},{},{},{})", r.x0(), r.y0(), r.x1(), r.y1()),
        RoiSpec::ObjectBox => "object".to_string(),
        RoiSpec::FullMask => "full".to_string(),
    }
}

fn describe_source(source: &TermSource) -> String {
    match source {
        TermSource::Own => "own".to_string(),
        TermSource::Left => "left".to_string(),
        TermSource::Right => "right".to_string(),
        TermSource::Compose(op) => format!("compose:{op:?}").to_lowercase(),
    }
}

fn describe_term(term: &CpTerm) -> String {
    format!(
        "cp({},{},[{},{}))",
        describe_source(&term.source),
        describe_roi(&term.roi),
        term.range.lo(),
        term.range.hi(),
    )
}

/// The query's `CP` terms in written order.
fn cp_terms(query: &Query) -> Vec<CpTerm> {
    match &query.kind {
        QueryKind::Filter { predicate } | QueryKind::PairFilter { predicate, .. } => predicate
            .comparisons()
            .iter()
            .flat_map(|c| c.expr.terms())
            .copied()
            .collect(),
        QueryKind::TopK { expr, .. }
        | QueryKind::Aggregate { expr, .. }
        | QueryKind::PairTopK { expr, .. } => expr.terms().into_iter().copied().collect(),
        QueryKind::MaskAggregate { term, .. } => vec![*term],
    }
}

fn selection_node(selection: &Selection, name: &str) -> PlanNode {
    let mut node = PlanNode::new(name);
    match &selection.mask_ids {
        Some(ids) => node.set("mask_ids", ids.len()),
        None => node.set("mask_ids", "*"),
    }
    if let Some(model) = selection.model_id {
        node.set("model", model.raw());
    }
    if let Some(types) = &selection.mask_types {
        node.set("mask_types", types.len());
    }
    if let Some(labels) = &selection.predicted_labels {
        node.set("labels", labels.len());
    }
    match &selection.image_ids {
        Some(ids) => node.set("image_ids", ids.len()),
        None => node.set("image_ids", "*"),
    }
    node
}

/// Builds the plan of `query` under `config`, without executing anything.
///
/// The tree always contains a `query` root with a `select` child plus the
/// two-stage skeleton of the paper's framework: a `filter` node (the CHI
/// bounds pass) and a `verify` node (pixel verification), so
/// [`annotate`] has a stable place for every [`QueryStats`] counter.
pub fn plan(query: &Query, config: &SessionConfig) -> PlanNode {
    let terms = cp_terms(query);
    let mut root = PlanNode::new("query")
        .with("kind", kind_name(&query.kind))
        .with("grouped", query.is_grouped())
        .with("indexing", indexing_name(config.indexing_mode))
        .with("threads", config.threads);

    root.children
        .push(selection_node(&query.selection, "select"));

    if let QueryKind::PairFilter { join, .. } | QueryKind::PairTopK { join, .. } = &query.kind {
        let mut bind = PlanNode::new("pair.bind");
        bind.children.push(selection_node(&join.left, "left"));
        bind.children.push(selection_node(&join.right, "right"));
        root.children.push(bind);
    }

    let mut filter = PlanNode::new("filter");
    filter.set(
        "strategy",
        match config.indexing_mode {
            // Without an index every candidate is verified by loading.
            IndexingMode::Disabled => "load-all",
            _ => "chi-bounds",
        },
    );
    filter.set("cp_terms", terms.len());
    for (i, term) in terms.iter().enumerate() {
        filter.children.push(
            PlanNode::new("term")
                .with("ord", i)
                .with("cp", describe_term(term)),
        );
    }
    root.children.push(filter);

    match &query.kind {
        QueryKind::TopK { k, order, .. } => {
            root.set("k", k);
            root.set("order", format!("{order:?}").to_lowercase());
        }
        QueryKind::PairTopK { k, order, .. } => {
            root.set("k", k);
            root.set("order", format!("{order:?}").to_lowercase());
        }
        QueryKind::Aggregate {
            agg, having, top_k, ..
        } => {
            root.set("agg", agg.name());
            if having.is_some() {
                root.set("having", "yes");
            }
            if let Some((k, order)) = top_k {
                root.set("k", k);
                root.set("order", format!("{order:?}").to_lowercase());
            }
        }
        QueryKind::MaskAggregate {
            agg, having, top_k, ..
        } => {
            root.set("agg", format!("{agg:?}").to_lowercase());
            if having.is_some() {
                root.set("having", "yes");
            }
            if let Some((k, order)) = top_k {
                root.set("k", k);
                root.set("order", format!("{order:?}").to_lowercase());
            }
        }
        _ => {}
    }

    let verify = PlanNode::new("verify").with(
        "kernel",
        match config.kernel_mode {
            KernelMode::ForceOn => "tiled",
            KernelMode::ForceOff => "scan",
            KernelMode::Auto => "auto",
        },
    );
    root.children.push(verify);
    root
}

/// [`plan`] plus the access path: the `select` node (or, for pair queries,
/// each `pair.bind` side) gains `index=<name|scan>`.
pub fn plan_with(query: &Query, config: &SessionConfig, exec: &ExecPlan) -> PlanNode {
    let mut root = plan(query, config);
    if matches!(
        query.kind,
        QueryKind::PairFilter { .. } | QueryKind::PairTopK { .. }
    ) {
        if let Some(bind) = root.find_mut("pair.bind") {
            for (side, access) in bind.children.iter_mut().zip(&exec.pair_index_access) {
                side.set("index", access.as_deref().unwrap_or("scan"));
            }
        }
    } else if let Some(select) = root.find_mut("select") {
        select.set("index", exec.index_access.as_deref().unwrap_or("scan"));
    }
    root
}

/// Annotates a plan with measured statistics, copying every counter of
/// `stats` verbatim onto its stage node — the `EXPLAIN ANALYZE` half.
///
/// `rows` is the query's result-row count (not part of [`QueryStats`]).
pub fn annotate(mut plan: PlanNode, stats: &QueryStats, rows: u64) -> PlanNode {
    use masksearch_obs::keys;
    plan.set(keys::WALL_US, stats.total_wall.as_micros() as u64);
    plan.set(keys::CANDIDATES, stats.candidates);
    plan.set("rows", rows);
    plan.set("io_virtual_us", stats.io_virtual.as_micros() as u64);
    if let Some(select) = plan.find_mut("select") {
        select.set(keys::WALL_US, stats.resolve_wall.as_micros() as u64);
        select.set(keys::INDEX_PROBES, stats.index_probes);
        select.set(keys::INDEX_ROWS, stats.index_rows);
        select.set(keys::PLANNER_INDEX_ON, stats.planner_index_on);
        select.set(keys::PLANNER_INDEX_OFF, stats.planner_index_off);
    }
    if let Some(bind) = plan.find_mut("pair.bind") {
        bind.set(keys::PAIRS_BOUND, stats.pairs_bound);
    }
    if let Some(filter) = plan.find_mut("filter") {
        filter.set(keys::WALL_US, stats.filter_wall.as_micros() as u64);
        filter.set(keys::PRUNED, stats.pruned);
        filter.set(keys::ACCEPTED, stats.accepted_without_load);
        filter.set(keys::VERIFIED, stats.verified);
        if stats.candidates > 0 {
            filter.set(
                "actual_selectivity",
                format!("{:.3}", rows as f64 / stats.candidates as f64),
            );
        }
    }
    if let Some(verify) = plan.find_mut("verify") {
        verify.set(keys::WALL_US, stats.verify_wall.as_micros() as u64);
        verify.set(keys::LOADED, stats.masks_loaded);
        verify.set(keys::IN_PLACE, stats.verified_in_place);
        verify.set(keys::BYTES_READ, stats.bytes_read);
        verify.set(keys::INDEXES_BUILT, stats.indexes_built);
        verify.set(keys::TILES_PRUNED, stats.tiles_pruned);
        verify.set(keys::TILES_HIST, stats.tiles_hist);
        verify.set(keys::TILES_SCANNED, stats.tiles_scanned);
        verify.set(keys::PLANNER_KERNEL_ON, stats.planner_kernel_on);
        verify.set(keys::PLANNER_KERNEL_OFF, stats.planner_kernel_off);
    }
    plan
}

/// The *shape key* of a query: its structure without literal constants,
/// used to bucket per-shape statistics ([`masksearch_obs::ShapeStatsRegistry`]).
///
/// Two queries share a shape when they have the same kind, the same CP-term
/// count and ROI mix, and run under the same kernel and indexing
/// configuration.
pub fn shape_key(query: &Query, config: &SessionConfig) -> String {
    let terms = cp_terms(query);
    let mut rois: Vec<&str> = terms
        .iter()
        .map(|t| match t.roi {
            RoiSpec::Constant(_) => "const",
            RoiSpec::ObjectBox => "object",
            RoiSpec::FullMask => "full",
        })
        .collect();
    rois.sort_unstable();
    rois.dedup();
    let roi = if rois.is_empty() {
        "none".to_string()
    } else {
        rois.join("+")
    };
    format!(
        "{}/cp={}/roi={}/kernel={}/idx={}",
        kind_name(&query.kind),
        terms.len(),
        roi,
        config.kernel_mode.label(),
        indexing_name(config.indexing_mode),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::MaskJoin;
    use crate::spec::Order;
    use masksearch_core::{PixelRange, Roi};
    use std::time::Duration;

    fn config() -> SessionConfig {
        SessionConfig::default().threads(2)
    }

    fn filter_query() -> Query {
        Query::filter_cp_gt(
            Roi::new(0, 0, 16, 16).unwrap(),
            PixelRange::new(0.5, 1.0).unwrap(),
            10.0,
        )
    }

    #[test]
    fn plan_has_the_two_stage_skeleton() {
        let p = plan(&filter_query(), &config());
        assert_eq!(p.name, "query");
        assert_eq!(p.prop("kind"), Some("filter"));
        assert!(p.find("select").is_some());
        let filter = p.find("filter").unwrap();
        assert_eq!(filter.prop("strategy"), Some("chi-bounds"));
        assert_eq!(filter.counter("cp_terms"), Some(1));
        assert_eq!(filter.children[0].name, "term");
        assert!(filter.children[0]
            .prop("cp")
            .unwrap()
            .starts_with("cp(own,box("));
        // The default kernel policy follows each mask's grid; forcing
        // resolves it statically.
        assert_eq!(p.find("verify").unwrap().prop("kernel"), Some("auto"));
        let forced = plan(&filter_query(), &config().kernel_mode(KernelMode::ForceOn));
        assert_eq!(forced.find("verify").unwrap().prop("kernel"), Some("tiled"));
    }

    #[test]
    fn disabled_indexing_plans_load_all() {
        let cfg = config()
            .indexing_mode(IndexingMode::Disabled)
            .kernel_mode(KernelMode::ForceOff);
        let p = plan(&filter_query(), &cfg);
        assert_eq!(p.find("filter").unwrap().prop("strategy"), Some("load-all"));
        assert_eq!(p.find("verify").unwrap().prop("kernel"), Some("scan"));
    }

    #[test]
    fn pair_plans_carry_the_bind_stage_and_ranked_props() {
        let range = PixelRange::new(0.5, 1.0).unwrap();
        let q = Query::pair_top_k(
            MaskJoin::new(Selection::all(), Selection::all()),
            Expr::Cp(CpTerm::full_mask(range).with_source(TermSource::Left)),
            5,
            Order::Asc,
        );
        let p = plan(&q, &config());
        assert_eq!(p.prop("k"), Some("5"));
        assert_eq!(p.prop("order"), Some("asc"));
        let bind = p.find("pair.bind").unwrap();
        assert_eq!(bind.children.len(), 2);
    }

    #[test]
    fn annotate_copies_stats_verbatim() {
        let stats = QueryStats {
            candidates: 100,
            pruned: 70,
            accepted_without_load: 20,
            verified: 10,
            masks_loaded: 10,
            bytes_read: 4096,
            indexes_built: 3,
            tiles_pruned: 40,
            tiles_hist: 5,
            tiles_scanned: 2,
            filter_wall: Duration::from_micros(120),
            verify_wall: Duration::from_micros(950),
            total_wall: Duration::from_micros(1100),
            ..Default::default()
        };
        let annotated = annotate(plan(&filter_query(), &config()), &stats, 25);
        assert_eq!(annotated.counter("wall_us"), Some(1100));
        assert_eq!(annotated.counter("candidates"), Some(100));
        assert_eq!(annotated.counter("rows"), Some(25));
        let filter = annotated.find("filter").unwrap();
        assert_eq!(filter.counter("pruned"), Some(70));
        assert_eq!(filter.counter("accepted"), Some(20));
        assert_eq!(filter.counter("verified"), Some(10));
        assert_eq!(filter.counter("wall_us"), Some(120));
        let verify = annotated.find("verify").unwrap();
        assert_eq!(verify.counter("loaded"), Some(10));
        assert_eq!(verify.counter("bytes_read"), Some(4096));
        assert_eq!(verify.counter("tiles_pruned"), Some(40));
    }

    #[test]
    fn shape_keys_ignore_constants_but_track_structure() {
        let cfg = config();
        let a = Query::filter_cp_gt(
            Roi::new(0, 0, 8, 8).unwrap(),
            PixelRange::new(0.1, 0.9).unwrap(),
            5.0,
        );
        let b = Query::filter_cp_gt(
            Roi::new(4, 4, 12, 12).unwrap(),
            PixelRange::new(0.5, 1.0).unwrap(),
            900.0,
        );
        assert_eq!(shape_key(&a, &cfg), shape_key(&b, &cfg));
        assert_eq!(
            shape_key(&a, &cfg),
            "filter/cp=1/roi=const/kernel=auto/idx=incremental"
        );
        let ranked = Query::top_k_cp(
            Roi::new(0, 0, 8, 8).unwrap(),
            PixelRange::new(0.1, 0.9).unwrap(),
            3,
            Order::Desc,
        );
        assert_ne!(shape_key(&a, &cfg), shape_key(&ranked, &cfg));
        assert_ne!(
            shape_key(&a, &cfg),
            shape_key(&a, &cfg.kernel_mode(KernelMode::ForceOff))
        );
    }

    #[test]
    fn render_is_indented_and_stable() {
        let lines = plan(&filter_query(), &config()).render();
        assert!(lines[0].starts_with("query kind=filter"));
        assert!(lines.iter().any(|l| l.starts_with("  select ")));
        assert!(lines.iter().any(|l| l.starts_with("  filter ")));
        assert!(lines.iter().any(|l| l.starts_with("    term ")));
    }
}
