//! Hierarchical spans recorded as flat records on a thread-local trace.
//!
//! A *trace* is started explicitly (by the engine around one query, or by a
//! test); *spans* opened while a trace is active on the same thread nest
//! under it. When no trace is active, [`span`] returns an inert guard after
//! a single thread-local read — instrumentation points stay in the code
//! permanently and cost effectively nothing when nobody is looking.
//!
//! Counters attach to the innermost open span via [`add_counter`] /
//! [`set_counter`], so a stage can report how much work it did (masks
//! loaded, cells decided) next to how long it took.
//!
//! Span names and counter keys are `&'static str` (literals or
//! [`crate::keys`] constants), and a trace is two flat vectors of `Copy`
//! records — [`SpanRecord`]s in open order and [`CounterRecord`]s in
//! first-set order — that each thread keeps for its next trace: a new trace
//! clears them and keeps their capacity, so a traced statement allocates
//! nothing once its thread has seen a statement of the same shape.
//! [`TraceGuard::finish`] lends the records to the caller (the profile ring
//! copies them); the [`SpanNode`] tree is built only when a profile is read.

use std::cell::RefCell;
use std::time::Instant;

/// One span of a trace. Spans are kept in the order they were opened, which
/// is the pre-order of the span tree; index 0 is the trace root.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanRecord {
    /// Span name (e.g. `query`, `filter`, `verify`).
    pub(crate) name: &'static str,
    /// Index of the enclosing span; the root is its own parent (0).
    pub(crate) parent: u32,
    /// When the span opened, in nanoseconds since the trace root opened.
    pub(crate) start_ns: u64,
    /// Wall-clock duration in microseconds (0 while the span is open).
    pub(crate) wall_us: u64,
}

/// One counter of a trace: the value `key` took on the span at index
/// `span` of the trace's [`SpanRecord`]s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CounterRecord {
    /// Index of the span the counter belongs to.
    pub(crate) span: u32,
    /// Counter key (e.g. `candidates`, `pruned`).
    pub(crate) key: &'static str,
    /// Counter value.
    pub(crate) value: u64,
}

/// A finished trace's flat records, borrowed from wherever they live (the
/// thread that ran the trace, or a profile ring slot).
#[derive(Debug, Clone, Copy)]
pub struct TraceRecords<'a> {
    /// Spans in open order; the first is the root, so there is one.
    pub(crate) spans: &'a [SpanRecord],
    /// Counters in first-set order.
    pub(crate) counters: &'a [CounterRecord],
}

impl TraceRecords<'_> {
    /// Builds the span tree rooted at the trace's root span.
    pub fn tree(&self) -> SpanNode {
        self.node(0)
    }

    fn node(&self, at: usize) -> SpanNode {
        let span = self.spans[at];
        SpanNode {
            name: span.name,
            wall_us: span.wall_us,
            counters: self
                .counters
                .iter()
                .filter(|c| c.span as usize == at)
                .map(|c| (c.key, c.value))
                .collect(),
            children: (at + 1..self.spans.len())
                .filter(|&child| self.spans[child].parent as usize == at)
                .map(|child| self.node(child))
                .collect(),
        }
    }
}

/// One node of a finished trace: a named span with its wall time, counters,
/// and child spans in open order. Built from a trace's [`TraceRecords`]
/// when a profile is read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (e.g. `query`, `filter`, `verify`).
    pub name: &'static str,
    /// Wall-clock duration in microseconds.
    pub wall_us: u64,
    /// Typed counters recorded while the span was innermost, in first-set
    /// order.
    pub counters: Vec<(&'static str, u64)>,
    /// Child spans, in the order they were opened.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// Finds the first descendant (depth-first, including `self`) with the
    /// given name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Renders the tree as indented text lines, two spaces per level:
    ///
    /// ```text
    /// query wall_us=1234 candidates=100
    ///   filter.bounds wall_us=200 pruned=90
    ///   verify wall_us=900 loaded=10
    /// ```
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        self.render_into(0, &mut lines);
        lines
    }

    fn render_into(&self, depth: usize, lines: &mut Vec<String>) {
        let mut line = format!(
            "{}{} wall_us={}",
            "  ".repeat(depth),
            self.name,
            self.wall_us
        );
        for (k, v) in &self.counters {
            line.push_str(&format!(" {k}={v}"));
        }
        lines.push(line);
        for child in &self.children {
            child.render_into(depth + 1, lines);
        }
    }
}

/// A thread's trace buffers. `origin` is `Some` exactly while a trace is
/// active; the vectors outlive each trace so the next one reuses them.
struct TraceState {
    /// When the active trace's root opened.
    origin: Option<Instant>,
    spans: Vec<SpanRecord>,
    counters: Vec<CounterRecord>,
    /// Index of the innermost open span.
    innermost: u32,
}

impl TraceState {
    fn elapsed_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Closes the innermost span (never the root) and returns to its parent.
    fn close_innermost(&mut self, origin: Instant) {
        let now = Self::elapsed_ns(origin);
        let span = &mut self.spans[self.innermost as usize];
        span.wall_us = now.saturating_sub(span.start_ns) / 1_000;
        self.innermost = span.parent;
    }

    /// Closes every open span, inward-out, then the root; ends the trace.
    fn close_all(&mut self, origin: Instant) {
        while self.innermost != 0 {
            self.close_innermost(origin);
        }
        self.spans[0].wall_us = Self::elapsed_ns(origin) / 1_000;
        self.origin = None;
    }

    fn counter(&mut self, key: &'static str) -> Option<&mut u64> {
        let span = self.innermost;
        self.counters
            .iter_mut()
            .find(|c| c.span == span && c.key == key)
            .map(|c| &mut c.value)
    }
}

thread_local! {
    static ACTIVE: RefCell<TraceState> = const {
        RefCell::new(TraceState {
            origin: None,
            spans: Vec::new(),
            counters: Vec::new(),
            innermost: 0,
        })
    };
}

/// Returns `true` if a trace is active on this thread (i.e. spans and
/// counters are being recorded).
pub fn trace_active() -> bool {
    ACTIVE.with(|a| a.borrow().origin.is_some())
}

/// Starts a trace rooted at a span named `name` on the current thread.
///
/// The returned guard ends the trace when dropped; call
/// [`TraceGuard::finish`] to read the completed records. Starting a trace
/// while one is already active returns an inert guard (the outer trace keeps
/// recording) — nested *traces* do not exist, only nested spans.
pub fn trace(name: &'static str) -> TraceGuard {
    ACTIVE.with(|a| {
        let mut state = a.borrow_mut();
        if state.origin.is_some() {
            return TraceGuard { owned: false };
        }
        state.spans.clear();
        state.counters.clear();
        state.spans.push(SpanRecord {
            name,
            parent: 0,
            start_ns: 0,
            wall_us: 0,
        });
        state.innermost = 0;
        state.origin = Some(Instant::now());
        TraceGuard { owned: true }
    })
}

/// Opens a span named `name` under the innermost open span, if a trace is
/// active on this thread; otherwise returns an inert guard. The span closes
/// (and records its wall time) when the guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    ACTIVE.with(|a| {
        let mut state = a.borrow_mut();
        let Some(origin) = state.origin else {
            return SpanGuard { open: false };
        };
        let record = SpanRecord {
            name,
            parent: state.innermost,
            start_ns: TraceState::elapsed_ns(origin),
            wall_us: 0,
        };
        state.innermost = state.spans.len() as u32;
        state.spans.push(record);
        SpanGuard { open: true }
    })
}

/// Adds `delta` to the counter `name` on the innermost open span. A no-op
/// when no trace is active.
pub fn add_counter(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    with_counter(name, |value| *value += delta, delta);
}

/// Sets the counter `name` on the innermost open span to `value`
/// (overwriting any prior value). A no-op when no trace is active.
pub fn set_counter(name: &'static str, value: u64) {
    with_counter(name, |v| *v = value, value);
}

/// Applies `update` to the innermost span's counter `key`, or appends the
/// counter with `first` when the span has none yet.
fn with_counter(key: &'static str, update: impl FnOnce(&mut u64), first: u64) {
    ACTIVE.with(|a| {
        let mut state = a.borrow_mut();
        if state.origin.is_none() {
            return;
        }
        if let Some(value) = state.counter(key) {
            update(value);
        } else {
            let span = state.innermost;
            state.counters.push(CounterRecord {
                span,
                key,
                value: first,
            });
        }
    });
}

/// Guard for an open span; closes the span on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    open: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        ACTIVE.with(|a| {
            let mut state = a.borrow_mut();
            // The root belongs to the trace guard; a span guard never closes
            // it even if drops are mismatched, nor touches an ended trace.
            match state.origin {
                Some(origin) if state.innermost != 0 => state.close_innermost(origin),
                _ => {}
            }
        });
    }
}

/// Guard for an active trace; ends the trace on drop.
#[must_use = "dropping the guard immediately ends the trace"]
pub struct TraceGuard {
    owned: bool,
}

impl TraceGuard {
    /// Ends the trace (closing any spans left open) and lends its records
    /// to `read`. Returns `None` for an inert guard (a trace was already
    /// active when this one was requested). `read` must not start traces
    /// or open spans: the thread's trace buffers are borrowed while it runs.
    pub fn finish<R>(mut self, read: impl FnOnce(TraceRecords<'_>) -> R) -> Option<R> {
        if !self.owned {
            return None; // inert guard: the outer trace keeps its state
        }
        self.owned = false;
        ACTIVE.with(|a| {
            let mut state = a.borrow_mut();
            let origin = state.origin?;
            state.close_all(origin);
            Some(read(TraceRecords {
                spans: &state.spans,
                counters: &state.counters,
            }))
        })
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.owned {
            ACTIVE.with(|a| a.borrow_mut().origin = None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(t: TraceGuard) -> Option<SpanNode> {
        t.finish(|records| records.tree())
    }

    #[test]
    fn spans_nest_under_the_trace_root() {
        let t = trace("query");
        {
            let _bounds = span("filter.bounds");
            add_counter("pruned", 7);
            add_counter("pruned", 3);
        }
        {
            let _verify = span("verify");
            set_counter("loaded", 2);
            let _inner = span("mask.load");
        }
        let root = tree(t).expect("owned trace finishes");
        assert_eq!(root.name, "query");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "filter.bounds");
        assert_eq!(root.children[0].counter("pruned"), Some(10));
        assert_eq!(root.children[1].name, "verify");
        assert_eq!(root.children[1].counter("loaded"), Some(2));
        assert_eq!(root.children[1].children[0].name, "mask.load");
        assert!(root.find("mask.load").is_some());
    }

    #[test]
    fn spans_without_a_trace_are_inert() {
        assert!(!trace_active());
        {
            let _s = span("orphan");
            add_counter("ignored", 1);
        }
        assert!(!trace_active());
    }

    #[test]
    fn nested_traces_do_not_steal_the_stack() {
        let outer = trace("outer");
        let inner = trace("inner");
        assert!(tree(inner).is_none());
        // The outer trace is still active and finishes normally.
        assert!(trace_active());
        let root = tree(outer).expect("outer finishes");
        assert_eq!(root.name, "outer");
        assert!(!trace_active());
    }

    #[test]
    fn unbalanced_spans_are_closed_by_finish() {
        let t = trace("query");
        let _leak = span("left.open");
        let root = tree(t).expect("trace finishes");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "left.open");
        // `_leak` drops after the trace ended: must be a silent no-op.
    }

    #[test]
    fn render_produces_indented_lines() {
        let t = trace("query");
        {
            let _s = span("stage");
            add_counter("n", 5);
        }
        let root = tree(t).unwrap();
        let lines = root.render();
        assert!(lines[0].starts_with("query wall_us="));
        assert!(lines[1].starts_with("  stage wall_us="));
        assert!(lines[1].ends_with("n=5"));
    }

    #[test]
    fn drop_without_finish_clears_the_thread_state() {
        {
            let _t = trace("dropped");
            let _s = span("child");
        }
        assert!(!trace_active());
    }

    #[test]
    fn counters_stay_with_their_span_across_children() {
        let t = trace("query");
        add_counter("before", 1);
        {
            let _child = span("child");
            add_counter("before", 5);
        }
        add_counter("after", 2);
        add_counter("before", 1);
        let root = tree(t).unwrap();
        assert_eq!(root.counters, vec![("before", 2), ("after", 2)]);
        assert_eq!(root.children[0].counters, vec![("before", 5)]);
    }

    #[test]
    fn a_new_trace_starts_from_empty_buffers() {
        let t = trace("first");
        {
            let _s = span("stage");
            add_counter("n", 1);
        }
        drop(t);
        let root = tree(trace("second")).unwrap();
        assert_eq!(
            root,
            SpanNode {
                name: "second",
                wall_us: root.wall_us,
                counters: Vec::new(),
                children: Vec::new(),
            }
        );
    }
}
