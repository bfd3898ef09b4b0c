//! Hierarchical spans on a thread-local stack.
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

use std::cell::RefCell;
use std::time::Instant;

/// One node of a finished trace: a named span with its wall time, counters,
/// and child spans in open order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (e.g. `query`, `filter.bounds`, `verify`).
    pub name: String,
    /// Wall-clock duration in microseconds.
    pub wall_us: u64,
    /// Typed counters recorded while the span was innermost, in first-set
    /// order.
    pub counters: Vec<(String, u64)>,
    /// Child spans, in the order they were opened.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            wall_us: 0,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
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

/// One open span on the stack.
struct OpenSpan {
    node: SpanNode,
    started: Instant,
}

struct TraceState {
    /// Innermost-last stack of open spans; index 0 is the trace root.
    stack: Vec<OpenSpan>,
    /// The finished root, once the trace guard closes.
    finished: Option<SpanNode>,
}

thread_local! {
    static ACTIVE: RefCell<Option<TraceState>> = const { RefCell::new(None) };
}

/// Returns `true` if a trace is active on this thread (i.e. spans and
/// counters are being recorded).
pub fn trace_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Starts a trace rooted at a span named `name` on the current thread.
///
/// The returned guard ends the trace when dropped; call
/// [`TraceGuard::finish`] to take the completed span tree. Starting a trace
/// while one is already active returns an inert guard (the outer trace keeps
/// recording) — nested *traces* do not exist, only nested spans.
pub fn trace(name: &str) -> TraceGuard {
    ACTIVE.with(|a| {
        let mut active = a.borrow_mut();
        if active.is_some() {
            return TraceGuard { owned: false };
        }
        *active = Some(TraceState {
            stack: vec![OpenSpan {
                node: SpanNode::new(name),
                started: Instant::now(),
            }],
            finished: None,
        });
        TraceGuard { owned: true }
    })
}

/// Opens a span named `name` under the innermost open span, if a trace is
/// active on this thread; otherwise returns an inert guard. The span closes
/// (and records its wall time) when the guard drops.
pub fn span(name: &str) -> SpanGuard {
    ACTIVE.with(|a| {
        let mut active = a.borrow_mut();
        let Some(state) = active.as_mut() else {
            return SpanGuard { open: false };
        };
        state.stack.push(OpenSpan {
            node: SpanNode::new(name),
            started: Instant::now(),
        });
        SpanGuard { open: true }
    })
}

/// Adds `delta` to the counter `name` on the innermost open span. A no-op
/// when no trace is active.
pub fn add_counter(name: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    with_innermost(|node| {
        if let Some(entry) = node.counters.iter_mut().find(|(k, _)| k == name) {
            entry.1 += delta;
        } else {
            node.counters.push((name.to_string(), delta));
        }
    });
}

/// Sets the counter `name` on the innermost open span to `value`
/// (overwriting any prior value). A no-op when no trace is active.
pub fn set_counter(name: &str, value: u64) {
    with_innermost(|node| {
        if let Some(entry) = node.counters.iter_mut().find(|(k, _)| k == name) {
            entry.1 = value;
        } else {
            node.counters.push((name.to_string(), value));
        }
    });
}

fn with_innermost(f: impl FnOnce(&mut SpanNode)) {
    ACTIVE.with(|a| {
        let mut active = a.borrow_mut();
        if let Some(state) = active.as_mut() {
            if let Some(open) = state.stack.last_mut() {
                f(&mut open.node);
            }
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
            let mut active = a.borrow_mut();
            let Some(state) = active.as_mut() else {
                return;
            };
            // The root (index 0) belongs to the trace guard; a span guard
            // never pops it even if drops are mismatched.
            if state.stack.len() <= 1 {
                return;
            }
            let mut done = state.stack.pop().expect("stack len checked above");
            done.node.wall_us = done.started.elapsed().as_micros() as u64;
            state
                .stack
                .last_mut()
                .expect("root remains")
                .node
                .children
                .push(done.node);
        });
    }
}

/// Guard for an active trace; ends the trace on drop.
#[must_use = "dropping the guard immediately ends the trace"]
pub struct TraceGuard {
    owned: bool,
}

impl TraceGuard {
    /// Ends the trace and returns the completed span tree. Returns `None`
    /// for an inert guard (a trace was already active when this one was
    /// requested).
    pub fn finish(mut self) -> Option<SpanNode> {
        if !self.owned {
            return None; // inert guard: the outer trace keeps its state
        }
        self.close();
        ACTIVE.with(|a| a.borrow_mut().take().and_then(|s| s.finished))
    }

    fn close(&mut self) {
        if !self.owned {
            return;
        }
        self.owned = false;
        ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            let Some(state) = active.as_mut() else {
                return;
            };
            // Close any spans left open (e.g. by an early return) inward-out.
            while state.stack.len() > 1 {
                let mut done = state.stack.pop().expect("len > 1");
                done.node.wall_us = done.started.elapsed().as_micros() as u64;
                state
                    .stack
                    .last_mut()
                    .expect("root remains")
                    .node
                    .children
                    .push(done.node);
            }
            let mut root = state.stack.pop().expect("trace root");
            root.node.wall_us = root.started.elapsed().as_micros() as u64;
            state.finished = Some(root.node);
        });
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.owned {
            self.close();
            ACTIVE.with(|a| {
                a.borrow_mut().take();
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let root = t.finish().expect("owned trace finishes");
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
        assert!(inner.finish().is_none());
        // The outer trace is still active and finishes normally.
        assert!(trace_active());
        let root = outer.finish().expect("outer finishes");
        assert_eq!(root.name, "outer");
        assert!(!trace_active());
    }

    #[test]
    fn unbalanced_spans_are_closed_by_finish() {
        let t = trace("query");
        let _leak = span("left.open");
        let root = t.finish().expect("trace finishes");
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
        let root = t.finish().unwrap();
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
}
