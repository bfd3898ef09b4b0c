//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions. They live in memory until the run ends and
//! are then written as JSON lines. A span's *self time* is its duration minus
//! the part of that interval its direct children cover.
//!
//! Two kinds of span exist. A *timed* span brackets a call the benchmark made
//! (`Instant` before and after). A *derived* span is placed inside a timed
//! span from a duration the call returned (for example the server's
//! `wall_us` inside `client.query`); its length is measured by the program,
//! its position is the benchmark's guess, and the file marks it so.

use crate::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, `layer.function`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The statement the span belongs to.
    pub stmt_id: u64,
    /// Whether the span was placed from a returned duration (see module docs).
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory list of spans sharing one clock origin. Each client thread
/// owns one; they are merged when the run ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a timed span over `[start, end]`.
    pub fn record(
        &mut self,
        name: &'static str,
        stmt_id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            stmt_id,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Sets the end of a span recorded before its end was known (a root
    /// whose children must be able to name it as their parent).
    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Runs `f` inside a timed span and returns its result with the span id.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        stmt_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let value = f();
        let id = self.record(name, stmt_id, parent, start, Instant::now());
        (value, id)
    }

    /// Places derived child spans of the given lengths back to back inside
    /// `parent`, ending at the parent's end (the work a call reports comes
    /// last; what precedes it is the call's own overhead). Children are
    /// clipped to the parent so self time never goes negative.
    pub fn derive_children(&mut self, parent: SpanId, parts: &[(&'static str, Duration)]) {
        let (p_start, p_end, stmt_id) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.stmt_id)
        };
        let total: u64 = parts.iter().map(|(_, d)| d.as_nanos() as u64).sum();
        let mut cursor = p_end.saturating_sub(total).max(p_start);
        for (name, length) in parts {
            let end = (cursor + length.as_nanos() as u64).min(p_end);
            self.spans.push(Span {
                name,
                start_ns: cursor,
                end_ns: end,
                parent: Some(parent),
                stmt_id,
                derived: true,
            });
            cursor = end;
        }
    }

    /// Appends another trace's spans (same origin), fixing up parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the part of its interval its
    /// direct children cover (overlapping children are not double counted).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in intervals {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: `(count, total duration, total self time)` in
    /// nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        totals
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let line = Value::object([
                ("id", Value::Num(id as f64)),
                ("name", Value::string(span.name)),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("stmt_id", Value::Num(span.stmt_id as f64)),
                ("self_ns", Value::Num(self_ns as f64)),
                ("derived", Value::Bool(span.derived)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in microseconds; 0 without spans.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time in microseconds; 0 without spans.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: &mut Trace,
        name: &'static str,
        parent: Option<SpanId>,
        a: u64,
        b: u64,
    ) -> SpanId {
        let origin = trace.origin;
        trace.record(
            name,
            1,
            parent,
            origin + Duration::from_nanos(a),
            origin + Duration::from_nanos(b),
        )
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Trace::new(Instant::now());
        let root = span(&mut t, "stmt", None, 0, 1_000);
        let a = span(&mut t, "a", Some(root), 100, 400);
        span(&mut t, "b", Some(root), 300, 600); // overlaps `a` by 100
        span(&mut t, "c", Some(a), 150, 250);
        span(&mut t, "late", Some(root), 900, 1_200); // sticks out by 200
        let selfs = t.self_times_ns();
        // root: 1000 - cover([100,600] + [900,1000]) = 1000 - 600
        assert_eq!(selfs[root], 400);
        assert_eq!(selfs[a], 200);
        assert_eq!(selfs[2], 300);
        assert_eq!(selfs[3], 100);
        let totals = t.totals();
        assert_eq!(totals["stmt"].count, 1);
        assert_eq!(totals["a"].total_ns, 300);
        assert_eq!(totals["a"].self_ns, 200);
    }

    #[test]
    fn derived_children_end_with_their_parent_and_stay_inside_it() {
        let mut t = Trace::new(Instant::now());
        let call = span(&mut t, "engine.execute_statement", None, 1_000, 2_000);
        t.derive_children(
            call,
            &[
                ("service.queue", Duration::from_nanos(100)),
                ("service.exec", Duration::from_nanos(700)),
            ],
        );
        let spans = t.spans();
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1_200, 1_300));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1_300, 2_000));
        assert!(spans[1].derived && spans[2].derived);
        assert_eq!(t.self_times_ns()[call], 200);

        // A reported duration longer than the call is clipped, not negative.
        let short = span(&mut t, "client.query", None, 0, 50);
        t.derive_children(short, &[("server.wall", Duration::from_nanos(80))]);
        assert_eq!(t.self_times_ns()[short], 0);
        assert_eq!(t.spans().last().unwrap().duration_ns(), 50);
    }

    #[test]
    fn absorb_rebases_parent_links_and_jsonl_round_trips() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        span(&mut a, "x", None, 0, 10);
        let mut b = Trace::new(origin);
        let root = span(&mut b, "stmt", None, 0, 100);
        span(&mut b, "y", Some(root), 10, 30);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));

        let dir = crate::setup::test_dir("trace");
        let path = dir.path().join("trace.jsonl");
        a.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(lines[1].get("self_ns").unwrap().as_f64(), Some(80.0));
    }
}
