//! A bounded in-memory ring of recent query profiles.
//!
//! The engine records one profile per traced query; `STATS PROFILES` reads
//! the most recent ones back over the wire. The ring is `capacity` slots
//! allocated up front, each behind its own lock: a profile's sequence
//! number (one atomic counter) picks its slot, `seq % capacity`, and
//! recording copies the trace's flat `Copy` records and the statement text
//! into that slot's own buffers, keeping their capacity. So a recording
//! thread neither allocates (once the slot's buffers are large enough) nor
//! frees memory another thread allocated, and two statements contend only
//! when they land on the same slot. The [`QueryProfile`] span tree is built
//! only when a profile is read.

use crate::span::{CounterRecord, SpanRecord, TraceRecords};
use crate::SpanNode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Statement bytes, spans and counters each slot holds before it grows.
const SLOT_STATEMENT_BYTES: usize = 256;
const SLOT_SPANS: usize = 16;
const SLOT_COUNTERS: usize = 32;

/// One recorded query profile.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Monotonic sequence number (1-based, assigned by the ring).
    pub seq: u64,
    /// The statement as received.
    pub statement: String,
    /// End-to-end wall time in microseconds.
    pub wall_us: u64,
    /// The query's span tree.
    pub root: SpanNode,
}

impl QueryProfile {
    /// Renders this profile as wire lines: a header followed by the span
    /// tree indented one level under it.
    pub fn render(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "profile seq={} wall_us={} statement={}",
            self.seq, self.wall_us, self.statement
        )];
        for line in self.root.render() {
            lines.push(format!("  {line}"));
        }
        lines
    }
}

/// A fixed-capacity ring of the most recent query profiles.
#[derive(Debug)]
pub struct ProfileRing {
    slots: Box<[Mutex<Slot>]>,
    /// Profiles ever recorded; the last one's sequence number. `Relaxed`
    /// suffices: it publishes no data, the slot locks do.
    recorded: AtomicU64,
}

/// One profile's storage; `seq` 0 marks a slot never written.
#[derive(Debug)]
struct Slot {
    seq: u64,
    wall_us: u64,
    statement: String,
    spans: Vec<SpanRecord>,
    counters: Vec<CounterRecord>,
}

impl ProfileRing {
    /// A ring holding at most `capacity` profiles (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let slot = || {
            Mutex::new(Slot {
                seq: 0,
                wall_us: 0,
                statement: String::with_capacity(SLOT_STATEMENT_BYTES),
                spans: Vec::with_capacity(SLOT_SPANS),
                counters: Vec::with_capacity(SLOT_COUNTERS),
            })
        };
        Self {
            slots: (0..capacity.max(1)).map(|_| slot()).collect(),
            recorded: AtomicU64::new(0),
        }
    }

    /// Records a profile of `statement` and its finished `trace`,
    /// overwriting the oldest when full. Returns the assigned sequence
    /// number.
    pub fn record(&self, statement: &str, wall_us: u64, trace: TraceRecords<'_>) -> u64 {
        let seq = self.recorded.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slot = self.slot(seq);
        // A statement one lap later may have taken the slot first; the
        // newer profile stays.
        if slot.seq < seq {
            slot.seq = seq;
            slot.wall_us = wall_us;
            slot.statement.clear();
            slot.statement.push_str(statement);
            slot.spans.clear();
            slot.spans.extend_from_slice(trace.spans);
            slot.counters.clear();
            slot.counters.extend_from_slice(trace.counters);
        }
        seq
    }

    /// The most recent `n` profiles, newest first. A profile whose
    /// recording is still in flight (or was overtaken by a newer one in its
    /// slot) is left out.
    pub fn recent(&self, n: usize) -> Vec<QueryProfile> {
        let last = self.recorded();
        let oldest = last.saturating_sub(self.slots.len() as u64);
        (oldest + 1..=last)
            .rev()
            .take(n)
            .filter_map(|seq| {
                let slot = self.slot(seq);
                (slot.seq == seq).then(|| QueryProfile {
                    seq,
                    statement: slot.statement.clone(),
                    wall_us: slot.wall_us,
                    root: TraceRecords {
                        spans: &slot.spans,
                        counters: &slot.counters,
                    }
                    .tree(),
                })
            })
            .collect()
    }

    /// Total profiles ever recorded (not just retained).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    fn slot(&self, seq: u64) -> MutexGuard<'_, Slot> {
        let at = ((seq - 1) % self.slots.len() as u64) as usize;
        self.slots[at]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-span trace: `name` with `wall_us=5 candidates=3`.
    fn leaf(name: &'static str) -> ([SpanRecord; 1], [CounterRecord; 1]) {
        (
            [SpanRecord {
                name,
                parent: 0,
                start_ns: 0,
                wall_us: 5,
            }],
            [CounterRecord {
                span: 0,
                key: "candidates",
                value: 3,
            }],
        )
    }

    fn record_leaf(ring: &ProfileRing, statement: &str, wall_us: u64) {
        let (spans, counters) = leaf("query");
        let trace = TraceRecords {
            spans: &spans,
            counters: &counters,
        };
        ring.record(statement, wall_us, trace);
    }

    #[test]
    fn ring_is_bounded_and_newest_first() {
        let ring = ProfileRing::new(2);
        for i in 0..5 {
            record_leaf(&ring, &format!("q{i}"), i);
        }
        assert_eq!(ring.recorded(), 5);
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].statement, "q4");
        assert_eq!(recent[0].seq, 5);
        assert_eq!(recent[1].statement, "q3");
    }

    #[test]
    fn profiles_render_with_indented_span_tree() {
        let ring = ProfileRing::new(4);
        record_leaf(&ring, "SELECT 1", 42);
        let lines = ring.recent(1)[0].render();
        assert_eq!(lines[0], "profile seq=1 wall_us=42 statement=SELECT 1");
        assert_eq!(lines[1], "  query wall_us=5 candidates=3");
    }

    #[test]
    fn a_profile_reads_back_the_tree_its_trace_built() {
        let ring = ProfileRing::new(4);
        let t = crate::trace("query");
        {
            let _filter = crate::span("filter");
            crate::add_counter("candidates", 9);
            let _bounds = crate::span("filter.bounds");
            crate::set_counter("pruned", 4);
        }
        {
            let _verify = crate::span("verify");
            crate::add_counter("loaded", 1);
        }
        let tree = t
            .finish(|trace| {
                ring.record("SELECT 2", 7, trace);
                trace.tree()
            })
            .expect("owned trace");
        let profile = &ring.recent(1)[0];
        assert_eq!(profile.root, tree);
        assert_eq!(
            profile
                .root
                .find("filter.bounds")
                .unwrap()
                .counter("pruned"),
            Some(4)
        );
        assert_eq!(ring.recent(0).len(), 0);
    }

    /// Concurrent recorders: the count is exact, reads are newest first
    /// with distinct sequence numbers, and every retained profile's
    /// statement names the trace it was recorded with (no torn slot).
    #[test]
    fn concurrent_recorders_never_tear_a_slot() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 500;
        let ring = ProfileRing::new(8);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (ring, start) = (&ring, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let id = thread * PER_THREAD + i;
                        let t = crate::trace("query");
                        for _ in 0..id % 4 {
                            let _stage = crate::span("stage");
                            crate::set_counter("id", id);
                        }
                        crate::set_counter("id", id);
                        let statement = format!("statement {id}");
                        t.finish(|trace| ring.record(&statement, id, trace));
                        if i % 50 == 0 {
                            check(&ring.recent(8));
                        }
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), THREADS * PER_THREAD);
        let recent = ring.recent(100);
        assert_eq!(recent.len(), 8);
        check(&recent);
        assert_eq!(recent[0].seq, THREADS * PER_THREAD);
    }

    fn check(profiles: &[QueryProfile]) {
        for pair in profiles.windows(2) {
            assert!(pair[0].seq > pair[1].seq, "newest first, seq distinct");
        }
        for profile in profiles {
            let id: u64 = profile.statement["statement ".len()..].parse().unwrap();
            assert_eq!(profile.wall_us, id);
            assert_eq!(profile.root.counter("id"), Some(id));
            assert_eq!(profile.root.children.len() as u64, id % 4);
            for stage in &profile.root.children {
                assert_eq!(stage.counter("id"), Some(id));
            }
        }
    }
}
