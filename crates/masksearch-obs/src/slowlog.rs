//! A structured slow-query log: JSON lines for queries whose end-to-end
//! latency crosses a configurable threshold.
//!
//! Each entry is one line of JSON with the statement, its wall time, and
//! its counters — greppable, tailable, and parseable without a JSON
//! dependency on the write side (the values are numbers and one escaped
//! string).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A threshold-gated JSON-lines query log.
///
/// The default sink is stderr; tests and embedders can substitute any
/// `Write + Send` sink. Writes are serialized by a mutex — slow queries
/// are rare by definition, so the lock is uncontended in practice.
pub struct SlowQueryLog {
    threshold_us: AtomicU64,
    sink: Mutex<Box<dyn Write + Send>>,
    logged: AtomicU64,
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog")
            .field("threshold_us", &self.threshold_us.load(Ordering::Relaxed))
            .field("logged", &self.logged.load(Ordering::Relaxed))
            .finish()
    }
}

impl SlowQueryLog {
    /// A log writing to stderr with the given threshold; `None` disables
    /// logging.
    pub fn stderr(threshold: Option<Duration>) -> Self {
        Self::with_sink(threshold, Box::new(std::io::stderr()))
    }

    /// A log writing to an arbitrary sink.
    pub fn with_sink(threshold: Option<Duration>, sink: Box<dyn Write + Send>) -> Self {
        Self {
            threshold_us: AtomicU64::new(threshold_to_us(threshold)),
            sink: Mutex::new(sink),
            logged: AtomicU64::new(0),
        }
    }

    /// Number of entries written so far.
    pub fn logged(&self) -> u64 {
        self.logged.load(Ordering::Relaxed)
    }

    /// Whether an entry with this wall time would be written. Lets callers
    /// skip assembling expensive entry fields (e.g. a plan signature) for
    /// the fast-query common case.
    pub fn would_log(&self, wall: Duration) -> bool {
        let threshold = self.threshold_us.load(Ordering::Relaxed);
        threshold != u64::MAX && wall.as_micros() as u64 >= threshold
    }

    /// Logs `statement` if `wall` crosses the threshold. `counters` are
    /// emitted as a nested object of integers. Returns `true` if an entry
    /// was written.
    pub fn observe(&self, statement: &str, wall: Duration, counters: &[(&str, u64)]) -> bool {
        self.observe_with_plan(statement, None, wall, counters)
    }

    /// [`SlowQueryLog::observe`] with an optional planner signature, emitted
    /// as a `"plan"` string field so operators can see which strategies the
    /// planner chose for the slow statement.
    pub fn observe_with_plan(
        &self,
        statement: &str,
        plan: Option<&str>,
        wall: Duration,
        counters: &[(&str, u64)],
    ) -> bool {
        let threshold = self.threshold_us.load(Ordering::Relaxed);
        let wall_us = wall.as_micros() as u64;
        if threshold == u64::MAX || wall_us < threshold {
            return false;
        }
        let mut line = format!(
            "{{\"slow_query\":true,\"wall_us\":{wall_us},\"threshold_us\":{threshold},\
             \"statement\":\"{}\",",
            escape_json(statement)
        );
        if let Some(plan) = plan {
            line.push_str(&format!("\"plan\":\"{}\",", escape_json(plan)));
        }
        line.push_str("\"counters\":{");
        for (i, (key, value)) in counters.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":{value}", escape_json(key)));
        }
        line.push_str("}}\n");
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if sink.write_all(line.as_bytes()).is_ok() {
            let _ = sink.flush();
            self.logged.fetch_add(1, Ordering::Relaxed);
            crate::counters::incr(&crate::counters::SLOW_QUERIES);
            true
        } else {
            false
        }
    }
}

fn threshold_to_us(threshold: Option<Duration>) -> u64 {
    match threshold {
        // `u64::MAX` sentinel = disabled (no real query waits 580k years).
        None => u64::MAX,
        Some(d) => (d.as_micros() as u64).min(u64::MAX - 1),
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A sink tests can read back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn entries_are_json_lines_above_the_threshold() {
        let buf = SharedBuf::default();
        let log = SlowQueryLog::with_sink(Some(Duration::from_micros(100)), Box::new(buf.clone()));
        assert!(!log.observe("SELECT 1", Duration::from_micros(50), &[]));
        assert!(log.observe(
            "SELECT \"q\"",
            Duration::from_micros(150),
            &[("candidates", 10), ("loaded", 2)],
        ));
        assert_eq!(log.logged(), 1);
        let bytes = buf.0.lock().unwrap().clone();
        let line = String::from_utf8(bytes).unwrap();
        assert!(line.ends_with("}}\n"));
        assert!(line.contains("\"wall_us\":150"));
        assert!(line.contains("\"statement\":\"SELECT \\\"q\\\"\""));
        assert!(line.contains("\"candidates\":10,\"loaded\":2"));
    }

    #[test]
    fn disabled_log_never_writes() {
        let buf = SharedBuf::default();
        let log = SlowQueryLog::with_sink(None, Box::new(buf.clone()));
        assert!(!log.observe("SELECT 1", Duration::from_secs(10), &[]));
        assert!(buf.0.lock().unwrap().is_empty());
    }

    #[test]
    fn json_escaping_covers_control_characters() {
        assert_eq!(
            escape_json("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
    }
}
