//! A minimal Prometheus text-exposition (version 0.0.4) builder and
//! validator.
//!
//! The builder emits `# HELP` / `# TYPE` headers and sample lines; the
//! validator is what the protocol tests assert with, so "emits valid
//! Prometheus text" is a checked property rather than a hope.

use crate::keys::{Kind, Metric, Unit};
use crate::LogHistogram;

/// Incrementally builds a Prometheus text exposition.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `histogram` metric from a [`LogHistogram`].
    pub fn histogram(&mut self, name: &str, help: &str, histogram: &LogHistogram) -> &mut Self {
        self.header(name, help, "histogram");
        histogram.render_prometheus(name, &mut self.out);
        self
    }

    /// Appends every row of `rows` that has a Prometheus name, with its
    /// value from `values` (row order).
    pub fn metrics(&mut self, rows: &[Metric], values: &[f64]) -> &mut Self {
        for (row, &value) in rows.iter().zip(values) {
            let (kind, value) = match (row.kind, row.unit) {
                _ if row.prom.is_empty() => continue,
                (Kind::Counter, _) => ("counter", value),
                (Kind::Gauge, Unit::Millis) => ("gauge", value / 1e3),
                (Kind::Gauge, _) => ("gauge", value),
            };
            self.header(row.prom, row.help, kind);
            self.out.push_str(&format!("{} {value}\n", row.prom));
        }
        self
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// The exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Validates Prometheus text-exposition syntax (the subset this crate
/// emits): every non-comment line is `name[{labels}] value`, metric names
/// match `[a-zA-Z_:][a-zA-Z0-9_:]*`, every sample's name is declared by a
/// preceding `# TYPE`, and values parse as floats.
///
/// Returns the number of sample lines, or a description of the first
/// offending line.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_ascii_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return err("malformed TYPE comment");
            };
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return err("unknown metric type");
            }
            declared.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        let (name_part, value_part) = match line.rfind(' ') {
            Some(i) => (&line[..i], &line[i + 1..]),
            None => return err("sample line without a value"),
        };
        let name = name_part.split('{').next().unwrap_or("");
        if !is_metric_name(name) {
            return err("invalid metric name");
        }
        if name_part.contains('{') && !name_part.ends_with('}') {
            return err("unterminated label set");
        }
        if value_part.parse::<f64>().is_err() && !["+Inf", "-Inf", "NaN"].contains(&value_part) {
            return err("invalid sample value");
        }
        // A histogram declares `name` but samples `name_bucket` etc.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !declared.iter().any(|d| d == name || d == base) {
            return err("sample not declared by a TYPE comment");
        }
        samples += 1;
    }
    Ok(samples)
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_output_validates() {
        use crate::keys::MetricsSnapshot;
        let mut p = PromText::new();
        let snapshot = MetricsSnapshot {
            completed: 17,
            queue_depth: 2,
            uptime_ms: 1_500,
            ..Default::default()
        };
        p.metrics(&MetricsSnapshot::ROWS, &snapshot.values());
        let h = LogHistogram::new();
        h.record(150);
        h.record(9000);
        p.histogram("masksearch_latency_seconds", "End-to-end latency.", &h);
        let text = p.finish();
        let samples = validate(&text).expect("valid exposition");
        assert!(samples >= 6, "expected counter+gauge+histogram samples");
        assert!(text.contains("# TYPE masksearch_queries_completed_total counter"));
        assert!(text.contains("masksearch_queries_completed_total 17\n"));
        assert!(text.contains("# TYPE masksearch_queue_depth gauge\nmasksearch_queue_depth 2\n"));
        assert!(text.contains("masksearch_uptime_seconds 1.5\n"));
        // A row without a Prometheus name is not exported.
        assert!(!text.contains("p50_us"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate("no_type_declared 1\n").is_err());
        assert!(validate("# TYPE x counter\n9bad_name 1\n").is_err());
        assert!(validate("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate("# TYPE x wat\nx 1\n").is_err());
        assert_eq!(validate("# TYPE x counter\nx 1\n"), Ok(1));
    }
}
