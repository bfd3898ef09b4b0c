//! `bench compare <a.json> <b.json>`: does set of runs B hold every
//! end-to-end metric of set A, workload by workload?
//!
//! A file is what `bench run --out` writes: a list of runs, each naming its
//! workload, seed, trace mode and result. For each workload × end-to-end
//! metric the medians are compared against the metric's registered bound.
//! Where the quartile spread of either side exceeds the bound the pairing is
//! *unresolved*, unless every run of B reads better than every run of A.
//! Per-layer metrics have no bound and are listed for reading only.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;

/// `values[workload][metric]`: one value per run.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The runs of one file.
#[derive(Debug, Default, PartialEq)]
pub struct RunSet {
    samples: Samples,
    /// Failed operations over every run.
    failed: f64,
    /// Runs whose result was not `correct`.
    incorrect: usize,
}

impl RunSet {
    /// Reads the document `bench run --out` wrote.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let runs = doc
            .get("runs")
            .and_then(Value::as_array)
            .ok_or("no `runs` array")?;
        let mut set = RunSet::default();
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without `workload`")?;
            let result = run.get("result").ok_or("run without `result`")?;
            set.failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            if result.get("correct").and_then(Value::as_bool) != Some(true) {
                set.incorrect += 1;
            }
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or("result without `metrics`")?;
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric {name} without a value"))?;
                set.samples
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
        Ok(set)
    }

    fn values(&self, workload: &str, metric: &str) -> &[f64] {
        self.samples
            .get(workload)
            .and_then(|m| m.get(metric))
            .map_or(&[], Vec::as_slice)
    }
}

/// How one workload × metric pairing came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    /// B's median is worse than A's by more than the bound.
    Breach,
    /// The spread of a side exceeds the bound; the medians decide nothing.
    Unresolved,
    /// A side has no value for this pairing.
    Missing,
}

/// Worsening of `b` against `a` as a share of `a` (negative = improved).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges one pairing.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, 0.0, 0.0);
    }
    let delta = worsening(stats::median(a), stats::median(b), better);
    let spread = [a, b]
        .iter()
        .filter_map(|v| stats::quartile_spread(v))
        .fold(0.0, f64::max);
    let every_b_better = a.iter().all(|x| {
        b.iter().all(|y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if spread > bound && !every_b_better {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Breach
    } else {
        Verdict::Within
    };
    (verdict, delta, spread)
}

/// Compares two run sets, printing one row per pairing. Returns `true` when
/// nothing breached (unresolved pairings are reported, not counted).
pub fn compare(a: &RunSet, b: &RunSet, out: &mut impl std::io::Write) -> std::io::Result<bool> {
    let mut ok = true;
    writeln!(
        out,
        "{:<15} {:<26} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "delta", "spread", "bound"
    )?;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                a.values(workload.name, metric.name),
                b.values(workload.name, metric.name),
            );
            let (verdict, delta, spread) = judge(va, vb, metric.better, metric.bound);
            if verdict == Verdict::Missing {
                continue;
            }
            ok &= verdict != Verdict::Breach;
            writeln!(
                out,
                "{:<15} {:<26} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                stats::median(va),
                stats::median(vb),
                delta * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Breach => "BREACH",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Missing => unreachable!("skipped above"),
                }
            )?;
        }
    }
    writeln!(out, "\nper-layer metrics (no bound):")?;
    for workload in &WORKLOADS {
        for metric in &PER_LAYER {
            let (va, vb) = (
                a.values(workload.name, metric.name),
                b.values(workload.name, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            writeln!(
                out,
                "{:<15} {:<34} {:>14.4} {:>14.4} {}",
                workload.name,
                metric.name,
                stats::median(va),
                stats::median(vb),
                metric.unit
            )?;
        }
    }
    for (label, set) in [("A", a), ("B", b)] {
        if set.failed > 0.0 || set.incorrect > 0 {
            ok = false;
            writeln!(
                out,
                "set {label}: {} failed operations, {} incorrect runs  BREACH",
                set.failed, set.incorrect
            )?;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(p50: &[f64], qps: &[f64], failed: f64) -> String {
        let runs: Vec<Value> = p50
            .iter()
            .zip(qps)
            .map(|(p, q)| {
                Value::object([
                    ("workload", Value::string("filter_hot")),
                    ("seed", Value::Num(1.0)),
                    ("trace", Value::Num(0.0)),
                    (
                        "result",
                        Value::object([
                            ("correct", Value::Bool(failed == 0.0)),
                            ("attempted", Value::Num(100.0)),
                            ("failed", Value::Num(failed)),
                            (
                                "metrics",
                                Value::object([
                                    (
                                        "query_p50_ms",
                                        Value::object([
                                            ("value", Value::Num(*p)),
                                            ("unit", Value::string("ms")),
                                        ]),
                                    ),
                                    (
                                        "qps",
                                        Value::object([
                                            ("value", Value::Num(*q)),
                                            ("unit", Value::string("1/s")),
                                        ]),
                                    ),
                                ]),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::object([("runs", Value::Arr(runs))]).render()
    }

    fn verdict_of(a: &str, b: &str) -> (bool, String) {
        let (a, b) = (RunSet::parse(a).unwrap(), RunSet::parse(b).unwrap());
        let mut out = Vec::new();
        let ok = compare(&a, &b, &mut out).unwrap();
        (ok, String::from_utf8(out).unwrap())
    }

    #[test]
    fn within_breach_and_direction() {
        let base = set(&[10.0, 10.1, 9.9], &[100.0, 101.0, 99.0], 0.0);
        let (ok, text) = verdict_of(&base, &set(&[10.5, 10.6, 10.4], &[97.0, 98.0, 96.0], 0.0));
        assert!(ok, "{text}");
        assert!(!text.contains("BREACH"));
        // Latency up 30%: breach. Throughput down 30%: breach.
        let (ok, text) = verdict_of(&base, &set(&[13.0, 13.1, 12.9], &[100.0, 101.0, 99.0], 0.0));
        assert!(!ok && text.contains("query_p50_ms") && text.contains("BREACH"));
        let (ok, _) = verdict_of(&base, &set(&[10.0, 10.1, 9.9], &[70.0, 71.0, 69.0], 0.0));
        assert!(!ok);
        // Improvements never breach.
        let (ok, _) = verdict_of(&base, &set(&[5.0, 5.1, 4.9], &[200.0, 201.0, 199.0], 0.0));
        assert!(ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            judge(&noisy, &[9.0, 11.0, 13.0, 15.0], Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[4.0, 5.0, 6.0, 7.0], Better::Lower, 0.1).0,
            Verdict::Within
        );
        assert_eq!(judge(&[], &[1.0], Better::Lower, 0.1).0, Verdict::Missing);
        // A single run per side has no spread: the medians decide.
        assert_eq!(
            judge(&[10.0], &[12.0], Better::Lower, 0.1).0,
            Verdict::Breach
        );
        assert_eq!(
            judge(&[10.0], &[8.0], Better::Higher, 0.1).0,
            Verdict::Breach
        );
    }

    #[test]
    fn failures_breach_and_bad_files_are_errors() {
        let base = set(&[10.0], &[100.0], 0.0);
        let (ok, text) = verdict_of(&base, &set(&[10.0], &[100.0], 2.0));
        assert!(!ok && text.contains("failed operations"));
        assert!(RunSet::parse("{}").is_err());
        assert!(RunSet::parse("not json").is_err());
    }
}
