//! The benchmark of masksearch-rs.
//!
//! ```text
//! bench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     one run of one workload in this process; the last line of standard
//!     output is the result object the driver reads.
//! bench run [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
//!     every workload, untraced and traced, each in a fresh child process;
//!     prints every metric by name with its unit and writes the set of runs.
//! bench compare A.json B.json
//!     judges set B against set A, metric by metric, against the bounds.
//! bench describe
//!     prints the registry of workloads and metrics as `BENCHMARK.json`.
//! ```
//!
//! Reads no environment variable and writes only under `bench/out`.

mod compare;
mod dataset;
mod json;
mod metrics;
mod micro;
mod oracle;
mod setup;
mod stack;
mod statements;
mod stats;
mod trace;
mod workloads;

use json::Value;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{RunConfig, RunOutput, Scale, WorkloadKind};

/// Where scratch directories, traces and run sets go, relative to the
/// checkout root the benchmark is started from.
const OUT_DIR: &str = "bench/out";
/// Window length when `--seconds` is not given: the driver's.
const DEFAULT_SECONDS: f64 = metrics::RUN_SECONDS as f64;

/// Parsed `run` arguments.
#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: Option<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(WorkloadKind::parse(value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3_600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                parsed.runs = value.parse().map_err(|_| bad())?;
                if parsed.runs == 0 {
                    return Err(bad());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// `(name, unit)` of the metrics a run reports: per-layer when traced,
/// end-to-end when not.
fn mode_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The result object of one run: exactly the keys the driver reads, with
/// every metric of the mode (a metric the workload does not have reads 0).
fn result_json(output: &RunOutput, trace: bool) -> Value {
    let metrics = mode_metrics(trace).into_iter().map(|(name, unit)| {
        (
            name,
            Value::object([
                ("value", Value::Num(output.metrics.get(name).unwrap_or(0.0))),
                ("unit", Value::string(unit)),
            ]),
        )
    });
    Value::object([
        ("correct", Value::Bool(output.correct)),
        ("attempted", Value::Num(output.attempted as f64)),
        ("failed", Value::Num(output.failed as f64)),
        ("metrics", Value::object(metrics)),
    ])
}

fn print_metrics(metrics: &Metrics, trace: bool) {
    for (name, unit) in mode_metrics(trace) {
        eprintln!(
            "  {name:<34} {:>16.4} {unit}",
            metrics.get(name).unwrap_or(0.0)
        );
    }
}

/// One workload, in this process.
fn run_one(args: &RunArgs, workload: WorkloadKind) -> Result<ExitCode, String> {
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        out_dir: PathBuf::from(OUT_DIR),
    };
    let output = workloads::run(&cfg)?;
    for note in &output.notes {
        eprintln!("{note}");
    }
    print_metrics(&output.metrics, args.trace);
    println!("{}", result_json(&output, args.trace).render());
    Ok(if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each in a fresh child process so
/// `peak_rss_mb` and the global counters belong to one workload.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for run in 0..args.runs {
        let seed = args.seed + run;
        for workload in WorkloadKind::ALL {
            for trace in [false, true] {
                eprintln!(
                    "== {} seed {seed} trace {} ==",
                    workload.name(),
                    u8::from(trace)
                );
                let mut command = std::process::Command::new(&exe);
                command
                    .args(["run", "--workload", workload.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdin(std::process::Stdio::null())
                    .stderr(std::process::Stdio::inherit());
                if args.smoke {
                    command.arg("--smoke");
                }
                let child = command.output().map_err(|e| format!("start child: {e}"))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                let result = stdout
                    .lines()
                    .last()
                    .ok_or_else(|| format!("{} printed no result", workload.name()))
                    .and_then(json::parse)?;
                all_correct &= child.status.success()
                    && result.get("correct").and_then(Value::as_bool) == Some(true);
                runs.push(Value::object([
                    ("workload", Value::string(workload.name())),
                    ("seed", Value::Num(seed as f64)),
                    ("trace", Value::Num(f64::from(u8::from(trace)))),
                    ("result", result),
                ]));
            }
        }
    }
    print_run_table(&runs);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let document = Value::object([
        ("host_cores", Value::Num(cores as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("runs", Value::Arr(runs)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("runs-seed{}.json", args.seed)));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
    }
    std::fs::write(&path, document.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("run set written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every metric of every run by name, with its unit, one column per workload.
fn print_run_table(runs: &[Value]) {
    let cell = |run: &Value, metric: &str| {
        run.get("result")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let mut seeds: Vec<u64> = runs
        .iter()
        .filter_map(|r| r.get("seed")?.as_f64())
        .map(|s| s as u64)
        .collect();
    seeds.dedup();
    for seed in seeds {
        println!("\nseed {seed}");
        print!("{:<34} {:<7}", "metric", "unit");
        for workload in WorkloadKind::ALL {
            print!(" {:>14}", workload.name());
        }
        println!();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            print!("{name:<34} {unit:<7}");
            for workload in WorkloadKind::ALL {
                let value = runs
                    .iter()
                    .filter(|r| {
                        r.get("workload").and_then(Value::as_str) == Some(workload.name())
                            && r.get("seed").and_then(Value::as_f64) == Some(seed as f64)
                    })
                    .find_map(|r| cell(r, name));
                match value {
                    Some(v) => print!(" {v:>14.4}"),
                    None => print!(" {:>14}", "-"),
                }
            }
            println!();
        }
    }
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: bench compare <a.json> <b.json>".to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| compare::RunSet::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let ok = compare::compare(&read(a)?, &read(b)?, &mut std::io::stdout().lock())
        .map_err(|e| format!("write: {e}"))?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse_run_args(rest).and_then(|parsed| match parsed.workload {
                Some(workload) => run_one(&parsed, workload),
                None => run_all(&parsed),
            })
        }
        Some((command, rest)) if command == "compare" => compare_files(rest),
        Some((command, [])) if command == "describe" => {
            println!("{}", metrics::describe().render());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                  [--smoke] [--runs R] [--out FILE] | bench compare <a.json> <b.json> \
                  | bench describe"
                .to_string(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let parsed = parse_run_args(&strings(&[
            "--workload",
            "point_meta",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workload, Some(WorkloadKind::PointMeta));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (42, 10.0, true)
        );
        assert!(parse_run_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_run_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_run_args(&strings(&["--seed"])).is_err());
        assert!(parse_run_args(&strings(&["--frobnicate", "1"])).is_err());
        assert_eq!(parse_run_args(&[]).unwrap().runs, 1);
    }

    #[test]
    fn result_object_round_trips_with_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("query_p50_ms", 1.203_4);
        metrics.set("setup_s", 0.812_7);
        let output = RunOutput {
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics,
            notes: Vec::new(),
        };
        let line = result_json(&output, false).render();
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m["query_p50_ms"].get("value").unwrap().as_f64(),
            Some(1.203_4)
        );
        assert_eq!(m["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        let traced = json::parse(&result_json(&output, true).render()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    /// The smoke run: every workload, untraced and traced, at 1,000 masks of
    /// 64×64 — every code path of the driver in well under half a minute.
    #[test]
    fn smoke_run_exercises_every_workload_and_mode() {
        let scratch = setup::test_dir("smoke");
        for workload in WorkloadKind::ALL {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload,
                    seed: 7,
                    seconds: 0.5,
                    trace,
                    scale: Scale::SMOKE,
                    out_dir: scratch.path().to_path_buf(),
                };
                let output = workloads::run(&cfg)
                    .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name()));
                assert_eq!(output.failed, 0, "{} trace {trace}", workload.name());
                // Half a second of traced statements is too few to hold the
                // attribution check, which `correct` includes on traced runs.
                assert!(output.correct || trace);
                assert!(output.attempted > ORACLE_FLOOR);
                if !trace {
                    for (name, _) in mode_metrics(trace) {
                        let value = output.metrics.get(name);
                        assert!(
                            value.is_some_and(|v| v.is_finite() && v > 0.0),
                            "{} {name} = {value:?}",
                            workload.name()
                        );
                    }
                } else {
                    let trace_file = scratch
                        .path()
                        .join(format!("trace-{}.jsonl", workload.name()));
                    let text = std::fs::read_to_string(trace_file).unwrap();
                    assert!(text.lines().count() > 10);
                    json::parse(text.lines().next().unwrap()).unwrap();
                    assert!(output.metrics.get("sql.parse_us").unwrap() > 0.0);
                    for (name, _) in mode_metrics(trace) {
                        assert!(output.metrics.get(name).is_some(), "{name} not set");
                    }
                }
            }
        }
        // Only the trace files remain: every scratch database was removed.
        let left: Vec<_> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            left.iter().all(|name| name.starts_with("trace-")),
            "{left:?}"
        );
    }

    /// Every run checks at least this many statements against the oracle.
    const ORACLE_FLOOR: u64 = 8;
}
