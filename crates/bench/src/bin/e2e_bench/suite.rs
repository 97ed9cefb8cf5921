//! Suite mode (every workload in fresh child processes, untraced then
//! traced) and `--compare` (two sets of suite runs judged against the
//! metrics' bounds).

use std::path::Path;
use std::process::Command;

use serde::Value;

use crate::metrics::{
    median, metrics_object, object, ratio, unit_of, Better, MetricSpec, END_TO_END, PER_LAYER,
    SETUP_ABS_FLOOR_S,
};
use crate::workloads::Workload;

/// Tracing must cost less than this share of the traced run's other work.
const TRACE_OVERHEAD_LIMIT_PCT: f64 = 5.0;

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    sim_digest: String,
    timed_wall_s: f64,
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Runs this binary again for one workload and parses what it printed: the
/// `workload name value unit` lines and the result object on the last line.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "child run exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let field = |name: &str| {
        stdout.lines().find_map(|line| {
            let mut parts = line.split_whitespace();
            (parts.next() == Some(workload.name()) && parts.next() == Some(name))
                .then(|| parts.next().map(str::to_string))
                .flatten()
        })
    };
    let last = stdout.lines().last().unwrap_or("");
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("child result line is not JSON: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(|m| m.as_object().ok())
        .ok_or("child result has no metrics object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), number(m.get("value")?)?)))
        .collect();
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        attempted: result.get("attempted").and_then(number).unwrap_or(0.0) as u64,
        failed: result.get("failed").and_then(number).unwrap_or(0.0) as u64,
        metrics,
        sim_digest: field("sim_digest").ok_or("child printed no sim_digest")?,
        timed_wall_s: field("timed_wall_s")
            .and_then(|v| v.parse().ok())
            .ok_or("child printed no timed_wall_s")?,
    })
}

fn named(values: &[(String, f64)]) -> impl Iterator<Item = (&str, f64)> {
    values.iter().map(|(name, value)| (name.as_str(), *value))
}

/// Runs `workloads`, each untraced then traced in fresh child processes,
/// prints every metric, and appends the run as one JSON line to `out`.
/// Returns the failed checks (empty = all passed).
pub fn run_suite(
    workloads: &[Workload],
    seed: u64,
    seconds: u64,
    quick: bool,
    out: Option<&Path>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut records = Vec::new();
    for &workload in workloads {
        let name = workload.name();
        let pair = run_child(workload, seed, seconds, false, quick)
            .and_then(|plain| Ok((plain, run_child(workload, seed, seconds, true, quick)?)));
        let (plain, traced) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                failures.push(format!("{name}: {e}"));
                continue;
            }
        };
        for (set, specs) in [(&plain.metrics, END_TO_END), (&traced.metrics, PER_LAYER)] {
            for (metric, value) in set {
                println!("{name} {metric} {value} {}", unit_of(specs, metric));
            }
        }
        // What tracing costs, measured inside the traced run: everything the
        // harness does in an epoch outside its calls into the layers (clock
        // reads, stat copies, span records, and the little glue there is).
        let self_s = named(&traced.metrics)
            .find(|&(metric, _)| metric == "deepdive.service.self_s")
            .map_or(0.0, |(_, value)| value);
        let overhead_pct = 100.0 * ratio(self_s, traced.timed_wall_s - self_s);
        // The difference of the two runs' wall times is mostly the host's:
        // printed for the record, not judged.
        let wall_delta_pct =
            100.0 * ratio(traced.timed_wall_s - plain.timed_wall_s, plain.timed_wall_s);
        println!(
            "{name} failed_epoch_share {} ratio",
            ratio(plain.failed as f64, plain.attempted as f64)
        );
        println!("{name} trace_overhead_pct {overhead_pct} %");
        println!("{name} trace_wall_delta_pct {wall_delta_pct} %");
        println!("{name} sim_digest {} digest", plain.sim_digest);

        for (label, run) in [("untraced", &plain), ("traced", &traced)] {
            if !run.correct || run.failed > 0 {
                failures.push(format!(
                    "{name}: {label} run failed its output checks ({} of {} epochs failed)",
                    run.failed, run.attempted
                ));
            }
        }
        if plain.sim_digest != traced.sim_digest {
            failures.push(format!(
                "{name}: traced run diverged from the untraced one (sim_digest {} vs {})",
                traced.sim_digest, plain.sim_digest
            ));
        }
        if overhead_pct >= TRACE_OVERHEAD_LIMIT_PCT {
            failures.push(format!(
                "{name}: tracing took {overhead_pct:.2}% of the traced run \
                 (limit {TRACE_OVERHEAD_LIMIT_PCT}%)"
            ));
        }
        records.push(object(vec![
            ("name", Value::Str(name.to_string())),
            ("sim_digest", Value::Str(plain.sim_digest.clone())),
            ("attempted", Value::U64(plain.attempted)),
            ("failed", Value::U64(plain.failed + traced.failed)),
            ("trace_overhead_pct", Value::F64(overhead_pct)),
            (
                "end_to_end",
                metrics_object(named(&plain.metrics), END_TO_END),
            ),
            (
                "per_layer",
                metrics_object(named(&traced.metrics), PER_LAYER),
            ),
        ]));
    }
    if let Some(path) = out {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let run = object(vec![
            ("seed", Value::U64(seed)),
            ("seconds", Value::U64(seconds)),
            ("quick", Value::Bool(quick)),
            ("available_parallelism", Value::U64(cores as u64)),
            ("threads", Value::U64(1)),
            ("workloads", Value::Array(records)),
        ]);
        let written = serde_json::to_string(&run)
            .map_err(|e| e.to_string())
            .and_then(|line| append_line(path, &line).map_err(|e| e.to_string()));
        if let Err(e) = written {
            failures.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    failures
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// One workload of one suite run, as read back from an `--out` file.
struct Sample {
    seed: u64,
    sim_digest: String,
    failed: u64,
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<(String, f64)>,
}

/// Reads an `--out` file: one suite run per line, samples grouped by
/// workload name in first-seen order.
fn read_runs(path: &Path) -> Result<Vec<(String, Vec<Sample>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut by_workload: Vec<(String, Vec<Sample>)> = Vec::new();
    for (index, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{}:{}: {what}", path.display(), index + 1);
        let run: Value = serde_json::from_str(line).map_err(|e| at(&e.to_string()))?;
        let seed = run
            .get("seed")
            .and_then(number)
            .ok_or_else(|| at("no seed"))? as u64;
        let workloads = run
            .get("workloads")
            .and_then(|w| w.as_array().ok())
            .ok_or_else(|| at("no workloads array"))?;
        for workload in workloads {
            let Some(Value::Str(name)) = workload.get("name") else {
                return Err(at("workload without a name"));
            };
            let values = |key: &str| -> Vec<(String, f64)> {
                workload
                    .get(key)
                    .and_then(|m| m.as_object().ok())
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|(n, m)| Some((n.clone(), number(m.get("value")?)?)))
                    .collect()
            };
            let sample = Sample {
                seed,
                sim_digest: match workload.get("sim_digest") {
                    Some(Value::Str(digest)) => digest.clone(),
                    _ => return Err(at("workload without a sim_digest")),
                },
                failed: workload.get("failed").and_then(number).unwrap_or(0.0) as u64,
                end_to_end: values("end_to_end"),
                per_layer: values("per_layer"),
            };
            match by_workload.iter_mut().find(|(n, _)| n == name) {
                Some((_, samples)) => samples.push(sample),
                None => by_workload.push((name.clone(), vec![sample])),
            }
        }
    }
    Ok(by_workload)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them; both zero below two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return (0.0, 0.0);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate values `b` against baseline values `a` of one metric.
/// The candidate is `worse` when its median is worse than the baseline's by
/// more than the review bound; where the baseline's own quartile spread
/// exceeds that bound the metric is `unresolved`, unless every candidate run
/// beats every baseline run.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let (base, candidate) = (median(a), median(b));
    let worse_by = match spec.better {
        Better::Higher => base - candidate,
        Better::Lower => candidate - base,
    };
    let all_better = a.iter().all(|&x| {
        b.iter().all(|&y| match spec.better {
            Better::Higher => y > x,
            Better::Lower => y < x,
        })
    });
    let (q1, q3) = quartiles(a);
    if ratio(q3 - q1, base.abs()) > spec.review_bound {
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let floor = if spec.name == "setup_s" {
        SETUP_ABS_FLOOR_S
    } else {
        0.0
    };
    if worse_by > spec.review_bound * base.abs() && worse_by > floor {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Every sample's value of one metric, from either run of the pair.
fn column(samples: &[Sample], metric: &str) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|s| {
            let mut both = s.end_to_end.iter().chain(&s.per_layer);
            both.find(|(n, _)| n == metric)
        })
        .map(|&(_, v)| v)
        .collect()
}

/// Compares two `--out` files (baseline, candidate).  Prints one row per
/// workload × judged metric (the end-to-end metrics and the traced run's
/// tail percentiles) and one for the exact simulated statistics; returns
/// whether any row is `worse`.
pub fn compare(baseline: &Path, candidate: &Path) -> Result<bool, String> {
    let a = read_runs(baseline)?;
    let b = read_runs(candidate)?;
    let mut any_worse = false;
    println!("workload metric baseline_median candidate_median change_pct bound_pct verdict");
    for (name, base_samples) in &a {
        let Some((_, cand_samples)) = b.iter().find(|(n, _)| n == name) else {
            println!("{name} * - - - - worse (missing from candidate)");
            any_worse = true;
            continue;
        };
        let judged = END_TO_END.iter().chain(PER_LAYER);
        for spec in judged.filter(|s| s.review_bound > 0.0) {
            let (va, vb) = (
                column(base_samples, spec.name),
                column(cand_samples, spec.name),
            );
            let verdict = if va.is_empty() || vb.is_empty() {
                Verdict::Worse
            } else {
                judge(spec, &va, &vb)
            };
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{name} {} {ma:.4} {mb:.4} {:+.2} {:.0} {}",
                spec.name,
                100.0 * ratio(mb - ma, ma.abs()),
                100.0 * spec.review_bound,
                verdict.as_str()
            );
        }
        // Simulated statistics are pure functions of the seed: every run of
        // one seed, on either side, must agree exactly.
        let mut mismatches = Vec::new();
        let all: Vec<&Sample> = base_samples.iter().chain(cand_samples).collect();
        for (i, first) in all.iter().enumerate() {
            if all[..i].iter().any(|s| s.seed == first.seed) {
                continue;
            }
            for other in all[i + 1..].iter().filter(|s| s.seed == first.seed) {
                if other.sim_digest != first.sim_digest {
                    mismatches.push(format!("sim_digest@seed{}", first.seed));
                }
                for spec in PER_LAYER.iter().filter(|s| s.exact) {
                    let value = |s: &Sample| {
                        s.per_layer
                            .iter()
                            .find(|(n, _)| n == spec.name)
                            .map(|&(_, v)| v.to_bits())
                    };
                    if value(first) != value(other) {
                        mismatches.push(format!("{}@seed{}", spec.name, first.seed));
                    }
                }
            }
        }
        if all.iter().any(|s| s.failed > 0) {
            mismatches.push("failed_epochs".to_string());
        }
        mismatches.dedup();
        let verdict = if mismatches.is_empty() {
            "ok".to_string()
        } else {
            any_worse = true;
            format!("worse ({})", mismatches.join(","))
        };
        println!("{name} sim_exact - - - 0 {verdict}");
    }
    Ok(any_worse)
}
