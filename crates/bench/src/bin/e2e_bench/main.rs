#![forbid(unsafe_code)]
//! `e2e_bench` — the repository's one end-to-end benchmark: five named
//! closed-loop workloads, end-to-end metrics measured with tracing off, and
//! a traced run that splits every epoch by layer.  `README.md` beside this
//! file has the tables; `BENCHMARK.json` at the repository root is the
//! machine-readable contract.
//!
//! ```text
//! e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//!     one run in this process; the last stdout line is the result object
//! e2e_bench [--seed N] [--seconds S] [--workload NAME] [--quick] [--out FILE]
//!     every workload (or one), each untraced then traced in a fresh child
//!     process; appends the run to FILE as one JSON line
//! e2e_bench --compare BASELINE CANDIDATE
//!     judges two --out files against the metrics' bounds
//! e2e_bench --describe
//!     prints BENCHMARK.json as the tables in this binary define it
//! ```

mod metrics;
mod run;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use metrics::{metrics_object, object, unit_of, MetricSpec, END_TO_END, PER_LAYER};
use run::{run, RunResult, RunSpec};
use workloads::{Workload, NOMINAL_SECONDS};

const USAGE: &str = "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n\
       e2e_bench [--seed N] [--seconds S] [--workload NAME] [--quick] [--out FILE]\n\
       e2e_bench --compare BASELINE CANDIDATE\n\
       e2e_bench --describe";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    describe: bool,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut raw = raw.peekable();
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let seconds: u64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(1..=60).contains(&seconds) {
                    return Err(format!("--seconds must be 1..=60, got {seconds}"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--describe" => args.describe = true,
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The benchmark's directory, relative to the repository root.
const BENCH_DIR: &str = "crates/bench/src/bin/e2e_bench";

/// `BENCHMARK.json`, generated from the tables this binary runs by so the
/// contract file cannot drift from the code (a unit test pins the committed
/// file to this text).
fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        let items: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
        items.join(", ")
    };
    let rows = |rows: Vec<String>| rows.join(",\n    ");
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                s.name,
                s.unit,
                s.better.as_str(),
                s.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name,
                s.unit,
                s.better.as_str()
            )
        })
        .collect();
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {NOMINAL_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        quoted(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            &manifest,
            "--"
        ]),
        quoted(&[BENCH_DIR]),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}

/// The result object the driver reads from the last stdout line.
fn result_object(result: &RunResult, specs: &[MetricSpec]) -> Value {
    object(vec![
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::U64(result.attempted)),
        ("failed", Value::U64(result.failed)),
        (
            "metrics",
            metrics_object(result.metrics.iter().copied(), specs),
        ),
    ])
}

/// Where the traced run's spans go: under the build's target directory, so
/// nothing is written outside what `.gitignore` already covers.
fn trace_path(workload: Workload) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target
        .join("e2e_bench")
        .join(format!("{}.trace.jsonl", workload.name()))
}

/// One run in this process: prints every metric as `workload metric value
/// unit`, then the result object as the last line.
fn single_run(spec: &RunSpec) -> ExitCode {
    let result = run(spec);
    let name = spec.workload.name();
    let specs = if spec.traced { PER_LAYER } else { END_TO_END };
    for &(metric, value) in &result.metrics {
        println!("{name} {metric} {value} {}", unit_of(specs, metric));
    }
    println!("{name} epoch_samples {} count", result.samples);
    println!("{name} timed_wall_s {} s", result.timed_wall_s);
    println!("{name} sim_digest {:#018x} digest", result.sim_digest);
    for finding in &result.findings {
        eprintln!("e2e_bench: {name}: {finding}");
    }
    if let Some(tracer) = &result.tracer {
        let path = trace_path(spec.workload);
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "# wrote {} spans to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("e2e_bench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match serde_json::to_string(&result_object(&result, specs)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2e_bench: {name}: a metric is not finite: {e}");
            return ExitCode::FAILURE;
        }
    }
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((baseline, candidate)) = &args.compare {
        return match suite::compare(baseline, candidate) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("e2e_bench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let seed = args.seed.unwrap_or(7);
    let seconds = args.seconds.unwrap_or(NOMINAL_SECONDS);
    if let Some(traced) = args.trace {
        let Some(workload) = args.workload else {
            eprintln!("e2e_bench: --trace needs --workload\n{USAGE}");
            return ExitCode::from(2);
        };
        // One thread, whatever the environment says: the engine is serial
        // by construction, the benchmark trainer reads this knob.
        std::env::set_var("DEEPDIVE_TRAIN_THREADS", "1");
        return single_run(&RunSpec {
            workload,
            seed,
            seconds,
            traced,
            quick: args.quick,
        });
    }
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let failures = suite::run_suite(&workloads, seed, seconds, args.quick, args.out.as_deref());
    for failure in &failures {
        eprintln!("e2e_bench: FAILED CHECK: {failure}");
    }
    if failures.is_empty() {
        println!("# all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload, traced: bool) -> RunResult {
        run(&RunSpec {
            workload,
            seed: 7,
            seconds: NOMINAL_SECONDS,
            traced,
            quick: true,
        })
    }

    /// Every workload, untraced then traced, in quick mode: the traced run
    /// (for `managed_hotmail`, the decomposed driver) must reproduce the
    /// untraced digest, no epoch may fail, and each run must emit exactly
    /// its metric table.
    #[test]
    fn quick_runs_are_deterministic_correct_and_complete() {
        for workload in Workload::ALL {
            let plain = quick(workload, false);
            let traced = quick(workload, true);
            let name = workload.name();
            assert_eq!(plain.sim_digest, traced.sim_digest, "{name}: digest");
            for (label, result, specs) in [
                ("untraced", &plain, END_TO_END),
                ("traced", &traced, PER_LAYER),
            ] {
                assert_eq!(result.failed, 0, "{name} {label}: {:?}", result.findings);
                assert!(result.correct, "{name} {label}: {:?}", result.findings);
                assert!(result.attempted >= 1 && result.attempted <= 80);
                let names: Vec<_> = result.metrics.iter().map(|m| m.0).collect();
                let expected: Vec<_> = specs.iter().map(|s| s.name).collect();
                assert_eq!(names, expected, "{name} {label}: metric table");
                assert!(
                    result.metrics.iter().all(|m| m.1.is_finite()),
                    "{name} {label}: non-finite metric"
                );
            }
            for (metric, value) in &plain.metrics {
                // `VmHWM` exists only where there is a /proc.
                if *metric == "peak_rss_mib" && !cfg!(target_os = "linux") {
                    continue;
                }
                assert!(*value > 0.0, "{name}: end-to-end {metric} must never be 0");
            }
        }
    }

    #[test]
    fn the_decomposed_driver_matches_the_managed_loop_stat_for_stat() {
        let shape = Workload::ManagedHotmail.shape(true, NOMINAL_SECONDS);
        let stats = |decomposed| {
            let mut world =
                workloads::build(Workload::ManagedHotmail, 11, &shape, decomposed).world;
            for _ in 0..shape.warmup + shape.timed {
                world.step(&mut None);
            }
            let snapshot = world.snapshot();
            (snapshot.service, snapshot.controller)
        };
        let managed = stats(false);
        assert!(managed.0.is_some_and(|s| s.arrivals > 0));
        assert_eq!(managed, stats(true));
    }

    /// `resize` only normalises a stream the preset over-delivers: a seed
    /// must reach the stated input size at full scale.  Two seeds keep the
    /// debug-build test short; every run checks its own seed's stream.
    #[test]
    fn full_size_streams_reach_their_stated_size() {
        for workload in [
            Workload::ManagedHotmail,
            Workload::ServiceChurnEc2,
            Workload::ServiceOutageDomain,
        ] {
            let shape = workload.shape(false, NOMINAL_SECONDS);
            for seed in [1, 7] {
                let sessions = workloads::sessions_for(workload, seed, &shape);
                assert_eq!(
                    sessions.len(),
                    shape.sessions,
                    "{} seed {seed}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn the_metric_tables_fit_the_benchmark_contract() {
        let name_ok = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = Vec::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(spec.name), "{}", spec.name);
            assert!(unit_ok(spec.unit), "{}: {}", spec.name, spec.unit);
            assert!(!seen.contains(&spec.name), "{} listed twice", spec.name);
            seen.push(spec.name);
        }
        for spec in END_TO_END {
            assert!(spec.bound > 0.0 && spec.bound <= 0.25, "{}", spec.name);
            assert!(spec.review_bound > 0.0 && spec.review_bound <= spec.bound);
        }
        for workload in Workload::ALL {
            assert!(name_ok(workload.name()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s");
        assert!(setup.is_some_and(|s| s.unit == "s" && s.better == metrics::Better::Lower));
    }

    /// The repository root: the nearest ancestor of the manifest (either of
    /// the two that build these sources) holding `BENCHMARK.json`.
    fn repo_file(relative: &str) -> Option<String> {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").is_file() {
            if !dir.pop() {
                return None;
            }
        }
        std::fs::read_to_string(dir.join(relative)).ok()
    }

    /// `BENCHMARK.json` at the repository root is `--describe`'s output;
    /// regenerate it with `e2e_bench --describe > BENCHMARK.json`.
    #[test]
    fn the_committed_benchmark_json_matches_the_tables() {
        let committed = repo_file("BENCHMARK.json");
        assert_eq!(committed.as_deref(), Some(benchmark_json().as_str()));
    }

    /// The benchmark's own manifest and the workspace's build these sources
    /// alike: a `[profile.*]` table in one must be in the other.
    #[test]
    fn both_manifests_carry_the_same_profiles() {
        fn profile_lines(manifest: &str) -> Vec<&str> {
            let mut inside = false;
            let lines = manifest.lines().map(str::trim);
            lines
                .filter(|line| {
                    if line.starts_with('[') {
                        inside = line.starts_with("[profile");
                    }
                    inside && !line.is_empty() && !line.starts_with('#')
                })
                .collect()
        }
        let workspace = repo_file("Cargo.toml");
        let own = repo_file(&format!("{BENCH_DIR}/Cargo.toml"));
        assert!(workspace.is_some() && own.is_some());
        assert_eq!(
            profile_lines(&workspace.unwrap_or_default()),
            profile_lines(&own.unwrap_or_default())
        );
    }

    #[test]
    fn compare_judges_by_bound_direction_and_spread() {
        use suite::{judge, quartiles, Verdict};
        let higher = &END_TO_END[0];
        let lower = &END_TO_END[1];
        assert_eq!((higher.review_bound, lower.review_bound), (0.10, 0.10));
        assert_eq!(judge(higher, &[100.0], &[91.0]), Verdict::Ok);
        assert_eq!(judge(higher, &[100.0], &[89.0]), Verdict::Worse);
        assert_eq!(judge(lower, &[10.0], &[10.9]), Verdict::Ok);
        assert_eq!(judge(lower, &[10.0], &[11.1]), Verdict::Worse);
        // Sub-second set-ups also need an absolute difference.
        let setup = &END_TO_END[2];
        assert_eq!(judge(setup, &[0.10], &[0.14]), Verdict::Ok);
        assert_eq!(judge(setup, &[1.00], &[1.20]), Verdict::Worse);
        // A baseline noisier than the bound cannot resolve a regression…
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(judge(higher, &noisy, &[65.0; 5]), Verdict::Unresolved);
        // …but a candidate that wins every pairing is still accepted.
        assert_eq!(judge(higher, &noisy, &[150.0; 5]), Verdict::Ok);
        // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
    }

    #[test]
    fn arguments_select_the_mode_and_reject_nonsense() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_string));
        let args = parse("--workload engine_quiescent --seed 3 --seconds 10 --trace 1");
        assert!(
            args.is_ok_and(|a| a.workload == Some(Workload::EngineQuiescent)
                && a.seed == Some(3)
                && a.trace == Some(true))
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
    }
}
