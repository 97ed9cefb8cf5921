//! CI validator for the throughput-bench JSON dumps.
//!
//! The four throughput benches (`resolver_throughput`, `cluster_throughput`,
//! `controller_throughput`, `datacenter_throughput`) dump machine-readable
//! measurements to `BENCH_resolver.json`, `BENCH_cluster.json`,
//! `BENCH_controller.json` and `BENCH_datacenter.json`
//! at the workspace root so successive PRs can track the hot paths'
//! trajectories (`--smoke` runs write `BENCH_*.smoke.json` siblings instead,
//! so short-budget CI numbers never overwrite the committed full-budget
//! files).  A bench that silently dumps an empty array, a non-finite rate or
//! a row missing its keys would corrupt that trajectory without failing
//! anything — so CI runs this checker right after the four smoke steps,
//! over both the fresh smoke dumps and the committed files, and fails on
//! any malformed dump.
//!
//! Checked per file:
//!
//! * the document parses as a **non-empty array of objects**,
//! * every row carries its **required keys** (schema dispatched per file),
//! * every rate/ratio is a **finite, strictly positive** number,
//! * the runner's **`available_parallelism` is recorded** (≥ 1) on every
//!   row, so single-core container numbers are never mistaken for scaling
//!   data,
//! * any row claiming `threads > 1` while `available_parallelism` is 1
//!   carries **`"overhead_only": true`** — a multi-threaded measurement on
//!   a single-core runner records coordination overhead, not scaling, and
//!   the row itself must say so.
//!
//! Usage: `cargo run -p bench --bin check_bench_json [FILES...]` — with no
//! arguments it validates the four dumps at the workspace root.  Exits
//! nonzero listing every violation found.  `--help` prints the per-file
//! schema (every required key per row shape); the same reference lives in
//! `crates/bench/README.md`.

use serde::Value;

/// Schema reference printed by `--help`; kept in sync with `validate` and
/// mirrored (with prose) in `crates/bench/README.md`.
const HELP: &str = "\
check_bench_json — CI validator for the BENCH_*.json throughput dumps.

Usage: cargo run -p bench --bin check_bench_json [FILES...]
       (no arguments: validates the four dumps at the workspace root)

Every dump is a non-empty JSON array of objects.  Every row records the
runner's `available_parallelism` (>= 1), and any row with `threads` > 1 on
a single-core runner must carry `\"overhead_only\": true`.  Rates and sizes
must be finite and strictly positive unless noted.

BENCH_resolver.json — contention-resolver microbench, one row per fleet:
  fleet (string), vms_per_machine, reused_vms_per_sec, alloc_vms_per_sec,
  speedup, available_parallelism

BENCH_cluster.json — epoch-stepping matrix plus a churn probe:
  throughput rows: mode (string: serial/pooled-N), machines, vms,
    threads, epochs_per_sec, speedup_vs_serial, available_parallelism
  churn probe row: migration_churn_per_sec, available_parallelism

BENCH_controller.json — DeepDive controller paths:
  warning-path rows: path (string), vms, apps, evals_per_sec,
    speedup_vs_cold, available_parallelism
  refit-sweep rows: sweep (string), apps, threads, refits_per_sec,
    speedup_vs_serial, available_parallelism
  refresh probe row: refresh_warm_us, refresh_cold_us,
    available_parallelism

BENCH_datacenter.json — rows dispatched on \"kind\":
  kind=engine: mode (dense/sparse/dense-advance/sparse-advance/
    sparse-pooled; the dump must pair dense and sparse rows), machines,
    vms, activity (fraction in (0,1]), threads, epochs_per_sec,
    vm_epochs_per_sec, speedup_vs_dense, available_parallelism; advance
    rows may add speedup_vs_dense_sweep
  kind=service: preset (string), machines, epochs_per_sec,
    vm_epochs_per_sec, vm_arrivals_per_sec, peak_resident,
    available_parallelism
  kind=fault: scenario (disabled/light/rack/domain/drain; the dump must
    carry a disabled row — the idle-overhead baseline), machines,
    blast_radius (machines felled per fault event: 1, rack or domain
    size), epochs_per_sec, available_parallelism; availability_pct in
    (0, 100]; overhead_pct finite (negative = noise); finite and >= 0:
    evacuation_latency_epochs, crashes, evacuations, drain_migrations,
    abandonments
";

/// The dumps validated by default, relative to the workspace root.
const DEFAULT_FILES: [&str; 4] = [
    "BENCH_resolver.json",
    "BENCH_cluster.json",
    "BENCH_controller.json",
    "BENCH_datacenter.json",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let files: Vec<String> = if args.is_empty() {
        DEFAULT_FILES
            .iter()
            .map(|f| format!("{root}/{f}"))
            .collect()
    } else {
        args
    };

    let mut failures = 0usize;
    for file in &files {
        let errors = check_file(file);
        if errors.is_empty() {
            println!("OK   {file}");
        } else {
            failures += errors.len();
            eprintln!("FAIL {file}");
            for error in errors {
                eprintln!("  - {error}");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} violation(s) across {} file(s)", files.len());
        std::process::exit(1);
    }
}

/// Reads, parses and validates one dump; returns every violation found.
fn check_file(path: &str) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![format!("cannot read: {e}")],
    };
    let value: Value = match serde_json::from_str(&text) {
        Ok(value) => value,
        Err(e) => return vec![format!("invalid JSON: {e}")],
    };
    let schema = match schema_for(path) {
        Some(schema) => schema,
        None => {
            return vec![format!(
                "unknown dump (expected a path containing one of: \
                 resolver, cluster, controller, datacenter)"
            )]
        }
    };
    validate(&value, schema)
}

/// Which per-row rules apply to a dump, dispatched on the file name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schema {
    Resolver,
    Cluster,
    Controller,
    Datacenter,
}

fn schema_for(path: &str) -> Option<Schema> {
    let name = path.rsplit('/').next().unwrap_or(path);
    if name.contains("resolver") {
        Some(Schema::Resolver)
    } else if name.contains("datacenter") {
        Some(Schema::Datacenter)
    } else if name.contains("cluster") {
        Some(Schema::Cluster)
    } else if name.contains("controller") {
        Some(Schema::Controller)
    } else {
        None
    }
}

/// Validates a parsed dump against its schema.
fn validate(doc: &Value, schema: Schema) -> Vec<String> {
    let mut errors = Vec::new();
    let rows = match doc.as_array() {
        Ok(rows) => rows,
        Err(_) => return vec![format!("document is {}, expected an array", doc.kind())],
    };
    if rows.is_empty() {
        return vec!["document is an empty array".to_string()];
    }
    // Rows that carry the schema's main measurement (e.g. a throughput row
    // rather than an auxiliary probe); every schema requires at least one.
    let mut measurement_rows = 0usize;
    // Engine modes seen in a datacenter dump — the dump must pair a dense
    // baseline with at least one sparse measurement to be a comparison.
    let mut saw_dense = false;
    let mut saw_sparse = false;
    // A datacenter dump must also carry the disabled-plane fault row: the
    // standing proof that the fault layer is (near-)free when unused.
    let mut saw_disabled_fault = false;
    for (i, row) in rows.iter().enumerate() {
        if row.as_object().is_err() {
            errors.push(format!("row {i}: is {}, expected an object", row.kind()));
            continue;
        }
        match schema {
            Schema::Resolver => {
                measurement_rows += 1;
                if !matches!(row.get("fleet"), Some(Value::Str(_))) {
                    errors.push(format!("row {i}: missing string \"fleet\""));
                }
                require_positive(
                    row,
                    i,
                    &mut errors,
                    &[
                        "vms_per_machine",
                        "reused_vms_per_sec",
                        "alloc_vms_per_sec",
                        "speedup",
                        "available_parallelism",
                    ],
                );
            }
            Schema::Cluster => {
                if row.get("mode").is_some() {
                    // A throughput row of the serial/pooled matrix.
                    measurement_rows += 1;
                    if !matches!(row.get("mode"), Some(Value::Str(_))) {
                        errors.push(format!("row {i}: \"mode\" must be a string"));
                    }
                    require_positive(
                        row,
                        i,
                        &mut errors,
                        &[
                            "machines",
                            "vms",
                            "threads",
                            "epochs_per_sec",
                            "speedup_vs_serial",
                            "available_parallelism",
                        ],
                    );
                } else {
                    // The migration-churn probe.
                    require_positive(
                        row,
                        i,
                        &mut errors,
                        &["migration_churn_per_sec", "available_parallelism"],
                    );
                }
            }
            Schema::Controller => {
                if row.get("path").is_some() {
                    // A warm-vs-cold warning-path throughput row.
                    measurement_rows += 1;
                    if !matches!(row.get("path"), Some(Value::Str(_))) {
                        errors.push(format!("row {i}: \"path\" must be a string"));
                    }
                    require_positive(
                        row,
                        i,
                        &mut errors,
                        &[
                            "vms",
                            "apps",
                            "evals_per_sec",
                            "speedup_vs_cold",
                            "available_parallelism",
                        ],
                    );
                } else if row.get("sweep").is_some() {
                    // A refit fan-out row (serial vs pooled refresh sweep).
                    measurement_rows += 1;
                    if !matches!(row.get("sweep"), Some(Value::Str(_))) {
                        errors.push(format!("row {i}: \"sweep\" must be a string"));
                    }
                    require_positive(
                        row,
                        i,
                        &mut errors,
                        &[
                            "apps",
                            "threads",
                            "refits_per_sec",
                            "speedup_vs_serial",
                            "available_parallelism",
                        ],
                    );
                } else {
                    // The refresh-cost probe.
                    require_positive(
                        row,
                        i,
                        &mut errors,
                        &[
                            "refresh_warm_us",
                            "refresh_cold_us",
                            "available_parallelism",
                        ],
                    );
                }
            }
            Schema::Datacenter => match row.get("kind") {
                Some(Value::Str(kind)) if kind == "engine" => {
                    // A dense/sparse engine-throughput row.
                    measurement_rows += 1;
                    const MODES: [&str; 5] = [
                        "dense",
                        "sparse",
                        "dense-advance",
                        "sparse-advance",
                        "sparse-pooled",
                    ];
                    match row.get("mode") {
                        Some(Value::Str(mode)) if MODES.contains(&mode.as_str()) => {
                            saw_dense |= mode.starts_with("dense");
                            saw_sparse |= mode.starts_with("sparse");
                        }
                        Some(Value::Str(mode)) => errors.push(format!(
                            "row {i}: unknown engine \"mode\" {mode:?} (expected one of {MODES:?})"
                        )),
                        _ => errors.push(format!("row {i}: missing string \"mode\"")),
                    }
                    require_positive(
                        row,
                        i,
                        &mut errors,
                        &[
                            "machines",
                            "vms",
                            "activity",
                            "threads",
                            "epochs_per_sec",
                            "vm_epochs_per_sec",
                            "speedup_vs_dense",
                            "available_parallelism",
                        ],
                    );
                    // Activity is the fraction of busy machines; the
                    // sweep-relative speedup is dumped only on advance rows.
                    if row
                        .get("activity")
                        .and_then(number)
                        .is_some_and(|a| a > 1.0)
                    {
                        errors.push(format!(
                            "row {i}: \"activity\" must be a fraction in (0, 1]"
                        ));
                    }
                    if let Some(v) = row.get("speedup_vs_dense_sweep") {
                        match number(v) {
                            Some(x) if x.is_finite() && x > 0.0 => {}
                            _ => errors.push(format!(
                                "row {i}: \"speedup_vs_dense_sweep\" must be finite and nonzero"
                            )),
                        }
                    }
                }
                Some(Value::Str(kind)) if kind == "service" => {
                    // An event-driven service (arrive/live/depart) row.
                    measurement_rows += 1;
                    if !matches!(row.get("preset"), Some(Value::Str(_))) {
                        errors.push(format!("row {i}: missing string \"preset\""));
                    }
                    require_positive(
                        row,
                        i,
                        &mut errors,
                        &[
                            "machines",
                            "epochs_per_sec",
                            "vm_epochs_per_sec",
                            "vm_arrivals_per_sec",
                            "peak_resident",
                            "available_parallelism",
                        ],
                    );
                }
                Some(Value::Str(kind)) if kind == "fault" => {
                    // A fault-plane row: overhead and availability of one
                    // scenario against the fault-free baseline.  The
                    // scenarios sweep blast radius (single machine → rack →
                    // power domain) plus the graceful-drain alternative.
                    measurement_rows += 1;
                    const SCENARIOS: [&str; 5] = ["disabled", "light", "rack", "domain", "drain"];
                    match row.get("scenario") {
                        Some(Value::Str(scenario)) if SCENARIOS.contains(&scenario.as_str()) => {
                            saw_disabled_fault |= scenario == "disabled";
                        }
                        Some(Value::Str(scenario)) => errors.push(format!(
                            "row {i}: unknown fault \"scenario\" {scenario:?} \
                             (expected one of {SCENARIOS:?})"
                        )),
                        _ => errors.push(format!("row {i}: missing string \"scenario\"")),
                    }
                    require_positive(
                        row,
                        i,
                        &mut errors,
                        &[
                            "machines",
                            "blast_radius",
                            "epochs_per_sec",
                            "available_parallelism",
                        ],
                    );
                    // Availability is a percentage of machine-epochs; 100
                    // exactly is the disabled-plane case, so positive alone
                    // is not enough and zero is a broken dump.
                    match row.get("availability_pct").and_then(number) {
                        Some(x) if x.is_finite() && x > 0.0 && x <= 100.0 => {}
                        Some(x) => errors.push(format!(
                            "row {i}: \"availability_pct\" must be in (0, 100], got {x}"
                        )),
                        None => {
                            errors.push(format!("row {i}: missing numeric \"availability_pct\""))
                        }
                    }
                    // Overhead may legitimately measure negative (noise) and
                    // latency/counters may be exactly zero — finite (and for
                    // the latter, non-negative) is the contract.
                    require_finite(row, i, &mut errors, &["overhead_pct"]);
                    require_finite_nonneg(
                        row,
                        i,
                        &mut errors,
                        &[
                            "evacuation_latency_epochs",
                            "crashes",
                            "evacuations",
                            "drain_migrations",
                            "abandonments",
                        ],
                    );
                }
                Some(Value::Str(kind)) => {
                    errors.push(format!(
                        "row {i}: unknown \"kind\" {kind:?} \
                         (expected \"engine\", \"service\" or \"fault\")"
                    ));
                }
                _ => errors.push(format!("row {i}: missing string \"kind\"")),
            },
        }
        require_overhead_flag(row, i, &mut errors);
    }
    if measurement_rows == 0 {
        errors.push("no measurement rows found".to_string());
    }
    if schema == Schema::Datacenter && !(saw_dense && saw_sparse) {
        errors.push(
            "datacenter dump must pair dense and sparse engine rows \
             (found no such pair)"
                .to_string(),
        );
    }
    if schema == Schema::Datacenter && !saw_disabled_fault {
        errors.push(
            "datacenter dump must carry a \"disabled\" fault row \
             (the idle-overhead baseline of the fault plane)"
                .to_string(),
        );
    }
    errors
}

/// Schema-independent rule: a row measured with more threads than the
/// runner has cores records pure coordination overhead, and must carry
/// `"overhead_only": true` so the number is never read as scaling data.
fn require_overhead_flag(row: &Value, i: usize, errors: &mut Vec<String>) {
    let threads = row.get("threads").and_then(number).unwrap_or(1.0);
    let cores = row.get("available_parallelism").and_then(number);
    if threads > 1.0 && cores == Some(1.0) && row.get("overhead_only") != Some(&Value::Bool(true)) {
        errors.push(format!(
            "row {i}: threads > 1 with available_parallelism == 1 \
             requires \"overhead_only\": true"
        ));
    }
}

/// Requires each key to be a finite, strictly positive number on the row.
fn require_positive(row: &Value, i: usize, errors: &mut Vec<String>, keys: &[&str]) {
    for key in keys {
        match row.get(key).and_then(number) {
            Some(x) if x.is_finite() && x > 0.0 => {}
            Some(x) => errors.push(format!(
                "row {i}: \"{key}\" must be finite and nonzero, got {x}"
            )),
            None => errors.push(format!("row {i}: missing numeric \"{key}\"")),
        }
    }
}

/// Requires each key to be a finite number (any sign) on the row.
fn require_finite(row: &Value, i: usize, errors: &mut Vec<String>, keys: &[&str]) {
    for key in keys {
        match row.get(key).and_then(number) {
            Some(x) if x.is_finite() => {}
            Some(x) => errors.push(format!("row {i}: \"{key}\" must be finite, got {x}")),
            None => errors.push(format!("row {i}: missing numeric \"{key}\"")),
        }
    }
}

/// Requires each key to be a finite number ≥ 0 on the row (counters and
/// latencies that are legitimately zero in a calm run).
fn require_finite_nonneg(row: &Value, i: usize, errors: &mut Vec<String>, keys: &[&str]) {
    for key in keys {
        match row.get(key).and_then(number) {
            Some(x) if x.is_finite() && x >= 0.0 => {}
            Some(x) => errors.push(format!(
                "row {i}: \"{key}\" must be finite and non-negative, got {x}"
            )),
            None => errors.push(format!("row {i}: missing numeric \"{key}\"")),
        }
    }
}

/// Numeric view of a JSON value, whatever integer/float variant it parsed as.
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON parses")
    }

    #[test]
    fn well_formed_dumps_pass() {
        let resolver = parse(
            r#"[{"fleet": "xeon", "vms_per_machine": 4, "reused_vms_per_sec": 1.1e7,
                 "alloc_vms_per_sec": 6.0e6, "speedup": 1.96, "available_parallelism": 4}]"#,
        );
        assert!(validate(&resolver, Schema::Resolver).is_empty());

        let cluster = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "serial", "threads": 1,
                 "epochs_per_sec": 19248.1, "speedup_vs_serial": 1.0, "available_parallelism": 4},
                {"migration_churn_per_sec": 8842165, "available_parallelism": 4}]"#,
        );
        assert!(validate(&cluster, Schema::Cluster).is_empty());

        let controller = parse(
            r#"[{"vms": 256, "apps": 8, "path": "generation_warm", "evals_per_sec": 253233,
                 "speedup_vs_cold": 7.59, "available_parallelism": 4},
                {"refresh_warm_us": 1119.3, "refresh_cold_us": 6660.6, "seed_history": 200,
                 "available_parallelism": 4}]"#,
        );
        assert!(validate(&controller, Schema::Controller).is_empty());
    }

    #[test]
    fn pooled_and_sweep_rows_validate_against_their_schemas() {
        let cluster = parse(
            r#"[{"machines": 256, "vms": 1024, "mode": "pooled-4", "threads": 4,
                 "epochs_per_sec": 310.0, "speedup_vs_serial": 2.4, "available_parallelism": 4,
                 "overhead_only": false}]"#,
        );
        assert!(validate(&cluster, Schema::Cluster).is_empty());

        let controller = parse(
            r#"[{"vms": 256, "apps": 8, "path": "generation_warm", "evals_per_sec": 253233,
                 "speedup_vs_cold": 7.59, "available_parallelism": 4},
                {"apps": 16, "sweep": "pooled-4", "threads": 4, "refits_per_sec": 1200.0,
                 "speedup_vs_serial": 2.1, "available_parallelism": 4}]"#,
        );
        assert!(validate(&controller, Schema::Controller).is_empty());

        let broken_sweep = parse(
            r#"[{"apps": 16, "sweep": "pooled-4", "threads": 4,
                 "speedup_vs_serial": 2.1, "available_parallelism": 4}]"#,
        );
        let errors = validate(&broken_sweep, Schema::Controller);
        assert!(
            errors.iter().any(|e| e.contains("refits_per_sec")),
            "{errors:?}"
        );
    }

    #[test]
    fn single_core_multi_thread_rows_must_be_flagged_overhead_only() {
        let unflagged = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "pooled-4", "threads": 4,
                 "epochs_per_sec": 300.0, "speedup_vs_serial": 0.9, "available_parallelism": 1}]"#,
        );
        let errors = validate(&unflagged, Schema::Cluster);
        assert!(
            errors.iter().any(|e| e.contains("overhead_only")),
            "{errors:?}"
        );

        // `"overhead_only": false` is a contradiction, not a flag.
        let denied = parse(
            r#"[{"apps": 16, "sweep": "pooled-4", "threads": 4, "refits_per_sec": 900.0,
                 "speedup_vs_serial": 0.8, "available_parallelism": 1, "overhead_only": false}]"#,
        );
        let errors = validate(&denied, Schema::Controller);
        assert!(
            errors.iter().any(|e| e.contains("overhead_only")),
            "{errors:?}"
        );

        // Flagged rows pass; single-threaded and multi-core rows need no flag.
        let fine = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "pooled-4", "threads": 4,
                 "epochs_per_sec": 300.0, "speedup_vs_serial": 0.9, "available_parallelism": 1,
                 "overhead_only": true},
                {"machines": 64, "vms": 256, "mode": "serial", "threads": 1,
                 "epochs_per_sec": 330.0, "speedup_vs_serial": 1.0, "available_parallelism": 1}]"#,
        );
        assert!(validate(&fine, Schema::Cluster).is_empty());
    }

    #[test]
    fn empty_and_non_array_documents_fail() {
        assert!(!validate(&parse("[]"), Schema::Resolver).is_empty());
        assert!(!validate(&parse(r#"{"fleet": "xeon"}"#), Schema::Resolver).is_empty());
    }

    #[test]
    fn zero_and_missing_rates_fail() {
        let zero_rate = parse(
            r#"[{"fleet": "xeon", "vms_per_machine": 4, "reused_vms_per_sec": 0,
                 "alloc_vms_per_sec": 6.0e6, "speedup": 1.96, "available_parallelism": 4}]"#,
        );
        let errors = validate(&zero_rate, Schema::Resolver);
        assert!(
            errors.iter().any(|e| e.contains("reused_vms_per_sec")),
            "{errors:?}"
        );

        let missing_key = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "serial", "threads": 1,
                 "speedup_vs_serial": 1.0, "available_parallelism": 4}]"#,
        );
        let errors = validate(&missing_key, Schema::Cluster);
        assert!(
            errors.iter().any(|e| e.contains("epochs_per_sec")),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_available_parallelism_fails() {
        let doc = parse(
            r#"[{"vms": 256, "apps": 8, "path": "warm", "evals_per_sec": 1000.0,
                 "speedup_vs_cold": 2.0}]"#,
        );
        let errors = validate(&doc, Schema::Controller);
        assert!(
            errors.iter().any(|e| e.contains("available_parallelism")),
            "{errors:?}"
        );
    }

    #[test]
    fn dumps_of_only_auxiliary_rows_fail() {
        let doc = parse(r#"[{"migration_churn_per_sec": 100.0, "available_parallelism": 1}]"#);
        let errors = validate(&doc, Schema::Cluster);
        assert!(
            errors.iter().any(|e| e.contains("no measurement rows")),
            "{errors:?}"
        );
    }

    #[test]
    fn schema_dispatch_follows_the_file_name() {
        assert_eq!(schema_for("BENCH_resolver.json"), Some(Schema::Resolver));
        assert_eq!(schema_for("/a/b/BENCH_cluster.json"), Some(Schema::Cluster));
        assert_eq!(
            schema_for("BENCH_controller.json"),
            Some(Schema::Controller)
        );
        assert_eq!(
            schema_for("BENCH_datacenter.smoke.json"),
            Some(Schema::Datacenter)
        );
        assert_eq!(schema_for("BENCH_other.json"), None);
    }

    #[test]
    fn datacenter_engine_and_service_rows_validate() {
        let good = parse(
            r#"[{"kind": "engine", "machines": 10000, "vms": 40000, "mode": "dense",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 69.6,
                 "vm_epochs_per_sec": 2785855, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1, "overhead_only": false},
                {"kind": "engine", "machines": 10000, "vms": 40000, "mode": "sparse-advance",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 841.7,
                 "vm_epochs_per_sec": 33668883, "speedup_vs_dense": 7.46,
                 "speedup_vs_dense_sweep": 12.09, "available_parallelism": 1,
                 "overhead_only": false},
                {"kind": "service", "preset": "hotmail", "machines": 10000,
                 "epochs_per_sec": 714.4, "vm_epochs_per_sec": 2887214,
                 "vm_arrivals_per_sec": 5455.6, "peak_resident": 8041,
                 "available_parallelism": 1},
                {"kind": "fault", "scenario": "disabled", "machines": 2000,
                 "blast_radius": 1, "epochs_per_sec": 1200.0, "overhead_pct": 0.31,
                 "availability_pct": 100.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        assert!(validate(&good, Schema::Datacenter).is_empty());
    }

    #[test]
    fn datacenter_dump_without_the_disabled_fault_row_fails() {
        // Engine pair present, light-chaos fault row present — but the
        // idle-overhead baseline is missing.
        let no_disabled = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "dense",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1},
                {"kind": "engine", "machines": 100, "vms": 400, "mode": "sparse",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 80.0,
                 "vm_epochs_per_sec": 32000.0, "speedup_vs_dense": 8.0,
                 "available_parallelism": 1},
                {"kind": "fault", "scenario": "light", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 9.0, "overhead_pct": 11.1,
                 "availability_pct": 96.8, "evacuation_latency_epochs": 1.5,
                 "crashes": 12, "evacuations": 30, "drain_migrations": 0,
                 "abandonments": 2, "available_parallelism": 1}]"#,
        );
        let errors = validate(&no_disabled, Schema::Datacenter);
        assert!(
            errors.iter().any(|e| e.contains("\"disabled\" fault row")),
            "{errors:?}"
        );
    }

    #[test]
    fn datacenter_fault_rows_validate() {
        // A disabled-plane idle-overhead row (100% availability, zero
        // counters, slightly negative overhead = noise) plus the full
        // blast-radius sweep (light / rack / domain) and the graceful
        // drain row all pass.
        let good = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "dense",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1},
                {"kind": "engine", "machines": 100, "vms": 400, "mode": "sparse",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 80.0,
                 "vm_epochs_per_sec": 32000.0, "speedup_vs_dense": 8.0,
                 "available_parallelism": 1},
                {"kind": "fault", "scenario": "disabled", "machines": 2000,
                 "blast_radius": 1, "epochs_per_sec": 1200.0, "overhead_pct": -0.42,
                 "availability_pct": 100.000, "evacuation_latency_epochs": 0.00,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1},
                {"kind": "fault", "scenario": "light", "machines": 2000,
                 "blast_radius": 1, "epochs_per_sec": 1100.0, "overhead_pct": 3.80,
                 "availability_pct": 96.751, "evacuation_latency_epochs": 2.10,
                 "crashes": 7900, "evacuations": 3100, "drain_migrations": 0,
                 "abandonments": 41, "available_parallelism": 1},
                {"kind": "fault", "scenario": "rack", "machines": 2000,
                 "blast_radius": 40, "epochs_per_sec": 1050.0, "overhead_pct": 5.1,
                 "availability_pct": 93.2, "evacuation_latency_epochs": 3.4,
                 "crashes": 9100, "evacuations": 4100, "drain_migrations": 0,
                 "abandonments": 230, "available_parallelism": 1},
                {"kind": "fault", "scenario": "domain", "machines": 2000,
                 "blast_radius": 320, "epochs_per_sec": 980.0, "overhead_pct": 7.7,
                 "availability_pct": 88.0, "evacuation_latency_epochs": 4.9,
                 "crashes": 21000, "evacuations": 5200, "drain_migrations": 0,
                 "abandonments": 1900, "available_parallelism": 1},
                {"kind": "fault", "scenario": "drain", "machines": 2000,
                 "blast_radius": 1, "epochs_per_sec": 1150.0, "overhead_pct": 2.2,
                 "availability_pct": 97.4, "evacuation_latency_epochs": 0.8,
                 "crashes": 0, "evacuations": 120, "drain_migrations": 6400,
                 "abandonments": 3, "available_parallelism": 1}]"#,
        );
        assert!(validate(&good, Schema::Datacenter).is_empty());
    }

    #[test]
    fn datacenter_fault_rows_with_bad_fields_fail() {
        let over_100 = parse(
            r#"[{"kind": "fault", "scenario": "light", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 104.2, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&over_100, Schema::Datacenter);
        assert!(
            errors.iter().any(|e| e.contains("availability_pct")),
            "{errors:?}"
        );

        let negative_latency = parse(
            r#"[{"kind": "fault", "scenario": "light", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": -3.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&negative_latency, Schema::Datacenter);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("evacuation_latency_epochs")),
            "{errors:?}"
        );

        let missing_overhead = parse(
            r#"[{"kind": "fault", "scenario": "disabled", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "availability_pct": 100.0,
                 "evacuation_latency_epochs": 0.0, "crashes": 0,
                 "evacuations": 0, "drain_migrations": 0, "abandonments": 0,
                 "available_parallelism": 1}]"#,
        );
        let errors = validate(&missing_overhead, Schema::Datacenter);
        assert!(
            errors.iter().any(|e| e.contains("overhead_pct")),
            "{errors:?}"
        );

        let no_scenario = parse(
            r#"[{"kind": "fault", "machines": 100, "blast_radius": 1,
                 "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&no_scenario, Schema::Datacenter);
        assert!(errors.iter().any(|e| e.contains("scenario")), "{errors:?}");

        // A scenario outside the blast-radius sweep is a typo, not data.
        let unknown_scenario = parse(
            r#"[{"kind": "fault", "scenario": "meteor", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&unknown_scenario, Schema::Datacenter);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("unknown fault \"scenario\"")),
            "{errors:?}"
        );

        // Blast radius is how the sweep is read; a fault row without it
        // (or with zero) is unusable.
        let no_blast_radius = parse(
            r#"[{"kind": "fault", "scenario": "rack", "machines": 100,
                 "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&no_blast_radius, Schema::Datacenter);
        assert!(
            errors.iter().any(|e| e.contains("blast_radius")),
            "{errors:?}"
        );

        // Negative drain-migration counters are a broken dump, not calm data.
        let negative_drains = parse(
            r#"[{"kind": "fault", "scenario": "drain", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": -5,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&negative_drains, Schema::Datacenter);
        assert!(
            errors.iter().any(|e| e.contains("drain_migrations")),
            "{errors:?}"
        );
    }

    #[test]
    fn datacenter_rows_with_bad_kind_mode_or_activity_fail() {
        let bad_kind = parse(r#"[{"kind": "mystery", "available_parallelism": 1}]"#);
        let errors = validate(&bad_kind, Schema::Datacenter);
        assert!(
            errors.iter().any(|e| e.contains("unknown \"kind\"")),
            "{errors:?}"
        );

        let bad_mode = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "warp",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1}]"#,
        );
        let errors = validate(&bad_mode, Schema::Datacenter);
        assert!(
            errors.iter().any(|e| e.contains("unknown engine \"mode\"")),
            "{errors:?}"
        );

        let bad_activity = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "dense",
                 "activity": 7.5, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1}]"#,
        );
        let errors = validate(&bad_activity, Schema::Datacenter);
        assert!(errors.iter().any(|e| e.contains("activity")), "{errors:?}");
    }

    #[test]
    fn datacenter_dump_without_a_dense_sparse_pair_fails() {
        let dense_only = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "dense",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1}]"#,
        );
        let errors = validate(&dense_only, Schema::Datacenter);
        assert!(
            errors.iter().any(|e| e.contains("pair dense and sparse")),
            "{errors:?}"
        );
    }

    #[test]
    fn committed_dumps_at_the_workspace_root_are_valid() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for file in DEFAULT_FILES {
            let errors = check_file(&format!("{root}/{file}"));
            assert!(errors.is_empty(), "{file}: {errors:?}");
        }
    }
}
