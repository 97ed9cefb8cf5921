//! The benchmark's metric tables and the small statistics they are built
//! from.  `BENCHMARK.json` at the repository root lists the same names,
//! units, directions and bounds; the unit test in `main.rs` pins the two
//! against each other's limits.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.  `bound` is the share of the baseline median by which
/// an end-to-end metric may worsen before the benchmark driver rejects a
/// change (`BENCHMARK.json`; per-layer metrics carry none).  `review_bound`
/// is the tighter share `--compare` applies, zero where it does not judge
/// the metric.  `exact` marks simulated statistics and counts: pure
/// functions of the seed that must repeat bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub review_bound: f64,
    pub exact: bool,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    review_bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        review_bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        review_bound: 0.0,
        exact,
    }
}

/// A tail percentile of the epoch time: per-layer for the driver, judged by
/// `--compare` within `review_bound`.
const fn tail(name: &'static str, review_bound: f64) -> MetricSpec {
    MetricSpec {
        review_bound,
        ..layer(name, "ms", Better::Lower, false)
    }
}

/// Smallest `setup_s` difference `--compare` treats as real: below this a
/// relative bound would flag scheduler jitter on sub-second set-ups.
pub const SETUP_ABS_FLOOR_S: f64 = 0.05;

/// Metrics a user of the simulator sees, measured with tracing off, each
/// with two bounds.
///
/// The first is the driver's gate.  The driver takes ten seeds per workload
/// and has no `unresolved` verdict: it refuses the benchmark itself when one
/// workload's quartile spread exceeds the bound.  The reference host has
/// slow phases lasting minutes that catch part or all of a set (a spread
/// and a drift between back-to-back sets of 20% on `service_outage_domain`,
/// 2–6% in quiet sets), so the host-time gates sit at the contract's maximum.
/// For the same reason no tail percentile is an end-to-end metric: a slow
/// phase moves p90 two to three times as far as the median, and p99 on
/// `managed_hotmail` is seed-bimodal (ten-seed spreads of 22–58%, past any
/// bound the contract allows).
///
/// The second is what `--compare` applies in review: about twice the 2–6%
/// spread of a quiet set, with the `unresolved` verdict absorbing the sets
/// a slow phase caught.
pub const END_TO_END: &[MetricSpec] = &[
    host("vm_epochs_per_s", "VM-epochs/s", Better::Higher, 0.25, 0.10),
    host("epoch_ms_p50", "ms", Better::Lower, 0.25, 0.10),
    host("setup_s", "s", Better::Lower, 0.25, 0.15),
    host("peak_rss_mib", "MiB", Better::Lower, 0.15, 0.05),
];

use Better::{Higher, Lower};

/// Metrics of single layers, measured in the traced run.  A layer a
/// workload does not exercise reports zero.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("traces.generate_s", "s", Lower, false),
    layer("traces.sessions", "count", Lower, true),
    layer("cloudsim.service.busy_s", "s", Lower, false),
    layer("cloudsim.service.share", "ratio", Lower, false),
    layer("cloudsim.service.step_ms_calm_p50", "ms", Lower, false),
    layer("cloudsim.service.step_ms_fault_p50", "ms", Lower, false),
    layer("cloudsim.service.step_ms_p99", "ms", Lower, false),
    layer("cloudsim.service.arrivals", "count", Higher, true),
    layer("cloudsim.service.departures", "count", Higher, true),
    layer("cloudsim.service.rejections", "count", Lower, true),
    layer("cloudsim.service.retries", "count", Lower, true),
    layer("cloudsim.service.abandonments", "count", Lower, true),
    layer("cloudsim.service.evacuations", "count", Lower, true),
    layer("cloudsim.service.drain_migrations", "count", Lower, true),
    layer("cloudsim.service.placement_errors", "count", Lower, true),
    layer("cloudsim.service.peak_resident", "count", Higher, true),
    layer("cloudsim.service.placed_ratio", "ratio", Higher, true),
    layer("cloudsim.faults.query_ns", "ns", Lower, false),
    layer("cloudsim.faults.crashes", "count", Lower, true),
    layer("cloudsim.faults.down_machine_epochs", "count", Lower, true),
    layer("cloudsim.faults.availability_pct", "%", Higher, true),
    layer(
        "cloudsim.faults.retry_wait_epochs_mean",
        "epochs",
        Lower,
        true,
    ),
    layer("cloudsim.engine.busy_s", "s", Lower, false),
    layer("cloudsim.engine.share", "ratio", Lower, false),
    layer("cloudsim.engine.resolves", "count", Lower, true),
    layer("cloudsim.engine.quiescent_steps", "count", Higher, true),
    layer("cloudsim.engine.replay_ratio", "ratio", Higher, true),
    layer("cloudsim.engine.ns_per_vm_epoch", "ns", Lower, false),
    layer("hwsim.resolver.ns_per_vm", "ns", Lower, false),
    layer("deepdive.controller.busy_s", "s", Lower, false),
    layer("deepdive.controller.share", "ratio", Lower, false),
    layer("deepdive.controller.ns_per_eval", "ns", Lower, false),
    layer(
        "deepdive.controller.process_ms_quiet_p50",
        "ms",
        Lower,
        false,
    ),
    layer(
        "deepdive.controller.process_ms_analysis_p50",
        "ms",
        Lower,
        false,
    ),
    layer("deepdive.controller.process_ms_p99", "ms", Lower, false),
    layer("deepdive.controller.deferred", "count", Lower, true),
    layer("deepdive.controller.degraded", "count", Lower, true),
    layer(
        "deepdive.controller.migration_retries",
        "count",
        Lower,
        true,
    ),
    layer("deepdive.warning.evaluations", "count", Higher, true),
    layer("deepdive.warning.quiet_ns_per_eval", "ns", Lower, false),
    layer("deepdive.warning.global_matches", "count", Higher, true),
    layer("deepdive.warning.escalation_ratio", "ratio", Lower, true),
    layer("deepdive.analyzer.invocations", "count", Lower, true),
    layer("deepdive.analyzer.confirmed", "count", Higher, true),
    layer("deepdive.analyzer.false_alarms", "count", Lower, true),
    layer("deepdive.analyzer.confirm_ratio", "ratio", Higher, true),
    layer("deepdive.analyzer.profiling_sim_s", "sim_s", Lower, true),
    layer("deepdive.analyzer.spec_fallbacks", "count", Lower, true),
    layer(
        "deepdive.analyzer.marginal_ms_per_analysis",
        "ms",
        Lower,
        false,
    ),
    layer("deepdive.placement.migrations", "count", Higher, true),
    layer("deepdive.placement.skipped", "count", Lower, true),
    layer("deepdive.placement.migrate_ratio", "ratio", Higher, true),
    layer("deepdive.detection.episodes", "count", Higher, true),
    layer("deepdive.detection.recall", "ratio", Higher, true),
    layer(
        "deepdive.detection.reaction_epochs_p50",
        "epochs",
        Lower,
        true,
    ),
    layer("deepdive.service.feedback_s", "s", Lower, false),
    layer("deepdive.service.self_s", "s", Lower, false),
    layer("harness.inject_s", "s", Lower, false),
    layer("harness.inject_skipped", "count", Lower, true),
    tail("harness.epoch_ms_p90", 0.15),
    tail("harness.epoch_ms_p99", 0.15),
    layer("harness.timed_wall_s", "s", Lower, false),
];

/// A JSON object from `(key, value)` pairs, in order.
pub fn object(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// `{"name": {"value": v, "unit": u}, …}` — how a result line and an
/// `--out` file carry a metric set.
pub fn metrics_object<'a>(
    values: impl Iterator<Item = (&'a str, f64)>,
    specs: &[MetricSpec],
) -> serde::Value {
    use serde::Value;
    object(
        values
            .map(|(name, value)| {
                let unit = Value::Str(unit_of(specs, name).to_string());
                (
                    name,
                    object(vec![("value", Value::F64(value)), ("unit", unit)]),
                )
            })
            .collect(),
    )
}

/// The unit `specs` gives the named metric (empty if it lists no such one).
pub fn unit_of(specs: &[MetricSpec], name: &str) -> &'static str {
    specs.iter().find(|s| s.name == name).map_or("", |s| s.unit)
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`); zero for
/// an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank); zero for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// `numerator / denominator`, or zero when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
