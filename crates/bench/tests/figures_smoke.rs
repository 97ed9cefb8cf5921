//! Smoke tests: every figure/table entry point in `bench::figures` runs under
//! plain `cargo test`, not only under `cargo bench`.
//!
//! These are deliberately shallow — the *qualitative* claims behind each
//! figure are asserted by `tests/paper_claims.rs` at the workspace root; here
//! we pin that each experiment executes, terminates, and produces well-formed
//! (finite, right-sized) data, so a regression in any experiment path is
//! caught even when no bench is run.

use bench::{
    fig10_synthetic_accuracy, fig11_placement_robustness, fig12_profiling_overhead,
    fig1_ec2_motivation, fig4_metric_clusters, fig5_global_information, fig6_cpi_breakdown,
    fig7_i7_port, fig8_detection, fig9_degradation_accuracy, memory_overhead_bytes_per_vm_day,
    CloudWorkload, Fig6Scenario,
};
use deepdive::synthetic::SyntheticBenchmark;
use hwsim::MachineSpec;
use queueing::scenarios::{paper_fractions, reaction_time_curve, ScenarioConfig};

fn trained() -> SyntheticBenchmark {
    SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 7)
}

#[test]
fn fig1_produces_72_hours_of_finite_series() {
    let points = fig1_ec2_motivation(1);
    assert_eq!(points.len(), 72, "three days of hourly points");
    assert!(points
        .iter()
        .all(|p| p.throughput_rps.is_finite() && p.latency_ms.is_finite()));
    assert!(points.iter().any(|p| p.interference_active));
    assert!(points.iter().any(|p| !p.interference_active));
}

#[test]
fn fig4_clusters_have_points_from_both_classes() {
    let clusters = fig4_metric_clusters(CloudWorkload::DataServing, 4);
    assert!(clusters.points.iter().any(|p| p.interference));
    assert!(clusters.points.iter().any(|p| !p.interference));
    assert!(clusters.separation_score.is_finite());
    assert!(clusters
        .points
        .iter()
        .all(|p| p.coords.iter().all(|c| c.is_finite())));
}

#[test]
fn fig5_reports_all_nine_machines() {
    let points = fig5_global_information(3, 5);
    assert_eq!(points.len(), 9);
    assert_eq!(points.iter().filter(|p| p.interfered).count(), 3);
    assert!(points
        .iter()
        .all(|p| p.net_stalls.is_finite() && p.cpi.is_finite()));
}

#[test]
fn fig6_breakdown_runs_for_every_workload_and_scenario() {
    for workload in CloudWorkload::ALL {
        for scenario in Fig6Scenario::ALL {
            let cell = fig6_cpi_breakdown(workload, scenario, 6);
            assert!(cell.isolation.iter().all(|v| v.is_finite() && *v >= 0.0));
            assert!(cell.production.iter().all(|v| v.is_finite() && *v >= 0.0));
            assert!(!cell.expected.is_empty());
        }
    }
}

#[test]
fn fig7_i7_port_runs() {
    let clusters = fig7_i7_port(7);
    assert!(!clusters.points.is_empty());
    assert!(clusters.separation_score.is_finite());
}

#[test]
fn fig8_detection_covers_three_days() {
    let result = fig8_detection(CloudWorkload::DataServing, 8);
    assert_eq!(result.days.len(), 3);
    for day in &result.days {
        assert!((0.0..=1.0).contains(&day.detection_rate));
        assert!((0.0..=1.0).contains(&day.false_positive_rate));
    }
    assert_eq!(result.cumulative_profiling_minutes.len(), 72);
}

#[test]
fn fig9_sweep_is_monotone_in_shape() {
    let points = fig9_degradation_accuracy(CloudWorkload::DataServing, 9);
    assert!(!points.is_empty());
    assert!(points
        .iter()
        .all(|p| p.client_reported.is_finite() && p.estimated.is_finite()));
}

#[test]
fn fig10_accuracy_runs_for_every_workload() {
    let benchmark = trained();
    for workload in CloudWorkload::ALL {
        let points = fig10_synthetic_accuracy(workload, &benchmark, 10);
        assert_eq!(points.len(), 5, "five stress intensities");
        assert!(points
            .iter()
            .all(|p| p.real_degradation.is_finite() && p.synthetic_degradation.is_finite()));
    }
}

#[test]
fn fig11_placement_predicts_every_candidate() {
    let result = fig11_placement_robustness(&trained(), 11);
    assert!(result.best <= result.average + 1e-12);
    assert!(result.average <= result.worst + 1e-12);
    assert!(result.deepdive_choice.is_finite());
}

#[test]
fn fig12_baselines_profile_more_than_deepdive() {
    let result = fig12_profiling_overhead(12);
    assert_eq!(result.hours.len(), 72);
    let last = result.hours.len() - 1;
    assert!(result.deepdive[last] <= result.baseline_5[last]);
    assert!(result.deepdive[last].is_finite());
}

#[test]
fn fig13_and_fig14_reaction_curves_run() {
    // The same entry point the fig13/fig14 benches drive, at bench-default
    // parameters but a single server count.
    let config = ScenarioConfig {
        servers: 4,
        ..ScenarioConfig::default()
    };
    let curve = reaction_time_curve(&config, &paper_fractions());
    assert_eq!(curve.len(), paper_fractions().len());
    assert!(curve.iter().all(|p| p
        .mean_reaction_minutes
        .is_none_or(|m| m.is_finite() && m >= 0.0)));
}

#[test]
fn memory_overhead_table_is_within_the_paper_budget() {
    let bytes = memory_overhead_bytes_per_vm_day();
    assert!(bytes > 0);
    assert!(
        bytes < 5 * 1024,
        "§5.5 bounds the per-VM-day footprint at 5 KB, got {bytes}"
    );
}
