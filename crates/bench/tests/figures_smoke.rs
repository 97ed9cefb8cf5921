//! Shape checks: every figure is finite, right-sized and shows both classes,
//! the invariants a deliberately regenerated golden (`bench::render`) must
//! keep.  Figs. 8 and 10–14 run their experiments at other seeds than their
//! bench's; the rest are read from the renderer's text.

use bench::scenarios::{paper_fractions, reaction_time_curve, ScenarioConfig};
use bench::{
    fig10_synthetic_accuracy, fig11_placement_robustness, fig12_profiling_overhead, fig8_detection,
    CloudWorkload, Figure,
};
use deepdive::synthetic::SyntheticBenchmark;
use hwsim::MachineSpec;

fn trained() -> SyntheticBenchmark {
    SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 7)
}

/// Renders `figure`, checking that every number in its text is finite.
fn render(figure: Figure) -> String {
    let text = figure.render();
    let mut numbers = text
        .split([',', ' ', '(', ')', '\n'])
        .flat_map(str::parse::<f64>);
    assert!(
        numbers.all(f64::is_finite),
        "{figure:?} prints a non-finite number"
    );
    text
}

/// The last `n` fields of every data row of a rendered table, as numbers;
/// comments and column headers (whose fields are names) are skipped.
fn rows(text: &str, n: usize) -> Vec<Vec<f64>> {
    let numbers = |line: &str| -> Option<Vec<f64>> {
        let fields: Vec<&str> = line.rsplitn(n + 1, ',').take(n).collect();
        fields.iter().rev().map(|f| f.parse().ok()).collect()
    };
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(numbers)
        .collect()
}

/// Whether rows whose fourth number is an interference flag show both classes.
fn both_classes(points: &[Vec<f64>]) -> bool {
    [0.0, 1.0]
        .iter()
        .all(|flag| points.iter().any(|p| p[3] == *flag))
}

#[test]
fn fig1_produces_72_hours_of_finite_series() {
    let points = rows(&render(Figure::Fig1), 4);
    assert_eq!(points.len(), 72, "three days of hourly points");
    assert!(points
        .iter()
        .enumerate()
        .all(|(hour, p)| p[0] == hour as f64));
    assert!(both_classes(&points));
}

#[test]
fn fig4_clusters_have_points_from_both_classes() {
    let text = render(Figure::Fig4);
    let sections: Vec<&str> = text.split("\n## ").skip(1).collect();
    assert_eq!(sections.len(), CloudWorkload::ALL.len());
    for (workload, section) in CloudWorkload::ALL.into_iter().zip(sections) {
        assert!(section.starts_with(&format!("{} (separation score ", workload.name())));
        assert!(both_classes(&rows(section, 4)), "{}", workload.name());
    }
}

#[test]
fn fig5_reports_all_nine_machines() {
    let points = rows(&render(Figure::Fig5), 4);
    assert_eq!(points.len(), 9);
    assert_eq!(points.iter().filter(|p| p[1] == 1.0).count(), 3);
}

#[test]
fn fig6_breakdown_runs_for_every_workload_and_scenario() {
    // Three workloads × three scenarios, isolation and production each.
    let text = render(Figure::Fig6);
    let cells: Vec<Vec<&str>> = text
        .lines()
        .skip(2)
        .map(|l| l.split(',').collect())
        .collect();
    assert_eq!(cells.len(), 18);
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(cell[0], CloudWorkload::ALL[i / 6].name(), "{cell:?}");
        assert_eq!(cell[2], ["isolation", "production"][i % 2], "{cell:?}");
        let stack = cell[3..7].iter().map(|v| v.parse::<f64>());
        assert!(
            stack.into_iter().all(|v| v.is_ok_and(|v| v >= 0.0)),
            "{cell:?}"
        );
        assert!(cell.len() == 8 && cell[7] != "-", "no culprit: {cell:?}");
    }
}

#[test]
fn fig7_i7_port_runs() {
    let text = render(Figure::Fig7);
    assert!(text
        .lines()
        .nth(1)
        .is_some_and(|l| l.starts_with("# separation score ")));
    assert!(both_classes(&rows(&text, 4)));
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
    let text = render(Figure::Fig9);
    for workload in CloudWorkload::ALL {
        let prefix = format!("{},", workload.name());
        let sweep: Vec<Vec<f64>> = text
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .flat_map(|l| rows(l, 4))
            .collect();
        assert_eq!(sweep.len(), 5, "{prefix} five stress intensities");
        assert!(
            sweep.windows(2).all(|w| w[0][0] < w[1][0]),
            "{prefix} rising"
        );
    }
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
    // The renderers' entry point, at their defaults but one server count.
    let config = ScenarioConfig {
        servers: 4,
        ..ScenarioConfig::default()
    };
    let curve = reaction_time_curve(&config, &paper_fractions());
    assert_eq!(curve.len(), paper_fractions().len());
    let finite = |m: f64| m.is_finite() && m >= 0.0;
    assert!(curve
        .iter()
        .all(|p| p.mean_reaction_minutes.is_none_or(finite)));
}

#[test]
fn memory_overhead_table_is_within_the_paper_budget() {
    let table = rows(&render(Figure::MemoryOverhead), 3);
    let [ref row] = table[..] else {
        panic!("one row, got {table:?}")
    };
    assert!(row[1] > 0.0);
    assert!(
        row[1] < 5.0 * 1024.0,
        "§5.5 bounds the per-VM-day footprint at 5 KB"
    );
    assert_eq!(row[2], 1.0, "the table's own verdict");
}
