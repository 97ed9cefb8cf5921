//! One renderer per paper figure: the text each bench target prints.
//!
//! [`Figure::render`] re-runs a figure's experiment (from `figures` or
//! `scenarios`) and formats its series as the CSV-like text the paper's
//! plot is drawn from.  The bench `main`s print nothing else, and the
//! committed copy of every rendering under `.github/bench_stdout/` is read
//! both by CI's bench step and by this module's golden test, so a change
//! that moves a figure by one byte fails `cargo test`.

use std::fmt::{self, Write};

use deepdive::synthetic::SyntheticBenchmark;
use hwsim::MachineSpec;
use traces::ArrivalModel;

use crate::figures::{
    fig10_synthetic_accuracy, fig11_placement_robustness, fig12_profiling_overhead,
    fig1_ec2_motivation, fig4_metric_clusters, fig5_global_information, fig6_cpi_breakdown,
    fig7_i7_port, fig8_detection, fig9_degradation_accuracy, memory_overhead_bytes_per_vm_day,
    Fig6Scenario, MetricClusters,
};
use crate::scenarios::{paper_fractions, reaction_time_curve, ScenarioConfig};
use crate::setup::CloudWorkload;

/// A figure or table of the paper's evaluation, as one bench target prints
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 1: a service's hourly throughput and latency on a shared machine.
    Fig1,
    /// Fig. 4: metric-space clusters with and without interference.
    Fig4,
    /// Fig. 5: global information singles out the interfered machines.
    Fig5,
    /// Fig. 6: CPI stacks in isolation vs production, and the culprit.
    Fig6,
    /// Fig. 7: the Core i7 port still separates interference.
    Fig7,
    /// Fig. 8: detection and false-positive rates over three trace days.
    Fig8,
    /// Fig. 9: client-reported vs analyzer-estimated degradation.
    Fig9,
    /// Fig. 10: real VM vs synthetic clone degradation.
    Fig10,
    /// Fig. 11: interference at DeepDive's destination vs the alternatives.
    Fig11,
    /// Fig. 12: accumulated profiling time against naive baselines.
    Fig12,
    /// Fig. 13: profiling-farm reaction time under Poisson arrivals.
    Fig13,
    /// Fig. 14: the same under bursty lognormal arrivals.
    Fig14,
    /// §5.5: the behaviour repository's footprint per VM per day.
    MemoryOverhead,
}

impl Figure {
    /// Re-runs the figure's experiment and returns the text its bench
    /// prints.
    pub fn render(self) -> String {
        let mut out = String::new();
        let written = match self {
            Figure::Fig1 => fig1(&mut out),
            Figure::Fig4 => fig4(&mut out),
            Figure::Fig5 => fig5(&mut out),
            Figure::Fig6 => fig6(&mut out),
            Figure::Fig7 => fig7(&mut out),
            Figure::Fig8 => fig8(&mut out),
            Figure::Fig9 => fig9(&mut out),
            Figure::Fig10 => fig10(&mut out),
            Figure::Fig11 => fig11(&mut out),
            Figure::Fig12 => fig12(&mut out),
            Figure::Fig13 => reaction_time(&mut out, 13, "Poisson", ArrivalModel::Poisson),
            Figure::Fig14 => reaction_time(
                &mut out,
                14,
                "lognormal",
                ArrivalModel::Lognormal { sigma: 2.0 },
            ),
            Figure::MemoryOverhead => memory_overhead(&mut out),
        };
        // Writing into a `String` cannot fail.
        debug_assert!(written.is_ok());
        out
    }
}

/// The synthetic benchmark Figs. 10 and 11 mimic with.
fn trained_benchmark() -> SyntheticBenchmark {
    SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 200, 7)
}

fn fig1(out: &mut String) -> fmt::Result {
    let points = fig1_ec2_motivation(1);
    writeln!(
        out,
        "# Figure 1 — Cassandra-like service on a shared machine (3 days)"
    )?;
    writeln!(
        out,
        "hour,throughput_req_per_s,avg_latency_ms,interference_active"
    )?;
    for p in &points {
        writeln!(
            out,
            "{},{:.1},{:.2},{}",
            p.hour, p.throughput_rps, p.latency_ms, p.interference_active as u8
        )?;
    }
    let mean_latency = |noisy: bool| {
        let latencies: Vec<f64> = points
            .iter()
            .filter(|p| p.interference_active == noisy)
            .map(|p| p.latency_ms)
            .collect();
        latencies.iter().sum::<f64>() / latencies.len().max(1) as f64
    };
    writeln!(
        out,
        "# summary: quiet latency {:.2} ms vs interference latency {:.2} ms",
        mean_latency(false),
        mean_latency(true)
    )
}

/// The rows of a Fig. 4 / Fig. 7 scatter, after its column header.
fn metric_points(out: &mut String, clusters: &MetricClusters) -> fmt::Result {
    for p in &clusters.points {
        writeln!(
            out,
            "{},{:.3},{:.3},{:.3},{}",
            p.setting, p.coords[0], p.coords[1], p.coords[2], p.interference as u8
        )?;
    }
    Ok(())
}

fn fig4(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "# Figure 4 — metric-space clusters (L1 / L2 / memory-stall, per kilo-instruction)"
    )?;
    for workload in CloudWorkload::ALL {
        let clusters = fig4_metric_clusters(workload, 3);
        writeln!(
            out,
            "## {} (separation score {:.2})",
            workload.name(),
            clusters.separation_score
        )?;
        writeln!(out, "setting,l1_pki,llc_pki,stall_pki,interference")?;
        metric_points(out, &clusters)?;
    }
    Ok(())
}

fn fig5(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "# Figure 5 — Data Analytics on nine PMs, iperf on three of them"
    )?;
    writeln!(out, "pm,interfered,net_stall_s_per_gi,cpi")?;
    for p in fig5_global_information(3, 5) {
        writeln!(
            out,
            "{},{},{:.3},{:.3}",
            p.pm, p.interfered as u8, p.net_stalls, p.cpi
        )?;
    }
    Ok(())
}

fn fig6(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "# Figure 6 — augmented CPI stack, isolation vs production"
    )?;
    writeln!(
        out,
        "workload,scenario,environment,core,l2_miss,fsb,net_disk,culprit"
    )?;
    for workload in CloudWorkload::ALL {
        for scenario in Fig6Scenario::ALL {
            let cell = fig6_cpi_breakdown(workload, scenario, 7);
            for (env, stack) in [
                ("isolation", cell.isolation),
                ("production", cell.production),
            ] {
                writeln!(
                    out,
                    "{},{},{},{:.3},{:.3},{:.3},{:.3},{}",
                    cell.workload,
                    cell.scenario,
                    env,
                    stack[0],
                    stack[1],
                    stack[2],
                    stack[3],
                    cell.culprit.map(|r| r.label()).unwrap_or("-")
                )?;
            }
        }
    }
    Ok(())
}

fn fig7(out: &mut String) -> fmt::Result {
    let clusters = fig7_i7_port(9);
    writeln!(
        out,
        "# Figure 7 — Data Serving on the Core i7 (Nehalem) server"
    )?;
    writeln!(out, "# separation score {:.2}", clusters.separation_score)?;
    writeln!(out, "setting,cpi,l3_pki,qpi_outstanding_pki,interference")?;
    metric_points(out, &clusters)
}

fn fig8(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "# Figure 8 — detection and false-positive rates over three trace days"
    )?;
    writeln!(
        out,
        "workload,day,detection_rate_pct,false_positive_rate_pct,episodes,analyzer_invocations"
    )?;
    for workload in CloudWorkload::ALL {
        let result = fig8_detection(workload, 21);
        for d in &result.days {
            writeln!(
                out,
                "{},{},{:.0},{:.0},{},{}",
                workload.name(),
                d.day + 1,
                d.detection_rate * 100.0,
                d.false_positive_rate * 100.0,
                d.episodes,
                d.invocations
            )?;
        }
        writeln!(
            out,
            "# {}: missed episodes = {}",
            workload.name(),
            result.missed_episodes
        )?;
    }
    Ok(())
}

fn fig9(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "# Figure 9 — client-reported vs analyzer-estimated degradation"
    )?;
    writeln!(
        out,
        "workload,stress_intensity,client_reported_pct,estimated_pct,abs_error_pct"
    )?;
    let mut errors = Vec::new();
    for workload in CloudWorkload::ALL {
        for p in fig9_degradation_accuracy(workload, 11) {
            let err = (p.estimated - p.client_reported).abs();
            errors.push(err);
            writeln!(
                out,
                "{},{:.1},{:.1},{:.1},{:.1}",
                workload.name(),
                p.intensity,
                p.client_reported * 100.0,
                p.estimated * 100.0,
                err * 100.0
            )?;
        }
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    let worst = errors.iter().cloned().fold(0.0, f64::max);
    writeln!(
        out,
        "# mean absolute error {:.1}% (paper: <5%), worst {:.1}% (paper: <10%)",
        mean * 100.0,
        worst * 100.0
    )
}

fn fig10(out: &mut String) -> fmt::Result {
    let benchmark = trained_benchmark();
    writeln!(out, "# Figure 10 — real VM vs synthetic clone degradation")?;
    writeln!(
        out,
        "workload,stress_intensity,real_degradation_pct,synthetic_degradation_pct,abs_error_pct"
    )?;
    let mut errors = Vec::new();
    for workload in CloudWorkload::ALL {
        for p in fig10_synthetic_accuracy(workload, &benchmark, 13) {
            let err = (p.real_degradation - p.synthetic_degradation).abs();
            errors.push(err);
            writeln!(
                out,
                "{},{:.1},{:.1},{:.1},{:.1}",
                workload.name(),
                p.intensity,
                p.real_degradation * 100.0,
                p.synthetic_degradation * 100.0,
                err * 100.0
            )?;
        }
    }
    errors.sort_by(f64::total_cmp);
    let median = errors[errors.len() / 2];
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    writeln!(
        out,
        "# median error {:.1}% (paper: 8%), mean error {:.1}% (paper: 10%)",
        median * 100.0,
        mean * 100.0
    )
}

fn fig11(out: &mut String) -> fmt::Result {
    let r = fig11_placement_robustness(&trained_benchmark(), 17);
    writeln!(
        out,
        "# Figure 11 — interference at the chosen destination vs best/average/worst"
    )?;
    writeln!(out, "placement,real_interference_pct")?;
    writeln!(out, "deepdive_choice,{:.1}", r.deepdive_choice * 100.0)?;
    writeln!(out, "best,{:.1}", r.best * 100.0)?;
    writeln!(out, "average,{:.1}", r.average * 100.0)?;
    writeln!(out, "worst,{:.1}", r.worst * 100.0)?;
    writeln!(out, "# chosen destination: {:?}", r.chosen_pm)
}

fn fig12(out: &mut String) -> fmt::Result {
    let r = fig12_profiling_overhead(21);
    writeln!(
        out,
        "# Figure 12 — accumulated profiling time over 72 hours (minutes)"
    )?;
    writeln!(
        out,
        "hour,deepdive,baseline_20pct,baseline_10pct,baseline_5pct"
    )?;
    for (i, hour) in r.hours.iter().enumerate() {
        writeln!(
            out,
            "{},{:.1},{:.1},{:.1},{:.1}",
            hour, r.deepdive[i], r.baseline_20[i], r.baseline_10[i], r.baseline_5[i]
        )?;
    }
    writeln!(
        out,
        "# totals after 72 h: DeepDive {:.1} min, Baseline-20% {:.1}, Baseline-10% {:.1}, Baseline-5% {:.1}",
        r.deepdive[71], r.baseline_20[71], r.baseline_10[71], r.baseline_5[71]
    )
}

/// Fig. 13 or 14: the profiling farm's mean reaction time under
/// `arrival_model` (named `arrivals` in the header) — (a) local information
/// only, (b) with global information, (c) four servers sweeping the
/// popularity tail index.
fn reaction_time(
    out: &mut String,
    figure: u32,
    arrivals: &str,
    arrival_model: ArrivalModel,
) -> fmt::Result {
    let fractions = paper_fractions();
    let curve = |out: &mut String,
                 label: &str,
                 servers: usize,
                 popularity: Option<(usize, f64)>|
     -> fmt::Result {
        let config = ScenarioConfig {
            servers,
            arrival_model,
            popularity,
            ..Default::default()
        };
        for p in reaction_time_curve(&config, &fractions) {
            let value = p
                .mean_reaction_minutes
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "unstable".into());
            writeln!(out, "{label},{:.1},{value}", p.interference_fraction)?;
        }
        Ok(())
    };
    writeln!(
        out,
        "# Figure {figure}(a) — local information only, {arrivals} arrivals, 1000 VMs/day"
    )?;
    writeln!(out, "servers,interference_fraction,mean_reaction_min")?;
    for servers in [2usize, 4, 8, 16] {
        curve(out, &servers.to_string(), servers, None)?;
    }
    writeln!(
        out,
        "# Figure {figure}(b) — with global information (Zipf alpha = 1.5 over 200 apps)"
    )?;
    writeln!(out, "servers,interference_fraction,mean_reaction_min")?;
    for servers in [2usize, 4, 8, 16] {
        curve(out, &servers.to_string(), servers, Some((200, 1.5)))?;
    }
    writeln!(
        out,
        "# Figure {figure}(c) — four servers, sweeping the popularity tail index alpha"
    )?;
    writeln!(out, "alpha,interference_fraction,mean_reaction_min")?;
    for (label, popularity) in [
        ("inf (no global info)", None),
        ("2.5", Some((200usize, 2.5))),
        ("2.0", Some((200, 2.0))),
        ("1.5", Some((200, 1.5))),
        ("1.0", Some((200, 1.0))),
    ] {
        curve(out, label, 4, popularity)?;
    }
    Ok(())
}

fn memory_overhead(out: &mut String) -> fmt::Result {
    let bytes = memory_overhead_bytes_per_vm_day();
    writeln!(out, "# §5.5 — repository footprint per VM per day")?;
    writeln!(out, "analyses_per_day,bytes,under_5kb")?;
    writeln!(out, "24,{},{}", bytes, (bytes < 5 * 1024) as u8)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::Path;

    use super::Figure;

    /// Every figure with the bench target (and golden file) that prints it.
    const BENCHES: [(Figure, &str); 13] = [
        (Figure::Fig1, "fig01_ec2_motivation"),
        (Figure::Fig4, "fig04_metric_clusters"),
        (Figure::Fig5, "fig05_global_information"),
        (Figure::Fig6, "fig06_cpi_breakdown"),
        (Figure::Fig7, "fig07_i7_port"),
        (Figure::Fig8, "fig08_detection_rates"),
        (Figure::Fig9, "fig09_degradation_accuracy"),
        (Figure::Fig10, "fig10_synthetic_accuracy"),
        (Figure::Fig11, "fig11_placement_robustness"),
        (Figure::Fig12, "fig12_profiling_overhead"),
        (Figure::Fig13, "fig13_reaction_time_poisson"),
        (Figure::Fig14, "fig14_reaction_time_lognormal"),
        (Figure::MemoryOverhead, "tab_memory_overhead"),
    ];

    /// The file stems with `extension` in `dir`.
    fn stems(dir: &Path, extension: &str) -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == extension))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect()
    }

    /// The first line where `golden` and `rendered` differ, both sides.
    fn first_difference(golden: &str, rendered: &str) -> String {
        let (g, r): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), rendered.lines().collect());
        match (0..g.len().max(r.len())).find(|&i| g.get(i) != r.get(i)) {
            Some(i) => format!(
                "line {}: golden {:?}, rendered {:?}",
                i + 1,
                g.get(i),
                r.get(i)
            ),
            None => "only the line endings differ".into(),
        }
    }

    #[test]
    fn every_figure_renders_its_committed_golden() {
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let benches_dir = crate_dir.join("benches");
        let goldens_dir = crate_dir.join("../../.github/bench_stdout");
        let figures: BTreeSet<String> = BENCHES.iter().map(|(_, b)| b.to_string()).collect();
        assert_eq!(
            stems(&benches_dir, "rs"),
            figures,
            "bench targets and figures disagree"
        );
        assert_eq!(
            stems(&goldens_dir, "txt"),
            figures,
            "golden files and figures disagree"
        );
        let mut moved = Vec::new();
        for (figure, bench) in BENCHES {
            let source = std::fs::read_to_string(benches_dir.join(format!("{bench}.rs")))
                .expect("bench source");
            assert!(
                source.contains(&format!("Figure::{figure:?}.render()")),
                "{bench}.rs does not print `Figure::{figure:?}`"
            );
            let golden = std::fs::read_to_string(goldens_dir.join(format!("{bench}.txt")))
                .expect("golden file");
            let rendered = figure.render();
            if rendered != golden {
                moved.push(format!("{bench}: {}", first_difference(&golden, &rendered)));
            }
        }
        assert!(
            moved.is_empty(),
            "figures moved from .github/bench_stdout/:\n{}",
            moved.join("\n")
        );
    }
}
