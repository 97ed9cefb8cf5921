//! Integration tests asserting the paper's headline qualitative claims,
//! using the same experiment harness the benches print (crate `bench`).
//!
//! Absolute numbers are not expected to match the authors' testbed; the
//! assertions target the *shape* of each result: what is detected, who is
//! blamed, who wins and by roughly how much.

use bench::scenarios::{paper_fractions, reaction_time_curve, ScenarioConfig};
use bench::{
    fig10_synthetic_accuracy, fig11_placement_robustness, fig12_profiling_overhead, fig8_detection,
    CloudWorkload, Fig11Result, Fig12Result, Fig8Result,
};
use deepdive::synthetic::SyntheticBenchmark;
use hwsim::MachineSpec;

#[test]
fn fig8_no_false_negatives_and_false_positives_decline() {
    // §5.2: "DeepDive always detected the injected interference" and "the
    // false positive rate quickly decreases as DeepDive learns".
    for workload in CloudWorkload::ALL {
        let result = fig8_detection(workload, 21);
        assert_eq!(
            result.missed_episodes,
            0,
            "{}: some qualifying episodes were never detected",
            workload.name()
        );
        let day1 = &result.days[0];
        let day3 = &result.days[2];
        assert!(
            day3.false_positive_rate <= day1.false_positive_rate,
            "{}: false positive rate did not decline (day1 {:.2}, day3 {:.2})",
            workload.name(),
            day1.false_positive_rate,
            day3.false_positive_rate
        );
        for day in &result.days {
            assert!(
                (day.detection_rate - 1.0).abs() < 1e-9 || day.episodes == 0,
                "{}: detection rate below 100% on day {}",
                workload.name(),
                day.day
            );
        }
    }
}

/// The three claims the seed-21 test above asserts, as one verdict.
fn fig8_claims_hold(result: &Fig8Result) -> bool {
    let (day1, day3) = (&result.days[0], &result.days[2]);
    result.missed_episodes == 0
        && day3.false_positive_rate <= day1.false_positive_rate
        && result
            .days
            .iter()
            .all(|day| (day.detection_rate - 1.0).abs() < 1e-9 || day.episodes == 0)
}

#[test]
fn fig8_claims_hold_on_a_pinned_share_of_seeds() {
    // The seed-21 claims swept over seeds 1-16.  Data Analytics misses one
    // episode at seeds 2, 4, 14 and 15; a change to detection moves these
    // counts and has to say so.
    let pinned = [
        (CloudWorkload::DataServing, 16),
        (CloudWorkload::WebSearch, 16),
        (CloudWorkload::DataAnalytics, 12),
    ];
    for (workload, passing) in pinned {
        let failing: Vec<u64> = (1..=16)
            .filter(|&seed| !fig8_claims_hold(&fig8_detection(workload, seed)))
            .collect();
        assert_eq!(
            16 - failing.len(),
            passing,
            "{}: the Fig. 8 claims fail at seeds {failing:?}",
            workload.name()
        );
    }
}

#[test]
fn fig10_synthetic_clone_tracks_real_degradation() {
    // §5.4: median estimation error 8%, average 10% — we allow a looser but
    // still tight bound on the simulator.
    let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 200, 7);
    let mut errors = Vec::new();
    for workload in CloudWorkload::ALL {
        for p in fig10_synthetic_accuracy(workload, &benchmark, 13) {
            errors.push((p.real_degradation - p.synthetic_degradation).abs());
        }
    }
    errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = errors[errors.len() / 2];
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(median < 0.15, "median synthetic-clone error {median}");
    assert!(mean < 0.20, "mean synthetic-clone error {mean}");
}

#[test]
fn fig11_deepdive_finds_the_best_destination_without_migrating() {
    let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 200, 7);
    let r = fig11_placement_robustness(&benchmark, 17);
    assert!(r.chosen_pm.is_some());
    // The chosen destination must be (essentially) the best one, and clearly
    // better than the average and worst placements.
    assert!(
        r.deepdive_choice <= r.best + 0.05,
        "DeepDive's choice suffers {:.1}% vs best {:.1}%",
        r.deepdive_choice * 100.0,
        r.best * 100.0
    );
    assert!(r.deepdive_choice <= r.average);
    assert!(r.worst >= r.best);
}

/// The two bounds the fig10 test above asserts, as one verdict.
fn fig10_claims_hold(benchmark: &SyntheticBenchmark, seed: u64) -> bool {
    let mut errors = Vec::new();
    for workload in CloudWorkload::ALL {
        for p in fig10_synthetic_accuracy(workload, benchmark, seed) {
            errors.push((p.real_degradation - p.synthetic_degradation).abs());
        }
    }
    errors.sort_by(f64::total_cmp);
    let median = errors[errors.len() / 2];
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    median < 0.15 && mean < 0.20
}

/// The claims the fig11 test above asserts, as one verdict, with the
/// destinations' order best ≤ average ≤ worst (which also rejects NaN).
fn fig11_claims_hold(r: &Fig11Result) -> bool {
    r.chosen_pm.is_some()
        && r.deepdive_choice <= r.best + 0.05
        && r.deepdive_choice <= r.average
        && r.best <= r.average
        && r.average <= r.worst
}

#[test]
fn fig10_and_fig11_claims_hold_on_a_pinned_share_of_seeds() {
    // The single-seed claims above swept over seeds 1-16, each seed
    // training the synthetic benchmark and driving the experiment alike.
    // Both hold on every seed; a change to the clone or the placement
    // predictor that breaks one names its seeds.
    let (mut fig10_failing, mut fig11_failing) = (Vec::new(), Vec::new());
    for seed in 1..=16u64 {
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 200, seed);
        if !fig10_claims_hold(&benchmark, seed) {
            fig10_failing.push(seed);
        }
        if !fig11_claims_hold(&fig11_placement_robustness(&benchmark, seed)) {
            fig11_failing.push(seed);
        }
    }
    assert_eq!(
        (16 - fig10_failing.len(), 16 - fig11_failing.len()),
        (16, 16),
        "the Fig. 10 claims fail at seeds {fig10_failing:?}, the Fig. 11 claims at seeds {fig11_failing:?}"
    );
}

#[test]
fn fig12_deepdive_profiles_far_less_than_the_naive_baselines() {
    let r = fig12_profiling_overhead(21);
    let total_deepdive = *r.deepdive.last().unwrap();
    let total_baseline5 = *r.baseline_5.last().unwrap();
    let total_baseline20 = *r.baseline_20.last().unwrap();
    assert!(
        total_deepdive < total_baseline20,
        "DeepDive ({total_deepdive:.1} min) should beat even Baseline-20% ({total_baseline20:.1} min)"
    );
    assert!(
        total_baseline20 <= total_baseline5,
        "looser thresholds must profile less"
    );
    // The Fig. 12 plateau: most of DeepDive's profiling happens on day 1.
    let day1 = r.deepdive[23];
    assert!(
        total_deepdive - day1 <= day1 + 1.0,
        "profiling kept accumulating after day 1 (day1 {day1:.1}, total {total_deepdive:.1})"
    );
}

/// The three claims the seed-21 test above asserts, as one verdict.
fn fig12_claims_hold(r: &Fig12Result) -> bool {
    let total = |minutes: &[f64]| minutes.last().copied().unwrap_or(f64::NAN);
    let total_deepdive = total(&r.deepdive);
    let day1 = r.deepdive[23];
    total_deepdive < total(&r.baseline_20)
        && total(&r.baseline_20) <= total(&r.baseline_5)
        && total_deepdive - day1 <= day1 + 1.0
}

#[test]
fn fig12_claims_hold_on_a_pinned_share_of_seeds() {
    // The seed-21 claims swept over seeds 1-16; they hold on every one, so
    // a change to detection or profiling that breaks one names its seeds.
    let failing: Vec<u64> = (1..=16)
        .filter(|&seed| !fig12_claims_hold(&fig12_profiling_overhead(seed)))
        .collect();
    assert_eq!(
        16 - failing.len(),
        16,
        "the Fig. 12 claims fail at seeds {failing:?}"
    );
}

/// Fig. 13's mean reaction time, in minutes, with four profiling servers
/// at a 20% interference rate; `None` if the farm is unstable there.
fn fig13_four_server_minutes(seed: u64) -> Option<f64> {
    let config = ScenarioConfig {
        servers: 4,
        seed,
        ..Default::default()
    };
    reaction_time_curve(&config, &[0.2])[0].mean_reaction_minutes
}

/// Whether two servers with global information stay stable on at least
/// as many points of the sweep as four without it, less one.
fn fig13_global_information_halves_the_farm(seed: u64) -> bool {
    let fractions = paper_fractions();
    let stable = |servers: usize, popularity: Option<(usize, f64)>| {
        let config = ScenarioConfig {
            servers,
            popularity,
            seed,
            ..Default::default()
        };
        let curve = reaction_time_curve(&config, &fractions);
        curve
            .iter()
            .filter(|p| p.mean_reaction_minutes.is_some())
            .count()
    };
    stable(2, Some((200, 2.0))) + 1 >= stable(4, None)
}

/// Whether eight servers stay stable across the sweep under bursty
/// (lognormal) arrivals.
fn fig14_eight_servers_stay_stable(seed: u64) -> bool {
    let config = ScenarioConfig {
        servers: 8,
        arrival_model: traces::ArrivalModel::Lognormal { sigma: 2.0 },
        popularity: Some((200, 1.5)),
        seed,
        ..Default::default()
    };
    let curve = reaction_time_curve(&config, &[0.2, 0.6, 1.0]);
    curve.iter().all(|p| p.mean_reaction_minutes.is_some())
}

#[test]
fn fig13_four_servers_meet_the_papers_reaction_target() {
    // §5.5: "only four profiling servers provide reaction time within four
    // minutes, even under an aggressive rate of 20% of VMs undergoing
    // interference."
    let minutes = fig13_four_server_minutes(ScenarioConfig::default().seed)
        .expect("four servers must be stable at a 20% interference rate");
    assert!(minutes <= 5.0, "mean reaction time {minutes:.1} min");
}

#[test]
fn fig13_global_information_roughly_halves_the_needed_farm() {
    // §5.5: global information "allows DeepDive to further reduce the number
    // of profiling servers required (by a factor of two)".  Check that at a
    // high interference rate, 2 servers with global information cover at
    // least as much of the sweep as 4 servers without it, less one point.
    assert!(
        fig13_global_information_halves_the_farm(ScenarioConfig::default().seed),
        "2 servers with global info cover fewer points than 4 local-only, less one"
    );
}

#[test]
fn fig14_bursty_arrivals_still_need_under_ten_servers() {
    // §5.5: "fewer than 10 dedicated profiling machines are required, even
    // under this extreme new-VM arrival scenario."
    assert!(
        fig14_eight_servers_stay_stable(ScenarioConfig::default().seed),
        "8 servers should remain stable across the sweep under bursty arrivals"
    );
}

#[test]
fn fig13_and_fig14_claims_hold_on_a_pinned_share_of_seeds() {
    // The three §5.5 claims above swept over seeds 1-16, and Fig. 13's
    // worst seed's margin to the five-minute bound beside them.
    let mut failing: [Vec<u64>; 3] = Default::default();
    let mut worst = (0, f64::INFINITY);
    for seed in 1..=16u64 {
        match fig13_four_server_minutes(seed) {
            Some(minutes) if minutes <= 5.0 => {
                if 5.0 - minutes < worst.1 {
                    worst = (seed, 5.0 - minutes);
                }
            }
            _ => failing[0].push(seed),
        }
        if !fig13_global_information_halves_the_farm(seed) {
            failing[1].push(seed);
        }
        if !fig14_eight_servers_stay_stable(seed) {
            failing[2].push(seed);
        }
    }
    assert_eq!(
        failing.each_ref().map(|seeds| 16 - seeds.len()),
        [16, 16, 16],
        "the claims fail at seeds {failing:?} (four servers, global information, bursty arrivals)"
    );
    // Seed 9's mean reaction is 4.05 min: inside the five-minute bound,
    // just outside the paper's four.
    assert_eq!((worst.0, format!("{:.2}", worst.1)), (9, "0.95".into()));
}
