//! Parameter sweeps regenerating the curves of Figs. 13 and 14.
//!
//! Each curve in the paper plots the mean reaction time (minutes) against
//! the fraction of VMs undergoing interference, for a given number of
//! profiling servers, arrival process and application-popularity
//! distribution.  Curves stop "where the system becomes unstable or
//! excessively slow"; we reproduce that by returning `None` for sweep points
//! where the farm is overloaded or the mean wait exceeds ten minutes.

use traces::arrivals::{generate_arrivals, ArrivalModel};

use crate::profiler_farm::{FarmConfig, ProfilerFarm};

/// Wait threshold beyond which the paper considers the system "excessively
/// slow" and stops drawing the curve (10 minutes).
pub const MAX_ACCEPTABLE_WAIT_S: f64 = 600.0;

/// Scenario parameters shared by a whole curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// New VMs per day (the paper uses 1000).
    pub arrivals_per_day: f64,
    /// Experiment horizon in days.
    pub horizon_days: f64,
    /// Number of profiling servers.
    pub servers: usize,
    /// Arrival process.
    pub arrival_model: ArrivalModel,
    /// Application popularity: `Some((apps, alpha))` enables global
    /// information over a Zipf popularity with tail index `alpha`; `None`
    /// means every VM runs unique code (no global information).
    pub popularity: Option<(usize, f64)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            arrivals_per_day: 1_000.0,
            horizon_days: 3.0,
            servers: 4,
            arrival_model: ArrivalModel::Poisson,
            popularity: None,
            seed: 0x5CEB,
        }
    }
}

/// One point of a reaction-time curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Fraction of VMs undergoing interference (the x-axis).
    pub interference_fraction: f64,
    /// Mean reaction time in minutes, or `None` where the system is
    /// unstable or excessively slow (the curve stops).
    pub mean_reaction_minutes: Option<f64>,
    /// Offered farm utilization at this point.
    pub utilization: f64,
}

/// Computes a full reaction-time curve over the given interference fractions.
pub fn reaction_time_curve(config: &ScenarioConfig, fractions: &[f64]) -> Vec<CurvePoint> {
    assert!(!fractions.is_empty(), "curve needs at least one x value");
    let arrivals = generate_arrivals(
        config.arrivals_per_day,
        config.horizon_days,
        config.arrival_model,
        config.popularity,
        config.seed,
    );
    let horizon_s = config.horizon_days * 86_400.0;
    fractions
        .iter()
        .map(|&fraction| {
            let farm = ProfilerFarm::new(FarmConfig {
                servers: config.servers,
                interference_fraction: fraction,
                use_global_information: config.popularity.is_some(),
                seed: config.seed ^ 0xF00D,
                ..Default::default()
            });
            let result = farm.run(&arrivals, horizon_s);
            let stable = result.is_stable(MAX_ACCEPTABLE_WAIT_S);
            CurvePoint {
                interference_fraction: fraction,
                mean_reaction_minutes: stable.then(|| result.mean_reaction_minutes()),
                utilization: result.utilization,
            }
        })
        .collect()
}

/// The x-axis used by the paper's figures: 0% to 100% in 10-point steps.
pub fn paper_fractions() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_reports_every_requested_fraction() {
        let curve = reaction_time_curve(&ScenarioConfig::default(), &paper_fractions());
        assert_eq!(curve.len(), 11);
        assert!((curve[0].interference_fraction - 0.0).abs() < 1e-12);
        assert!((curve[10].interference_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_servers_saturate_before_sixteen() {
        let fractions = paper_fractions();
        let two = reaction_time_curve(
            &ScenarioConfig {
                servers: 2,
                ..Default::default()
            },
            &fractions,
        );
        let sixteen = reaction_time_curve(
            &ScenarioConfig {
                servers: 16,
                ..Default::default()
            },
            &fractions,
        );
        let stable_points = |curve: &[CurvePoint]| {
            curve
                .iter()
                .filter(|p| p.mean_reaction_minutes.is_some())
                .count()
        };
        assert!(
            stable_points(&two) < stable_points(&sixteen),
            "two servers should cover fewer stable points than sixteen"
        );
        // Where both are stable, more servers is never slower.
        for (a, b) in two.iter().zip(&sixteen) {
            if let (Some(ra), Some(rb)) = (a.mean_reaction_minutes, b.mean_reaction_minutes) {
                assert!(rb <= ra + 1e-9);
            }
        }
    }

    #[test]
    fn global_information_extends_and_lowers_the_curve() {
        let fractions = paper_fractions();
        let local_only = reaction_time_curve(
            &ScenarioConfig {
                servers: 2,
                popularity: None,
                ..Default::default()
            },
            &fractions,
        );
        let with_global = reaction_time_curve(
            &ScenarioConfig {
                servers: 2,
                popularity: Some((200, 1.5)),
                ..Default::default()
            },
            &fractions,
        );
        let stable = |c: &[CurvePoint]| {
            c.iter()
                .filter(|p| p.mean_reaction_minutes.is_some())
                .count()
        };
        assert!(stable(&with_global) >= stable(&local_only));
        // At a mid-range interference fraction global info lowers the mean
        // reaction time.
        let mid = 5;
        if let (Some(a), Some(b)) = (
            local_only[mid].mean_reaction_minutes,
            with_global[mid].mean_reaction_minutes,
        ) {
            assert!(b <= a);
        }
    }

    #[test]
    fn heavier_popularity_tail_helps_more() {
        let fractions = vec![0.6];
        let light = reaction_time_curve(
            &ScenarioConfig {
                servers: 4,
                popularity: Some((500, 1.0)),
                ..Default::default()
            },
            &fractions,
        );
        let heavy = reaction_time_curve(
            &ScenarioConfig {
                servers: 4,
                popularity: Some((500, 2.5)),
                ..Default::default()
            },
            &fractions,
        );
        assert!(heavy[0].utilization <= light[0].utilization + 1e-9);
    }

    #[test]
    fn lognormal_arrivals_are_supported() {
        let curve = reaction_time_curve(
            &ScenarioConfig {
                arrival_model: ArrivalModel::Lognormal { sigma: 2.0 },
                servers: 8,
                ..Default::default()
            },
            &[0.2, 0.6],
        );
        assert_eq!(curve.len(), 2);
        assert!(curve.iter().all(|p| p.utilization.is_finite()));
    }

    #[test]
    #[should_panic(expected = "at least one x value")]
    fn empty_fractions_rejected() {
        reaction_time_curve(&ScenarioConfig::default(), &[]);
    }
}
