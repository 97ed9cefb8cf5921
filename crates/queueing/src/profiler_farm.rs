//! DeepDive's profiling farm: turning VM arrivals into analyzer jobs.
//!
//! Following the paper's methodology (§5.5), the farm model takes a stream of
//! VM arrivals, marks a configurable fraction of them as "undergoing
//! interference" (each such VM needs one full analyzer run), draws the
//! service time of a full run from the distribution measured in the live
//! experiments, and — when global information is enabled — replaces the full
//! run with a much shorter verification for VMs whose application has
//! already been profiled before.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traces::arrivals::VmArrival;

use crate::events::{simulate_queue, Job, QueueResult};

/// Configuration of the profiling farm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarmConfig {
    /// Number of dedicated profiling servers.
    pub servers: usize,
    /// Fraction of arriving VMs that undergo interference and need analysis.
    pub interference_fraction: f64,
    /// Mean service time of a full analyzer run, in seconds (cloning,
    /// workload replay and comparison; minutes in the live experiments).
    pub full_service_mean_s: f64,
    /// Half-width of the uniform jitter around the mean service time.
    pub full_service_jitter_s: f64,
    /// Service time of the shortened check used when the application's
    /// behaviour is already known from another VM (global information).
    pub known_app_service_s: f64,
    /// Whether global information may be used at all.
    pub use_global_information: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            servers: 4,
            interference_fraction: 0.2,
            full_service_mean_s: 240.0,
            full_service_jitter_s: 60.0,
            known_app_service_s: 45.0,
            use_global_information: false,
            seed: 0xFA12,
        }
    }
}

/// Result of running the farm over an arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmResult {
    /// The underlying queueing result.
    pub queue: QueueResult,
    /// Number of full analyzer runs performed.
    pub full_runs: usize,
    /// Number of runs shortened thanks to global information.
    pub shortened_runs: usize,
    /// Offered utilization of the farm over the horizon.
    pub utilization: f64,
    /// Simulation horizon in seconds.
    pub horizon_s: f64,
}

impl FarmResult {
    /// Mean reaction time in minutes (the Fig. 13/14 y-axis).
    pub fn mean_reaction_minutes(&self) -> f64 {
        self.queue.mean_reaction_s() / 60.0
    }

    /// True when the farm kept up: utilization below one and acceptable
    /// waiting (the paper cuts its curves at a 10-minute wait).
    pub fn is_stable(&self, max_wait_s: f64) -> bool {
        self.utilization < 1.0 && self.queue.mean_waiting_s() <= max_wait_s
    }
}

/// The profiling farm.
#[derive(Debug, Clone)]
pub struct ProfilerFarm {
    config: FarmConfig,
}

impl ProfilerFarm {
    /// Creates a farm with the given configuration.
    ///
    /// # Panics
    /// Panics on zero servers, a fraction outside `[0, 1]`, or non-positive
    /// service times.
    pub fn new(config: FarmConfig) -> Self {
        assert!(config.servers > 0, "need at least one profiling server");
        assert!(
            (0.0..=1.0).contains(&config.interference_fraction),
            "interference fraction must be in [0, 1]"
        );
        assert!(
            config.full_service_mean_s > 0.0,
            "service time must be positive"
        );
        assert!(
            config.known_app_service_s > 0.0,
            "shortened service time must be positive"
        );
        assert!(
            config.full_service_jitter_s >= 0.0
                && config.full_service_jitter_s < config.full_service_mean_s,
            "jitter must be non-negative and below the mean"
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// Runs the farm over a VM-arrival stream spanning `horizon_s` seconds.
    pub fn run(&self, arrivals: &[VmArrival], horizon_s: f64) -> FarmResult {
        assert!(horizon_s > 0.0, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut seen_apps = std::collections::HashSet::new();
        let mut jobs = Vec::new();
        let mut full_runs = 0usize;
        let mut shortened_runs = 0usize;
        for arrival in arrivals {
            // Draw both random values for every arrival so that whether a VM
            // undergoes interference is independent of the configuration
            // (the "with" and "without" global-information runs then see the
            // exact same interference events, as in a paired experiment).
            let interferes = rng.gen_range(0.0..1.0) < self.config.interference_fraction;
            let jitter = if self.config.full_service_jitter_s > 0.0 {
                rng.gen_range(
                    -self.config.full_service_jitter_s..=self.config.full_service_jitter_s,
                )
            } else {
                0.0
            };
            if !interferes {
                continue;
            }
            let known = self.config.use_global_information && seen_apps.contains(&arrival.app_rank);
            let service = if known {
                shortened_runs += 1;
                self.config.known_app_service_s
            } else {
                full_runs += 1;
                seen_apps.insert(arrival.app_rank);
                self.config.full_service_mean_s + jitter
            };
            jobs.push(Job {
                arrival_s: arrival.arrival_s,
                service_s: service,
            });
        }
        let queue = simulate_queue(&jobs, self.config.servers);
        let utilization = queue.utilization(self.config.servers, horizon_s);
        FarmResult {
            queue,
            full_runs,
            shortened_runs,
            utilization,
            horizon_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::arrivals::{generate_arrivals, ArrivalModel};

    fn arrivals(popularity: Option<(usize, f64)>) -> (Vec<VmArrival>, f64) {
        let horizon_days = 3.0;
        (
            generate_arrivals(1_000.0, horizon_days, ArrivalModel::Poisson, popularity, 11),
            horizon_days * 86_400.0,
        )
    }

    #[test]
    fn four_servers_handle_twenty_percent_interference_within_minutes() {
        // The paper's headline scalability claim (§5.5): four profiling
        // servers give a ~4-minute reaction time at a 20% interference rate.
        let (stream, horizon) = arrivals(None);
        let farm = ProfilerFarm::new(FarmConfig {
            servers: 4,
            interference_fraction: 0.2,
            ..Default::default()
        });
        let result = farm.run(&stream, horizon);
        assert!(result.is_stable(600.0));
        assert!(
            result.mean_reaction_minutes() < 6.0,
            "reaction {} min",
            result.mean_reaction_minutes()
        );
    }

    #[test]
    fn more_servers_reduce_reaction_time() {
        let (stream, horizon) = arrivals(None);
        let mut previous = f64::INFINITY;
        for servers in [2, 4, 8, 16] {
            let farm = ProfilerFarm::new(FarmConfig {
                servers,
                interference_fraction: 0.6,
                ..Default::default()
            });
            let result = farm.run(&stream, horizon);
            assert!(
                result.queue.mean_reaction_s() <= previous + 1e-9,
                "reaction time increased when adding servers"
            );
            previous = result.queue.mean_reaction_s();
        }
    }

    #[test]
    fn higher_interference_fraction_increases_load() {
        let (stream, horizon) = arrivals(None);
        let low = ProfilerFarm::new(FarmConfig {
            interference_fraction: 0.1,
            ..Default::default()
        })
        .run(&stream, horizon);
        let high = ProfilerFarm::new(FarmConfig {
            interference_fraction: 0.9,
            ..Default::default()
        })
        .run(&stream, horizon);
        assert!(high.utilization > low.utilization);
        assert!(high.full_runs > low.full_runs);
    }

    #[test]
    fn global_information_shortens_repeat_analyses() {
        let (stream, horizon) = arrivals(Some((200, 1.5)));
        let without = ProfilerFarm::new(FarmConfig {
            use_global_information: false,
            interference_fraction: 0.6,
            servers: 2,
            ..Default::default()
        })
        .run(&stream, horizon);
        let with = ProfilerFarm::new(FarmConfig {
            use_global_information: true,
            interference_fraction: 0.6,
            servers: 2,
            ..Default::default()
        })
        .run(&stream, horizon);
        assert_eq!(with.shortened_runs + with.full_runs, without.full_runs);
        assert!(with.shortened_runs > 0);
        assert!(
            with.queue.mean_reaction_s() < without.queue.mean_reaction_s(),
            "global info must improve reaction time ({} vs {})",
            with.queue.mean_reaction_s(),
            without.queue.mean_reaction_s()
        );
    }

    #[test]
    fn zero_interference_produces_no_jobs() {
        let (stream, horizon) = arrivals(None);
        let farm = ProfilerFarm::new(FarmConfig {
            interference_fraction: 0.0,
            ..Default::default()
        });
        let result = farm.run(&stream, horizon);
        assert_eq!(result.full_runs, 0);
        assert_eq!(result.queue.outcomes.len(), 0);
    }

    #[test]
    #[should_panic(expected = "interference fraction")]
    fn invalid_fraction_rejected() {
        ProfilerFarm::new(FarmConfig {
            interference_fraction: 1.5,
            ..Default::default()
        });
    }
}
