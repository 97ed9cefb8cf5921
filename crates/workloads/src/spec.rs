//! The workload abstraction shared by every model in this crate.
//!
//! A workload is anything that, each epoch, turns an offered load level into
//! an intrinsic [`ResourceDemand`].  The cluster simulator attaches one
//! workload to each VM; DeepDive itself never sees this trait — only the
//! counters the hardware substrate derives from the demands.

use hwsim::ResourceDemand;
use rand::rngs::StdRng;

/// Identifies "the same application code" across VMs.
///
/// DeepDive's global information check (§4.1) relies on knowing which VMs
/// run the same application — "a reasonable assumption, since VMs can be
/// rented in a pre-configured state".  Two VMs share an `AppId` exactly when
/// they execute the same workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u64);

/// Coarse classification of workloads, used by the evaluation harness when
/// pairing victims with the stress workload that pressures the resource they
/// depend on (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Latency-sensitive key-value serving (memory-subsystem bound).
    DataServing,
    /// Index search (CPU and disk bound).
    WebSearch,
    /// MapReduce-style batch analytics (CPU and network bound).
    DataAnalytics,
    /// Synthetic aggressor targeting the memory subsystem.
    MemoryStress,
    /// Synthetic aggressor targeting the network interface.
    NetworkStress,
    /// Synthetic aggressor targeting the disk.
    DiskStress,
    /// Synthetic benchmark clone generated by DeepDive's placement manager.
    SyntheticClone,
}

/// A per-epoch demand generator for one VM.
pub trait Workload {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// Application identity for the global-information check.
    fn app_id(&self) -> AppId;

    /// Workload classification.
    fn kind(&self) -> WorkloadKind;

    /// Produces the intrinsic demand for the next epoch at the given load
    /// level.  `load` is a fraction of the workload's maximum sustainable
    /// request rate (clamped to `[0, 1]` by implementations); the RNG is
    /// used for small per-epoch variation and is owned by the caller so that
    /// the whole simulation stays deterministic under a fixed seed.
    fn next_demand(&mut self, load: f64, rng: &mut StdRng) -> ResourceDemand;

    /// Nominal requests (or tasks) per second at `load = 1.0`; used by the
    /// client emulator to convert achieved work into throughput numbers.
    fn peak_request_rate(&self) -> f64;

    /// True when [`Workload::next_demand`] at this load is a pure function
    /// of the workload's configuration: the same [`ResourceDemand`] every
    /// epoch, no internal state advanced, no dependence on the RNG draws.
    ///
    /// This is the quiescence contract the sparse epoch engine relies on: a
    /// machine whose VMs are all static at their current loads can reuse its
    /// last resolved reports bit-identically instead of resolving again.  An
    /// implementation may only return `true` if, at the given load, repeated
    /// `next_demand` calls would return identical demands **and** leave the
    /// workload unchanged (so skipping the calls entirely is unobservable).
    /// Phase-cycling or otherwise stateful workloads must return `false`.
    ///
    /// The default is the always-safe `false` (never skip).
    fn demand_is_static_at(&self, load: f64) -> bool {
        let _ = load;
        false
    }
}

/// Small helper shared by the concrete workloads: clamps the load to `[0,1]`
/// and applies a deterministic ±`jitter` relative perturbation drawn from
/// the caller's RNG, modelling epoch-to-epoch measurement noise.
pub fn effective_load(load: f64, jitter: f64, rng: &mut StdRng) -> f64 {
    use rand::Rng;
    let load = load.clamp(0.0, 1.0);
    if jitter <= 0.0 {
        return load;
    }
    let noise = rng.gen_range(-jitter..=jitter);
    (load * (1.0 + noise)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn effective_load_clamps_and_jitters_deterministically() {
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let a = effective_load(0.5, 0.05, &mut rng1);
        let b = effective_load(0.5, 0.05, &mut rng2);
        assert_eq!(a, b);
        assert!((0.45..=0.55).contains(&a));
        assert_eq!(effective_load(2.0, 0.0, &mut rng1), 1.0);
        assert_eq!(effective_load(-1.0, 0.0, &mut rng1), 0.0);
    }

    #[test]
    fn app_ids_compare_by_value() {
        assert_eq!(AppId(3), AppId(3));
        assert_ne!(AppId(3), AppId(4));
    }

    #[test]
    fn static_at_claims_hold_for_every_concrete_workload() {
        use crate::{
            DataAnalytics, DataServing, DiskStress, MemoryStress, NetworkStress, WebSearch,
        };
        // (workload, load at which it claims to be static)
        let cases: Vec<(Box<dyn Workload>, f64)> = vec![
            (Box::new(DataServing::with_defaults(AppId(1))), 0.0),
            (Box::new(WebSearch::with_defaults(AppId(2))), 0.0),
            (Box::new(DataAnalytics::master(AppId(3))), 0.0),
            (Box::new(MemoryStress::new(AppId(4), 256.0)), 0.8),
            (Box::new(NetworkStress::new(AppId(5), 300.0)), 0.5),
            (Box::new(DiskStress::new(AppId(6), 5.0)), 1.0),
        ];
        for (mut w, load) in cases {
            assert!(w.demand_is_static_at(load), "{} not static", w.name());
            // The contract: identical demands from independent RNG states.
            let a = w.next_demand(load, &mut StdRng::seed_from_u64(1));
            let b = w.next_demand(load, &mut StdRng::seed_from_u64(999));
            assert_eq!(a, b, "{} demand varied at a static load", w.name());
        }
    }

    #[test]
    fn loaded_cloud_workloads_and_analytics_workers_are_never_static() {
        use crate::{DataAnalytics, DataServing, WebSearch};
        assert!(!DataServing::with_defaults(AppId(1)).demand_is_static_at(0.5));
        assert!(!WebSearch::with_defaults(AppId(2)).demand_is_static_at(0.5));
        let worker = DataAnalytics::worker(AppId(3));
        assert!(!worker.demand_is_static_at(0.0), "workers cycle phases");
        // And rightly so: a worker's demand shape changes across epochs even
        // at zero load, because the map/shuffle/reduce clock keeps ticking.
        let mut w = DataAnalytics::worker(AppId(3));
        let mut rng = StdRng::seed_from_u64(7);
        let demands: Vec<_> = (0..12).map(|_| w.next_demand(0.0, &mut rng)).collect();
        assert!(demands.windows(2).any(|d| d[0] != d[1]));
    }
}
