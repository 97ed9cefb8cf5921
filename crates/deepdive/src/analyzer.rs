//! The interference analyzer (§4.2, Algorithm 2).
//!
//! When the warning system cannot explain a behaviour, the analyzer obtains
//! ground truth: it clones the VM into the sandbox, replays the duplicated
//! request stream (the controller's per-VM window), and compares the
//! *instructions retired per second* in production against isolation:
//!
//! ```text
//! Degradation = 1 − Inst_production / Inst_isolation
//! ```
//!
//! If the degradation stays below the operator-defined performance
//! threshold, the alarm was false: the production behaviour is genuinely
//! normal (e.g. a workload change) and is added to the repository.  If it
//! exceeds the threshold, the analyzer builds the augmented CPI stack for
//! both environments, attributes the degradation to the culprit resource,
//! and hands the case to the placement manager.
//!
//! The analyzer itself is machine-model agnostic: every analysis interprets
//! counters with the datasheet constants of the sandbox pool it is handed,
//! because the comparison is only sound when the clone runs on the same
//! hardware model as the production host.  On heterogeneous clusters the
//! controller routes each analysis to the matching pool of a
//! [`cloudsim::SandboxFleet`]; handing the analyzer a pool of a *different*
//! model (the old single-pool path) silently biases the estimate — e.g. an
//! i7-hosted victim replayed in a Xeon sandbox under-detects whenever the
//! i7 is the faster machine for the workload.

use cloudsim::sandbox::Sandbox;
use cloudsim::VmId;
use hwsim::{CounterSnapshot, ResourceDemand};

use crate::cpi_stack::{CpiStack, Resource};
use crate::metrics::BehaviorVector;

/// Outcome of one analyzer invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResult {
    /// The VM that was analyzed.
    pub vm_id: VmId,
    /// Estimated performance degradation in `[0, 1]` (0.3 = the VM retires
    /// 30% fewer instructions per unit time than in isolation).
    pub degradation: f64,
    /// True when the degradation exceeded the operator threshold, i.e. real
    /// interference was confirmed.
    pub interference_confirmed: bool,
    /// Per-resource degradation factors (`Factor_r` of §4.2).
    pub factors: Vec<(Resource, f64)>,
    /// The dominant culprit resource when interference was confirmed.
    pub culprit: Option<Resource>,
    /// The mean behaviour observed in isolation — a verified normal
    /// behaviour the warning system can learn from.
    pub isolation_behavior: BehaviorVector,
    /// Per-epoch isolation behaviours over the replayed window; the analyzer
    /// hands the warning system this whole *set* of normal behaviours
    /// (the "set of normal VM behaviors S" of §4.1).
    pub isolation_behaviors: Vec<BehaviorVector>,
    /// The behaviour observed in production (useful as a cannot-link
    /// constraint when interference was confirmed).
    pub production_behavior: BehaviorVector,
    /// Sandbox time consumed by this analysis, in seconds (cloning overhead
    /// plus the replayed window).
    pub profiling_seconds: f64,
}

/// The interference analyzer.
#[derive(Debug, Clone)]
pub struct InterferenceAnalyzer {
    /// Operator-defined performance threshold: degradations below this are
    /// treated as acceptable / false alarms (§4.2).
    pub performance_threshold: f64,
}

impl InterferenceAnalyzer {
    /// Creates an analyzer.
    ///
    /// # Panics
    /// Panics if the threshold is not a fraction in `(0, 1)`.
    pub fn new(performance_threshold: f64) -> Self {
        assert!(
            performance_threshold > 0.0 && performance_threshold < 1.0,
            "performance threshold must be a fraction in (0, 1)"
        );
        Self {
            performance_threshold,
        }
    }

    /// Runs the full analysis for one VM.
    ///
    /// * `production_counters` — the per-epoch counters observed in
    ///   production over the analysis window.
    /// * `replayed_demands` — the request stream recorded over the same
    ///   window (what the sandbox clone executes).
    /// * `sandbox` — the sandboxed environment to run the clone in.  Its
    ///   machine model supplies the datasheet constants for both CPI stacks,
    ///   so it must match the victim's production host for the comparison to
    ///   be unbiased (the controller guarantees this on spec-matched
    ///   fleets).
    /// * `vcpus` — the VM's vCPU allocation (the clone gets the same).
    ///
    /// # Panics
    /// Panics if the production window is empty.
    pub fn analyze(
        &self,
        vm_id: VmId,
        production_counters: &[CounterSnapshot],
        replayed_demands: &[ResourceDemand],
        sandbox: &Sandbox,
        vcpus: usize,
    ) -> AnalysisResult {
        assert!(
            !production_counters.is_empty(),
            "analysis needs at least one production epoch"
        );
        assert!(
            !replayed_demands.is_empty(),
            "analysis needs a recorded request stream to replay"
        );

        // Ground truth: run the clone in isolation on the duplicated stream.
        let isolation = sandbox.run_in_isolation(vm_id, replayed_demands, vcpus);

        // Average counters over both windows.
        let production_mean = mean_counters(production_counters);
        let isolation_mean = mean_counters(&isolation.counters);

        // Degradation from the instructions-retired rates (§4.2).
        let inst_prod = production_mean.inst_retired;
        let inst_iso = isolation_mean.inst_retired;
        let degradation = if inst_iso <= 0.0 {
            0.0
        } else {
            (1.0 - inst_prod / inst_iso).clamp(0.0, 1.0)
        };

        // Augmented CPI stacks and per-resource factors, interpreted with
        // the sandbox pool's machine model (== the host's on matched fleets).
        let stack_prod = CpiStack::from_counters(&production_mean, &sandbox.spec);
        let stack_iso = CpiStack::from_counters(&isolation_mean, &sandbox.spec);
        let factors = CpiStack::degradation_factors(&stack_prod, &stack_iso);
        let interference_confirmed = degradation >= self.performance_threshold;
        let culprit = if interference_confirmed {
            CpiStack::dominant_culprit(&stack_prod, &stack_iso).map(|(r, _)| r)
        } else {
            None
        };

        AnalysisResult {
            vm_id,
            degradation,
            interference_confirmed,
            factors,
            culprit,
            isolation_behavior: BehaviorVector::from_counters(&isolation_mean),
            isolation_behaviors: isolation
                .counters
                .iter()
                .map(BehaviorVector::from_counters)
                .collect(),
            production_behavior: BehaviorVector::from_counters(&production_mean),
            profiling_seconds: isolation.profiling_seconds,
        }
    }
}

/// Element-wise mean of a slice of counter snapshots.
fn mean_counters(counters: &[CounterSnapshot]) -> CounterSnapshot {
    if counters.is_empty() {
        return CounterSnapshot::zero();
    }
    counters
        .iter()
        .fold(CounterSnapshot::zero(), |acc, c| acc.add(c))
        .scale(1.0 / counters.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::contention::PlacedDemand;
    use hwsim::{EpochResolver, MachineSpec};

    fn victim_demand() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(2.0e9)
            .working_set_mb(8.0)
            .l1_mpki(25.0)
            .llc_mpki_solo(1.0)
            .locality(0.3)
            .parallelism(2.0)
            .build()
    }

    fn cache_aggressor() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(2.5e9)
            .working_set_mb(512.0)
            .l1_mpki(70.0)
            .llc_mpki_solo(45.0)
            .locality(0.0)
            .parallelism(2.0)
            .build()
    }

    fn production_counters(with_aggressor: bool, epochs: usize) -> Vec<CounterSnapshot> {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let mut placements = vec![PlacedDemand::new(1, victim_demand(), 2, 0)];
        if with_aggressor {
            placements.push(PlacedDemand::new(2, cache_aggressor(), 2, 0));
        }
        (0..epochs)
            .map(|_| resolver.resolve(&placements)[0].counters)
            .collect()
    }

    fn analyzer() -> InterferenceAnalyzer {
        InterferenceAnalyzer::new(0.15)
    }

    #[test]
    fn interference_is_confirmed_and_attributed() {
        let sandbox = Sandbox::xeon_pool(2);
        let result = analyzer().analyze(
            VmId(1),
            &production_counters(true, 5),
            &vec![victim_demand(); 5],
            &sandbox,
            2,
        );
        assert!(
            result.interference_confirmed,
            "degradation {}",
            result.degradation
        );
        assert!(result.degradation > 0.15);
        assert!(
            matches!(
                result.culprit,
                Some(Resource::CacheMemory) | Some(Resource::MemoryBus)
            ),
            "culprit {:?}",
            result.culprit
        );
        assert!(result.profiling_seconds > 0.0);
        assert!(result.isolation_behavior.is_well_formed());
    }

    #[test]
    fn clean_production_is_a_false_alarm() {
        let sandbox = Sandbox::xeon_pool(2);
        let result = analyzer().analyze(
            VmId(1),
            &production_counters(false, 5),
            &vec![victim_demand(); 5],
            &sandbox,
            2,
        );
        assert!(!result.interference_confirmed);
        assert!(
            result.degradation < 0.1,
            "degradation {}",
            result.degradation
        );
        assert_eq!(result.culprit, None);
    }

    #[test]
    fn degradation_estimate_tracks_ground_truth_loss() {
        // Ground truth: achieved fraction of the victim under interference.
        let contended = EpochResolver::new(MachineSpec::xeon_x5472()).resolve(&[
            PlacedDemand::new(1, victim_demand(), 2, 0),
            PlacedDemand::new(2, cache_aggressor(), 2, 0),
        ]);
        let truth = 1.0 - contended[0].achieved_fraction;

        let sandbox = Sandbox::xeon_pool(2);
        let result = analyzer().analyze(
            VmId(1),
            &production_counters(true, 5),
            &vec![victim_demand(); 5],
            &sandbox,
            2,
        );
        let error = (result.degradation - truth).abs();
        assert!(
            error < 0.10,
            "estimated {} vs ground truth {} (error {error})",
            result.degradation,
            truth
        );
    }

    #[test]
    fn isolation_behavior_matches_uncontended_production() {
        // The behaviour learned from the sandbox must look like the VM's own
        // uncontended behaviour, so the warning system can reuse it.
        let sandbox = Sandbox::xeon_pool(2);
        let result = analyzer().analyze(
            VmId(1),
            &production_counters(false, 3),
            &vec![victim_demand(); 3],
            &sandbox,
            2,
        );
        let deviation = result
            .production_behavior
            .max_relative_deviation(&result.isolation_behavior);
        assert!(deviation < 0.1, "deviation {deviation}");
    }

    #[test]
    #[should_panic(expected = "at least one production epoch")]
    fn empty_production_window_rejected() {
        let sandbox = Sandbox::xeon_pool(1);
        analyzer().analyze(VmId(1), &[], &[victim_demand()], &sandbox, 2);
    }

    #[test]
    fn mean_counters_average_the_window() {
        let run = Sandbox::xeon_pool(1).run_in_isolation(VmId(1), &vec![victim_demand(); 2], 2);
        let mean = mean_counters(&run.counters);
        assert!((mean.inst_retired - run.counters[0].inst_retired).abs() < 1e-3);
        assert_eq!(mean_counters(&[]), CounterSnapshot::zero());
    }

    #[test]
    #[should_panic(expected = "performance threshold")]
    fn invalid_threshold_rejected() {
        InterferenceAnalyzer::new(1.5);
    }
}
