//! The VM-placement manager (§4.3).
//!
//! Once the analyzer confirms interference and names a culprit resource, the
//! placement manager:
//!
//! 1. selects the VM that uses the culprit resource most aggressively on the
//!    affected machine (the paper's default mitigation policy),
//! 2. runs a synthetic clone of that VM on every candidate destination
//!    machine — *without* migrating anything — to predict how much
//!    interference the move would cause there, and
//! 3. recommends the destination with the least predicted interference, or
//!    nothing if every candidate would be worse than an operator-set limit.
//!
//! Candidate evaluation works on the candidates' most recent per-VM demand
//! snapshots, each at its VM's own vCPU width: placing the clone's demand
//! next to them and resolving one epoch of contention is exactly "running
//! the benchmark for a short time on another machine (with other VMs
//! present)".
//!
//! Each [`CandidateMachine`] names its own [`MachineSpec`], so on a
//! heterogeneous cluster the clone is evaluated against every destination's
//! *actual* hardware model — a memory-bus hog predicts far worse on an
//! FSB-attached Xeon than on a QuickPath i7, and the manager sees that.
//! A decision over a whole fleet resolves through one reused
//! [`EpochResolver`] per machine model, and the clone's uncontended
//! baseline is computed once per model, not once per candidate.
//! A decision resolves only the candidates that can still win: a lower bound on
//! each prediction skips the rest (`PlacementManager::decide` states the
//! bound, the visit order and the cost).

use cloudsim::{PmId, Scheduler, Topology, VmId};
use hwsim::contention::{EpochOutcome, PlacedDemand};
use hwsim::{CounterSnapshot, EpochResolver, MachineSpec, ResourceDemand, EPOCH_SECONDS};

use crate::cpi_stack::Resource;
use crate::metrics::BehaviorVector;
use crate::synthetic::SyntheticBenchmark;

/// A VM on the interference-afflicted machine, as seen by the placement
/// manager: its latest counters (for the aggressiveness ranking) and its
/// latest behaviour (for the synthetic clone).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResidentVm {
    /// The VM.
    pub vm_id: VmId,
    /// Its most recent counter snapshot.
    pub counters: CounterSnapshot,
    /// Its most recent normalized behaviour.
    pub behavior: BehaviorVector,
    /// Its most recent intrinsic demand (used when the VM stays put and a
    /// clone is evaluated next to it).
    pub demand: ResourceDemand,
    /// vCPUs allocated to the VM.
    pub vcpus: usize,
}

/// A candidate destination machine.  Borrows its model and its residents'
/// demands: a fleet-wide decision builds one of these per machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateMachine<'a> {
    /// The machine.
    pub pm_id: PmId,
    /// The machine's hardware model — interference is predicted against the
    /// destination's own spec, not some fleet-wide constant.
    pub spec: &'a MachineSpec,
    /// Latest demands of the VMs already hosted there.
    pub resident_demands: &'a [ResourceDemand],
    /// vCPUs of each resident, parallel to `resident_demands` (a length
    /// mismatch panics): a resident is resolved at its own width, as the
    /// engine resolves it.
    pub resident_vcpus: &'a [usize],
}

/// The placement manager.
#[derive(Debug, Clone)]
pub struct PlacementManager {
    /// Maximum predicted interference the manager accepts at a destination.
    pub acceptable_interference: f64,
    /// Failure-domain spread preference: with `Some(topology)`, acceptable
    /// destinations in a *different* power domain than the afflicted
    /// machine win over same-domain ones (interference still breaks ties
    /// within each group).  `None` picks purely by predicted interference.
    pub spread: Option<Topology>,
}

impl PlacementManager {
    /// Creates a placement manager.  The manager is machine-model agnostic:
    /// every prediction resolves contention against the candidate machine's
    /// own [`MachineSpec`].
    ///
    /// # Panics
    /// Panics if the acceptable-interference limit is not a fraction in
    /// `(0, 1]`.
    pub fn new(acceptable_interference: f64) -> Self {
        assert!(
            acceptable_interference > 0.0 && acceptable_interference <= 1.0,
            "acceptable interference must be a fraction in (0, 1]"
        );
        Self {
            acceptable_interference,
            spread: None,
        }
    }

    /// Enables the failure-domain spread preference under `topology`.
    pub(crate) fn with_spread(mut self, topology: Topology) -> Self {
        self.spread = Some(topology);
        self
    }

    /// Ranks a VM's aggressiveness on a resource from its normalized
    /// behaviour.
    ///
    /// Normalizing by instructions retired matters here: when a shared
    /// resource saturates, every co-located VM ends up with roughly the same
    /// *absolute* throughput on that resource (they share it), so absolute
    /// counters cannot tell victim from culprit.  Per-instruction pressure
    /// can: the aggressor hammers the resource on every instruction it
    /// retires, the victim does not.
    pub(crate) fn aggressiveness(behavior: &BehaviorVector, resource: Resource) -> f64 {
        // Dimension indices follow `metrics::DIMENSION_NAMES`.
        match resource {
            Resource::Core => behavior.values[0],        // cpi
            Resource::CacheMemory => behavior.values[2], // llc_lines_in_pki
            Resource::MemoryBus => behavior.values[6],   // bus_outstanding_pki
            Resource::Disk => behavior.values[8],        // disk_stall_s_per_gi
            Resource::Network => behavior.values[9],     // net_stall_s_per_gi
        }
    }

    /// Selects the most aggressive VM on the culprit resource; `None` when
    /// there are no residents.
    pub(crate) fn select_aggressor(
        residents: &[ResidentVm],
        culprit: Resource,
    ) -> Option<&ResidentVm> {
        residents.iter().max_by(|a, b| {
            Self::aggressiveness(&a.behavior, culprit)
                .total_cmp(&Self::aggressiveness(&b.behavior, culprit))
        })
    }

    /// Predicts the interference the aggressor's synthetic clone would cause
    /// on one candidate machine: place the clone next to the candidate's
    /// residents, resolve one epoch *on the candidate's own hardware model*,
    /// and report the worst fractional slowdown relative to each workload
    /// running uncontended there.
    pub fn predict_on_candidate(
        &self,
        clone_demand: &ResourceDemand,
        clone_vcpus: usize,
        candidate: &CandidateMachine,
    ) -> f64 {
        let mut predictor = ClonePredictor::new(candidate.spec, clone_demand, clone_vcpus);
        let clone_term = predictor.joint(candidate);
        predictor.finish(candidate, clone_term, |_| true)
    }

    /// The destination for a confirmed interference case, or `None` when
    /// every candidate would suffer more than the acceptable interference
    /// limit.
    ///
    /// * `aggressor` — the VM to move ([`PlacementManager::select_aggressor`]).
    /// * `source` — the afflicted machine itself (the migration source;
    ///   only consulted by the spread preference).
    /// * `candidates` — possible destination machines, each able to admit
    ///   the aggressor (the afflicted machine itself must not be among them).
    /// * `benchmark` — the trained synthetic benchmark for this server type.
    ///
    /// Ties in predicted interference go to the lowest machine id.  The
    /// answer is the minimum of a total order, so the visit order cannot
    /// change it.  A prediction is the worst of several slowdowns, each at
    /// least 0, so a candidate whose `(0.0, id)` sorts after the incumbent
    /// costs no resolve.  The joint resolve (residents plus clone) comes
    /// first; the clone's slowdown then bounds the prediction from below,
    /// and each resident's solo baseline is resolved only while the worst
    /// slowdown so far is within the limit and sorts before the incumbent.
    ///
    /// Residents-free candidates are visited first, then the rest in the
    /// order given.  With candidates in id order a decision costs one
    /// resolve per machine model for the clone's baseline, one for the
    /// lowest-id empty candidate (it predicts 0.0, so no higher id can win),
    /// one joint resolve per candidate that can still win, and solo
    /// baselines only where the clone's slowdown allows.
    pub(crate) fn decide(
        &self,
        aggressor: &ResidentVm,
        source: PmId,
        candidates: &[CandidateMachine],
        benchmark: &SyntheticBenchmark,
    ) -> Option<PmId> {
        // Build the synthetic clone that mimics the aggressor at its
        // *demanded* work rate. The counters' inst_retired is throttled by
        // the very contention that triggered this decision, so pinning the
        // clone to it would underestimate the load the VM brings to an
        // uncontended destination.
        let clone_inputs = benchmark.mimic(&aggressor.behavior, aggressor.demand.instructions);
        self.search(&clone_inputs.demand(), aggressor.vcpus, source, candidates)
            .0
    }

    /// [`PlacementManager::decide`] once the clone is built: the destination
    /// and the number of contention resolves it took.
    fn search(
        &self,
        clone_demand: &ResourceDemand,
        clone_vcpus: usize,
        source: PmId,
        candidates: &[CandidateMachine],
    ) -> (Option<PmId>, usize) {
        // One predictor per machine model among the candidates (a fleet
        // has a handful), so resolver scratch and the clone's solo baseline
        // are shared by every candidate of a model.
        let mut predictors: Vec<ClonePredictor> = Vec::new();
        // The least interfering acceptable candidate (lowest id on ties),
        // kept apart for candidates outside the source's power domain.
        // With a spread topology an acceptable cross-domain destination
        // beats any same-domain one — the migration doubles as a
        // failure-domain spread move — so once one is found, same-domain
        // candidates cannot change the answer.
        let cross_domain = |pm: PmId| {
            self.spread
                .is_some_and(|t| t.domain_of(pm) != t.domain_of(source))
        };
        let (mut best, mut best_cross_domain) = (None, None);
        let empty = candidates.iter().filter(|c| c.resident_demands.is_empty());
        let occupied = candidates.iter().filter(|c| !c.resident_demands.is_empty());
        for c in empty.chain(occupied) {
            let incumbent = if cross_domain(c.pm_id) {
                &mut best_cross_domain
            } else if best_cross_domain.is_some() {
                continue;
            } else {
                &mut best
            };
            // Whether a candidate predicting at least `floor` can still
            // become the incumbent.  Every prediction is at least 0.
            let wins = |floor: f64| {
                floor <= self.acceptable_interference && !out_of_reach(floor, c.pm_id, *incumbent)
            };
            if !wins(0.0) {
                continue;
            }
            let known = predictors.iter().position(|p| p.resolver.spec() == c.spec);
            let at = known.unwrap_or_else(|| {
                predictors.push(ClonePredictor::new(c.spec, clone_demand, clone_vcpus));
                predictors.len() - 1
            });
            let clone_term = predictors[at].joint(c);
            let predicted = predictors[at].finish(c, clone_term, wins);
            if wins(predicted) {
                *incumbent = Some((predicted, c.pm_id));
            }
        }
        let resolves = predictors.iter().map(|p| p.resolves).sum();
        (best_cross_domain.or(best).map(|(_, pm)| pm), resolves)
    }
}

/// Whether a candidate predicting at least `floor` sorts after `incumbent`
/// — by prediction, then machine id — whatever it predicts.
fn out_of_reach(floor: f64, pm: PmId, incumbent: Option<(f64, PmId)>) -> bool {
    incumbent.is_some_and(|(predicted, id)| floor > predicted || (floor == predicted && pm > id))
}

/// The synthetic clone placed on machines of one model: the model's
/// resolver and scratch, and the clone's uncontended baseline there.
struct ClonePredictor {
    resolver: EpochResolver,
    clone_demand: ResourceDemand,
    clone_vcpus: usize,
    /// The clone's achieved fraction alone on an idle machine of this model.
    clone_solo: f64,
    placements: Vec<PlacedDemand>,
    /// Outcomes of the last joint resolve: residents in slot order, clone
    /// last.
    joint: Vec<EpochOutcome>,
    /// Contention resolves so far, the clone's baseline included.
    resolves: usize,
}

impl ClonePredictor {
    fn new(spec: &MachineSpec, clone_demand: &ResourceDemand, clone_vcpus: usize) -> Self {
        let mut predictor = Self {
            resolver: EpochResolver::new(spec.clone()),
            clone_demand: clone_demand.clone(),
            clone_vcpus,
            clone_solo: 0.0,
            placements: Vec::new(),
            joint: Vec::new(),
            resolves: 0,
        };
        predictor.clone_solo = predictor.solo_fraction(clone_demand, clone_vcpus);
        predictor
    }

    /// Lands the clone beside `candidate`'s residents, resolves one epoch,
    /// and returns the clone's own slowdown against running alone — a lower
    /// bound on the prediction [`ClonePredictor::finish`] completes.
    fn joint(&mut self, candidate: &CandidateMachine) -> f64 {
        debug_assert!(self.resolver.spec() == candidate.spec);
        assert_eq!(
            candidate.resident_demands.len(),
            candidate.resident_vcpus.len(),
            "every resident needs a width"
        );
        self.placements.clear();
        for (i, (demand, &vcpus)) in candidate
            .resident_demands
            .iter()
            .zip(candidate.resident_vcpus)
            .enumerate()
        {
            self.placements.push(PlacedDemand::new(
                i as u64,
                demand.clone(),
                vcpus,
                Scheduler::default().cache_group_for_slot(candidate.spec, i),
            ));
        }
        let clone_slot = self.placements.len();
        self.placements.push(PlacedDemand::new(
            u64::MAX,
            self.clone_demand.clone(),
            self.clone_vcpus,
            Scheduler::default().cache_group_for_slot(candidate.spec, clone_slot),
        ));
        self.resolves += 1;
        self.resolver
            .resolve_into(&self.placements, EPOCH_SECONDS, &mut self.joint);
        slowdown(self.clone_solo, self.joint[clone_slot].achieved_fraction)
    }

    /// Worst slowdown among `candidate`'s residents, in slot order, and
    /// the clone (`clone_term` from [`ClonePredictor::joint`]), last.  Stops
    /// resolving solo baselines, and returns the worst so far, once `wins`
    /// fails for it.
    fn finish(
        &mut self,
        candidate: &CandidateMachine,
        clone_term: f64,
        wins: impl Fn(f64) -> bool,
    ) -> f64 {
        let mut worst = 0.0;
        for (i, (demand, &vcpus)) in candidate
            .resident_demands
            .iter()
            .zip(candidate.resident_vcpus)
            .enumerate()
        {
            if !wins(f64::max(worst, clone_term)) {
                break;
            }
            let solo = self.solo_fraction(demand, vcpus);
            worst = f64::max(worst, slowdown(solo, self.joint[i].achieved_fraction));
        }
        f64::max(worst, clone_term)
    }

    /// `demand`'s achieved fraction alone on an idle machine of this model.
    fn solo_fraction(&mut self, demand: &ResourceDemand, vcpus: usize) -> f64 {
        self.resolves += 1;
        self.resolver
            .resolve_solo(0, demand, vcpus)
            .achieved_fraction
    }
}

/// Fractional slowdown of a workload achieving `achieved` against `solo`
/// alone; 0 for one that makes no progress even alone.
fn slowdown(solo: f64, achieved: f64) -> f64 {
    if solo <= 0.0 {
        0.0
    } else {
        ((solo - achieved) / solo).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::ResourceDemand;

    fn counters_with(llc: f64, net_stall: f64, disk_stall: f64) -> CounterSnapshot {
        CounterSnapshot {
            cpu_unhalted: 3.0e9,
            inst_retired: 2.0e9,
            l2_lines_in: llc,
            net_stall_seconds: net_stall,
            disk_stall_seconds: disk_stall,
            bus_tran_any: llc,
            ..CounterSnapshot::zero()
        }
    }

    fn quiet_demand() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(1.0e9)
            .working_set_mb(4.0)
            .l1_mpki(12.0)
            .llc_mpki_solo(0.5)
            .parallelism(2.0)
            .build()
    }

    fn busy_memory_demand() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(2.5e9)
            .working_set_mb(512.0)
            .l1_mpki(70.0)
            .llc_mpki_solo(45.0)
            .locality(0.0)
            .parallelism(2.0)
            .build()
    }

    fn resident(id: u64, counters: CounterSnapshot) -> ResidentVm {
        ResidentVm {
            vm_id: VmId(id),
            behavior: BehaviorVector::from_counters(&counters),
            counters,
            demand: quiet_demand(),
            vcpus: 2,
        }
    }

    fn manager() -> PlacementManager {
        PlacementManager::new(0.15)
    }

    /// A candidate whose residents are all 2 vCPUs wide.
    fn candidate<'a>(
        id: u64,
        spec: &'a MachineSpec,
        resident_demands: &'a [ResourceDemand],
    ) -> CandidateMachine<'a> {
        CandidateMachine {
            pm_id: PmId(id),
            spec,
            resident_demands,
            resident_vcpus: &[2; 8][..resident_demands.len()],
        }
    }

    #[test]
    fn aggressor_selection_follows_the_culprit_resource() {
        let cache_hog = resident(1, counters_with(5.0e7, 0.0, 0.0));
        let net_hog = resident(2, counters_with(1.0e6, 0.6, 0.0));
        let disk_hog = resident(3, counters_with(1.0e6, 0.0, 0.7));
        let residents = vec![cache_hog, net_hog, disk_hog];
        let pick =
            |culprit| PlacementManager::select_aggressor(&residents, culprit).map(|vm| vm.vm_id);
        assert_eq!(pick(Resource::CacheMemory), Some(VmId(1)));
        assert_eq!(pick(Resource::Network), Some(VmId(2)));
        assert_eq!(pick(Resource::Disk), Some(VmId(3)));
    }

    #[test]
    fn prediction_is_low_on_an_empty_machine_and_high_on_a_loaded_one() {
        let m = manager();
        let clone_demand = busy_memory_demand();
        let xeon = MachineSpec::xeon_x5472();
        let residents = [busy_memory_demand(), quiet_demand()];
        let empty = candidate(1, &xeon, &[]);
        let loaded = candidate(2, &xeon, &residents);
        let empty_pred = m.predict_on_candidate(&clone_demand, 2, &empty);
        let loaded_pred = m.predict_on_candidate(&clone_demand, 2, &loaded);
        assert!(empty_pred < 0.05, "empty machine prediction {empty_pred}");
        assert!(
            loaded_pred > empty_pred,
            "loaded {loaded_pred} vs empty {empty_pred}"
        );
    }

    #[test]
    fn prediction_respects_the_candidate_machine_model() {
        // The same memory-bus-hungry clone lands next to the same resident
        // on a Xeon (FSB) and an i7 (QuickPath) candidate.  The two machine
        // models must yield materially different predictions — on the Xeon
        // the *solo* baseline is already FSB-throttled, so the relative
        // extra slowdown is far smaller than on the i7, whose clean solo
        // baseline exposes the full cache/bus contention.  A spec-blind
        // manager would report the same number for both.
        let m = manager();
        let clone_demand = busy_memory_demand();
        let residents = [busy_memory_demand()];
        let (xeon_spec, i7_spec) = (MachineSpec::xeon_x5472(), MachineSpec::core_i7_nehalem());
        let xeon = candidate(1, &xeon_spec, &residents);
        let i7 = candidate(2, &i7_spec, &residents);
        let on_xeon = m.predict_on_candidate(&clone_demand, 2, &xeon);
        let on_i7 = m.predict_on_candidate(&clone_demand, 2, &i7);
        assert!(
            (on_xeon - on_i7).abs() > 0.05,
            "spec-blind prediction: xeon {on_xeon} vs i7 {on_i7}"
        );
    }

    #[test]
    fn residents_are_predicted_at_their_own_width() {
        // A 4-vCPU resident beside a disk-heavy 2-vCPU clone on a Xeon.
        // Sized at 2 vCPUs the resident predicted 0.194 — past the 0.15
        // limit, so the destination was rejected.  The expected value
        // (0.090) resolves the machine as the engine would: each VM at its
        // own width, cache groups by slot under the default scheduler, every
        // slowdown against the VM running alone at that width.
        let xeon = MachineSpec::xeon_x5472();
        let resident = ResourceDemand::builder()
            .instructions(4.0e9)
            .parallelism(4.0)
            .disk_read_mb(30.0)
            .build();
        let clone = ResourceDemand::builder()
            .instructions(1.0e9)
            .parallelism(2.0)
            .disk_read_mb(120.0)
            .build();
        let shapes = [(resident.clone(), 4), (clone.clone(), 2)];
        let scheduler = cloudsim::Scheduler::default();
        let mut resolver = EpochResolver::new(xeon.clone());
        let together: Vec<PlacedDemand> = shapes
            .iter()
            .enumerate()
            .map(|(slot, (demand, vcpus))| {
                let group = scheduler.cache_group_for_slot(&xeon, slot);
                PlacedDemand::new(slot as u64, demand.clone(), *vcpus, group)
            })
            .collect();
        let contended = resolver.resolve(&together);
        let expected = shapes
            .iter()
            .zip(&contended)
            .map(|((demand, vcpus), outcome)| {
                let alone = resolver.resolve(&[PlacedDemand::new(0, demand.clone(), *vcpus, 0)]);
                let solo = alone[0].achieved_fraction;
                ((solo - outcome.achieved_fraction) / solo).max(0.0)
            })
            .fold(0.0, f64::max);
        let candidate = CandidateMachine {
            pm_id: PmId(1),
            spec: &xeon,
            resident_demands: std::slice::from_ref(&resident),
            resident_vcpus: &[4],
        };
        let predicted = manager().predict_on_candidate(&clone, 2, &candidate);
        assert_eq!(
            predicted.to_bits(),
            expected.to_bits(),
            "{predicted} vs {expected}"
        );
        assert!(predicted <= manager().acceptable_interference);
    }

    #[test]
    fn decision_prefers_the_least_interfering_destination() {
        let m = manager();
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        // The aggressor is a cache hog; the victim is quiet.
        let spec = MachineSpec::xeon_x5472();
        let contended = EpochResolver::new(spec.clone()).resolve(&[
            PlacedDemand::new(1, quiet_demand(), 2, 0),
            PlacedDemand::new(2, busy_memory_demand(), 2, 0),
        ]);
        let residents = vec![
            ResidentVm {
                vm_id: VmId(1),
                counters: contended[0].counters,
                behavior: BehaviorVector::from_counters(&contended[0].counters),
                demand: quiet_demand(),
                vcpus: 2,
            },
            ResidentVm {
                vm_id: VmId(2),
                counters: contended[1].counters,
                behavior: BehaviorVector::from_counters(&contended[1].counters),
                demand: busy_memory_demand(),
                vcpus: 2,
            },
        ];
        let busy = [busy_memory_demand(), busy_memory_demand()];
        let candidates = [candidate(10, &spec, &busy), candidate(11, &spec, &[])];
        let aggressor = PlacementManager::select_aggressor(&residents, Resource::CacheMemory)
            .expect("two residents");
        assert_eq!(aggressor.vm_id, VmId(2), "the cache hog must be selected");
        assert_eq!(
            m.decide(aggressor, PmId(0), &candidates, &benchmark),
            Some(PmId(11)),
            "the idle machine wins"
        );
    }

    #[test]
    fn decisions_over_a_mixed_fleet_match_the_values_recorded_before_the_resolver_reuse() {
        // Golden values printed by `decide` at commit 1e5d306, where every
        // candidate owned its spec and demands and each prediction went
        // through a hidden thread-local resolver.  `predict_on_candidate`
        // still predicts each candidate on its own; `decide` shares one
        // resolver and one clone baseline per machine model, and must pick
        // the destination those predictions name.
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        let (xeon, i7) = (MachineSpec::xeon_x5472(), MachineSpec::core_i7_nehalem());
        let contended = EpochResolver::new(xeon.clone()).resolve(&[
            PlacedDemand::new(1, quiet_demand(), 2, 0),
            PlacedDemand::new(2, busy_memory_demand(), 2, 0),
        ]);
        let residents: Vec<ResidentVm> = [quiet_demand(), busy_memory_demand()]
            .into_iter()
            .zip(&contended)
            .map(|(demand, outcome)| ResidentVm {
                vm_id: VmId(outcome.vm_id),
                counters: outcome.counters,
                behavior: BehaviorVector::from_counters(&outcome.counters),
                demand,
                vcpus: 2,
            })
            .collect();
        let aggressor = PlacementManager::select_aggressor(&residents, Resource::CacheMemory)
            .expect("two residents");
        assert_eq!(aggressor.vm_id, VmId(2));
        let half = [busy_memory_demand(), quiet_demand()];
        let nearly_full = [busy_memory_demand(), quiet_demand(), busy_memory_demand()];
        // Models interleaved and ids out of order on purpose.
        let candidates = [
            candidate(7, &i7, &nearly_full),
            candidate(1, &xeon, &[]),
            candidate(2, &xeon, &half),
            candidate(3, &xeon, &nearly_full),
            candidate(5, &i7, &[]),
            candidate(6, &i7, &half),
        ];
        let golden: [(u64, u64); 6] = [
            (7, 0x3fecb8cf5fe9e58a), // 0.8975598214448592
            (1, 0x0000000000000000),
            (2, 0x3fe124af7534d9d7), // 0.5357281960667092
            (3, 0x3fe46b0d1a6e9a7b), // 0.6380677715540765
            (5, 0x0000000000000000),
            (6, 0x3fdc69d769dcb1ac), // 0.4439600499925074
        ];
        let clone = benchmark.mimic(&aggressor.behavior, aggressor.demand.instructions);
        let bits: Vec<(u64, u64)> = candidates
            .iter()
            .map(|c| {
                let predicted = manager().predict_on_candidate(&clone.demand(), 2, c);
                (c.pm_id.0, predicted.to_bits())
            })
            .collect();
        assert_eq!(bits, golden);
        // Machines 0..4 are power domain 0, 4..8 domain 1; the source is 0.
        // Machines 1 and 5 tie at zero: the lowest id wins unless spread
        // prefers the other domain.
        let topology = Topology::new(1, 4);
        for (manager, destination) in [
            (manager(), PmId(1)),
            (manager().with_spread(topology), PmId(5)),
        ] {
            let decided = manager.decide(aggressor, PmId(0), &candidates, &benchmark);
            assert_eq!(decided, Some(destination));
        }
        // Without the two idle machines the i7 half-full one is the least
        // bad; whether it is good enough is the operator's limit.
        let loaded: Vec<CandidateMachine> = candidates
            .iter()
            .filter(|c| !c.resident_demands.is_empty())
            .copied()
            .collect();
        for (limit, destination) in [(0.5, Some(PmId(6))), (0.4, None)] {
            let manager = PlacementManager::new(limit);
            let decided = manager.decide(aggressor, PmId(0), &loaded, &benchmark);
            assert_eq!(decided, destination);
        }
    }

    #[test]
    fn decision_declines_when_every_candidate_is_bad() {
        let m = PlacementManager::new(0.01);
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        let aggressor = resident(1, counters_with(5.0e7, 0.0, 0.0));
        let xeon = MachineSpec::xeon_x5472();
        let busy = [
            busy_memory_demand(),
            busy_memory_demand(),
            busy_memory_demand(),
        ];
        let candidates = [candidate(10, &xeon, &busy)];
        assert_eq!(m.decide(&aggressor, PmId(0), &candidates, &benchmark), None);
    }

    #[test]
    fn spread_prefers_an_acceptable_cross_domain_destination() {
        // Machines 0..4 are power domain 0, 4..8 domain 1 (one machine per
        // rack, four racks per domain).  The source is machine 0; both
        // candidates are idle (equally acceptable), but machine 5 sits in
        // the other domain.
        let topology = Topology::new(1, 4);
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        let aggressor = resident(1, counters_with(5.0e7, 0.0, 0.0));
        let xeon = MachineSpec::xeon_x5472();
        let candidates = [candidate(1, &xeon, &[]), candidate(5, &xeon, &[])];
        assert_eq!(
            manager().decide(&aggressor, PmId(0), &candidates, &benchmark),
            Some(PmId(1)),
            "spread off: lowest machine id wins the interference tie"
        );
        let spread = manager().with_spread(topology);
        assert_eq!(
            spread.decide(&aggressor, PmId(0), &candidates, &benchmark),
            Some(PmId(5)),
            "spread on: the cross-domain candidate wins"
        );
        // With no cross-domain candidate at all, the preference falls back
        // to the plain minimum instead of declining.
        let same_domain = [candidate(1, &xeon, &[])];
        assert_eq!(
            spread.decide(&aggressor, PmId(0), &same_domain, &benchmark),
            Some(PmId(1))
        );
    }

    /// A trained benchmark and three aggressors — a cache, a network and a
    /// disk hog — each with its clone's demand.
    type Fixture = (SyntheticBenchmark, Vec<(ResidentVm, ResourceDemand)>);

    fn fixture() -> &'static Fixture {
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
            let aggressors = [(5.0e7, 0.0, 0.0), (1.0e6, 0.6, 0.0), (1.0e6, 0.0, 0.7)]
                .into_iter()
                .map(|(llc, net_stall, disk_stall)| {
                    let vm = resident(1, counters_with(llc, net_stall, disk_stall));
                    let clone = benchmark.mimic(&vm.behavior, vm.demand.instructions);
                    (vm, clone.demand())
                })
                .collect();
            (benchmark, aggressors)
        })
    }

    /// What an exhaustive scan over `predict_on_candidate` picks: the least
    /// acceptable candidate (lowest id on ties) outside the source's power
    /// domain under spread, else the least acceptable one.
    fn exhaustive_choice(
        manager: &PlacementManager,
        clone: &ResourceDemand,
        clone_vcpus: usize,
        source: PmId,
        candidates: &[CandidateMachine],
    ) -> Option<PmId> {
        let domain = |pm: PmId| manager.spread.map(|t| t.domain_of(pm));
        let least = |cross_only: bool| {
            candidates
                .iter()
                .filter(|c| !cross_only || domain(c.pm_id) != domain(source))
                .map(|c| (manager.predict_on_candidate(clone, clone_vcpus, c), c.pm_id))
                .filter(|&(p, _)| p <= manager.acceptable_interference)
                .min_by(|a, b| a.partial_cmp(b).expect("finite predictions"))
                .map(|(_, pm)| pm)
        };
        least(true).or_else(|| least(false))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn decide_picks_what_an_exhaustive_scan_picks(
            aggressor in 0..3_usize,
            // Residents (shape, width) that the machines borrow runs of.
            tape in proptest::collection::vec((0..4_usize, 0..3_usize), 64..65),
            // Per machine: model, resident count (0 = empty), run start.
            machines in proptest::collection::vec((0..2_usize, 0..4_usize, 0..61_usize), 0..41),
            few in 0..4_u8,
            shuffle in 0..u64::MAX,
            spread in proptest::prop_oneof![proptest::Just(None), proptest::Just(Some(Topology::new(2, 4)))],
            limit in proptest::prop_oneof![3 => 0.01..=1.0_f64, 1 => proptest::Just(0.01)],
        ) {
            let (benchmark, aggressors) = fixture();
            let (aggressor, clone) = &aggressors[aggressor];
            // Idle (predicts exactly 0.0 beside any clone, as an empty
            // machine does), quiet, memory- and disk-heavy residents.  A
            // quarter of the cases keep at most three candidates, none
            // empty, idle or quiet, so that a low limit can reject them all.
            let shapes = [
                ResourceDemand::builder().instructions(0.0).build(),
                quiet_demand(),
                busy_memory_demand(),
                ResourceDemand::builder().instructions(1.0e9).disk_read_mb(120.0).build(),
            ];
            let few = usize::from(few == 0);
            let machines = &machines[..machines.len().min(if few == 1 { 3 } else { 40 })];
            let demands: Vec<_> = tape.iter().map(|&(s, _)| shapes[s.max(2 * few)].clone()).collect();
            let widths: Vec<usize> = tape.iter().map(|&(_, w)| [1, 2, 4][w]).collect();
            // Machine ids 0..64 in a drawn order: the first is the source,
            // the rest go to the candidates.  Eight machines per domain.
            let mut ids: Vec<u64> = (0..64).collect();
            ids.sort_by_key(|&id| cloudsim::rngs::splitmix64(shuffle ^ id));
            let specs = [MachineSpec::xeon_x5472(), MachineSpec::core_i7_nehalem()];
            let candidates: Vec<CandidateMachine> = machines
                .iter()
                .zip(&ids[1..])
                .map(|(&(model, count, at), &id)| CandidateMachine {
                    pm_id: PmId(id),
                    spec: &specs[model],
                    resident_demands: &demands[at..at + count.max(few)],
                    resident_vcpus: &widths[at..at + count.max(few)],
                })
                .collect();
            let manager = PlacementManager { acceptable_interference: limit, spread };
            let source = PmId(ids[0]);
            let expected = exhaustive_choice(&manager, clone, aggressor.vcpus, source, &candidates);
            let decided = manager.decide(aggressor, source, &candidates, benchmark);
            proptest::prop_assert_eq!(decided, expected);
        }
    }

    #[test]
    fn an_episode_shaped_decision_resolves_at_most_half_of_the_exhaustive_count() {
        // 96 Xeons with a Data Serving and a Web Search tenant, then 32
        // empty ones: an exhaustive search resolves 1 + 3 × 96 + 32 = 321
        // times (clone baseline; two solos and a joint per tenant machine).
        use rand::SeedableRng;
        use workloads::*;
        let xeon = MachineSpec::xeon_x5472();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut pair: [Box<dyn Workload>; 2] = [
            Box::new(DataServing::with_defaults(AppId(1))),
            Box::new(WebSearch::with_defaults(AppId(2))),
        ];
        let tenants: Vec<ResourceDemand> = (0..192)
            .map(|i| pair[i % 2].next_demand(0.9, &mut rng))
            .collect();
        let pairs = tenants.chunks(2).chain([&[][..]; 32]);
        let candidates: Vec<CandidateMachine> = (0..)
            .zip(pairs)
            .map(|(m, pair)| candidate(m, &xeon, pair))
            .collect();
        let stressors: [Box<dyn Workload>; 3] = [
            Box::new(MemoryStress::new(AppId(900), 384.0)),
            Box::new(NetworkStress::new(AppId(901), 900.0)),
            Box::new(DiskStress::new(AppId(902), 80.0)),
        ];
        let mut resolves = Vec::new();
        for mut stressor in stressors {
            let demand = stressor.next_demand(1.0, &mut rng);
            let alone = [PlacedDemand::new(0, demand.clone(), 2, 0)];
            let solo = EpochResolver::new(xeon.clone()).resolve(&alone);
            let behavior = BehaviorVector::from_counters(&solo[0].counters);
            let clone = fixture().0.mimic(&behavior, demand.instructions).demand();
            let (decided, count) = manager().search(&clone, 2, PmId(200), &candidates);
            let expected = exhaustive_choice(&manager(), &clone, 2, PmId(200), &candidates);
            assert_eq!(decided, expected);
            resolves.push(count);
        }
        // The memory clone is slowed beside every tenant pair, so joint
        // resolves settle them; the network and disk clones never are.
        assert!(2 * resolves[0] <= 321);
        assert_eq!(resolves, [98, 219, 194]);
    }

    #[test]
    fn empty_residents_rejected() {
        assert!(PlacementManager::select_aggressor(&[], Resource::Disk).is_none());
    }

    #[test]
    #[should_panic(expected = "acceptable interference")]
    fn invalid_limit_rejected() {
        PlacementManager::new(0.0);
    }
}
