//! Physical machines: hosting VMs and stepping simulation epochs.
//!
//! A [`PhysicalMachine`] owns the VMs placed on it.  Each call to
//! [`PhysicalMachine::step_epoch`] asks every hosted VM's workload for its
//! intrinsic demand at the offered load, hands all demands to the hwsim
//! contention resolver, and packages the result into one
//! [`VmEpochReport`] per VM: the Table 1 counters DeepDive reads, plus the
//! client-observed performance and ground-truth stall breakdown the
//! evaluation uses for scoring.
//!
//! ## Quiescence
//!
//! The sparse engine path ([`crate::engine::EpochEngine`] with sparse
//! stepping enabled, the default) asks each machine to *reuse* its last
//! resolved reports when nothing that could change them has changed: same
//! VM membership (tracked by a generation counter bumped on every add and
//! remove), same per-VM loads, and every hosted workload declaring its
//! demand a pure function of its configuration at that load
//! ([`workloads::Workload::demand_is_static_at`]; the machine's spec and
//! scheduler are fixed at construction).  Under those
//! conditions a fresh resolve would reproduce the cached reports bit for
//! bit (the per-`(vm, epoch)` RNG draws are consumed and discarded, and a
//! static demand ignores them by contract), so the machine clones the cache,
//! patches the epoch index, and skips demand generation and contention
//! resolution entirely.  [`PhysicalMachine::resolves`] /
//! [`PhysicalMachine::quiescent_steps`] count both outcomes.

use std::collections::HashMap;

use hwsim::contention::{EpochOutcome, PlacedDemand, StallBreakdown};
use hwsim::{CounterSnapshot, EpochResolver, MachineSpec, ResourceDemand, EPOCH_SECONDS};
use workloads::{AppId, ClientObservation};

use crate::rngs::ClusterSeed;
use crate::scheduler::Scheduler;
use crate::vm::{Vm, VmId};

/// Unique identifier of a physical machine within the simulated datacenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PmId(pub u64);

impl std::fmt::Display for PmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pm-{}", self.0)
    }
}

/// Everything observed about one VM during one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct VmEpochReport {
    /// The VM.
    pub vm_id: VmId,
    /// The machine that hosted it this epoch.
    pub pm_id: PmId,
    /// The application the VM runs (for DeepDive's global-information check).
    pub app: AppId,
    /// Epoch index at which the report was taken.
    pub epoch: u64,
    /// The offered load the VM received this epoch (0..=1 of its peak).
    pub offered_load: f64,
    /// The Table 1 counters — the only field the `deepdive` crate reads.
    pub counters: CounterSnapshot,
    /// The intrinsic demand the workload generated — what the paper's
    /// request-duplicating proxy (§4.2) copies towards the sandbox.  The
    /// controller keeps a window of these per VM for the analyzer to replay.
    pub demand: ResourceDemand,
    /// Fraction of the demanded work that completed (evaluation ground truth).
    pub achieved_fraction: f64,
    /// Client-visible performance (evaluation ground truth).
    pub observation: ClientObservation,
    /// Ground-truth stall breakdown (evaluation ground truth).
    pub breakdown: StallBreakdown,
}

/// Cached result of the machine's last fully-static resolve, reused
/// verbatim (with the epoch index patched) while the machine stays
/// quiescent.  Only populated when **every** hosted workload declared its
/// demand static at the load it was resolved with — the precondition under
/// which replaying the cache is bit-identical to resolving again.
struct QuiescentCache {
    /// Membership generation the cache was filled at; any add/remove bumps
    /// the machine's generation and thereby invalidates the cache.
    generation: u64,
    /// Per-VM loads (placement order) the reports were resolved with.
    loads: Vec<f64>,
    /// The reports of that resolve; `epoch` is patched on reuse.
    reports: Vec<VmEpochReport>,
}

/// A physical machine hosting zero or more VMs.
pub struct PhysicalMachine {
    /// Machine identity.
    pub id: PmId,
    scheduler: Scheduler,
    vms: Vec<Vm>,
    /// VM id → index in `vms`, so migration/departure churn — which the
    /// datacenter service mode drives at far higher rates than the fixed
    /// fleets did — stays O(1) per removal instead of a scan.
    vm_index: HashMap<VmId, usize>,
    /// Bumped on every membership change; the quiescent cache stores the
    /// generation it was filled at.
    generation: u64,
    /// Reusable epoch-resolution pipeline; it owns the machine's spec, and
    /// its scratch buffers survive across `step_epoch` calls so the hot path
    /// performs no per-epoch allocation beyond the returned reports.
    resolver: EpochResolver,
    loads: Vec<f64>,
    demands: Vec<ResourceDemand>,
    placements: Vec<PlacedDemand>,
    outcomes: Vec<EpochOutcome>,
    cache: Option<QuiescentCache>,
    resolves: u64,
    quiescent_steps: u64,
}

impl PhysicalMachine {
    /// Creates an empty machine.
    pub fn new(id: PmId, spec: MachineSpec, scheduler: Scheduler) -> Self {
        assert!(spec.is_well_formed(), "malformed machine spec");
        Self {
            id,
            scheduler,
            vms: Vec::new(),
            vm_index: HashMap::new(),
            generation: 0,
            resolver: EpochResolver::new(spec),
            loads: Vec::new(),
            demands: Vec::new(),
            placements: Vec::new(),
            outcomes: Vec::new(),
            cache: None,
            resolves: 0,
            quiescent_steps: 0,
        }
    }

    /// Hardware model, fixed at construction.
    pub fn spec(&self) -> &MachineSpec {
        self.resolver.spec()
    }

    /// Placement/admission policy in force on this machine, fixed at
    /// construction.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// The VMs currently hosted, in placement order.
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// True when the machine hosts the given VM.
    pub fn hosts(&self, vm_id: VmId) -> bool {
        self.vm_index.contains_key(&vm_id)
    }

    /// Number of epochs this machine actually ran demand generation and
    /// contention resolution for (as opposed to serving the quiescent cache).
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// Number of epochs served from the quiescent cache without resolving.
    pub fn quiescent_steps(&self) -> u64 {
        self.quiescent_steps
    }

    /// Attempts to place a VM on this machine; returns the VM back if the
    /// scheduler rejects it (no capacity).
    ///
    /// Crate-private: VM membership must change through the cluster's
    /// methods ([`crate::cluster::Cluster::place_on`] and friends) so its
    /// O(1) VM-location index stays consistent with the machines.
    pub(crate) fn try_add_vm(&mut self, vm: Vm) -> Result<(), Vm> {
        if self.scheduler.admits(self.spec(), &self.vms, &vm) {
            self.vm_index.insert(vm.id, self.vms.len());
            self.vms.push(vm);
            self.generation = self.generation.wrapping_add(1);
            Ok(())
        } else {
            Err(vm)
        }
    }

    /// Removes and returns a VM (for migration or departure); `None` if it
    /// is not here.  Crate-private for the same reason as
    /// [`PhysicalMachine::try_add_vm`].
    ///
    /// O(1): the id→index map locates the slot and `swap_remove` backfills
    /// it with the last VM (whose index entry is updated).  The swap means a
    /// removal can change the *slot* — and therefore the cache group via
    /// [`Scheduler::cache_group_for_slot`] — of the VM that backfills the
    /// hole.  That is still fully deterministic (a pure function of the
    /// operation sequence, identical across execution modes and thread
    /// counts), which is the property every equivalence proof in this crate
    /// rests on; no caller depends on removal preserving the relative order
    /// of the surviving VMs.  The old order-preserving linear scan was fine
    /// for fixed fleets but the service mode's continuous arrive/depart/
    /// migrate churn puts this on the per-event path.
    pub(crate) fn remove_vm(&mut self, vm_id: VmId) -> Option<Vm> {
        let idx = self.vm_index.remove(&vm_id)?;
        let vm = self.vms.swap_remove(idx);
        if let Some(swapped) = self.vms.get(idx) {
            self.vm_index.insert(swapped.id, idx);
        }
        self.generation = self.generation.wrapping_add(1);
        Some(vm)
    }

    /// Removes and returns every hosted VM at once (a crash being drained),
    /// in placement order.  One generation bump covers the whole drain, so
    /// the quiescent cache filled before the crash can never serve a repaired
    /// machine's first post-repair epoch.  Crate-private like the other
    /// membership mutators.
    pub(crate) fn drain_vms(&mut self) -> Vec<Vm> {
        self.vm_index.clear();
        self.generation = self.generation.wrapping_add(1);
        std::mem::take(&mut self.vms)
    }

    /// Unused core capacity.
    pub fn free_cores(&self) -> usize {
        let used: usize = self.vms.iter().map(|v| v.vcpus).sum();
        self.spec().cores.saturating_sub(used)
    }

    /// Advances the machine one epoch.
    ///
    /// `load_for` maps each VM id to its offered load for this epoch (the
    /// trace-driven client intensity).  Each VM draws its demand from its
    /// own `(vm, epoch)` stream derived from `seed`, so the reports are a
    /// pure function of `(seed, epoch, loads, placement)` — independent of
    /// how many other machines exist or the order they are stepped in, which
    /// is what lets [`crate::engine::EpochEngine`] step machines on
    /// concurrent shards.  Returns one report per hosted VM, in placement
    /// order.
    pub fn step_epoch<F>(
        &mut self,
        epoch: u64,
        load_for: &F,
        seed: ClusterSeed,
    ) -> Vec<VmEpochReport>
    where
        F: Fn(VmId) -> f64 + ?Sized,
    {
        let mut out = Vec::new();
        self.step_epoch_into(epoch, load_for, seed, false, &mut out);
        out
    }

    /// The stepping workhorse behind [`PhysicalMachine::step_epoch`] and the
    /// epoch engine: appends this machine's reports (placement order) to
    /// `out`.
    ///
    /// With `use_cache` the machine may skip demand generation and
    /// contention resolution entirely when it is provably quiescent: same
    /// membership generation as the cached resolve, the load closure
    /// returning the cached per-VM loads, and every workload having declared
    /// its demand static at those loads
    /// ([`workloads::Workload::demand_is_static_at`]) when the cache was
    /// filled.  Replaying the cache is then bit-identical to resolving —
    /// static demands ignore their (discarded) per-epoch RNG streams by
    /// contract, the resolver is a pure function of demands, placements and
    /// spec, and the client observation is a pure function of load and
    /// achieved fraction — so only the report's `epoch` needs patching.
    pub(crate) fn step_epoch_into<F>(
        &mut self,
        epoch: u64,
        load_for: &F,
        seed: ClusterSeed,
        use_cache: bool,
        out: &mut Vec<VmEpochReport>,
    ) where
        F: Fn(VmId) -> f64 + ?Sized,
    {
        if self.vms.is_empty() {
            return;
        }
        // 1. Evaluate the load closure (always — quiescence is defined over
        // its output, so it can never be skipped).
        self.loads.clear();
        for vm in self.vms.iter() {
            self.loads.push(load_for(vm.id).clamp(0.0, 1.0));
        }
        let start = out.len();
        if use_cache {
            if let Some(cache) = &self.cache {
                if cache.generation == self.generation && cache.loads == self.loads {
                    self.quiescent_steps += 1;
                    out.extend_from_slice(&cache.reports);
                    for report in &mut out[start..] {
                        report.epoch = epoch;
                    }
                    return;
                }
            }
        }

        // 2. Collect intrinsic demands from every workload, each from its
        // own per-(vm, epoch) stream.
        self.demands.clear();
        for (vm, &load) in self.vms.iter_mut().zip(&self.loads) {
            let mut rng = seed.vm_epoch_rng(vm.id, epoch);
            self.demands.push(vm.workload.next_demand(load, &mut rng));
        }

        // 3. Resolve hardware contention for the whole machine, reusing the
        // machine's resolver and placement/outcome buffers across epochs.
        let spec = self.resolver.spec();
        self.placements.clear();
        self.placements
            .extend(
                self.vms
                    .iter()
                    .enumerate()
                    .zip(&self.demands)
                    .map(|((slot, vm), demand)| {
                        PlacedDemand::new(
                            vm.id.0,
                            demand.clone(),
                            vm.vcpus,
                            self.scheduler.cache_group_for_slot(spec, slot),
                        )
                    }),
            );
        self.resolver
            .resolve_into(&self.placements, EPOCH_SECONDS, &mut self.outcomes);
        self.resolves += 1;

        // 4. Package per-VM reports.
        out.extend(
            self.vms
                .iter()
                .zip(&self.demands)
                .zip(&self.loads)
                .zip(&self.outcomes)
                .map(|(((vm, demand), &load), outcome)| VmEpochReport {
                    vm_id: vm.id,
                    pm_id: self.id,
                    app: vm.app_id(),
                    epoch,
                    offered_load: load,
                    counters: outcome.counters,
                    demand: demand.clone(),
                    achieved_fraction: outcome.achieved_fraction,
                    observation: vm.client.observe(load, outcome.achieved_fraction),
                    breakdown: outcome.breakdown,
                }),
        );

        // 5. Seed the quiescent cache when every workload is static at the
        // load it was just resolved with — the only state from which a
        // later epoch may be skipped.  Active machines never reach here
        // with all-static loads, so they never pay the report clone.
        if use_cache
            && self
                .vms
                .iter()
                .zip(&self.loads)
                .all(|(vm, &load)| vm.workload.demand_is_static_at(load))
        {
            let reports = &out[start..];
            match &mut self.cache {
                Some(cache) => {
                    cache.generation = self.generation;
                    cache.loads.clear();
                    cache.loads.extend_from_slice(&self.loads);
                    cache.reports.clear();
                    cache.reports.extend_from_slice(reports);
                }
                None => {
                    self.cache = Some(QuiescentCache {
                        generation: self.generation,
                        loads: self.loads.clone(),
                        reports: reports.to_vec(),
                    });
                }
            }
        }
    }
}

impl std::fmt::Debug for PhysicalMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalMachine")
            .field("id", &self.id)
            .field("spec", &self.spec().name)
            .field("vms", &self.vms.iter().map(|v| v.id).collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{ClientEmulator, DataServing, MemoryStress};

    fn seed() -> ClusterSeed {
        ClusterSeed::new(99)
    }

    fn serving_vm(id: u64) -> Vm {
        Vm::new(
            VmId(id),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        )
    }

    fn aggressor_vm(id: u64, ws_mb: f64) -> Vm {
        Vm::new(
            VmId(id),
            Box::new(MemoryStress::new(AppId(999), ws_mb)),
            ClientEmulator::new(1.0, 1.0),
        )
    }

    fn machine() -> PhysicalMachine {
        PhysicalMachine::new(PmId(0), MachineSpec::xeon_x5472(), Scheduler::default())
    }

    #[test]
    fn empty_machine_steps_to_empty_report() {
        let mut pm = machine();
        assert!(pm.step_epoch(0, &|_| 1.0, seed()).is_empty());
    }

    #[test]
    fn admission_and_removal_round_trip() {
        let mut pm = machine();
        for i in 0..4 {
            assert!(pm.try_add_vm(serving_vm(i)).is_ok());
        }
        // 8 cores consumed: a fifth 2-vCPU VM must be rejected.
        assert!(pm.try_add_vm(serving_vm(4)).is_err());
        assert_eq!(pm.vm_count(), 4);
        assert_eq!(pm.free_cores(), 0);
        let removed = pm.remove_vm(VmId(2)).expect("vm present");
        assert_eq!(removed.id, VmId(2));
        assert!(!pm.hosts(VmId(2)));
        assert!(pm.try_add_vm(serving_vm(4)).is_ok());
    }

    #[test]
    fn solo_vm_reports_healthy_performance() {
        let mut pm = machine();
        pm.try_add_vm(serving_vm(1)).unwrap();
        let reports = pm.step_epoch(0, &|_| 0.8, seed());
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.vm_id, VmId(1));
        assert_eq!(r.pm_id, PmId(0));
        assert!(r.achieved_fraction > 0.9);
        assert!(r.counters.is_well_formed());
        assert!(r.observation.latency_ms < 8.0);
    }

    #[test]
    fn colocated_aggressor_degrades_the_victim() {
        let mut solo = machine();
        solo.try_add_vm(serving_vm(1)).unwrap();
        let solo_reports = solo.step_epoch(0, &|_| 1.0, seed());

        let mut shared = machine();
        shared.try_add_vm(serving_vm(1)).unwrap();
        shared.try_add_vm(aggressor_vm(2, 512.0)).unwrap();
        let shared_reports = shared.step_epoch(0, &|_| 1.0, seed());

        let baseline = &solo_reports[0];
        let victim = &shared_reports[0];
        assert!(victim.achieved_fraction < baseline.achieved_fraction);
        assert!(victim.observation.latency_ms > baseline.observation.latency_ms);
        // Normalized cache-miss signature moves, which is what DeepDive sees.
        let n_base = baseline.counters.normalized_per_kilo_instruction();
        let n_victim = victim.counters.normalized_per_kilo_instruction();
        assert!(n_victim.l2_lines_in > n_base.l2_lines_in);
    }

    #[test]
    fn per_vm_loads_are_honoured() {
        let mut pm = machine();
        pm.try_add_vm(serving_vm(1)).unwrap();
        pm.try_add_vm(serving_vm(2)).unwrap();
        let reports = pm.step_epoch(0, &|id| if id == VmId(1) { 1.0 } else { 0.2 }, seed());
        assert!(reports[0].demand.instructions > 3.0 * reports[1].demand.instructions);
        assert!((reports[0].offered_load - 1.0).abs() < 1e-12);
        assert!((reports[1].offered_load - 0.2).abs() < 1e-12);
    }

    #[test]
    fn reports_carry_the_epoch_index() {
        let mut pm = machine();
        pm.try_add_vm(serving_vm(1)).unwrap();
        let reports = pm.step_epoch(17, &|_| 1.0, seed());
        assert_eq!(reports[0].epoch, 17);
    }
}
