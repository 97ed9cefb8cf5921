//! Physical machines: hosting VMs and stepping simulation epochs.
//!
//! A [`PhysicalMachine`] owns the VMs placed on it.  Each epoch the engine
//! steps every occupied machine once, asking every hosted VM's workload for
//! its intrinsic demand at the offered load, hands all demands to the hwsim
//! contention resolver, and packages the result into one
//! [`VmEpochReport`] per VM: the Table 1 counters DeepDive reads, plus the
//! client-observed performance the evaluation uses for scoring.
//!
//! ## Who owns the step's working memory
//!
//! A machine holds only what is its own: residents, scheduler, membership
//! generation and quiescent cache, plus its hardware model as a shared
//! [`Arc<MachineSpec>`] and that model's index.  Everything a step only
//! borrows lives once per cluster in a `StepScratch`: the load, demand,
//! placement and outcome buffers, one [`EpochResolver`] per distinct
//! machine model, picked by the machine's model index, and the fleet's
//! work counters.  A machine steps alone, so one set of buffers serves the
//! whole fleet, and a resolver's buffers are cleared on every call, so
//! sharing it across the machines of one model cannot move a result.  This
//! keeps a machine within two cache lines instead of a dozen cold heap
//! blocks.
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
//! resolution entirely.  The step scratch's `resolves` /
//! `quiescent_steps` count both outcomes over the whole fleet.

use std::sync::Arc;

use hwsim::contention::{EpochOutcome, PlacedDemand};
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
    /// The VM's vCPU count ([`Vm::vcpus`]); it keeps its width when it
    /// migrates.
    pub vcpus: usize,
    /// Epoch index at which the report was taken.
    pub epoch: u64,
    /// The offered load the VM received this epoch (0..=1 of its peak).
    pub offered_load: f64,
    /// The Table 1 counters DeepDive's warning system and analyzer read.
    pub counters: CounterSnapshot,
    /// The intrinsic demand the workload generated — what the paper's
    /// request-duplicating proxy (§4.2) copies towards the sandbox.  The
    /// controller keeps a window of these per VM for the analyzer to replay.
    pub demand: ResourceDemand,
    /// Fraction of the demanded work that completed (evaluation ground truth).
    pub achieved_fraction: f64,
    /// Client-visible performance (evaluation ground truth).
    pub observation: ClientObservation,
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

/// The working memory of one machine step, owned once per cluster (see the
/// [module docs](self)).
pub(crate) struct StepScratch {
    /// One resolver per distinct machine model, indexed by
    /// [`PhysicalMachine`]'s model index.
    resolvers: Vec<EpochResolver>,
    loads: Vec<f64>,
    demands: Vec<ResourceDemand>,
    placements: Vec<PlacedDemand>,
    outcomes: Vec<EpochOutcome>,
    /// Machines stepped since construction, empty or not; the engine's work
    /// bound is stated over this count.
    visits: u64,
    /// Machine-epochs that ran demand generation and contention resolution.
    pub(crate) resolves: u64,
    /// Machine-epochs served from a quiescent cache without resolving.
    pub(crate) quiescent_steps: u64,
}

impl StepScratch {
    /// Scratch for a fleet whose machine models are `models`, in model-index
    /// order.
    pub(crate) fn new(models: &[Arc<MachineSpec>]) -> Self {
        Self {
            resolvers: models
                .iter()
                .map(|spec| EpochResolver::new(MachineSpec::clone(spec)))
                .collect(),
            loads: Vec::new(),
            demands: Vec::new(),
            placements: Vec::new(),
            outcomes: Vec::new(),
            visits: 0,
            resolves: 0,
            quiescent_steps: 0,
        }
    }

    /// Number of resolvers, one per distinct machine model.
    #[cfg(test)]
    pub(crate) fn models(&self) -> usize {
        self.resolvers.len()
    }

    /// Machines stepped since construction.
    #[cfg(test)]
    pub(crate) fn visits(&self) -> u64 {
        self.visits
    }
}

/// A physical machine hosting zero or more VMs.
pub struct PhysicalMachine {
    /// Machine identity.
    pub id: PmId,
    /// Hardware model, shared by every machine of that model.
    spec: Arc<MachineSpec>,
    /// Index of the model's resolver in the cluster's [`StepScratch`].
    model: usize,
    scheduler: Scheduler,
    vms: Vec<Vm>,
    /// Bumped on every membership change; the quiescent cache stores the
    /// generation it was filled at.
    generation: u64,
    cache: Option<QuiescentCache>,
}

impl PhysicalMachine {
    /// Creates an empty machine of model `model` (its index in the
    /// cluster's [`StepScratch`]), whose hardware is `spec`.
    pub(crate) fn new(
        id: PmId,
        spec: Arc<MachineSpec>,
        model: usize,
        scheduler: Scheduler,
    ) -> Self {
        Self {
            id,
            spec,
            model,
            scheduler,
            vms: Vec::new(),
            generation: 0,
            cache: None,
        }
    }

    /// Hardware model, fixed at construction.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
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
    pub(crate) fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// True when the scheduler would admit `vm` here now.
    pub(crate) fn admits(&self, vm: &Vm) -> bool {
        self.scheduler.admits(self.spec(), &self.vms, vm)
    }

    /// Attempts to place a VM on this machine; returns the VM back if the
    /// scheduler rejects it (no capacity).
    ///
    /// Crate-private: VM membership must change through the cluster's
    /// methods ([`crate::cluster::Cluster::place_on`] and friends) so its
    /// VM-location index and domain counts stay consistent with the
    /// machines.
    pub(crate) fn try_add_vm(&mut self, vm: Vm) -> Result<(), Vm> {
        if self.admits(&vm) {
            self.push_vm(vm);
            Ok(())
        } else {
            Err(vm)
        }
    }

    /// Appends a VM the caller has already checked with
    /// [`PhysicalMachine::admits`].
    pub(crate) fn push_vm(&mut self, vm: Vm) {
        self.vms.push(vm);
        self.generation = self.generation.wrapping_add(1);
    }

    /// Removes and returns a VM (for migration or departure); `None` if it
    /// is not here.  Crate-private for the same reason as
    /// [`PhysicalMachine::try_add_vm`].
    ///
    /// A machine hosts a handful of VMs, so a scan finds the slot, and
    /// `swap_remove` backfills it with the last VM.  The swap means a
    /// removal can change the *slot* — and therefore the cache group via
    /// [`Scheduler::cache_group_for_slot`] — of the VM that backfills the
    /// hole.  That is still fully deterministic (a pure function of the
    /// operation sequence), which is the property every equivalence proof
    /// in this crate rests on; no caller depends on removal preserving the
    /// relative order of the surviving VMs.
    pub(crate) fn remove_vm(&mut self, vm_id: VmId) -> Option<Vm> {
        let idx = self.vms.iter().position(|vm| vm.id == vm_id)?;
        let vm = self.vms.swap_remove(idx);
        self.generation = self.generation.wrapping_add(1);
        Some(vm)
    }

    /// Unused core capacity.
    pub(crate) fn free_cores(&self) -> usize {
        let used: usize = self.vms.iter().map(|v| v.vcpus).sum();
        self.spec().cores.saturating_sub(used)
    }

    /// Steps the machine one epoch for the epoch engine: appends this
    /// machine's reports (placement order) to `out`, working in the
    /// cluster's shared `scratch`.
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
        scratch: &mut StepScratch,
        out: &mut Vec<VmEpochReport>,
    ) where
        F: Fn(VmId) -> f64 + ?Sized,
    {
        scratch.visits += 1;
        if self.vms.is_empty() {
            return;
        }
        // 1. Evaluate the load closure (always — quiescence is defined over
        // its output, so it can never be skipped).
        let loads = &mut scratch.loads;
        loads.clear();
        for vm in self.vms.iter() {
            loads.push(load_for(vm.id).clamp(0.0, 1.0));
        }
        let start = out.len();
        if use_cache {
            if let Some(cache) = &self.cache {
                if cache.generation == self.generation && cache.loads == *loads {
                    scratch.quiescent_steps += 1;
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
        let demands = &mut scratch.demands;
        demands.clear();
        for (vm, &load) in self.vms.iter_mut().zip(loads.iter()) {
            let mut rng = seed.vm_epoch_rng(vm.id, epoch);
            demands.push(vm.workload.next_demand(load, &mut rng));
        }

        // 3. Resolve hardware contention for the whole machine with its
        // model's resolver and the cluster's placement/outcome buffers.
        let spec = &*self.spec;
        let placements = &mut scratch.placements;
        placements.clear();
        placements.extend(self.vms.iter().enumerate().zip(demands.iter()).map(
            |((slot, vm), demand)| {
                PlacedDemand::new(
                    vm.id.0,
                    demand.clone(),
                    vm.vcpus,
                    self.scheduler.cache_group_for_slot(spec, slot),
                )
            },
        ));
        scratch.resolvers[self.model].resolve_into(
            placements,
            EPOCH_SECONDS,
            &mut scratch.outcomes,
        );
        scratch.resolves += 1;

        // 4. Package per-VM reports.
        out.extend(
            self.vms
                .iter()
                .zip(demands.iter())
                .zip(loads.iter())
                .zip(&scratch.outcomes)
                .map(|(((vm, demand), &load), outcome)| VmEpochReport {
                    vm_id: vm.id,
                    pm_id: self.id,
                    app: vm.app_id(),
                    vcpus: vm.vcpus,
                    epoch,
                    offered_load: load,
                    counters: outcome.counters,
                    demand: demand.clone(),
                    achieved_fraction: outcome.achieved_fraction,
                    observation: vm.client.observe(load, outcome.achieved_fraction),
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
                .zip(loads.iter())
                .all(|(vm, &load)| vm.workload.demand_is_static_at(load))
        {
            let reports = &out[start..];
            match &mut self.cache {
                Some(cache) => {
                    cache.generation = self.generation;
                    cache.loads.clear();
                    cache.loads.extend_from_slice(loads);
                    cache.reports.clear();
                    cache.reports.extend_from_slice(reports);
                }
                None => {
                    self.cache = Some(QuiescentCache {
                        generation: self.generation,
                        loads: loads.clone(),
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
        let spec = Arc::new(MachineSpec::xeon_x5472());
        PhysicalMachine::new(PmId(0), spec, 0, Scheduler::default())
    }

    /// One uncached epoch of `pm`'s reports, in placement order.
    fn step(
        pm: &mut PhysicalMachine,
        epoch: u64,
        load_for: &dyn Fn(VmId) -> f64,
    ) -> Vec<VmEpochReport> {
        let mut scratch = StepScratch::new(&[Arc::clone(&pm.spec)]);
        let mut out = Vec::new();
        pm.step_epoch_into(epoch, load_for, seed(), false, &mut scratch, &mut out);
        out
    }

    #[test]
    fn a_machine_fits_in_two_cache_lines() {
        // The step scratch, work counters included, lives in the cluster;
        // a machine keeps only its own state, so the fleet array stays
        // dense.  112 bytes on a 64-bit target.
        assert!(std::mem::size_of::<PhysicalMachine>() <= 112);
    }

    #[test]
    fn empty_machine_steps_to_empty_report() {
        let mut pm = machine();
        assert!(step(&mut pm, 0, &|_| 1.0).is_empty());
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
        assert!(pm.vms().iter().all(|vm| vm.id != VmId(2)));
        assert!(pm.try_add_vm(serving_vm(4)).is_ok());
    }

    #[test]
    fn solo_vm_reports_healthy_performance() {
        let mut pm = machine();
        pm.try_add_vm(serving_vm(1)).unwrap();
        let reports = step(&mut pm, 0, &|_| 0.8);
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
        let solo_reports = step(&mut solo, 0, &|_| 1.0);

        let mut shared = machine();
        shared.try_add_vm(serving_vm(1)).unwrap();
        shared.try_add_vm(aggressor_vm(2, 512.0)).unwrap();
        let shared_reports = step(&mut shared, 0, &|_| 1.0);

        let baseline = &solo_reports[0];
        let victim = &shared_reports[0];
        assert!(victim.achieved_fraction < baseline.achieved_fraction);
        assert!(victim.observation.latency_ms > baseline.observation.latency_ms);
        // Normalized cache-miss signature moves, which is what DeepDive sees.
        let per_instr = |c: &CounterSnapshot| c.l2_lines_in / c.inst_retired;
        assert!(per_instr(&victim.counters) > per_instr(&baseline.counters));
    }

    #[test]
    fn per_vm_loads_are_honoured() {
        let mut pm = machine();
        pm.try_add_vm(serving_vm(1)).unwrap();
        pm.try_add_vm(serving_vm(2)).unwrap();
        let reports = step(&mut pm, 0, &|id| if id == VmId(1) { 1.0 } else { 0.2 });
        assert!(reports[0].demand.instructions > 3.0 * reports[1].demand.instructions);
        assert!((reports[0].offered_load - 1.0).abs() < 1e-12);
        assert!((reports[1].offered_load - 0.2).abs() < 1e-12);
    }

    #[test]
    fn reports_carry_the_epoch_index() {
        let mut pm = machine();
        pm.try_add_vm(serving_vm(1)).unwrap();
        let reports = step(&mut pm, 17, &|_| 1.0);
        assert_eq!(reports[0].epoch, 17);
    }
}
