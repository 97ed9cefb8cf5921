//! The simulated datacenter: a set of physical machines, epoch stepping and
//! VM migration.
//!
//! The cluster is the object the end-to-end DeepDive controller drives: each
//! epoch it produces the full set of per-VM reports (counters for DeepDive,
//! ground truth for the evaluation), and the placement manager calls
//! [`Cluster::migrate`] when interference mitigation requires moving a VM.
//!
//! The cluster is the one owner of placement state.  Machine ids are
//! indices into its machine list, and every membership change — placement,
//! removal, migration — goes through its methods, which keep the VM-location
//! index and, once a service asks for spread placement, the per-application
//! power-domain counts.  A caller that moves a VM behind the service's back
//! (DeepDive's migrations) therefore cannot leave either view stale.
//! The same methods keep the occupied-machine set the epoch engine walks,
//! one bit per machine.
//!
//! It owns machine availability too: a down and a draining bit per
//! machine, set by the service's fault sweep.  Every placement path and
//! [`Cluster::migrate`] refuse a machine with either set, so the service
//! and a controller get one answer to "can this machine take a VM now?".
//!
//! The cluster also owns the engine's working memory: one
//! `StepScratch` (step buffers plus one resolver per distinct machine
//! model), shared by every machine in turn, since the engine borrows
//! itself shared and steps machines one at a time.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::faults::Topology;
use crate::pm::{PhysicalMachine, PmId, StepScratch};
use crate::scheduler::Scheduler;
use crate::vm::{Vm, VmId};
use hwsim::MachineSpec;
use workloads::AppId;

/// Machine `i`'s status bit `2i + DOWN` is set inside a down window (crash,
/// rack or domain outage, maintenance offline), `2i + DRAINING` inside a
/// drain's notice window.
pub(crate) const DOWN: usize = 0;
pub(crate) const DRAINING: usize = 1;

/// Errors returned by cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The referenced VM does not exist anywhere in the cluster.
    UnknownVm(VmId),
    /// The referenced machine does not exist.
    UnknownPm(PmId),
    /// The destination machine rejected the VM (no capacity).
    NoCapacity {
        /// The VM that could not be placed.
        vm: VmId,
        /// The machine that rejected it.
        pm: PmId,
    },
    /// No machine anywhere in the cluster could take the VM (first-fit
    /// placement exhausted every machine).
    ClusterFull {
        /// The VM that could not be placed.
        vm: VmId,
    },
    /// The VM is already on the requested destination.
    AlreadyPlaced {
        /// The VM in question.
        vm: VmId,
        /// The machine it already occupies.
        pm: PmId,
    },
    /// The destination machine is down or draining and accepts no VM.
    Unavailable {
        /// The VM that could not be placed.
        vm: VmId,
        /// The machine that is down or draining.
        pm: PmId,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownVm(vm) => write!(f, "unknown VM {vm}"),
            ClusterError::UnknownPm(pm) => write!(f, "unknown PM {pm}"),
            ClusterError::NoCapacity { vm, pm } => write!(f, "{pm} has no capacity for {vm}"),
            ClusterError::ClusterFull { vm } => {
                write!(f, "no machine in the cluster has capacity for {vm}")
            }
            ClusterError::AlreadyPlaced { vm, pm } => write!(f, "{vm} is already on {pm}"),
            ClusterError::Unavailable { vm, pm } => {
                write!(f, "{pm} is down or draining and takes no {vm}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The datacenter.
pub struct Cluster {
    /// The machines; machine `i` carries id `PmId(i)`.
    machines: Vec<PhysicalMachine>,
    /// Bit `i % 64` of word `i / 64` is set while machine `i` hosts a VM;
    /// kept by every membership change.
    occupied: Vec<u64>,
    /// Two bits per machine ([`DOWN`], [`DRAINING`]), set by the service's
    /// fault sweep.
    status: Box<[u64]>,
    /// The engine's step buffers and per-model resolvers, boxed so the
    /// cluster stays small wherever it is moved by value.
    scratch: Box<StepScratch>,
    epoch: u64,
    /// VM id → hosting machine, maintained by every placement, migration and
    /// removal; the backing store for O(1) [`Cluster::locate`].
    vm_locations: HashMap<VmId, PmId>,
    /// The power-domain layout spread placement steers by; `None` keeps no
    /// domain counts.
    spread: Option<Topology>,
    /// Per-application resident VM counts, one slot per power domain of
    /// the fleet, kept by every membership change while `spread` is set.
    /// `BTreeMap` for deterministic iteration.
    app_domains: BTreeMap<AppId, Vec<u32>>,
}

impl Cluster {
    /// Creates a cluster of `n` identical machines with the given scheduler.
    pub fn homogeneous(n: usize, spec: MachineSpec, scheduler: Scheduler) -> Self {
        Self::heterogeneous(&[(spec, n)], scheduler)
    }

    /// Creates a mixed-hardware cluster: for each `(spec, count)` group, in
    /// order, `count` machines of that model, with machine ids assigned
    /// sequentially across groups — the ROADMAP's heterogeneous-fleet
    /// scenario (e.g. a Xeon X5472 rack extended with Core i7/Nehalem
    /// nodes, §4.4).
    ///
    /// Equal specs in different groups are one model: the machines share
    /// its spec and its resolver, numbered in first-appearance order.
    ///
    /// # Panics
    /// Panics if the groups describe zero machines in total, or a spec is
    /// malformed.
    pub fn heterogeneous(specs: &[(MachineSpec, usize)], scheduler: Scheduler) -> Self {
        let mut models: Vec<Arc<MachineSpec>> = Vec::new();
        let mut machines = Vec::new();
        for (spec, count) in specs.iter().filter(|(_, count)| *count > 0) {
            let model = models
                .iter()
                .position(|known| **known == *spec)
                .unwrap_or_else(|| {
                    models.push(Arc::new(spec.clone()));
                    models.len() - 1
                });
            for _ in 0..*count {
                let id = PmId(machines.len() as u64);
                machines.push(PhysicalMachine::new(
                    id,
                    Arc::clone(&models[model]),
                    model,
                    scheduler,
                ));
            }
        }
        assert!(!machines.is_empty(), "a cluster needs at least one machine");
        Self {
            occupied: vec![0; machines.len().div_ceil(64)],
            status: vec![0; machines.len().div_ceil(32)].into_boxed_slice(),
            scratch: Box::new(StepScratch::new(&models)),
            machines,
            epoch: 0,
            vm_locations: HashMap::new(),
            spread: None,
            app_domains: BTreeMap::new(),
        }
    }

    /// Starts keeping per-application power-domain counts under `topology`
    /// (the service calls this on its freshly built, empty cluster when
    /// spread placement is configured).
    pub(crate) fn track_domains(&mut self, topology: Topology) {
        debug_assert_eq!(self.vm_count(), 0, "counts start from an empty fleet");
        self.spread = Some(topology);
    }

    /// Resident VMs of `app` per power domain (empty if it has none and
    /// never had any, or if no counts are kept).
    pub(crate) fn domain_counts(&self, app: AppId) -> &[u32] {
        self.app_domains.get(&app).map_or(&[], Vec::as_slice)
    }

    /// The topology and every application's maintained domain counts, for
    /// the audit; `None` unless counts are kept.
    pub(crate) fn tracked_domains(&self) -> Option<(Topology, &BTreeMap<AppId, Vec<u32>>)> {
        Some((self.spread?, &self.app_domains))
    }

    /// Counts a VM of `app` arriving on (`arrived`) or leaving `pm`; a no-op
    /// unless [`Cluster::track_domains`] was called.
    fn count_domain(&mut self, app: AppId, pm: PmId, arrived: bool) {
        let Some(topology) = self.spread else {
            return;
        };
        let domains = topology.domains_in_fleet(self.machines.len());
        let counts = self
            .app_domains
            .entry(app)
            .or_insert_with(|| vec![0; domains]);
        let count = &mut counts[topology.domain_of(pm) as usize];
        *count = if arrived { *count + 1 } else { *count - 1 };
    }

    /// The machines, in id order.
    pub fn machines(&self) -> &[PhysicalMachine] {
        &self.machines
    }

    /// What the epoch engine's machine loop works on: the occupied-machine
    /// bitset, mutable access to every machine, and the shared step scratch
    /// (crate-private: VM membership must change through the cluster's
    /// methods so the location index and the bitset stay consistent).
    pub(crate) fn step_parts(&mut self) -> (&[u64], &mut [PhysicalMachine], &mut StepScratch) {
        (&self.occupied, &mut self.machines, &mut self.scratch)
    }

    /// The occupied-machine bitset, for the audit.
    pub(crate) fn occupied(&self) -> &[u64] {
        &self.occupied
    }

    /// The step scratch, for tests of the engine's work bound.
    #[cfg(test)]
    pub(crate) fn scratch(&self) -> &StepScratch {
        &self.scratch
    }

    /// Sets or clears `pm`'s occupied bit from its resident list; called
    /// after every membership change on `pm`.
    fn note_occupancy(&mut self, pm: PmId) {
        let occupied = !self.machines[pm.0 as usize].vms().is_empty();
        set_bit(&mut self.occupied, pm.0 as usize, occupied);
    }

    /// True while `pm` is inside a down window (crash, rack or domain
    /// outage, maintenance offline); always false unless a service with an
    /// enabled fault plane drives the cluster.
    pub fn machine_down(&self, pm: PmId) -> bool {
        bit(&self.status, 2 * pm.0 as usize + DOWN)
    }

    /// True while `pm` is inside a maintenance drain's notice window —
    /// still serving, but being migrated off and closed to new VMs.
    pub fn machine_draining(&self, pm: PmId) -> bool {
        bit(&self.status, 2 * pm.0 as usize + DRAINING)
    }

    /// True while `pm` takes no VM: down or draining.
    pub(crate) fn closed(&self, pm: PmId) -> bool {
        self.machine_down(pm) || self.machine_draining(pm)
    }

    /// Sets `pm`'s status bit `flag` to `on` and returns its previous
    /// value: the service's fault sweep, as the machine enters or leaves a
    /// window.
    pub(crate) fn set_status(&mut self, pm: PmId, flag: usize, on: bool) -> bool {
        set_bit(&mut self.status, 2 * pm.0 as usize + flag, on)
    }

    /// Marks one more epoch as completed (called by the epoch engine after
    /// every machine has been stepped).
    pub(crate) fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Shared access to one machine.
    pub fn machine(&self, pm: PmId) -> Option<&PhysicalMachine> {
        self.machines.get(pm.0 as usize)
    }

    /// Current epoch index (number of completed epochs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The machine currently hosting a VM.
    pub fn locate(&self, vm: VmId) -> Option<PmId> {
        self.vm_locations.get(&vm).copied()
    }

    /// Total number of VMs across the cluster.
    pub fn vm_count(&self) -> usize {
        self.vm_locations.len()
    }

    /// Machine-epochs resolved densely (contention model actually run) since
    /// the cluster was built, over all machines.
    pub fn total_resolves(&self) -> u64 {
        self.scratch.resolves
    }

    /// Machine-epochs served from the quiescent report cache instead of
    /// being resolved, over all machines.
    pub fn total_quiescent_steps(&self) -> u64 {
        self.scratch.quiescent_steps
    }

    /// Places a VM on a specific machine.
    pub fn place_on(&mut self, pm: PmId, vm: Vm) -> Result<(), ClusterError> {
        self.place_on_returning(pm, vm).map_err(|(_, error)| error)
    }

    /// Like [`Cluster::place_on`], but hands the VM back alongside the error
    /// instead of dropping it — the building block for multi-attempt callers
    /// (the service's hint/scan and crash-evacuation paths), which would
    /// otherwise have to rebuild the VM per attempt.
    pub(crate) fn place_on_returning(
        &mut self,
        pm: PmId,
        vm: Vm,
    ) -> Result<(), (Vm, ClusterError)> {
        let (vm_id, app) = (vm.id, vm.app_id());
        if self.closed(pm) {
            return Err((vm, ClusterError::Unavailable { vm: vm_id, pm }));
        }
        let Some(machine) = self.machines.get_mut(pm.0 as usize) else {
            return Err((vm, ClusterError::UnknownPm(pm)));
        };
        match machine.try_add_vm(vm) {
            Ok(()) => {
                self.vm_locations.insert(vm_id, pm);
                self.note_occupancy(pm);
                self.count_domain(app, pm, true);
                Ok(())
            }
            Err(rejected) => Err((rejected, ClusterError::NoCapacity { vm: vm_id, pm })),
        }
    }

    /// Places a VM on the first open machine with capacity (first-fit);
    /// returns the chosen machine.
    // simlint: test-accessor (builds the test fleets)
    pub fn place_first_fit(&mut self, vm: Vm) -> Result<PmId, ClusterError> {
        let open = |m: &&PhysicalMachine| !self.closed(m.id) && m.admits(&vm);
        let Some(pm) = self.machines.iter().find(open).map(|m| m.id) else {
            return Err(ClusterError::ClusterFull { vm: vm.id });
        };
        self.place_on(pm, vm).map(|()| pm)
    }

    /// Removes a VM from the cluster (a departure, an evacuee leaving a
    /// failed machine, or a terminated aggressor) and returns it; `None` if
    /// it is not placed anywhere.
    pub fn remove_vm(&mut self, vm: VmId) -> Option<Vm> {
        let pm = self.locate(vm)?;
        let removed = self.machines[pm.0 as usize].remove_vm(vm)?;
        self.vm_locations.remove(&vm);
        self.note_occupancy(pm);
        self.count_domain(removed.app_id(), pm, false);
        Some(removed)
    }

    /// Migrates a VM to the given destination machine, which must be open
    /// (neither down nor draining) and admit it.  Both are checked before
    /// anything moves, so on any error the VM stays where it was, in its
    /// slot.
    pub fn migrate(&mut self, vm: VmId, to: PmId) -> Result<(), ClusterError> {
        let from = self.locate(vm).ok_or(ClusterError::UnknownVm(vm))?;
        if from == to {
            return Err(ClusterError::AlreadyPlaced { vm, pm: to });
        }
        let destination = self.machine(to).ok_or(ClusterError::UnknownPm(to))?;
        if self.closed(to) {
            return Err(ClusterError::Unavailable { vm, pm: to });
        }
        let source = &self.machines[from.0 as usize];
        let moving = source
            .vms()
            .iter()
            .find(|v| v.id == vm)
            .ok_or(ClusterError::UnknownVm(vm))?;
        if !destination.admits(moving) {
            return Err(ClusterError::NoCapacity { vm, pm: to });
        }
        let moved = self.machines[from.0 as usize]
            .remove_vm(vm)
            .ok_or(ClusterError::UnknownVm(vm))?;
        let app = moved.app_id();
        self.machines[to.0 as usize].push_vm(moved);
        self.vm_locations.insert(vm, to);
        self.note_occupancy(from);
        self.note_occupancy(to);
        self.count_domain(app, from, false);
        self.count_domain(app, to, true);
        Ok(())
    }
}

/// Bit `index` of a bitset; false past its end.
fn bit(bits: &[u64], index: usize) -> bool {
    bits.get(index / 64)
        .is_some_and(|word| word >> (index % 64) & 1 == 1)
}

/// Sets bit `index` of a bitset to `on` and returns its previous value.
fn set_bit(bits: &mut [u64], index: usize, on: bool) -> bool {
    let (word, mask) = (&mut bits[index / 64], 1u64 << (index % 64));
    let was = *word & mask != 0;
    if on {
        *word |= mask;
    } else {
        *word &= !mask;
    }
    was
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("machines", &self.machines.len())
            .field("vms", &self.vm_count())
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EpochEngine;
    use crate::rngs::ClusterSeed;
    use workloads::{AppId, ClientEmulator, DataServing, MemoryStress};

    fn engine() -> EpochEngine {
        EpochEngine::serial(ClusterSeed::new(5))
    }

    fn serving_vm(id: u64) -> Vm {
        Vm::new(
            VmId(id),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        )
    }

    fn aggressor_vm(id: u64) -> Vm {
        Vm::new(
            VmId(id),
            Box::new(MemoryStress::new(AppId(50), 512.0)),
            ClientEmulator::new(1.0, 1.0),
        )
    }

    fn cluster(n: usize) -> Cluster {
        Cluster::homogeneous(n, MachineSpec::xeon_x5472(), Scheduler::default())
    }

    #[test]
    fn placement_and_location_round_trip() {
        let mut c = cluster(3);
        c.place_on(PmId(1), serving_vm(10)).unwrap();
        assert_eq!(c.locate(VmId(10)), Some(PmId(1)));
        assert_eq!(c.vm_count(), 1);
        assert_eq!(c.locate(VmId(11)), None);
    }

    #[test]
    fn first_fit_fills_machines_in_order() {
        let mut c = cluster(2);
        // Each Xeon takes four 2-vCPU VMs.
        for i in 0..5 {
            c.place_first_fit(serving_vm(i)).unwrap();
        }
        assert_eq!(c.machine(PmId(0)).unwrap().vm_count(), 4);
        assert_eq!(c.machine(PmId(1)).unwrap().vm_count(), 1);
    }

    #[test]
    fn placement_errors_are_reported() {
        let mut c = cluster(1);
        assert_eq!(
            c.place_on(PmId(9), serving_vm(1)),
            Err(ClusterError::UnknownPm(PmId(9)))
        );
        for i in 0..4 {
            c.place_on(PmId(0), serving_vm(i)).unwrap();
        }
        assert!(matches!(
            c.place_on(PmId(0), serving_vm(99)),
            Err(ClusterError::NoCapacity { .. })
        ));
    }

    #[test]
    fn exhausted_first_fit_reports_cluster_full() {
        let mut c = cluster(2);
        // Two Xeons take eight 2-vCPU VMs; the ninth has nowhere to go.
        for i in 0..8 {
            c.place_first_fit(serving_vm(i)).unwrap();
        }
        let err = c.place_first_fit(serving_vm(99)).unwrap_err();
        assert_eq!(err, ClusterError::ClusterFull { vm: VmId(99) });
        assert_eq!(
            err.to_string(),
            "no machine in the cluster has capacity for vm-99"
        );
        assert_eq!(c.vm_count(), 8);
        assert_eq!(c.locate(VmId(99)), None);
    }

    #[test]
    fn remove_vm_returns_the_vm_and_clears_its_location() {
        let mut c = cluster(2);
        c.place_on(PmId(1), serving_vm(7)).unwrap();
        let removed = c.remove_vm(VmId(7)).expect("vm placed above");
        assert_eq!(removed.id, VmId(7));
        assert_eq!(c.locate(VmId(7)), None);
        assert_eq!(c.vm_count(), 0);
        assert!(c.remove_vm(VmId(7)).is_none());
    }

    #[test]
    fn location_index_stays_consistent_under_interleaved_migrations() {
        // Drive every mutation path — placements, successful and failed
        // migrations, removals — and after each step audit the location
        // index and the domain counts against a scan of the machines.
        let mut c = cluster(3);
        c.track_domains(crate::faults::Topology::new(1, 1));
        let assert_consistent =
            |c: &Cluster| assert_eq!(crate::audit::check_cluster(c), Vec::<String>::new());

        for i in 0..6 {
            c.place_first_fit(serving_vm(i)).unwrap();
            assert_consistent(&c);
        }
        // Bounce VMs around; some of these moves hit full machines and are
        // rejected, which must leave the index untouched.
        let moves = [
            (VmId(0), PmId(2)),
            (VmId(4), PmId(0)),
            (VmId(1), PmId(2)),
            (VmId(0), PmId(1)),
            (VmId(5), PmId(0)),
            (VmId(2), PmId(2)),
        ];
        for (vm, to) in moves {
            let _ = c.migrate(vm, to);
            assert_consistent(&c);
        }
        c.remove_vm(VmId(3)).unwrap();
        assert_consistent(&c);
        c.place_first_fit(serving_vm(40)).unwrap();
        assert_consistent(&c);
    }

    #[test]
    fn the_audit_catches_a_stale_occupied_bit() {
        let mut c = cluster(70);
        c.place_on(PmId(65), serving_vm(1)).unwrap();
        assert_eq!(crate::audit::check_cluster(&c), Vec::<String>::new());
        // A removal path that forgot its bit, then one that set a phantom.
        for (word, bits) in [(1, 0), (0, 1)] {
            let kept = std::mem::replace(&mut c.occupied[word], bits);
            let findings = crate::audit::check_cluster(&c);
            assert_eq!(findings.len(), 1, "got: {findings:?}");
            assert!(findings[0].contains("occupied-machine set drifted"));
            c.occupied[word] = kept;
        }
    }

    #[test]
    fn a_down_or_draining_machine_takes_no_vm() {
        for flag in [DOWN, DRAINING] {
            let mut c = cluster(3);
            c.place_on(PmId(0), serving_vm(1)).unwrap();
            assert!(!c.set_status(PmId(1), flag, true), "bits start clear");
            let refused = |vm| Err(ClusterError::Unavailable { vm, pm: PmId(1) });
            assert_eq!(c.migrate(VmId(1), PmId(1)), refused(VmId(1)));
            assert_eq!(c.locate(VmId(1)), Some(PmId(0)), "the VM stays put");
            assert_eq!(c.place_on(PmId(1), serving_vm(2)), refused(VmId(2)));
            assert_eq!(c.place_first_fit(serving_vm(3)), Ok(PmId(0)));
            assert_eq!((c.machines()[1].vm_count(), c.vm_count()), (0, 2));
            assert!(c.set_status(PmId(1), flag, false));
            c.migrate(VmId(1), PmId(1)).unwrap();
        }
    }

    #[test]
    fn the_audit_catches_a_down_machine_that_hosts_a_vm() {
        let mut c = cluster(2);
        c.place_on(PmId(1), serving_vm(1)).unwrap();
        c.set_status(PmId(1), DRAINING, true);
        assert_eq!(crate::audit::check_cluster(&c), Vec::<String>::new());
        // A sweep that flipped the bit but never evacuated.
        c.set_status(PmId(1), DOWN, true);
        let findings = crate::audit::check_cluster(&c);
        assert_eq!(findings, ["pm-1 is down but hosts 1 VMs"]);
    }

    #[test]
    fn step_epoch_reports_every_vm_and_advances_time() {
        let mut c = cluster(2);
        c.place_on(PmId(0), serving_vm(1)).unwrap();
        c.place_on(PmId(1), serving_vm(2)).unwrap();
        let reports = engine().step(&mut c, |_| 0.7);
        assert_eq!(reports.len(), 2);
        assert_eq!(c.epoch(), 1);
        let second = engine().step(&mut c, |_| 0.7);
        assert_eq!(second[0].epoch, 1);
    }

    #[test]
    fn heterogeneous_builds_groups_in_order_with_sequential_ids() {
        let c = Cluster::heterogeneous(
            &[
                (MachineSpec::xeon_x5472(), 2),
                (MachineSpec::core_i7_nehalem(), 3),
            ],
            Scheduler::default(),
        );
        assert_eq!(c.machines().len(), 5);
        for (i, m) in c.machines().iter().enumerate() {
            assert_eq!(m.id, PmId(i as u64));
        }
        assert!(c.machines()[..2]
            .iter()
            .all(|m| *m.spec() == MachineSpec::xeon_x5472()));
        assert!(c.machines()[2..]
            .iter()
            .all(|m| *m.spec() == MachineSpec::core_i7_nehalem()));
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn heterogeneous_with_no_machines_is_rejected() {
        Cluster::heterogeneous(&[(MachineSpec::xeon_x5472(), 0)], Scheduler::default());
    }

    #[test]
    fn migration_moves_the_vm_and_leaves_its_neighbour() {
        let mut c = cluster(2);
        c.place_on(PmId(0), serving_vm(1)).unwrap();
        c.place_on(PmId(0), aggressor_vm(2)).unwrap();
        c.migrate(VmId(2), PmId(1)).unwrap();
        assert_eq!(c.locate(VmId(2)), Some(PmId(1)));
        assert_eq!(c.locate(VmId(1)), Some(PmId(0)));
    }

    #[test]
    fn migration_to_full_machine_rolls_back() {
        let mut c = cluster(2);
        for i in 0..4 {
            c.place_on(PmId(1), serving_vm(100 + i)).unwrap();
        }
        for i in 1..4 {
            c.place_on(PmId(0), serving_vm(i)).unwrap();
        }
        let err = c.migrate(VmId(1), PmId(1)).unwrap_err();
        assert!(matches!(err, ClusterError::NoCapacity { .. }));
        // The VM must still be on its source machine after the failed move,
        // in its own slot: the resident order (and so every cache group) is
        // unchanged.
        assert_eq!(c.locate(VmId(1)), Some(PmId(0)));
        let order: Vec<VmId> = c.machines()[0].vms().iter().map(|vm| vm.id).collect();
        assert_eq!(order, [VmId(1), VmId(2), VmId(3)]);
    }

    #[test]
    fn migration_errors_for_unknown_or_same_destination() {
        let mut c = cluster(2);
        c.place_on(PmId(0), serving_vm(1)).unwrap();
        assert_eq!(
            c.migrate(VmId(9), PmId(1)),
            Err(ClusterError::UnknownVm(VmId(9)))
        );
        assert_eq!(
            c.migrate(VmId(1), PmId(0)),
            Err(ClusterError::AlreadyPlaced {
                vm: VmId(1),
                pm: PmId(0)
            })
        );
        assert_eq!(
            c.migrate(VmId(1), PmId(7)),
            Err(ClusterError::UnknownPm(PmId(7)))
        );
    }

    #[test]
    fn interference_is_visible_in_cluster_reports() {
        let mut c = cluster(1);
        c.place_on(PmId(0), serving_vm(1)).unwrap();
        let engine = engine();
        let baseline = engine.step(&mut c, |_| 1.0);
        c.place_on(PmId(0), aggressor_vm(2)).unwrap();
        let contended = engine.step(&mut c, |_| 1.0);
        let victim_before = &baseline[0];
        let victim_after = contended.iter().find(|r| r.vm_id == VmId(1)).unwrap();
        assert!(victim_after.achieved_fraction < victim_before.achieved_fraction);
    }
}
