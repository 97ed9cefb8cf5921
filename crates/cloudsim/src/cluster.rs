//! The simulated datacenter: a set of physical machines, epoch stepping and
//! VM migration.
//!
//! The cluster is the object the end-to-end DeepDive controller drives: each
//! epoch it produces the full set of per-VM reports (counters for DeepDive,
//! ground truth for the evaluation), and the placement manager calls
//! [`Cluster::migrate`] when interference mitigation requires moving a VM.

use std::collections::HashMap;

use crate::pm::{PhysicalMachine, PmId};
use crate::scheduler::Scheduler;
use crate::vm::{Vm, VmId};
use hwsim::MachineSpec;

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
        }
    }
}

impl std::error::Error for ClusterError {}

/// The datacenter.
pub struct Cluster {
    machines: Vec<PhysicalMachine>,
    epoch: u64,
    /// Machine id → index into `machines`, so per-machine lookups are O(1)
    /// instead of a scan per migration or report.
    pm_index: HashMap<PmId, usize>,
    /// VM id → hosting machine, maintained by every placement, migration and
    /// removal; the backing store for O(1) [`Cluster::locate`].
    vm_locations: HashMap<VmId, PmId>,
}

impl Cluster {
    /// Creates a cluster of `n` identical machines with the given scheduler.
    pub fn homogeneous(n: usize, spec: MachineSpec, scheduler: Scheduler) -> Self {
        assert!(n > 0, "a cluster needs at least one machine");
        let machines = (0..n)
            .map(|i| PhysicalMachine::new(PmId(i as u64), spec.clone(), scheduler))
            .collect();
        Self::from_machines(machines)
    }

    /// Creates a mixed-hardware cluster: for each `(spec, count)` group, in
    /// order, `count` machines of that model, with machine ids assigned
    /// sequentially across groups.  Sugar over [`Cluster::from_machines`]
    /// for the ROADMAP's heterogeneous-fleet scenario (e.g. a Xeon X5472
    /// rack extended with Core i7/Nehalem nodes, §4.4).
    ///
    /// # Panics
    /// Panics if the groups describe zero machines in total.
    pub fn heterogeneous(specs: &[(MachineSpec, usize)], scheduler: Scheduler) -> Self {
        let machines: Vec<PhysicalMachine> = specs
            .iter()
            .flat_map(|(spec, count)| std::iter::repeat_n(spec, *count))
            .enumerate()
            .map(|(i, spec)| PhysicalMachine::new(PmId(i as u64), spec.clone(), scheduler))
            .collect();
        Self::from_machines(machines)
    }

    /// Creates a cluster from explicit machines.
    ///
    /// # Panics
    /// Panics if the machine list is empty or two machines share an id.
    pub fn from_machines(machines: Vec<PhysicalMachine>) -> Self {
        assert!(!machines.is_empty(), "a cluster needs at least one machine");
        let mut pm_index = HashMap::with_capacity(machines.len());
        let mut vm_locations = HashMap::new();
        for (idx, machine) in machines.iter().enumerate() {
            let previous = pm_index.insert(machine.id, idx);
            assert!(previous.is_none(), "duplicate machine id {}", machine.id);
            for vm in machine.vms() {
                vm_locations.insert(vm.id, machine.id);
            }
        }
        Self {
            machines,
            epoch: 0,
            pm_index,
            vm_locations,
        }
    }

    /// The machines, in id order.
    pub fn machines(&self) -> &[PhysicalMachine] {
        &self.machines
    }

    /// Mutable access to every machine at once, for the epoch engine's
    /// shard partitioning (crate-private: VM membership must change through
    /// the cluster's methods so the VM-location index stays consistent).
    pub(crate) fn machines_mut(&mut self) -> &mut [PhysicalMachine] {
        &mut self.machines
    }

    /// Marks one more epoch as completed (called by the epoch engine after
    /// every machine has been stepped).
    pub(crate) fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Mutable access to one machine, for the membership methods below
    /// ([`Cluster::place_on`], [`Cluster::migrate`], [`Cluster::remove_vm`]),
    /// which keep the VM-location index in sync.
    fn machine_mut(&mut self, pm: PmId) -> Option<&mut PhysicalMachine> {
        let idx = *self.pm_index.get(&pm)?;
        Some(&mut self.machines[idx])
    }

    /// Shared access to one machine.
    pub fn machine(&self, pm: PmId) -> Option<&PhysicalMachine> {
        let idx = *self.pm_index.get(&pm)?;
        Some(&self.machines[idx])
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
    /// the cluster was built, summed over all machines.
    pub fn total_resolves(&self) -> u64 {
        self.machines.iter().map(|m| m.resolves()).sum()
    }

    /// Machine-epochs served from the quiescent report cache instead of
    /// being resolved, summed over all machines.
    pub fn total_quiescent_steps(&self) -> u64 {
        self.machines.iter().map(|m| m.quiescent_steps()).sum()
    }

    /// Places a VM on a specific machine.
    pub fn place_on(&mut self, pm: PmId, vm: Vm) -> Result<(), ClusterError> {
        self.place_on_returning(pm, vm).map_err(|(_, error)| error)
    }

    /// Like [`Cluster::place_on`], but hands the VM back alongside the error
    /// instead of dropping it — the building block for multi-attempt callers
    /// (the service's hint/scan and crash-evacuation paths), which would
    /// otherwise have to rebuild the VM per attempt.
    pub fn place_on_returning(&mut self, pm: PmId, vm: Vm) -> Result<(), (Vm, ClusterError)> {
        let vm_id = vm.id;
        let Some(machine) = self.machine_mut(pm) else {
            return Err((vm, ClusterError::UnknownPm(pm)));
        };
        match machine.try_add_vm(vm) {
            Ok(()) => {
                self.vm_locations.insert(vm_id, pm);
                Ok(())
            }
            Err(rejected) => Err((rejected, ClusterError::NoCapacity { vm: vm_id, pm })),
        }
    }

    /// Removes every VM from `pm` (a machine crash being drained), in
    /// placement order, keeping the location index consistent.  Returns the
    /// evacuees so the caller can re-place them across the surviving fleet;
    /// an unknown machine drains to an empty list.  The machine's membership
    /// generation is bumped, so its quiescent cache can never replay
    /// pre-crash reports after it rejoins.
    pub fn drain_machine(&mut self, pm: PmId) -> Vec<Vm> {
        let Some(machine) = self.machine_mut(pm) else {
            return Vec::new();
        };
        let drained = machine.drain_vms();
        for vm in &drained {
            self.vm_locations.remove(&vm.id);
        }
        drained
    }

    /// Places a VM on the first machine with capacity (first-fit); returns
    /// the chosen machine.
    pub fn place_first_fit(&mut self, vm: Vm) -> Result<PmId, ClusterError> {
        let vm_id = vm.id;
        let mut vm = vm;
        for machine in self.machines.iter_mut() {
            match machine.try_add_vm(vm) {
                Ok(()) => {
                    self.vm_locations.insert(vm_id, machine.id);
                    return Ok(machine.id);
                }
                Err(rejected) => vm = rejected,
            }
        }
        Err(ClusterError::ClusterFull { vm: vm_id })
    }

    /// Removes a VM from the cluster (e.g. a terminated aggressor or an
    /// expired synthetic clone) and returns it; `None` if it is not placed
    /// anywhere.
    pub fn remove_vm(&mut self, vm: VmId) -> Option<Vm> {
        let pm = self.locate(vm)?;
        let removed = self
            .machine_mut(pm)
            .expect("located machine exists")
            .remove_vm(vm)?;
        self.vm_locations.remove(&vm);
        Some(removed)
    }

    /// Migrates a VM to the given destination machine; on any error the VM
    /// stays where it was.
    pub fn migrate(&mut self, vm: VmId, to: PmId) -> Result<(), ClusterError> {
        let from = self.locate(vm).ok_or(ClusterError::UnknownVm(vm))?;
        if from == to {
            return Err(ClusterError::AlreadyPlaced { vm, pm: to });
        }
        if self.machine(to).is_none() {
            return Err(ClusterError::UnknownPm(to));
        }
        let moved = self
            .machine_mut(from)
            .expect("source machine exists")
            .remove_vm(vm)
            .expect("vm located on source");
        match self
            .machine_mut(to)
            .expect("destination exists")
            .try_add_vm(moved)
        {
            Ok(()) => {
                self.vm_locations.insert(vm, to);
                Ok(())
            }
            Err(rejected) => {
                // Roll back: put the VM where it came from.
                self.machine_mut(from)
                    .expect("source machine exists")
                    .try_add_vm(rejected)
                    .expect("source still has room for its own VM");
                Err(ClusterError::NoCapacity { vm, pm: to })
            }
        }
    }
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
        // migrations, removals — and after each step check the O(1) index
        // against a brute-force scan of the machines.
        let mut c = cluster(3);
        let assert_consistent = |c: &Cluster| {
            let mut scanned = 0;
            for m in c.machines() {
                for vm in m.vms() {
                    scanned += 1;
                    assert_eq!(c.locate(vm.id), Some(m.id), "index disagrees for {}", vm.id);
                }
            }
            assert_eq!(c.vm_count(), scanned);
        };

        for i in 0..6 {
            c.place_first_fit(serving_vm(i)).unwrap();
            assert_consistent(&c);
        }
        // Bounce VMs around; some of these moves hit full machines and roll
        // back, which must leave the index untouched.
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
    #[should_panic(expected = "duplicate machine id")]
    fn duplicate_machine_ids_are_rejected() {
        let spec = MachineSpec::xeon_x5472();
        Cluster::from_machines(vec![
            PhysicalMachine::new(PmId(3), spec.clone(), Scheduler::default()),
            PhysicalMachine::new(PmId(3), spec, Scheduler::default()),
        ]);
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
        c.place_on(PmId(0), serving_vm(1)).unwrap();
        let err = c.migrate(VmId(1), PmId(1)).unwrap_err();
        assert!(matches!(err, ClusterError::NoCapacity { .. }));
        // The VM must still be on its source machine after the failed move.
        assert_eq!(c.locate(VmId(1)), Some(PmId(0)));
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
