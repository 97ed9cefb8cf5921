//! vCPU / cache-group placement and admission control.
//!
//! The Xen configuration in the paper pins each VM's vCPUs to dedicated
//! cores (§5.1).  What the scheduler decides in our model is *which
//! last-level-cache group* a VM's cores belong to, because that determines
//! which VMs contend in the shared cache: it fills cache groups two VMs at
//! a time, reproducing the co-location that makes cache interference
//! possible (the paper's default situation).  It also performs admission
//! control (core and memory capacity).

use hwsim::MachineSpec;

use crate::vm::Vm;

/// The per-PM scheduler: one fixed packing and admission policy, built
/// with `Scheduler::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Scheduler;

impl Scheduler {
    /// Returns the cache-group index for the VM occupying `slot` (its index
    /// in the host's VM list): two VMs per group before moving on, so slots
    /// 0,1 -> group 0, slots 2,3 -> group 1, ...
    pub fn cache_group_for_slot(&self, spec: &MachineSpec, slot: usize) -> usize {
        (slot / 2) % spec.cache_groups().max(1)
    }

    /// Admission check: can `candidate` be added to a machine already hosting
    /// `resident` VMs?
    pub fn admits(&self, spec: &MachineSpec, resident: &[Vm], candidate: &Vm) -> bool {
        let used_cores: usize = resident.iter().map(|v| v.vcpus).sum();
        let used_memory: f64 = resident.iter().map(|v| v.memory_mb).sum();
        used_cores + candidate.vcpus <= spec.cores
            && used_memory + candidate.memory_mb <= spec.dram_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmId;
    use workloads::{AppId, ClientEmulator, DataServing};

    fn vm(id: u64) -> Vm {
        Vm::new(
            VmId(id),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(1_000.0, 5.0),
        )
    }

    #[test]
    fn pack_policy_pairs_vms_on_the_same_cache_group() {
        let spec = MachineSpec::xeon_x5472();
        let s = Scheduler;
        assert_eq!(s.cache_group_for_slot(&spec, 0), 0);
        assert_eq!(s.cache_group_for_slot(&spec, 1), 0);
        assert_eq!(s.cache_group_for_slot(&spec, 2), 1);
        assert_eq!(s.cache_group_for_slot(&spec, 3), 1);
    }

    #[test]
    fn cache_group_is_always_within_range() {
        let spec = MachineSpec::xeon_x5472();
        for slot in 0..16 {
            assert!(Scheduler.cache_group_for_slot(&spec, slot) < spec.cache_groups());
        }
    }

    #[test]
    fn admission_respects_core_capacity() {
        let spec = MachineSpec::xeon_x5472();
        let s = Scheduler::default();
        let resident: Vec<Vm> = (0..4).map(vm).collect(); // 8 cores used
        assert!(!s.admits(&spec, &resident, &vm(99)));
        let three: Vec<Vm> = (0..3).map(vm).collect(); // 6 cores used
        assert!(s.admits(&spec, &three, &vm(99)));
    }

    #[test]
    fn admission_respects_memory_capacity() {
        let spec = MachineSpec::xeon_x5472();
        let s = Scheduler::default();
        let big = Vm::with_shape(
            VmId(1),
            2,
            7_000.0,
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(1_000.0, 5.0),
        );
        let resident = vec![big];
        assert!(!s.admits(&spec, &resident, &vm(2)));
    }
}
