//! Virtual machines.
//!
//! A [`Vm`] bundles everything the provider knows about a tenant VM — its
//! size (vCPUs, memory) — with the things the provider explicitly does *not*
//! get to look inside: the workload generating its resource demands and the
//! client emulator that measures tenant-visible performance.  The latter two
//! exist only so the simulation can produce counters and ground truth; the
//! DeepDive crate never touches them.

use workloads::{AppId, ClientEmulator, Workload};

/// Unique identifier of a VM within the simulated cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u64);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// A tenant virtual machine.
pub struct Vm {
    /// Unique identifier.
    pub id: VmId,
    /// Number of dedicated vCPUs (pinned to physical cores, as in §5.1).
    pub vcpus: usize,
    /// Memory allocation in MiB.
    pub memory_mb: f64,
    /// The tenant's application (opaque to the provider).
    pub workload: Box<dyn Workload>,
    /// Client emulator producing tenant-visible performance ground truth.
    pub client: ClientEmulator,
}

impl Vm {
    /// Creates a VM with the paper's default shape: two dedicated vCPUs and
    /// 2 GiB of memory (§5.1 gives each VM two cores and enough memory to
    /// avoid swapping).
    pub fn new(id: VmId, workload: Box<dyn Workload>, client: ClientEmulator) -> Self {
        Self {
            id,
            vcpus: 2,
            memory_mb: 2_048.0,
            workload,
            client,
        }
    }

    /// Creates a VM with an explicit shape.
    ///
    /// # Panics
    /// Panics if `vcpus` is zero or `memory_mb` is not positive.
    // simlint: test-accessor (builds 1- and 4-vCPU and memory-heavy tenants)
    pub fn with_shape(
        id: VmId,
        vcpus: usize,
        memory_mb: f64,
        workload: Box<dyn Workload>,
        client: ClientEmulator,
    ) -> Self {
        assert!(vcpus > 0, "a VM needs at least one vCPU");
        assert!(memory_mb > 0.0, "a VM needs positive memory");
        Self {
            id,
            vcpus,
            memory_mb,
            workload,
            client,
        }
    }

    /// Application identity (which code the VM runs), used by DeepDive's
    /// global-information check.
    pub fn app_id(&self) -> AppId {
        self.workload.app_id()
    }
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("id", &self.id)
            .field("vcpus", &self.vcpus)
            .field("memory_mb", &self.memory_mb)
            .field("workload", &self.workload.name())
            .field("app", &self.app_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::DataServing;

    fn sample_vm() -> Vm {
        Vm::new(
            VmId(7),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        )
    }

    #[test]
    fn default_shape_matches_paper_testbed() {
        let vm = sample_vm();
        assert_eq!(vm.vcpus, 2);
        assert_eq!(vm.memory_mb, 2_048.0);
        assert_eq!(vm.app_id(), AppId(1));
    }

    #[test]
    fn display_and_debug_are_informative() {
        let vm = sample_vm();
        assert_eq!(format!("{}", vm.id), "vm-7");
        let dbg = format!("{vm:?}");
        assert!(dbg.contains("data-serving"));
    }

    #[test]
    #[should_panic(expected = "at least one vCPU")]
    fn zero_vcpus_rejected() {
        Vm::with_shape(
            VmId(1),
            0,
            1024.0,
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(100.0, 1.0),
        );
    }
}
