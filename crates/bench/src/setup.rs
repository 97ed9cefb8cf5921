//! Shared scenario builders for the evaluation experiments.
//!
//! The paper's testbed pairs each cloud workload with the stress workload
//! that pressures the resource it depends on (§5.3): memory-stress with Data
//! Serving, network-stress with Data Analytics, and disk-stress with Web
//! Search.  These helpers build the corresponding VMs and clusters so every
//! figure's bench starts from the same, paper-faithful configuration.

use cloudsim::{Cluster, PmId, Scheduler, Vm, VmId};
use hwsim::MachineSpec;
use workloads::{
    AppId, ClientEmulator, DataAnalytics, DataServing, DiskStress, MemoryStress, NetworkStress,
    WebSearch, Workload,
};

/// The three cloud workloads of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudWorkload {
    /// Cassandra/YCSB (Data Serving).
    DataServing,
    /// Nutch/Faban (Web Search).
    WebSearch,
    /// Hadoop/Mahout (Data Analytics).
    DataAnalytics,
}

impl CloudWorkload {
    /// All three, in the paper's order.
    pub const ALL: [CloudWorkload; 3] = [
        CloudWorkload::DataServing,
        CloudWorkload::WebSearch,
        CloudWorkload::DataAnalytics,
    ];

    /// Display name used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            CloudWorkload::DataServing => "Data Serving",
            CloudWorkload::WebSearch => "Web Search",
            CloudWorkload::DataAnalytics => "Data Analytics",
        }
    }

    /// Application identity used for this workload's VMs.
    pub(crate) fn app_id(&self) -> AppId {
        match self {
            CloudWorkload::DataServing => AppId(1),
            CloudWorkload::WebSearch => AppId(2),
            CloudWorkload::DataAnalytics => AppId(3),
        }
    }

    /// Builds the workload generator for one VM.
    pub(crate) fn workload(&self) -> Box<dyn Workload> {
        match self {
            CloudWorkload::DataServing => Box::new(DataServing::with_defaults(self.app_id())),
            CloudWorkload::WebSearch => Box::new(WebSearch::with_defaults(self.app_id())),
            CloudWorkload::DataAnalytics => Box::new(DataAnalytics::worker(self.app_id())),
        }
    }

    /// Client emulator matching the workload's peak rate and base latency.
    pub(crate) fn client(&self) -> ClientEmulator {
        match self {
            CloudWorkload::DataServing => ClientEmulator::new(8_000.0, 4.0),
            CloudWorkload::WebSearch => ClientEmulator::new(1_200.0, 25.0),
            CloudWorkload::DataAnalytics => ClientEmulator::new(40.0, 400.0),
        }
    }

    /// Builds a victim VM running this workload.
    pub(crate) fn victim_vm(&self, id: u64) -> Vm {
        Vm::new(VmId(id), self.workload(), self.client())
    }

    /// The stress workload the paper co-locates with this victim (§5.3).
    pub(crate) fn paired_stress(&self) -> StressKind {
        match self {
            CloudWorkload::DataServing => StressKind::Memory,
            CloudWorkload::WebSearch => StressKind::Disk,
            CloudWorkload::DataAnalytics => StressKind::Network,
        }
    }
}

/// The three interfering workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StressKind {
    /// Bubble-Up-style memory/cache aggressor.
    Memory,
    /// iperf-style bidirectional UDP streams.
    Network,
    /// Rate-limited file copy.
    Disk,
}

impl StressKind {
    /// Builds a stress VM at the given intensity in `[0, 1]`, mapped onto the
    /// paper's parameter sweeps: 6–512 MB working set, 50–700 Mbps, or
    /// 1–10 MB/s respectively.
    pub(crate) fn vm(&self, id: u64, intensity: f64) -> Vm {
        let intensity = intensity.clamp(0.0, 1.0);
        let workload: Box<dyn Workload> = match self {
            StressKind::Memory => Box::new(MemoryStress::new(
                AppId(900),
                6.0 + intensity * (512.0 - 6.0),
            )),
            StressKind::Network => Box::new(NetworkStress::new(
                AppId(901),
                50.0 + intensity * (700.0 - 50.0),
            )),
            StressKind::Disk => Box::new(DiskStress::new(AppId(902), 1.0 + intensity * 9.0)),
        };
        Vm::new(VmId(id), workload, ClientEmulator::new(1.0, 1.0))
    }
}

/// A cluster of `n` Xeon X5472 machines with the default (packed) scheduler.
pub(crate) fn xeon_cluster(n: usize) -> Cluster {
    Cluster::homogeneous(n, MachineSpec::xeon_x5472(), Scheduler::default())
}

/// Places a victim running `workload` on machine 0 of a fresh Xeon cluster
/// with `machines` machines and returns the cluster.
pub(crate) fn victim_cluster(workload: CloudWorkload, machines: usize) -> Cluster {
    let mut cluster = xeon_cluster(machines);
    cluster
        .place_on(PmId(0), workload.victim_vm(1))
        .expect("empty machine admits the victim");
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_a_victim_vm() {
        for (i, w) in CloudWorkload::ALL.iter().enumerate() {
            let vm = w.victim_vm(i as u64);
            assert_eq!(vm.vcpus, 2);
            assert_eq!(vm.app_id(), w.app_id());
        }
    }

    #[test]
    fn stress_pairing_matches_the_paper() {
        assert_eq!(
            CloudWorkload::DataServing.paired_stress(),
            StressKind::Memory
        );
        assert_eq!(CloudWorkload::WebSearch.paired_stress(), StressKind::Disk);
        assert_eq!(
            CloudWorkload::DataAnalytics.paired_stress(),
            StressKind::Network
        );
    }

    #[test]
    fn stress_intensity_maps_to_paper_ranges() {
        // The endpoints of the sweeps must match §5.3.
        let mild = StressKind::Memory.vm(1, 0.0);
        let harsh = StressKind::Memory.vm(2, 1.0);
        assert!(format!("{mild:?}").contains("memory-stress"));
        assert!(format!("{harsh:?}").contains("memory-stress"));
    }

    #[test]
    fn victim_cluster_places_one_vm_on_machine_zero() {
        let cluster = victim_cluster(CloudWorkload::WebSearch, 3);
        assert_eq!(cluster.vm_count(), 1);
        assert_eq!(cluster.locate(VmId(1)), Some(PmId(0)));
    }
}
