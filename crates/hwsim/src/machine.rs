//! Physical-machine specifications.
//!
//! The paper evaluates DeepDive on two server generations:
//!
//! * the main testbed — Intel Xeon X5472: eight 3-GHz cores, 12 MiB of L2
//!   shared across each *pair* of cores, a front-side bus to memory, 8 GiB of
//!   DRAM, two 7200-rpm disks and a 1-Gb NIC (§5.1), and
//! * the portability case study (§4.4, Fig. 7) — a NUMA server with two
//!   quad-core Core i7-based Xeon E5640 processors at 2.67 GHz, per-core
//!   1-MiB L2, a 12-MiB shared L3 per socket and QuickPath instead of the FSB.
//!
//! [`MachineSpec`] captures the parameters the contention model needs; the
//! two constructors reproduce these machines so the benches can re-run the
//! paper's experiments on both.

/// Kind of processor interconnect to memory; affects naming in the CPI stack
/// (FSB on the Xeon X5472, QPI on the Core i7 port) but not the model shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryInterconnect {
    /// Shared front-side bus (older Xeon generation used in the main testbed).
    FrontSideBus,
    /// Point-to-point QuickPath interconnect with integrated memory controllers.
    QuickPath,
}

impl MemoryInterconnect {
    /// Label used when printing CPI-stack breakdowns.
    pub fn label(&self) -> &'static str {
        match self {
            MemoryInterconnect::FrontSideBus => "FSB",
            MemoryInterconnect::QuickPath => "QPI",
        }
    }
}

/// Static description of a physical machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable model name.
    pub name: String,
    /// Core clock frequency in Hz.
    pub clock_hz: f64,
    /// Total number of physical cores.
    pub cores: usize,
    /// Number of cores sharing one last-level-cache group.
    pub cores_per_cache_group: usize,
    /// Capacity of each shared last-level cache group, in MiB.
    pub shared_cache_mb: f64,
    /// Average latency of a shared-cache hit, in core cycles.
    pub shared_cache_hit_cycles: f64,
    /// Average latency of a memory access (shared-cache miss) with an idle
    /// interconnect, in core cycles.
    pub memory_latency_cycles: f64,
    /// Sustainable interconnect (FSB or QPI) bandwidth, in MiB/s.
    pub memory_bandwidth_mbps: f64,
    /// Interconnect type (affects labels only).
    pub interconnect: MemoryInterconnect,
    /// DRAM capacity in MiB (used for admission checks, not contention).
    pub dram_mb: f64,
    /// Sequential disk bandwidth in MiB/s.
    pub disk_seq_mbps: f64,
    /// Random-access disk bandwidth in MiB/s (seek-bound).
    pub disk_rand_mbps: f64,
    /// NIC line rate in MiB/s.
    pub nic_mbps: f64,
}

impl MachineSpec {
    /// The paper's main testbed server: Intel Xeon X5472 (§5.1).
    ///
    /// Eight 3-GHz cores, 12 MiB of L2 shared per core pair, FSB-attached
    /// memory, 8 GiB DRAM, 7200-rpm disks and a 1-Gb NIC.
    pub fn xeon_x5472() -> Self {
        Self {
            name: "Intel Xeon X5472".to_string(),
            clock_hz: 3.0e9,
            cores: 8,
            cores_per_cache_group: 2,
            shared_cache_mb: 12.0,
            shared_cache_hit_cycles: 15.0,
            memory_latency_cycles: 300.0,
            memory_bandwidth_mbps: 6_000.0,
            interconnect: MemoryInterconnect::FrontSideBus,
            dram_mb: 8_192.0,
            disk_seq_mbps: 100.0,
            disk_rand_mbps: 2.0,
            nic_mbps: 125.0,
        }
    }

    /// The portability case study server: dual quad-core Core i7-based Xeon
    /// E5640 with a 12-MiB L3 per socket and QuickPath (§4.4, Fig. 7).
    pub fn core_i7_nehalem() -> Self {
        Self {
            name: "Intel Xeon E5640 (Core i7/Nehalem)".to_string(),
            clock_hz: 2.67e9,
            cores: 8,
            cores_per_cache_group: 4,
            shared_cache_mb: 12.0,
            shared_cache_hit_cycles: 40.0,
            memory_latency_cycles: 200.0,
            memory_bandwidth_mbps: 20_000.0,
            interconnect: MemoryInterconnect::QuickPath,
            dram_mb: 24_576.0,
            disk_seq_mbps: 120.0,
            disk_rand_mbps: 2.5,
            nic_mbps: 125.0,
        }
    }

    /// Number of shared-cache groups on the machine.
    pub fn cache_groups(&self) -> usize {
        self.cores / self.cores_per_cache_group
    }

    /// True when the spec is internally consistent (non-zero capacities,
    /// cores divisible into cache groups).
    pub fn is_well_formed(&self) -> bool {
        self.clock_hz > 0.0
            && self.cores > 0
            && self.cores_per_cache_group > 0
            && self.cores.is_multiple_of(self.cores_per_cache_group)
            && self.shared_cache_mb > 0.0
            && self.memory_bandwidth_mbps > 0.0
            && self.memory_latency_cycles > 0.0
            && self.disk_seq_mbps > 0.0
            && self.disk_rand_mbps > 0.0
            && self.nic_mbps > 0.0
            && self.dram_mb > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_spec_matches_paper_section_5_1() {
        let spec = MachineSpec::xeon_x5472();
        assert!(spec.is_well_formed());
        assert_eq!(spec.cores, 8);
        assert_eq!(spec.cores_per_cache_group, 2);
        assert_eq!(spec.cache_groups(), 4);
        assert!((spec.clock_hz - 3.0e9).abs() < 1.0);
        assert_eq!(spec.shared_cache_mb, 12.0);
        assert_eq!(spec.interconnect, MemoryInterconnect::FrontSideBus);
        // 1-Gb NIC = 125 MiB/s line rate.
        assert_eq!(spec.nic_mbps, 125.0);
    }

    #[test]
    fn i7_spec_matches_paper_section_4_4() {
        let spec = MachineSpec::core_i7_nehalem();
        assert!(spec.is_well_formed());
        assert_eq!(spec.cores, 8);
        assert_eq!(spec.cache_groups(), 2);
        assert_eq!(spec.interconnect, MemoryInterconnect::QuickPath);
        // QPI offers far more bandwidth than the old FSB — the property the
        // portability experiment relies on.
        assert!(spec.memory_bandwidth_mbps > MachineSpec::xeon_x5472().memory_bandwidth_mbps);
    }

    #[test]
    fn malformed_spec_is_rejected() {
        let mut spec = MachineSpec::xeon_x5472();
        spec.cores_per_cache_group = 3; // 8 % 3 != 0
        assert!(!spec.is_well_formed());
        let mut spec2 = MachineSpec::xeon_x5472();
        spec2.nic_mbps = 0.0;
        assert!(!spec2.is_well_formed());
    }

    #[test]
    fn interconnect_labels() {
        assert_eq!(MemoryInterconnect::FrontSideBus.label(), "FSB");
        assert_eq!(MemoryInterconnect::QuickPath.label(), "QPI");
    }
}
