//! Epoch-resolution types: the cache, bus, disk, NIC and core models combined
//! into a single answer per VM — how much work completed, where the cycles
//! went, and what the Table 1 counters read.
//!
//! This is the boundary between the "hardware" and everything above it:
//!
//! * workload models produce [`crate::demand::ResourceDemand`]s,
//! * the virtualization substrate (`cloudsim`) decides which demands share a
//!   machine, which cores and which cache group each VM gets, and
//! * DeepDive (`deepdive`) sees only the [`crate::counters::CounterSnapshot`]
//!   the resolver emits.
//!
//! The resolution pipeline itself lives in [`crate::resolver`]: a reusable
//! [`EpochResolver`](crate::resolver::EpochResolver) owns all scratch state
//! so that the hot path — every epoch of every simulated machine — allocates
//! nothing.  This module holds only the types that cross that boundary.
//!
//! The resolver also returns a ground-truth [`StallBreakdown`] per VM, which
//! the evaluation harness uses to validate the analyzer's *estimated*
//! CPI-stack attribution (Fig. 6) without DeepDive ever reading it.

use crate::counters::CounterSnapshot;
use crate::demand::{AsDemand, ResourceDemand};

/// A VM's demand placed on specific machine resources for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedDemand {
    /// Caller-defined identifier (e.g. the VM id within the cluster).
    pub vm_id: u64,
    /// The intrinsic demand for this epoch.
    pub demand: ResourceDemand,
    /// Number of physical cores dedicated to the VM (vCPUs are pinned, §5.1).
    pub vcpus: usize,
    /// Index of the shared-cache group the VM's cores belong to.
    pub cache_group: usize,
}

impl PlacedDemand {
    /// Convenience constructor.
    pub fn new(vm_id: u64, demand: ResourceDemand, vcpus: usize, cache_group: usize) -> Self {
        Self {
            vm_id,
            demand,
            vcpus,
            cache_group,
        }
    }
}

impl AsDemand for PlacedDemand {
    fn as_demand(&self) -> &ResourceDemand {
        &self.demand
    }
}

/// Ground-truth decomposition of where a VM's epoch time went, in seconds.
///
/// The component names mirror Fig. 6 of the paper: in-core execution,
/// shared-cache-miss (memory) stalls, interconnect queueing stalls, and I/O
/// stalls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StallBreakdown {
    /// Seconds executing instructions and hitting private caches ("Core").
    pub core_seconds: f64,
    /// Seconds stalled on shared-cache misses at the uncontended memory
    /// latency ("L2 miss").
    pub llc_miss_seconds: f64,
    /// Additional seconds stalled because the memory interconnect was
    /// congested ("FSB"/"QPI").
    pub bus_queue_seconds: f64,
    /// Seconds stalled waiting on the disk.
    pub disk_seconds: f64,
    /// Seconds stalled waiting on the network.
    pub net_seconds: f64,
}

impl StallBreakdown {
    /// Total busy-plus-stalled seconds the demanded work requires.
    pub fn total(&self) -> f64 {
        self.core_seconds
            + self.llc_miss_seconds
            + self.bus_queue_seconds
            + self.disk_seconds
            + self.net_seconds
    }
}

/// Everything the hardware reports about one VM after one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// The caller-defined VM identifier from the placement.
    pub vm_id: u64,
    /// The Table 1 counters for this VM over the epoch.
    pub counters: CounterSnapshot,
    /// Fraction of the demanded work that completed (1.0 = kept up with the
    /// offered load).  This is the client-visible ground truth the
    /// evaluation uses; DeepDive itself never reads it.
    pub achieved_fraction: f64,
    /// Instructions the workload wanted to retire this epoch.
    pub demanded_instructions: f64,
    /// Ground-truth time breakdown for the *demanded* work.
    pub breakdown: StallBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;
    use crate::resolver::EpochResolver;

    fn cache_victim() -> ResourceDemand {
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
            .instructions(2.0e9)
            .working_set_mb(512.0)
            .l1_mpki(50.0)
            .llc_mpki_solo(35.0)
            .locality(0.0)
            .parallelism(2.0)
            .build()
    }

    fn io_aggressor() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(2.0e8)
            .disk_read_mb(80.0)
            .disk_seq_fraction(1.0)
            .net_tx_mb(100.0)
            .build()
    }

    #[test]
    fn empty_placement_resolves_to_nothing() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        assert!(resolver.resolve(&[]).is_empty());
    }

    #[test]
    fn solo_vm_on_idle_machine_keeps_up() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let out = resolver.resolve(&[PlacedDemand::new(1, cache_victim(), 2, 0)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vm_id, 1);
        assert!(
            out[0].achieved_fraction > 0.9,
            "fraction {}",
            out[0].achieved_fraction
        );
        assert!(out[0].counters.is_well_formed());
        assert!(out[0].counters.inst_retired > 0.0);
    }

    #[test]
    fn cache_interference_reduces_retired_instructions_and_grows_stalls() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let solo = resolver.resolve(&[PlacedDemand::new(1, cache_victim(), 2, 0)]);
        let shared = resolver.resolve(&[
            PlacedDemand::new(1, cache_victim(), 2, 0),
            PlacedDemand::new(2, cache_aggressor(), 2, 0),
        ]);
        assert!(shared[0].counters.inst_retired < solo[0].counters.inst_retired);
        assert!(
            shared[0].breakdown.llc_miss_seconds > solo[0].breakdown.llc_miss_seconds,
            "LLC stall must grow under cache interference"
        );
        // Normalized miss rate (per retired instruction) must also rise —
        // this is the signal the warning system clusters on.
        let n_solo = solo[0].counters.normalized_per_kilo_instruction();
        let n_shared = shared[0].counters.normalized_per_kilo_instruction();
        assert!(n_shared.l2_lines_in > n_solo.l2_lines_in);
    }

    #[test]
    fn separate_cache_groups_isolate_cache_interference() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let same = resolver.resolve(&[
            PlacedDemand::new(1, cache_victim(), 2, 0),
            PlacedDemand::new(2, cache_aggressor(), 2, 0),
        ]);
        let split = resolver.resolve(&[
            PlacedDemand::new(1, cache_victim(), 2, 0),
            PlacedDemand::new(2, cache_aggressor(), 2, 1),
        ]);
        assert!(
            split[0].counters.inst_retired >= same[0].counters.inst_retired,
            "moving the aggressor to another cache group must not hurt the victim more"
        );
    }

    #[test]
    fn io_interference_grows_net_and_disk_stalls() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let victim = ResourceDemand::builder()
            .instructions(1.0e9)
            .disk_read_mb(20.0)
            .net_tx_mb(40.0)
            .parallelism(2.0)
            .build();
        let solo = resolver.resolve(&[PlacedDemand::new(1, victim.clone(), 2, 0)]);
        let shared = resolver.resolve(&[
            PlacedDemand::new(1, victim, 2, 0),
            PlacedDemand::new(2, io_aggressor(), 2, 1),
        ]);
        assert!(shared[0].counters.disk_stall_seconds >= solo[0].counters.disk_stall_seconds);
        assert!(shared[0].counters.net_stall_seconds >= solo[0].counters.net_stall_seconds);
    }

    #[test]
    fn achieved_fraction_is_bounded() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let heavy = ResourceDemand::builder()
            .instructions(1.0e11)
            .working_set_mb(1024.0)
            .l1_mpki(60.0)
            .llc_mpki_solo(40.0)
            .disk_read_mb(500.0)
            .net_tx_mb(500.0)
            .build();
        let out = resolver.resolve(&[PlacedDemand::new(1, heavy, 2, 0)]);
        assert!(out[0].achieved_fraction > 0.0);
        assert!(out[0].achieved_fraction < 1.0);
        assert!(out[0].counters.is_well_formed());
    }

    #[test]
    fn saturated_io_stall_counters_clamp_on_the_completed_fraction() {
        // Regression test: the disk and net stall counters must follow the
        // same clamping rule — `stall * min(achieved, completed).clamp(0,1)`.
        // `net_stall_seconds` used to be scaled by `min(achieved, 1.0)` only,
        // overstating the NIC wait under saturation: a VM cannot have stalled
        // on traffic the NIC never carried.
        use crate::disk::resolve_disk;
        use crate::nic::resolve_nic;
        use crate::EPOCH_SECONDS;

        let spec = MachineSpec::xeon_x5472();
        let mut resolver = EpochResolver::new(spec.clone());
        let hog = ResourceDemand::builder()
            .instructions(1.0e9)
            .disk_read_mb(400.0)
            .disk_seq_fraction(0.5)
            .net_tx_mb(4_000.0)
            .parallelism(2.0)
            .build();
        let placements = [
            PlacedDemand::new(1, hog.clone(), 2, 0),
            PlacedDemand::new(2, hog, 2, 1),
        ];
        let out = resolver.resolve(&placements);
        let disk = resolve_disk(
            spec.disk_seq_mbps,
            spec.disk_rand_mbps,
            &placements,
            EPOCH_SECONDS,
        );
        let nic = resolve_nic(spec.nic_mbps, &placements, EPOCH_SECONDS);
        for ((o, d), n) in out.iter().zip(&disk).zip(&nic) {
            // The NIC and disk are both saturated in this scenario.
            assert!(n.completed_fraction < 1.0);
            assert!(d.completed_fraction < 1.0);
            let f = o.achieved_fraction;
            let expected_net = n.stall_seconds * f.min(n.completed_fraction).clamp(0.0, 1.0);
            let expected_disk = d.stall_seconds * f.min(d.completed_fraction).clamp(0.0, 1.0);
            assert!((o.counters.net_stall_seconds - expected_net).abs() < 1e-12);
            assert!((o.counters.disk_stall_seconds - expected_disk).abs() < 1e-12);
            // The clamp must bite: the counter reads strictly below the raw
            // stall time the breakdown reports.
            assert!(o.counters.net_stall_seconds < o.breakdown.net_seconds);
        }
    }

    #[test]
    #[should_panic(expected = "cache group")]
    fn invalid_cache_group_is_rejected() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        resolver.resolve(&[PlacedDemand::new(1, cache_victim(), 2, 99)]);
    }

    #[test]
    #[should_panic(expected = "zero vCPUs")]
    fn zero_vcpus_is_rejected() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        resolver.resolve(&[PlacedDemand::new(1, cache_victim(), 0, 0)]);
    }
}
