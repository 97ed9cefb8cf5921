//! The augmented CPI stack — root-cause attribution from counters alone.
//!
//! Section 4.2: the analyzer "estimates a breakdown of the various run-time
//! stall components of the server":
//!
//! ```text
//! T_overall = T_core + T_off_core        (CPI analysis, hardware counters)
//!           + T_disk + T_net             (system-level statistics)
//! ```
//!
//! and attributes the degradation to individual resources via
//!
//! ```text
//! Factor_r = (T_r^production − T_r^isolation) / T_overall^production
//! ```
//!
//! Everything here is computed *from the Table 1 counters only* — the same
//! estimation a real deployment would perform — so the benches can check the
//! estimated attribution against the simulator's ground-truth breakdown
//! (Fig. 6) without the estimator ever peeking at it.

use hwsim::{CounterSnapshot, MachineSpec};

/// Server resources DeepDive can blame for interference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// In-core execution (not a shared resource; listed for completeness).
    Core,
    /// Shared last-level cache and memory (the "L2 miss" component).
    CacheMemory,
    /// Memory interconnect queueing (the "FSB"/"QPI" component).
    MemoryBus,
    /// Disk.
    Disk,
    /// Network interface.
    Network,
}

impl Resource {
    /// All attributable resources in display order.
    pub const ALL: [Resource; 5] = [
        Resource::Core,
        Resource::CacheMemory,
        Resource::MemoryBus,
        Resource::Disk,
        Resource::Network,
    ];

    /// Human-readable label matching the paper's Fig. 6 legend.
    pub fn label(&self) -> &'static str {
        match self {
            Resource::Core => "Core",
            Resource::CacheMemory => "L2 miss",
            Resource::MemoryBus => "FSB",
            Resource::Disk => "Disk",
            Resource::Network => "Net",
        }
    }
}

/// Estimated per-resource time breakdown for one VM over one monitoring
/// window, in seconds of (possibly overlapping) stall/execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiStack {
    /// Seconds executing on the core (including private-cache hits).
    pub core_seconds: f64,
    /// Seconds stalled on shared-cache misses at the base memory latency.
    pub cache_memory_seconds: f64,
    /// Extra seconds stalled on interconnect queueing.
    pub memory_bus_seconds: f64,
    /// Seconds stalled on disk I/O.
    pub disk_seconds: f64,
    /// Seconds stalled on network I/O.
    pub net_seconds: f64,
}

impl CpiStack {
    /// Estimates the stack from a counter snapshot.
    ///
    /// The estimation uses only counter values plus two machine constants an
    /// operator would read off the datasheet (clock frequency and the
    /// uncontended memory latency) — mirroring how the paper's port to the
    /// Core i7 required "designing a new performance model starting fresh
    /// from the CPU/server datasheets" (§4.4).
    pub fn from_counters(counters: &CounterSnapshot, spec: &MachineSpec) -> Self {
        let clock = spec.clock_hz;
        // Off-core stall cycles are reported directly by resource_stalls.
        let off_core_cycles = counters.resource_stalls;
        // Core time: everything unhalted that was not an off-core stall.
        let core_cycles = (counters.cpu_unhalted - off_core_cycles).max(0.0);
        // Split off-core into "shared cache / memory at base latency" and
        // "interconnect queueing": on an idle interconnect the observed
        // misses (l2_lines_in) would have cost the base memory latency each,
        // and L1 misses that hit the shared cache cost the LLC hit latency;
        // anything beyond that within the off-core stalls is queueing delay
        // on the congested bus.
        let base_memory_cycles = counters.l2_lines_in * spec.memory_latency_cycles;
        let llc_hit_cycles = counters.l1d_repl * spec.shared_cache_hit_cycles;
        let cache_memory_cycles = off_core_cycles.min(base_memory_cycles + llc_hit_cycles);
        let bus_cycles = (off_core_cycles - cache_memory_cycles).max(0.0);

        Self {
            core_seconds: core_cycles / clock,
            cache_memory_seconds: cache_memory_cycles / clock,
            memory_bus_seconds: bus_cycles / clock,
            disk_seconds: counters.disk_stall_seconds,
            net_seconds: counters.net_stall_seconds,
        }
    }

    /// Total time represented by the stack.
    pub fn total_seconds(&self) -> f64 {
        self.core_seconds
            + self.cache_memory_seconds
            + self.memory_bus_seconds
            + self.disk_seconds
            + self.net_seconds
    }

    /// Component value for a resource.
    pub fn component(&self, resource: Resource) -> f64 {
        match resource {
            Resource::Core => self.core_seconds,
            Resource::CacheMemory => self.cache_memory_seconds,
            Resource::MemoryBus => self.memory_bus_seconds,
            Resource::Disk => self.disk_seconds,
            Resource::Network => self.net_seconds,
        }
    }

    /// Stalled cycles per instruction per component (the Fig. 6 y-axis),
    /// given the instruction count of the window.
    pub fn per_instruction(&self, clock_hz: f64, instructions: f64) -> Vec<(Resource, f64)> {
        Resource::ALL
            .iter()
            .map(|r| {
                let cpi = if instructions > 0.0 {
                    self.component(*r) * clock_hz / instructions
                } else {
                    0.0
                };
                (*r, cpi)
            })
            .collect()
    }

    /// The paper's degradation factors: per-resource share of the production
    /// window explained by *growth* relative to isolation.
    ///
    /// `Factor_r = (T_r^prod − T_r^iso) / T_overall^prod`, clamped at zero.
    pub fn degradation_factors(
        production: &CpiStack,
        isolation: &CpiStack,
    ) -> Vec<(Resource, f64)> {
        let total = production.total_seconds().max(f64::MIN_POSITIVE);
        Resource::ALL
            .iter()
            .map(|r| {
                let delta = (production.component(*r) - isolation.component(*r)).max(0.0);
                (*r, delta / total)
            })
            .collect()
    }

    /// The resource with the largest degradation factor, ignoring the core
    /// component (a VM doing more useful work on its own core is never the
    /// *shared-resource* culprit the placement manager should act on).
    pub fn dominant_culprit(
        production: &CpiStack,
        isolation: &CpiStack,
    ) -> Option<(Resource, f64)> {
        Self::degradation_factors(production, isolation)
            .into_iter()
            .filter(|(r, _)| *r != Resource::Core)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite factors"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::contention::PlacedDemand;
    use hwsim::{EpochResolver, ResourceDemand};

    fn spec() -> MachineSpec {
        MachineSpec::xeon_x5472()
    }

    fn victim_demand() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(2.0e9)
            .working_set_mb(8.0)
            .l1_mpki(25.0)
            .llc_mpki_solo(1.0)
            .locality(0.3)
            .parallelism(2.0)
            .disk_read_mb(5.0)
            .net_tx_mb(10.0)
            .build()
    }

    fn stack_for(colocated: Option<ResourceDemand>) -> (CpiStack, f64) {
        let mut placements = vec![PlacedDemand::new(1, victim_demand(), 2, 0)];
        if let Some(agg) = colocated {
            placements.push(PlacedDemand::new(2, agg, 2, 0));
        }
        let out = EpochResolver::new(spec()).resolve(&placements);
        (
            CpiStack::from_counters(&out[0].counters, &spec()),
            out[0].counters.inst_retired,
        )
    }

    #[test]
    fn stack_components_are_finite_and_nonnegative() {
        let (stack, _) = stack_for(None);
        for r in Resource::ALL {
            assert!(stack.component(r).is_finite());
            assert!(stack.component(r) >= 0.0);
        }
        assert!(stack.total_seconds() > 0.0);
    }

    #[test]
    fn cache_aggressor_is_blamed_on_the_memory_subsystem() {
        let (isolation, _) = stack_for(None);
        let aggressor = ResourceDemand::builder()
            .instructions(2.5e9)
            .working_set_mb(512.0)
            .l1_mpki(70.0)
            .llc_mpki_solo(45.0)
            .locality(0.0)
            .parallelism(2.0)
            .build();
        let (production, _) = stack_for(Some(aggressor));
        let culprit = CpiStack::dominant_culprit(&production, &isolation).unwrap();
        assert!(
            matches!(culprit.0, Resource::CacheMemory | Resource::MemoryBus),
            "expected a memory-subsystem culprit, got {:?}",
            culprit
        );
        assert!(culprit.1 > 0.0);
    }

    /// Network-heavy victim (think Data Analytics in its shuffle phase),
    /// which is the workload class the paper pairs with the network stress.
    fn network_victim_demand() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(1.0e9)
            .working_set_mb(8.0)
            .l1_mpki(14.0)
            .llc_mpki_solo(1.0)
            .parallelism(2.0)
            .net_tx_mb(45.0)
            .net_rx_mb(45.0)
            .build()
    }

    #[test]
    fn network_aggressor_is_blamed_on_the_network() {
        let spec = spec();
        let aggressor = ResourceDemand::builder()
            .instructions(0.3e9)
            .net_tx_mb(85.0)
            .net_rx_mb(85.0)
            .build();
        let mut resolver = EpochResolver::new(spec.clone());
        let iso_out = resolver.resolve(&[PlacedDemand::new(1, network_victim_demand(), 2, 0)]);
        let prod_out = resolver.resolve(&[
            PlacedDemand::new(1, network_victim_demand(), 2, 0),
            PlacedDemand::new(2, aggressor, 2, 1),
        ]);
        let isolation = CpiStack::from_counters(&iso_out[0].counters, &spec);
        let production = CpiStack::from_counters(&prod_out[0].counters, &spec);
        let culprit = CpiStack::dominant_culprit(&production, &isolation).unwrap();
        assert_eq!(
            culprit.0,
            Resource::Network,
            "factors: {:?}",
            CpiStack::degradation_factors(&production, &isolation)
        );
    }

    #[test]
    fn disk_aggressor_is_blamed_on_the_disk() {
        let (isolation, _) = stack_for(None);
        let aggressor = ResourceDemand::builder()
            .instructions(0.2e9)
            .disk_read_mb(60.0)
            .disk_write_mb(60.0)
            .disk_seq_fraction(1.0)
            .build();
        let (production, _) = stack_for(Some(aggressor));
        let culprit = CpiStack::dominant_culprit(&production, &isolation).unwrap();
        assert_eq!(culprit.0, Resource::Disk);
    }

    #[test]
    fn no_interference_yields_negligible_factors() {
        let (a, _) = stack_for(None);
        let (b, _) = stack_for(None);
        let factors = CpiStack::degradation_factors(&a, &b);
        for (_, f) in factors {
            assert!(f < 0.05, "unexpected degradation factor {f}");
        }
    }

    #[test]
    fn per_instruction_breakdown_has_all_components() {
        let (stack, inst) = stack_for(None);
        let cpis = stack.per_instruction(spec().clock_hz, inst);
        assert_eq!(cpis.len(), Resource::ALL.len());
        assert!(cpis.iter().all(|(_, v)| v.is_finite() && *v >= 0.0));
        // Core execution dominates an uncontended CPU-bound victim.
        assert!(cpis[0].1 > 0.0);
    }

    #[test]
    fn labels_match_figure_6_legend() {
        assert_eq!(Resource::CacheMemory.label(), "L2 miss");
        assert_eq!(Resource::MemoryBus.label(), "FSB");
        assert_eq!(Resource::Core.label(), "Core");
    }
}
