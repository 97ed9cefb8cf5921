//! Per-epoch resource demand of a virtual machine.
//!
//! A workload model (crate `workloads`) translates its offered load for one
//! epoch — requests to serve, map tasks to run, bytes to ship — into a
//! [`ResourceDemand`]: how many instructions it wants to execute, how those
//! instructions behave in the cache hierarchy, and how much disk and network
//! traffic accompanies them.  The demand is *intrinsic* (what the VM would do
//! on ideal, uncontended hardware); the contention resolver in
//! [`crate::contention`] decides how much of it actually completes once the
//! VM shares a physical machine with others.

/// Intrinsic resource demand of one VM for one epoch.
///
/// All fields describe the demand assuming no contention.  Rates are per
/// instruction (or per kilo-instruction) so that scaling the instruction
/// count up or down with load intensity keeps the demand self-consistent.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDemand {
    /// Instructions the workload wants to retire this epoch.
    pub instructions: f64,
    /// Base cycles per instruction when every memory access hits in the
    /// private caches (pure in-core component).
    pub base_cpi: f64,
    /// Loads + stores per instruction.
    pub mem_refs_per_instr: f64,
    /// L1 data-cache misses per kilo-instruction (intrinsic).
    pub l1_mpki: f64,
    /// Shared last-level-cache misses per kilo-instruction when the VM runs
    /// alone and its working set fits its fair share of the cache.
    pub llc_mpki_solo: f64,
    /// Working-set size competing for the shared cache, in MiB.
    pub working_set_mb: f64,
    /// Fraction of shared-cache accesses with high temporal locality.  Higher
    /// locality means losing occupancy hurts less (misses grow more slowly).
    pub locality: f64,
    /// Branch mispredictions per kilo-instruction.
    pub branch_mpki: f64,
    /// Instruction-fetch misses per kilo-instruction that reach the bus.
    pub ifetch_mpki: f64,
    /// Number of vCPUs the workload can keep busy this epoch (1.0..=n_vcpus).
    pub parallelism: f64,
    /// Disk bytes read this epoch, in MiB.
    pub disk_read_mb: f64,
    /// Disk bytes written this epoch, in MiB.
    pub disk_write_mb: f64,
    /// Fraction of disk accesses that are sequential when the VM has the disk
    /// to itself (0.0 = fully random, 1.0 = fully sequential).
    pub disk_seq_fraction: f64,
    /// Network bytes transmitted this epoch, in MiB.
    pub net_tx_mb: f64,
    /// Network bytes received this epoch, in MiB.
    pub net_rx_mb: f64,
}

impl Default for ResourceDemand {
    fn default() -> Self {
        Self {
            instructions: 0.0,
            base_cpi: 0.8,
            mem_refs_per_instr: 0.3,
            l1_mpki: 20.0,
            llc_mpki_solo: 1.0,
            working_set_mb: 8.0,
            locality: 0.7,
            branch_mpki: 5.0,
            ifetch_mpki: 0.5,
            parallelism: 1.0,
            disk_read_mb: 0.0,
            disk_write_mb: 0.0,
            disk_seq_fraction: 1.0,
            net_tx_mb: 0.0,
            net_rx_mb: 0.0,
        }
    }
}

impl ResourceDemand {
    /// Starts a [`ResourceDemandBuilder`] with conservative CPU-bound defaults.
    pub fn builder() -> ResourceDemandBuilder {
        ResourceDemandBuilder::default()
    }

    /// An identically-shaped demand with the instruction count (and the disk
    /// and network volumes, which track offered load) scaled by `factor`.
    ///
    /// This is how workload models express load-intensity changes: the
    /// *normalized* behaviour stays identical, only the amount of work moves.
    // simlint: test-accessor (the load-invariance property test)
    pub fn scaled_by_load(&self, factor: f64) -> Self {
        let factor = factor.max(0.0);
        Self {
            instructions: self.instructions * factor,
            disk_read_mb: self.disk_read_mb * factor,
            disk_write_mb: self.disk_write_mb * factor,
            net_tx_mb: self.net_tx_mb * factor,
            net_rx_mb: self.net_rx_mb * factor,
            ..self.clone()
        }
    }

    /// Total disk traffic (read + write) in MiB.
    pub fn disk_total_mb(&self) -> f64 {
        self.disk_read_mb + self.disk_write_mb
    }

    /// Total network traffic (tx + rx) in MiB.
    pub fn net_total_mb(&self) -> f64 {
        self.net_tx_mb + self.net_rx_mb
    }

    /// True when every field is finite, non-negative and fractions are in
    /// range — the invariant the contention resolver assumes.
    pub fn is_well_formed(&self) -> bool {
        let non_negative = [
            self.instructions,
            self.base_cpi,
            self.mem_refs_per_instr,
            self.l1_mpki,
            self.llc_mpki_solo,
            self.working_set_mb,
            self.branch_mpki,
            self.ifetch_mpki,
            self.disk_read_mb,
            self.disk_write_mb,
            self.net_tx_mb,
            self.net_rx_mb,
        ]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0);
        non_negative
            && self.parallelism.is_finite()
            && self.parallelism >= 0.0
            && (0.0..=1.0).contains(&self.locality)
            && (0.0..=1.0).contains(&self.disk_seq_fraction)
    }
}

/// Access to the [`ResourceDemand`] carried by a larger value.
///
/// The contention models ([`crate::cache`], [`crate::disk`], [`crate::nic`])
/// are generic over this trait so they can iterate demands stored inside
/// placement records (e.g. `PlacedDemand`) directly, without the caller
/// materializing an intermediate `Vec<&ResourceDemand>` on every epoch — the
/// allocation the reusable epoch resolver exists to avoid.
pub trait AsDemand {
    /// The demand carried by this value.
    fn as_demand(&self) -> &ResourceDemand;
}

impl AsDemand for ResourceDemand {
    fn as_demand(&self) -> &ResourceDemand {
        self
    }
}

impl<T: AsDemand + ?Sized> AsDemand for &T {
    fn as_demand(&self) -> &ResourceDemand {
        (**self).as_demand()
    }
}

/// Builder for [`ResourceDemand`]; every setter overrides one field of the
/// CPU-bound default profile.
#[derive(Debug, Clone, Default)]
pub struct ResourceDemandBuilder {
    demand: ResourceDemand,
}

macro_rules! builder_setter {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        pub fn $name(mut self, value: f64) -> Self {
            self.demand.$name = value;
            self
        }
    };
}

impl ResourceDemandBuilder {
    builder_setter!(
        /// Instructions to retire this epoch.
        instructions
    );
    builder_setter!(
        /// Base (all-hit) cycles per instruction.
        base_cpi
    );
    builder_setter!(
        /// Loads + stores per instruction.
        mem_refs_per_instr
    );
    builder_setter!(
        /// L1D misses per kilo-instruction.
        l1_mpki
    );
    builder_setter!(
        /// Solo shared-cache misses per kilo-instruction.
        llc_mpki_solo
    );
    builder_setter!(
        /// Working-set size in MiB.
        working_set_mb
    );
    builder_setter!(
        /// Temporal locality in `[0, 1]`.
        locality
    );
    builder_setter!(
        /// Branch mispredictions per kilo-instruction.
        branch_mpki
    );
    builder_setter!(
        /// Instruction-fetch bus misses per kilo-instruction.
        ifetch_mpki
    );
    builder_setter!(
        /// Exploitable parallelism in vCPUs.
        parallelism
    );
    builder_setter!(
        /// Disk MiB read this epoch.
        disk_read_mb
    );
    builder_setter!(
        /// Disk MiB written this epoch.
        disk_write_mb
    );
    builder_setter!(
        /// Sequential fraction of disk accesses in `[0, 1]`.
        disk_seq_fraction
    );
    builder_setter!(
        /// Network MiB transmitted this epoch.
        net_tx_mb
    );
    builder_setter!(
        /// Network MiB received this epoch.
        net_rx_mb
    );

    /// Finalizes the demand.
    ///
    /// # Panics
    /// Panics if the assembled demand violates the well-formedness invariant
    /// (negative counts, out-of-range fractions, NaN).
    pub fn build(self) -> ResourceDemand {
        assert!(
            self.demand.is_well_formed(),
            "ResourceDemand built with invalid fields: {:?}",
            self.demand
        );
        self.demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_well_formed() {
        let d = ResourceDemand::builder().instructions(1.0e9).build();
        assert!(d.is_well_formed());
        assert_eq!(d.instructions, 1.0e9);
    }

    #[test]
    fn load_scaling_only_touches_volume_fields() {
        let d = ResourceDemand::builder()
            .instructions(1.0e9)
            .disk_read_mb(10.0)
            .net_tx_mb(5.0)
            .working_set_mb(64.0)
            .build();
        let half = d.scaled_by_load(0.5);
        assert_eq!(half.instructions, 0.5e9);
        assert_eq!(half.disk_read_mb, 5.0);
        assert_eq!(half.net_tx_mb, 2.5);
        // Behavioural (per-instruction) characteristics are untouched.
        assert_eq!(half.working_set_mb, 64.0);
        assert_eq!(half.l1_mpki, d.l1_mpki);
        assert_eq!(half.base_cpi, d.base_cpi);
    }

    #[test]
    fn load_scaling_clamps_negative_factor() {
        let d = ResourceDemand::builder().instructions(1.0e9).build();
        let z = d.scaled_by_load(-2.0);
        assert_eq!(z.instructions, 0.0);
    }

    #[test]
    fn totals_sum_read_write_and_tx_rx() {
        let d = ResourceDemand::builder()
            .disk_read_mb(3.0)
            .disk_write_mb(4.0)
            .net_tx_mb(1.0)
            .net_rx_mb(2.0)
            .build();
        assert_eq!(d.disk_total_mb(), 7.0);
        assert_eq!(d.net_total_mb(), 3.0);
    }

    #[test]
    #[should_panic(expected = "invalid fields")]
    fn builder_rejects_out_of_range_locality() {
        ResourceDemand::builder().locality(1.5).build();
    }

    #[test]
    fn well_formedness_rejects_nan() {
        let d = ResourceDemand {
            instructions: f64::NAN,
            ..ResourceDemand::default()
        };
        assert!(!d.is_well_formed());
    }
}
