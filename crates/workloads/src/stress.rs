//! The three interfering workloads of §5.1.
//!
//! * [`MemoryStress`] — "inspired by the stress test introduced by Mars et
//!   al. [Bubble-Up]"; aggressively exercises the shared last-level cache and
//!   the memory controller.  Its single input is the desired working-set
//!   size, which the evaluation sweeps from 6 MB to 512 MB (§5.3).
//! * [`NetworkStress`] — `iperf`-style bidirectional UDP streams; the input
//!   is the desired throughput, swept from 50 to 700 Mbps.
//! * [`DiskStress`] — a file copier respecting a maximum transfer rate,
//!   swept from 1 to 10 MB/s.
//!
//! Each aggressor produces a *constant* demand (independent of the victim's
//! load), because in the paper the stress workloads run flat-out at their
//! configured intensity on a co-located VM.

use hwsim::ResourceDemand;
use rand::rngs::StdRng;

use crate::spec::{AppId, Workload};

/// Memory-subsystem aggressor (Bubble-Up-style stress kernel).
#[derive(Debug, Clone)]
pub struct MemoryStress {
    app_id: AppId,
    working_set_mb: f64,
}

impl MemoryStress {
    /// Creates the aggressor with the desired working-set size in MiB.
    ///
    /// # Panics
    /// Panics if the working set is not positive.
    pub fn new(app_id: AppId, working_set_mb: f64) -> Self {
        assert!(working_set_mb > 0.0, "working set must be positive");
        Self {
            app_id,
            working_set_mb,
        }
    }
}

impl Workload for MemoryStress {
    fn name(&self) -> &str {
        "memory-stress"
    }

    fn app_id(&self) -> AppId {
        self.app_id
    }

    fn next_demand(&mut self, _load: f64, _rng: &mut StdRng) -> ResourceDemand {
        // A pointer-chasing / streaming kernel: when the working set exceeds
        // the shared cache it misses on nearly every access even alone, and
        // its sheer access intensity evicts co-runners' lines.
        let cache_pressure = (self.working_set_mb / 128.0).min(1.0);
        ResourceDemand::builder()
            .instructions(2.5e9)
            .base_cpi(0.6)
            .mem_refs_per_instr(0.5)
            .l1_mpki(70.0)
            .llc_mpki_solo(3.0 + 45.0 * cache_pressure)
            .working_set_mb(self.working_set_mb)
            .locality(0.0)
            .branch_mpki(1.0)
            .parallelism(2.0)
            .build()
    }

    fn peak_request_rate(&self) -> f64 {
        1.0
    }

    fn demand_is_static_at(&self, _load: f64) -> bool {
        // Aggressors run flat-out at their configured intensity: the demand
        // ignores both the load and the RNG, so it is static at every load.
        true
    }
}

/// Network aggressor (`iperf` bidirectional UDP streams).
#[derive(Debug, Clone)]
pub struct NetworkStress {
    app_id: AppId,
    throughput_mbps: f64,
}

impl NetworkStress {
    /// Creates the aggressor with the desired throughput in **megabits** per
    /// second (matching the paper's 50–700 Mbps sweep).
    ///
    /// # Panics
    /// Panics if the throughput is not positive.
    pub fn new(app_id: AppId, throughput_mbps: f64) -> Self {
        assert!(throughput_mbps > 0.0, "throughput must be positive");
        Self {
            app_id,
            throughput_mbps,
        }
    }

    /// Configured throughput converted to MiB per second.
    pub(crate) fn throughput_mib_per_s(&self) -> f64 {
        self.throughput_mbps / 8.0
    }
}

impl Workload for NetworkStress {
    fn name(&self) -> &str {
        "network-stress"
    }

    fn app_id(&self) -> AppId {
        self.app_id
    }

    fn next_demand(&mut self, _load: f64, _rng: &mut StdRng) -> ResourceDemand {
        let mib = self.throughput_mib_per_s();
        ResourceDemand::builder()
            .instructions(0.3e9)
            .base_cpi(0.8)
            .l1_mpki(8.0)
            .llc_mpki_solo(0.3)
            .working_set_mb(2.0)
            .parallelism(1.0)
            // Bidirectional streams: equal transmit and receive pressure.
            .net_tx_mb(mib)
            .net_rx_mb(mib)
            .build()
    }

    fn peak_request_rate(&self) -> f64 {
        1.0
    }

    fn demand_is_static_at(&self, _load: f64) -> bool {
        true
    }
}

/// Disk aggressor (rate-limited file copy).
#[derive(Debug, Clone)]
pub struct DiskStress {
    app_id: AppId,
    transfer_mb_per_s: f64,
}

impl DiskStress {
    /// Creates the aggressor with the maximum transfer rate in MiB/s
    /// (matching the paper's 1–10 MB/s sweep).
    ///
    /// # Panics
    /// Panics if the rate is not positive.
    pub fn new(app_id: AppId, transfer_mb_per_s: f64) -> Self {
        assert!(transfer_mb_per_s > 0.0, "transfer rate must be positive");
        Self {
            app_id,
            transfer_mb_per_s,
        }
    }
}

impl Workload for DiskStress {
    fn name(&self) -> &str {
        "disk-stress"
    }

    fn app_id(&self) -> AppId {
        self.app_id
    }

    fn next_demand(&mut self, _load: f64, _rng: &mut StdRng) -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(0.2e9)
            .base_cpi(0.8)
            .l1_mpki(10.0)
            .llc_mpki_solo(0.5)
            .working_set_mb(4.0)
            .parallelism(1.0)
            // A copy reads and writes the same volume.
            .disk_read_mb(self.transfer_mb_per_s)
            .disk_write_mb(self.transfer_mb_per_s)
            .disk_seq_fraction(1.0)
            .build()
    }

    fn peak_request_rate(&self) -> f64 {
        1.0
    }

    fn demand_is_static_at(&self, _load: f64) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn memory_stress_pressure_grows_with_working_set() {
        let mut small = MemoryStress::new(AppId(100), 6.0);
        let mut large = MemoryStress::new(AppId(100), 512.0);
        let mut r = rng();
        let d_small = small.next_demand(1.0, &mut r);
        let d_large = large.next_demand(1.0, &mut r);
        assert!(d_large.llc_mpki_solo > d_small.llc_mpki_solo);
        assert!(d_large.working_set_mb > d_small.working_set_mb);
        assert!(d_small.is_well_formed() && d_large.is_well_formed());
    }

    #[test]
    fn memory_stress_ignores_load_level() {
        let mut w = MemoryStress::new(AppId(100), 64.0);
        let mut r = rng();
        assert_eq!(w.next_demand(0.1, &mut r), w.next_demand(1.0, &mut r));
    }

    #[test]
    fn network_stress_converts_megabits_to_mib() {
        let w = NetworkStress::new(AppId(101), 700.0);
        assert!((w.throughput_mib_per_s() - 87.5).abs() < 1e-12);
        let mut r = rng();
        let d = w.clone().next_demand(1.0, &mut r);
        assert!((d.net_tx_mb - 87.5).abs() < 1e-12);
        assert!((d.net_rx_mb - 87.5).abs() < 1e-12);
    }

    #[test]
    fn network_stress_sweep_spans_paper_range() {
        let mut r = rng();
        let low = NetworkStress::new(AppId(101), 50.0).next_demand(1.0, &mut r);
        let high = NetworkStress::new(AppId(101), 700.0).next_demand(1.0, &mut r);
        assert!(high.net_total_mb() > 10.0 * low.net_total_mb());
    }

    #[test]
    fn disk_stress_reads_and_writes_the_configured_rate() {
        let mut w = DiskStress::new(AppId(102), 10.0);
        let mut r = rng();
        let d = w.next_demand(1.0, &mut r);
        assert_eq!(d.disk_read_mb, 10.0);
        assert_eq!(d.disk_write_mb, 10.0);
        assert!(d.is_well_formed());
    }

    #[test]
    fn kinds_identify_the_targeted_resource() {
        let mut r = rng();
        let mem = MemoryStress::new(AppId(1), 64.0).next_demand(1.0, &mut r);
        let net = NetworkStress::new(AppId(1), 50.0).next_demand(1.0, &mut r);
        let disk = DiskStress::new(AppId(1), 5.0).next_demand(1.0, &mut r);
        assert!(mem.llc_mpki_solo > 10.0 * net.llc_mpki_solo.max(disk.llc_mpki_solo));
        assert_eq!(mem.net_total_mb() + mem.disk_total_mb(), 0.0);
        assert!(net.net_total_mb() > 0.0 && net.disk_total_mb() == 0.0);
        assert!(disk.disk_total_mb() > 0.0 && disk.net_total_mb() == 0.0);
    }

    #[test]
    #[should_panic(expected = "working set must be positive")]
    fn zero_working_set_is_rejected() {
        MemoryStress::new(AppId(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_is_rejected() {
        NetworkStress::new(AppId(1), 0.0);
    }
}
