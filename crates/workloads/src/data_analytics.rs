//! Data Analytics workload model (Hadoop/Mahout Bayes classification, §5.1).
//!
//! The paper's Data Analytics workload runs a Mahout naive-Bayes
//! classification job over 35 GB of Wikipedia text on a nine-VM Hadoop
//! cluster.  What matters for DeepDive is the *phase structure*: worker VMs
//! alternate between
//!
//! * a **map** phase — CPU-heavy scanning of local input splits with disk
//!   reads,
//! * a **shuffle** phase — mappers push intermediate data to reducers; the
//!   `remote_fetch_fraction` knob controls how much of that data crosses the
//!   network (Figure 5's observation that network interference only shows up
//!   "when the mappers and reducers have to fetch data remotely"), and
//! * a **reduce** phase — CPU work plus output writes to disk.
//!
//! Each worker cycles deterministically through the three phases; the master
//! VM mostly coordinates (light CPU, light network).

use hwsim::ResourceDemand;
use rand::rngs::StdRng;

use crate::spec::{effective_load, AppId, Workload};

/// Role of a VM inside the Hadoop-style cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticsRole {
    /// Worker VM running map/shuffle/reduce tasks.
    Worker,
    /// Master VM coordinating the job.
    Master,
}

/// Phase a worker is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnalyticsPhase {
    /// Scanning local splits (CPU + disk read).
    Map,
    /// Exchanging intermediate data (network).
    Shuffle,
    /// Aggregating and writing results (CPU + disk write).
    Reduce,
}

/// Configuration of the analytics job.
#[derive(Debug, Clone, PartialEq)]
pub struct DataAnalyticsConfig {
    /// Fraction of shuffle traffic that must be fetched over the network
    /// (vs. being node-local), in `[0, 1]`.
    pub remote_fetch_fraction: f64,
    /// Epochs spent in the map phase per cycle.
    pub map_epochs: usize,
    /// Epochs spent in the shuffle phase per cycle.
    pub shuffle_epochs: usize,
    /// Epochs spent in the reduce phase per cycle.
    pub reduce_epochs: usize,
    /// Nominal tasks per second at full load (used for throughput reporting).
    pub peak_tasks_per_second: f64,
}

impl Default for DataAnalyticsConfig {
    fn default() -> Self {
        Self {
            remote_fetch_fraction: 0.6,
            map_epochs: 6,
            shuffle_epochs: 3,
            reduce_epochs: 3,
            peak_tasks_per_second: 40.0,
        }
    }
}

/// The Data Analytics (Hadoop/Mahout) workload model for a single VM of the
/// cluster.
#[derive(Debug, Clone)]
pub struct DataAnalytics {
    app_id: AppId,
    role: AnalyticsRole,
    config: DataAnalyticsConfig,
    epoch_in_cycle: usize,
}

impl DataAnalytics {
    /// Creates a worker or master VM model of the analytics job.
    ///
    /// # Panics
    /// Panics if the remote-fetch fraction is outside `[0, 1]` or any phase
    /// length is zero.
    pub fn new(app_id: AppId, role: AnalyticsRole, config: DataAnalyticsConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.remote_fetch_fraction),
            "remote fetch fraction must be in [0, 1]"
        );
        assert!(
            config.map_epochs > 0 && config.shuffle_epochs > 0 && config.reduce_epochs > 0,
            "every phase needs at least one epoch"
        );
        assert!(
            config.peak_tasks_per_second > 0.0,
            "peak task rate must be positive"
        );
        Self {
            app_id,
            role,
            config,
            epoch_in_cycle: 0,
        }
    }

    /// Creates a worker with the default configuration.
    pub fn worker(app_id: AppId) -> Self {
        Self::new(
            app_id,
            AnalyticsRole::Worker,
            DataAnalyticsConfig::default(),
        )
    }

    /// Phase the worker will execute on its next epoch.
    pub(crate) fn current_phase(&self) -> AnalyticsPhase {
        let c = &self.config;
        let cycle = c.map_epochs + c.shuffle_epochs + c.reduce_epochs;
        let pos = self.epoch_in_cycle % cycle;
        if pos < c.map_epochs {
            AnalyticsPhase::Map
        } else if pos < c.map_epochs + c.shuffle_epochs {
            AnalyticsPhase::Shuffle
        } else {
            AnalyticsPhase::Reduce
        }
    }
}

impl Workload for DataAnalytics {
    fn name(&self) -> &str {
        match self.role {
            AnalyticsRole::Worker => "data-analytics-worker",
            AnalyticsRole::Master => "data-analytics-master",
        }
    }

    fn app_id(&self) -> AppId {
        self.app_id
    }

    fn next_demand(&mut self, load: f64, rng: &mut StdRng) -> ResourceDemand {
        let load = effective_load(load, 0.03, rng);
        if self.role == AnalyticsRole::Master {
            // The master provisions more memory/cores in the paper but does
            // light coordination work.
            return ResourceDemand::builder()
                .instructions(0.3e9 * load)
                .base_cpi(0.9)
                .working_set_mb(6.0)
                .l1_mpki(12.0)
                .llc_mpki_solo(0.5)
                .parallelism(2.0)
                .net_tx_mb(2.0 * load)
                .net_rx_mb(2.0 * load)
                .build();
        }

        let phase = self.current_phase();
        self.epoch_in_cycle = self.epoch_in_cycle.wrapping_add(1);
        let remote = self.config.remote_fetch_fraction;
        let demand = match phase {
            AnalyticsPhase::Map => ResourceDemand::builder()
                .instructions(3.5e9 * load)
                .base_cpi(0.85)
                .mem_refs_per_instr(0.32)
                .l1_mpki(20.0)
                .llc_mpki_solo(2.5)
                .working_set_mb(24.0)
                .locality(0.55)
                .branch_mpki(6.0)
                .parallelism(2.0)
                .disk_read_mb(30.0 * load)
                .disk_seq_fraction(0.9)
                .net_tx_mb(1.0 * load)
                .net_rx_mb(1.0 * load),
            AnalyticsPhase::Shuffle => ResourceDemand::builder()
                .instructions(1.0e9 * load)
                .base_cpi(0.9)
                .mem_refs_per_instr(0.3)
                .l1_mpki(14.0)
                .llc_mpki_solo(1.0)
                .working_set_mb(10.0)
                .locality(0.6)
                .parallelism(2.0)
                .net_tx_mb(45.0 * load * remote)
                .net_rx_mb(45.0 * load * remote)
                .disk_read_mb(8.0 * load * (1.0 - remote))
                .disk_seq_fraction(0.8),
            AnalyticsPhase::Reduce => ResourceDemand::builder()
                .instructions(2.5e9 * load)
                .base_cpi(0.9)
                .mem_refs_per_instr(0.3)
                .l1_mpki(18.0)
                .llc_mpki_solo(2.0)
                .working_set_mb(16.0)
                .locality(0.6)
                .parallelism(2.0)
                .disk_write_mb(20.0 * load)
                .disk_seq_fraction(0.95)
                .net_rx_mb(4.0 * load),
        };
        demand.build()
    }

    fn peak_request_rate(&self) -> f64 {
        self.config.peak_tasks_per_second
    }

    fn demand_is_static_at(&self, load: f64) -> bool {
        // The master is stateless and load-scaled, so it is static when
        // idle.  A worker is **never** static: `next_demand` advances
        // `epoch_in_cycle`, and the map/shuffle/reduce phase changes the
        // demand's shape terms even at zero load — skipping it would both
        // freeze the phase clock and replay the wrong phase.
        self.role == AnalyticsRole::Master && load <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn worker_cycles_through_phases_in_order() {
        let mut w = DataAnalytics::worker(AppId(5));
        let c = w.config.clone();
        let mut phases = Vec::new();
        let mut r = rng();
        for _ in 0..(c.map_epochs + c.shuffle_epochs + c.reduce_epochs) {
            phases.push(w.current_phase());
            w.next_demand(1.0, &mut r);
        }
        assert_eq!(phases[0], AnalyticsPhase::Map);
        assert_eq!(phases[c.map_epochs], AnalyticsPhase::Shuffle);
        assert_eq!(
            phases[c.map_epochs + c.shuffle_epochs],
            AnalyticsPhase::Reduce
        );
        // After a full cycle we are back at Map.
        assert_eq!(w.current_phase(), AnalyticsPhase::Map);
    }

    #[test]
    fn shuffle_phase_is_network_heavy_when_fetching_remotely() {
        let mut remote = DataAnalytics::new(
            AppId(5),
            AnalyticsRole::Worker,
            DataAnalyticsConfig {
                remote_fetch_fraction: 1.0,
                ..Default::default()
            },
        );
        let mut local = DataAnalytics::new(
            AppId(5),
            AnalyticsRole::Worker,
            DataAnalyticsConfig {
                remote_fetch_fraction: 0.0,
                ..Default::default()
            },
        );
        let mut r = rng();
        // Advance both into the shuffle phase.
        for _ in 0..remote.config.map_epochs {
            remote.next_demand(1.0, &mut r);
            local.next_demand(1.0, &mut r);
        }
        assert_eq!(remote.current_phase(), AnalyticsPhase::Shuffle);
        let d_remote = remote.next_demand(1.0, &mut r);
        let d_local = local.next_demand(1.0, &mut r);
        assert!(d_remote.net_total_mb() > 50.0);
        assert_eq!(d_local.net_total_mb(), 0.0);
    }

    #[test]
    fn map_reads_disk_and_reduce_writes_disk() {
        let mut w = DataAnalytics::worker(AppId(5));
        let mut r = rng();
        let map = w.next_demand(1.0, &mut r);
        assert!(map.disk_read_mb > 0.0 && map.disk_write_mb == 0.0);
        for _ in 0..(w.config.map_epochs - 1 + w.config.shuffle_epochs) {
            w.next_demand(1.0, &mut r);
        }
        assert_eq!(w.current_phase(), AnalyticsPhase::Reduce);
        let reduce = w.next_demand(1.0, &mut r);
        assert!(reduce.disk_write_mb > 0.0 && reduce.disk_read_mb == 0.0);
    }

    #[test]
    fn master_is_lightweight() {
        let mut m = DataAnalytics::new(AppId(5), AnalyticsRole::Master, Default::default());
        let mut w = DataAnalytics::worker(AppId(5));
        let mut r = rng();
        let dm = m.next_demand(1.0, &mut r);
        let dw = w.next_demand(1.0, &mut r);
        assert!(dm.instructions < dw.instructions / 5.0);
        assert_eq!(dm.disk_total_mb(), 0.0);
    }

    #[test]
    fn demands_are_well_formed_in_every_phase() {
        let mut w = DataAnalytics::worker(AppId(5));
        let mut r = rng();
        for _ in 0..24 {
            assert!(w.next_demand(0.8, &mut r).is_well_formed());
        }
    }

    #[test]
    #[should_panic(expected = "remote fetch fraction")]
    fn invalid_remote_fraction_is_rejected() {
        DataAnalytics::new(
            AppId(1),
            AnalyticsRole::Worker,
            DataAnalyticsConfig {
                remote_fetch_fraction: 2.0,
                ..Default::default()
            },
        );
    }
}
