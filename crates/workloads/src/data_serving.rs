//! Data Serving workload model (Cassandra driven by YCSB clients, §5.1).
//!
//! The paper's Data Serving workload is a single Cassandra instance whose
//! clients vary both the key popularity and the read/write ratio.  We model
//! it as a latency-sensitive key-value server:
//!
//! * requests cost a fixed number of instructions with a memory-heavy,
//!   cache-friendly access pattern (the hot key set),
//! * key popularity controls the size of the hot set — flatter popularity
//!   means a larger working set and slightly more shared-cache misses,
//! * the write fraction adds commit-log style sequential disk writes, and
//! * every request ships a response over the network.
//!
//! These knobs generate the "different experimental settings" of Figure 4(a)
//! without changing what the workload fundamentally looks like to DeepDive.

use hwsim::ResourceDemand;
use rand::rngs::StdRng;

use crate::spec::{effective_load, AppId, Workload};

/// Instructions executed per key-value request.
const INSTRUCTIONS_PER_REQUEST: f64 = 400_000.0;
/// Response + replication bytes per request, in MiB.
const NET_MB_PER_REQUEST: f64 = 2.0e-3;
/// Commit-log bytes per write request, in MiB.
const DISK_MB_PER_WRITE: f64 = 4.0e-3;

/// Configuration knobs exposed by the YCSB-style client (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct DataServingConfig {
    /// Skew of the key popularity distribution in `[0, 1]`; 1.0 means a tiny
    /// hot set, 0.0 means uniformly popular keys (large working set).
    pub key_popularity_skew: f64,
    /// Fraction of requests that are writes in `[0, 1]`.
    pub write_fraction: f64,
    /// Peak sustainable request rate (requests/second) of one VM.
    pub peak_rps: f64,
}

impl Default for DataServingConfig {
    fn default() -> Self {
        Self {
            key_popularity_skew: 0.8,
            write_fraction: 0.05,
            peak_rps: 8_000.0,
        }
    }
}

/// The Data Serving (Cassandra/YCSB) workload model.
#[derive(Debug, Clone)]
pub struct DataServing {
    app_id: AppId,
    config: DataServingConfig,
}

impl DataServing {
    /// Creates the workload with the given application identity and config.
    ///
    /// # Panics
    /// Panics if a config fraction falls outside `[0, 1]` or the peak rate is
    /// not positive.
    pub fn new(app_id: AppId, config: DataServingConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.key_popularity_skew),
            "key popularity skew must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&config.write_fraction),
            "write fraction must be in [0, 1]"
        );
        assert!(config.peak_rps > 0.0, "peak request rate must be positive");
        Self { app_id, config }
    }

    /// Creates the workload with the default YCSB-like configuration.
    pub fn with_defaults(app_id: AppId) -> Self {
        Self::new(app_id, DataServingConfig::default())
    }

    /// Working-set size implied by the key popularity: a highly skewed key
    /// distribution keeps a few MiB hot, a flat one touches tens of MiB.
    pub(crate) fn working_set_mb(&self) -> f64 {
        4.0 + (1.0 - self.config.key_popularity_skew) * 12.0
    }
}

impl Workload for DataServing {
    fn name(&self) -> &str {
        "data-serving"
    }

    fn app_id(&self) -> AppId {
        self.app_id
    }

    fn next_demand(&mut self, load: f64, rng: &mut StdRng) -> ResourceDemand {
        let load = effective_load(load, 0.02, rng);
        let rps = self.config.peak_rps * load;
        let instructions = rps * INSTRUCTIONS_PER_REQUEST;
        let writes = rps * self.config.write_fraction;
        // Flatter key popularity also means slightly worse locality in the
        // shared cache (more distinct lines touched per request).
        let locality = 0.5 + 0.3 * self.config.key_popularity_skew;
        ResourceDemand::builder()
            .instructions(instructions)
            .base_cpi(0.9)
            .mem_refs_per_instr(0.35)
            .l1_mpki(22.0 + 6.0 * (1.0 - self.config.key_popularity_skew))
            .llc_mpki_solo(1.2 + 1.0 * (1.0 - self.config.key_popularity_skew))
            .working_set_mb(self.working_set_mb())
            .locality(locality)
            .branch_mpki(4.0)
            .ifetch_mpki(0.4)
            .parallelism(2.0)
            .disk_write_mb(writes * DISK_MB_PER_WRITE)
            .disk_seq_fraction(0.9)
            .net_tx_mb(rps * NET_MB_PER_REQUEST * 0.7)
            .net_rx_mb(rps * NET_MB_PER_REQUEST * 0.3)
            .build()
    }

    fn peak_request_rate(&self) -> f64 {
        self.config.peak_rps
    }

    fn demand_is_static_at(&self, load: f64) -> bool {
        // The jitter multiplies into the load, so at zero load every volume
        // term is exactly zero and the shape terms are config constants: the
        // demand is the same every epoch regardless of the RNG draws.
        load <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn demand_scales_with_load() {
        let mut w = DataServing::with_defaults(AppId(1));
        let mut r = rng();
        let low = w.next_demand(0.25, &mut r);
        let high = w.next_demand(1.0, &mut r);
        assert!(high.instructions > 3.0 * low.instructions);
        assert!(high.net_total_mb() > 3.0 * low.net_total_mb());
        // Per-instruction characteristics stay put (the normalization property).
        assert_eq!(low.l1_mpki, high.l1_mpki);
        assert_eq!(low.working_set_mb, high.working_set_mb);
    }

    #[test]
    fn key_popularity_controls_working_set_and_locality() {
        let skewed = DataServing::new(
            AppId(1),
            DataServingConfig {
                key_popularity_skew: 1.0,
                ..Default::default()
            },
        );
        let flat = DataServing::new(
            AppId(1),
            DataServingConfig {
                key_popularity_skew: 0.0,
                ..Default::default()
            },
        );
        assert!(flat.working_set_mb() > skewed.working_set_mb());
        let mut r = rng();
        let d_flat = flat.clone().next_demand(1.0, &mut r);
        let d_skew = skewed.clone().next_demand(1.0, &mut r);
        assert!(d_flat.llc_mpki_solo > d_skew.llc_mpki_solo);
        assert!(d_flat.locality < d_skew.locality);
    }

    #[test]
    fn write_fraction_adds_disk_traffic() {
        let read_only = DataServing::new(
            AppId(1),
            DataServingConfig {
                write_fraction: 0.0,
                ..Default::default()
            },
        );
        let write_heavy = DataServing::new(
            AppId(1),
            DataServingConfig {
                write_fraction: 0.5,
                ..Default::default()
            },
        );
        let mut r = rng();
        assert_eq!(
            read_only.clone().next_demand(1.0, &mut r).disk_total_mb(),
            0.0
        );
        assert!(write_heavy.clone().next_demand(1.0, &mut r).disk_total_mb() > 0.0);
    }

    #[test]
    fn demands_are_well_formed_across_load_range() {
        let mut w = DataServing::with_defaults(AppId(2));
        let mut r = rng();
        for load in [0.0, 0.1, 0.5, 0.9, 1.0, 1.5] {
            let d = w.next_demand(load, &mut r);
            assert!(d.is_well_formed(), "load {load} produced malformed demand");
        }
    }

    #[test]
    #[should_panic(expected = "write fraction")]
    fn invalid_write_fraction_is_rejected() {
        DataServing::new(
            AppId(1),
            DataServingConfig {
                write_fraction: 1.5,
                ..Default::default()
            },
        );
    }
}
