//! Web Search workload model (Nutch index serving driven by Faban, §5.1).
//!
//! The paper's Web Search workload is a single index-serving node holding a
//! 2-GB index, driven by a client emulator that varies word popularities and
//! the number of client sessions.  We model one query as a CPU-heavy scoring
//! pass over postings lists: popular words are served from the in-memory
//! cache of the index, unpopular words require reading postings from disk.
//! The word-popularity knob therefore shifts work between the CPU/cache and
//! the disk — the qualitative workload change DeepDive must *not* confuse
//! with interference.

use hwsim::ResourceDemand;
use rand::rngs::StdRng;

use crate::spec::{effective_load, AppId, Workload};

/// Instructions per search query (scoring, ranking, snippet generation).
const INSTRUCTIONS_PER_QUERY: f64 = 2_500_000.0;
/// Postings bytes read from disk for a query that misses the index cache, MiB.
const DISK_MB_PER_COLD_QUERY: f64 = 0.02;
/// Result page bytes per query, MiB.
const NET_MB_PER_QUERY: f64 = 1.0e-3;

/// Configuration knobs exposed by the Faban-style client.
#[derive(Debug, Clone, PartialEq)]
pub struct WebSearchConfig {
    /// Skew of word popularity in `[0, 1]`; high skew means most queries hit
    /// the in-memory portion of the index.
    pub word_popularity_skew: f64,
    /// Peak sustainable query rate (queries/second) of one VM.
    pub peak_qps: f64,
}

impl Default for WebSearchConfig {
    fn default() -> Self {
        Self {
            word_popularity_skew: 0.85,
            peak_qps: 1_200.0,
        }
    }
}

/// The Web Search (Nutch/Faban) workload model.
#[derive(Debug, Clone)]
pub struct WebSearch {
    app_id: AppId,
    config: WebSearchConfig,
}

impl WebSearch {
    /// Creates the workload with the given application identity and config.
    ///
    /// # Panics
    /// Panics if the popularity skew is outside `[0, 1]` or the peak rate is
    /// not positive.
    pub fn new(app_id: AppId, config: WebSearchConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.word_popularity_skew),
            "word popularity skew must be in [0, 1]"
        );
        assert!(config.peak_qps > 0.0, "peak query rate must be positive");
        Self { app_id, config }
    }

    /// Creates the workload with the default configuration.
    pub fn with_defaults(app_id: AppId) -> Self {
        Self::new(app_id, WebSearchConfig::default())
    }

    /// Fraction of queries whose postings are not resident in memory and must
    /// be read from disk.
    pub(crate) fn cold_query_fraction(&self) -> f64 {
        0.3 * (1.0 - self.config.word_popularity_skew) + 0.02
    }
}

impl Workload for WebSearch {
    fn name(&self) -> &str {
        "web-search"
    }

    fn app_id(&self) -> AppId {
        self.app_id
    }

    fn next_demand(&mut self, load: f64, rng: &mut StdRng) -> ResourceDemand {
        let load = effective_load(load, 0.02, rng);
        let qps = self.config.peak_qps * load;
        let cold = self.cold_query_fraction();
        ResourceDemand::builder()
            .instructions(qps * INSTRUCTIONS_PER_QUERY)
            .base_cpi(1.0)
            .mem_refs_per_instr(0.3)
            .l1_mpki(16.0 + 4.0 * (1.0 - self.config.word_popularity_skew))
            .llc_mpki_solo(0.8 + 0.6 * (1.0 - self.config.word_popularity_skew))
            .working_set_mb(6.0 + 6.0 * (1.0 - self.config.word_popularity_skew))
            .locality(0.75)
            .branch_mpki(7.0)
            .ifetch_mpki(0.8)
            .parallelism(2.0)
            .disk_read_mb(qps * cold * DISK_MB_PER_COLD_QUERY)
            .disk_seq_fraction(0.3)
            .net_tx_mb(qps * NET_MB_PER_QUERY * 0.8)
            .net_rx_mb(qps * NET_MB_PER_QUERY * 0.2)
            .build()
    }

    fn peak_request_rate(&self) -> f64 {
        self.config.peak_qps
    }

    fn demand_is_static_at(&self, load: f64) -> bool {
        // As for data serving: jitter scales the load, so an idle searcher
        // produces a config-constant demand every epoch.
        load <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn demand_scales_with_load_and_stays_well_formed() {
        let mut w = WebSearch::with_defaults(AppId(10));
        let mut r = rng();
        let half = w.next_demand(0.5, &mut r);
        let full = w.next_demand(1.0, &mut r);
        assert!(full.instructions > 1.8 * half.instructions);
        assert!(half.is_well_formed() && full.is_well_formed());
    }

    #[test]
    fn unpopular_words_shift_work_to_disk() {
        let hot = WebSearch::new(
            AppId(10),
            WebSearchConfig {
                word_popularity_skew: 1.0,
                ..Default::default()
            },
        );
        let cold = WebSearch::new(
            AppId(10),
            WebSearchConfig {
                word_popularity_skew: 0.0,
                ..Default::default()
            },
        );
        assert!(cold.cold_query_fraction() > hot.cold_query_fraction());
        let mut r = rng();
        let d_hot = hot.clone().next_demand(1.0, &mut r);
        let d_cold = cold.clone().next_demand(1.0, &mut r);
        assert!(d_cold.disk_read_mb > d_hot.disk_read_mb);
        assert!(d_cold.llc_mpki_solo > d_hot.llc_mpki_solo);
    }

    #[test]
    fn search_is_disk_sensitive_compared_to_data_serving() {
        // The evaluation pairs Web Search with the disk-stress aggressor; it
        // should indeed have meaningful disk reads at peak load.
        let mut w = WebSearch::with_defaults(AppId(10));
        let mut r = rng();
        let d = w.next_demand(1.0, &mut r);
        assert!(d.disk_read_mb > 0.1, "disk demand {}", d.disk_read_mb);
    }

    #[test]
    fn zero_load_produces_zero_work() {
        let mut w = WebSearch::with_defaults(AppId(10));
        let mut r = rng();
        let d = w.next_demand(0.0, &mut r);
        assert_eq!(d.instructions, 0.0);
        assert_eq!(d.disk_total_mb(), 0.0);
    }

    #[test]
    #[should_panic(expected = "word popularity")]
    fn invalid_skew_is_rejected() {
        WebSearch::new(
            AppId(1),
            WebSearchConfig {
                word_popularity_skew: -0.1,
                ..Default::default()
            },
        );
    }
}
