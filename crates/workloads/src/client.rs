//! Closed-loop client emulator.
//!
//! The paper's evaluation uses instrumented client emulators (YCSB for Data
//! Serving, Faban for Web Search, the Hadoop job driver for Data Analytics)
//! that "continuously report average performance, enabling us to compare the
//! client-reported degradations with those estimated by the analyzer"
//! (§5.3).  This module plays that role: it converts the fraction of the
//! offered work a VM actually completed (ground truth from `hwsim`) into the
//! throughput and latency a client would observe, and computes degradations
//! relative to a baseline.
//!
//! DeepDive itself never reads these numbers — they exist purely so the
//! benches can score DeepDive's estimates, exactly as in the paper.

/// One epoch of client-side measurements for a VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientObservation {
    /// Requests (or tasks) per second the clients completed.
    pub throughput_rps: f64,
    /// Average request latency in milliseconds (or normalized task completion
    /// time for batch workloads).
    pub latency_ms: f64,
    /// Requests per second the clients offered.
    pub offered_rps: f64,
}

/// Client emulator for one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientEmulator {
    /// Request rate the clients offer at load 1.0.
    pub peak_rps: f64,
    /// Service latency when the VM keeps up with the offered load, in ms.
    pub base_latency_ms: f64,
}

impl ClientEmulator {
    /// Creates an emulator for a service with the given peak request rate and
    /// uncontended latency.
    ///
    /// # Panics
    /// Panics if either parameter is not positive.
    pub fn new(peak_rps: f64, base_latency_ms: f64) -> Self {
        assert!(peak_rps > 0.0, "peak request rate must be positive");
        assert!(base_latency_ms > 0.0, "base latency must be positive");
        Self {
            peak_rps,
            base_latency_ms,
        }
    }

    /// Converts an epoch's offered load and achieved work fraction into the
    /// client-visible throughput and latency.
    ///
    /// When the VM completes everything (`achieved_fraction = 1`) clients see
    /// the base latency.  When the VM falls behind, the queue grows within
    /// the epoch and the average latency inflates inversely with the achieved
    /// fraction — the standard closed-loop saturation behaviour.
    pub fn observe(&self, offered_load: f64, achieved_fraction: f64) -> ClientObservation {
        let offered_load = offered_load.clamp(0.0, 1.0);
        let f = achieved_fraction.clamp(0.0, 1.0);
        let offered_rps = self.peak_rps * offered_load;
        let throughput_rps = offered_rps * f;
        let latency_ms = if f <= 1e-9 {
            // Nothing completed: report a large but finite latency.
            self.base_latency_ms * 1_000.0
        } else {
            self.base_latency_ms / f
        };
        ClientObservation {
            throughput_rps,
            latency_ms,
            offered_rps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_speed_gives_base_latency_and_offered_throughput() {
        let c = ClientEmulator::new(1_000.0, 5.0);
        let obs = c.observe(0.8, 1.0);
        assert!((obs.throughput_rps - 800.0).abs() < 1e-9);
        assert!((obs.latency_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn falling_behind_inflates_latency_and_drops_throughput() {
        let c = ClientEmulator::new(1_000.0, 5.0);
        let degraded = c.observe(1.0, 0.5);
        let baseline = c.observe(1.0, 1.0);
        assert!((degraded.latency_ms - 2.0 * baseline.latency_ms).abs() < 1e-9);
        assert!((degraded.throughput_rps - 0.5 * baseline.throughput_rps).abs() < 1e-9);
    }

    #[test]
    fn zero_achieved_fraction_is_finite() {
        let c = ClientEmulator::new(1_000.0, 5.0);
        let obs = c.observe(1.0, 0.0);
        assert!(obs.latency_ms.is_finite());
        assert_eq!(obs.throughput_rps, 0.0);
    }

    #[test]
    fn twenty_percent_degradation_threshold_example() {
        // The paper labels performance crises as interference when the
        // client-reported degradation exceeds 20% (§5.1): a 10% shortfall
        // stays under it, a 40% shortfall crosses it.
        let c = ClientEmulator::new(2_000.0, 8.0);
        let baseline = c.observe(0.9, 1.0);
        let slight = c.observe(0.9, 0.9);
        let severe = c.observe(0.9, 0.6);
        assert!(slight.latency_ms / baseline.latency_ms - 1.0 < 0.2);
        assert!(severe.latency_ms / baseline.latency_ms - 1.0 > 0.2);
    }

    #[test]
    #[should_panic(expected = "peak request rate must be positive")]
    fn zero_rate_is_rejected() {
        ClientEmulator::new(0.0, 1.0);
    }
}
