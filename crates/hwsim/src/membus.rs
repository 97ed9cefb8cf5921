//! Memory-interconnect (FSB / QPI) contention model.
//!
//! On the paper's Xeon X5472 testbed every last-level-cache miss crosses a
//! shared front-side bus; on the Core i7 port the equivalent shared resource
//! is the QuickPath interconnect plus the integrated memory controllers.
//! Either way, when the combined miss traffic of co-located VMs approaches
//! the interconnect's sustainable bandwidth, each individual access queues
//! behind the others and the *per-miss* stall grows — the paper's
//! "Scenario B" interference (Fig. 6).
//!
//! We model the interconnect as a single shared channel with an M/M/1-style
//! latency multiplier: at utilization `u` the average memory access costs
//! `memory_latency_cycles / (1 - u)` (capped), and when the offered traffic
//! exceeds capacity the excess simply does not complete this epoch.

/// Cap on the queueing-delay multiplier so that a saturated bus produces a
/// large but finite per-access latency.
pub(crate) const MAX_LATENCY_MULTIPLIER: f64 = 12.0;

/// Utilization at which the M/M/1 term is clamped to avoid division by ~zero.
pub(crate) const UTILIZATION_CLAMP: f64 = 0.95;

/// Outcome of resolving the interconnect for one PM and one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusOutcome {
    /// Offered traffic across all VMs, in MiB for the epoch.
    pub offered_mb: f64,
    /// Fraction of the offered traffic the bus can actually serve this epoch
    /// (1.0 when under capacity).
    pub served_fraction: f64,
    /// Average per-access latency multiplier relative to an idle bus.
    pub latency_multiplier: f64,
    /// Offered utilization (offered traffic / capacity); may exceed 1.
    pub utilization: f64,
}

/// Resolves bus contention given the total traffic offered by every VM on the
/// machine during an epoch of `epoch_seconds`.
///
/// `bandwidth_mbps` is the sustainable interconnect bandwidth in MiB/s.
pub fn resolve_bus(bandwidth_mbps: f64, offered_mb: f64, epoch_seconds: f64) -> BusOutcome {
    assert!(bandwidth_mbps > 0.0, "bus bandwidth must be positive");
    assert!(epoch_seconds > 0.0, "epoch must have positive duration");
    let offered_mb = offered_mb.max(0.0);
    let capacity_mb = bandwidth_mbps * epoch_seconds;
    let utilization = offered_mb / capacity_mb;

    let served_fraction = if utilization <= 1.0 {
        1.0
    } else {
        1.0 / utilization
    };
    let clamped = utilization.min(UTILIZATION_CLAMP);
    let latency_multiplier = (1.0 / (1.0 - clamped)).min(MAX_LATENCY_MULTIPLIER);

    BusOutcome {
        offered_mb,
        served_fraction,
        latency_multiplier,
        utilization,
    }
}

impl BusOutcome {
    /// Extra (queueing-only) fraction of the base memory latency each access
    /// pays; zero on an idle bus.  The CPI-stack attribution uses this to
    /// separate the "FSB" component from the plain "L2 miss" component.
    pub fn queueing_overhead(&self) -> f64 {
        (self.latency_multiplier - 1.0).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bus_has_unit_multiplier() {
        let out = resolve_bus(6_000.0, 0.0, 1.0);
        assert_eq!(out.latency_multiplier, 1.0);
        assert_eq!(out.served_fraction, 1.0);
        assert_eq!(out.queueing_overhead(), 0.0);
    }

    #[test]
    fn latency_grows_monotonically_with_traffic() {
        let low = resolve_bus(6_000.0, 600.0, 1.0);
        let mid = resolve_bus(6_000.0, 3_000.0, 1.0);
        let high = resolve_bus(6_000.0, 5_700.0, 1.0);
        assert!(low.latency_multiplier < mid.latency_multiplier);
        assert!(mid.latency_multiplier < high.latency_multiplier);
        assert!(high.latency_multiplier <= MAX_LATENCY_MULTIPLIER);
    }

    #[test]
    fn oversubscription_throttles_throughput() {
        let out = resolve_bus(6_000.0, 12_000.0, 1.0);
        assert!((out.served_fraction - 0.5).abs() < 1e-12);
        assert!(out.utilization > 1.0);
        assert_eq!(
            out.latency_multiplier,
            MAX_LATENCY_MULTIPLIER.min(1.0 / (1.0 - UTILIZATION_CLAMP))
        );
    }

    #[test]
    fn under_capacity_serves_everything() {
        let out = resolve_bus(6_000.0, 5_999.0, 1.0);
        assert_eq!(out.served_fraction, 1.0);
    }

    #[test]
    fn epoch_duration_scales_capacity() {
        // Half an epoch means half the deliverable bytes at the same rate.
        let full = resolve_bus(6_000.0, 6_000.0, 1.0);
        let half = resolve_bus(6_000.0, 6_000.0, 0.5);
        assert!(half.utilization > full.utilization);
    }

    #[test]
    fn negative_traffic_is_clamped() {
        let out = resolve_bus(6_000.0, -5.0, 1.0);
        assert_eq!(out.offered_mb, 0.0);
        assert_eq!(out.latency_multiplier, 1.0);
    }

    #[test]
    #[should_panic(expected = "bus bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        resolve_bus(0.0, 1.0, 1.0);
    }
}
