//! Live-migration cost model.
//!
//! The placement manager's whole purpose is to avoid "numerous and expensive
//! VM migrations (especially for applications with large memory and/or
//! persistent state), as well as prolonged periods of severe performance
//! degradation" (§4.3).  To make that trade-off visible in the benches, this
//! module estimates what a migration costs: how long the pre-copy takes, how
//! long the VM is paused, and how much network traffic the transfer adds.

/// Pre-copy rounds performed before the stop-and-copy phase.
const PRECOPY_ROUNDS: u32 = 3;

/// Estimated cost of live-migrating one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Total migration duration (pre-copy + stop-and-copy), in seconds.
    pub total_seconds: f64,
    /// Downtime during the final stop-and-copy phase, in seconds.
    pub downtime_seconds: f64,
    /// Bytes moved over the network, in MiB.
    pub transferred_mb: f64,
}

/// Estimates the cost of live-migrating a VM.
///
/// * `memory_mb` — the VM's memory allocation.
/// * `dirty_rate_mb_per_s` — how fast the workload dirties memory.
/// * `bandwidth_mb_per_s` — migration bandwidth between source and target.
///
/// A standard pre-copy model: the full memory image is sent once, then each
/// round retransmits the pages dirtied during the previous round, and the
/// remainder is sent during the stop-and-copy pause.
///
/// # Panics
/// Panics if memory or bandwidth is not positive, if the dirty rate is
/// negative, or if the dirty rate is at least the migration bandwidth (the
/// pre-copy would never converge).
pub fn estimate_migration(
    memory_mb: f64,
    dirty_rate_mb_per_s: f64,
    bandwidth_mb_per_s: f64,
) -> MigrationCost {
    assert!(memory_mb > 0.0, "memory must be positive");
    assert!(bandwidth_mb_per_s > 0.0, "bandwidth must be positive");
    assert!(dirty_rate_mb_per_s >= 0.0, "dirty rate cannot be negative");
    assert!(
        dirty_rate_mb_per_s < bandwidth_mb_per_s,
        "pre-copy cannot converge when the dirty rate ({dirty_rate_mb_per_s} MiB/s) \
         reaches the migration bandwidth ({bandwidth_mb_per_s} MiB/s)"
    );

    let mut transferred = 0.0;
    let mut to_send = memory_mb;
    let mut total_seconds = 0.0;
    for _ in 0..PRECOPY_ROUNDS {
        let round_seconds = to_send / bandwidth_mb_per_s;
        transferred += to_send;
        total_seconds += round_seconds;
        to_send = dirty_rate_mb_per_s * round_seconds;
    }
    // Stop-and-copy: pause the VM and send whatever is still dirty.
    let downtime_seconds = to_send / bandwidth_mb_per_s;
    transferred += to_send;
    total_seconds += downtime_seconds;

    MigrationCost {
        total_seconds,
        downtime_seconds,
        transferred_mb: transferred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_vm_migrates_in_one_memory_copy() {
        let cost = estimate_migration(2_048.0, 0.0, 100.0);
        assert!((cost.transferred_mb - 2_048.0).abs() < 1e-9);
        assert!((cost.total_seconds - 20.48).abs() < 1e-9);
        assert_eq!(cost.downtime_seconds, 0.0);
    }

    #[test]
    fn dirtier_vms_cost_more() {
        let calm = estimate_migration(2_048.0, 5.0, 100.0);
        let busy = estimate_migration(2_048.0, 50.0, 100.0);
        assert!(busy.total_seconds > calm.total_seconds);
        assert!(busy.downtime_seconds > calm.downtime_seconds);
        assert!(busy.transferred_mb > calm.transferred_mb);
    }

    #[test]
    fn bigger_memory_costs_more() {
        let small = estimate_migration(1_024.0, 10.0, 100.0);
        let large = estimate_migration(8_192.0, 10.0, 100.0);
        assert!(large.total_seconds > 4.0 * small.total_seconds);
    }

    #[test]
    fn faster_link_reduces_downtime() {
        let slow = estimate_migration(2_048.0, 20.0, 50.0);
        let fast = estimate_migration(2_048.0, 20.0, 500.0);
        assert!(fast.downtime_seconds < slow.downtime_seconds);
        assert!(fast.total_seconds < slow.total_seconds);
    }

    #[test]
    #[should_panic(expected = "cannot converge")]
    fn non_converging_precopy_is_rejected() {
        estimate_migration(2_048.0, 100.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "memory must be positive")]
    fn zero_memory_rejected() {
        estimate_migration(0.0, 1.0, 100.0);
    }
}
