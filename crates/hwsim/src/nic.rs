//! Network-interface contention model.
//!
//! The paper injects network interference with `iperf` streams (Fig. 5,
//! Scenario C of Fig. 6): when co-located VMs together demand more than the
//! PM's 1-Gb NIC can carry, packets queue, each VM's achieved throughput
//! drops to its fair share, and the victim VM accumulates "idle CPU cycles
//! while the system had a packet in the Snd/Rcv queue" — the `netstat` T_net
//! metric of Table 1.

use crate::demand::AsDemand;

/// Per-VM outcome of resolving the shared NIC for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicOutcome {
    /// MiB the VM actually transferred (tx + rx) this epoch.
    pub achieved_mb: f64,
    /// Fraction of the requested traffic that was carried.
    pub completed_fraction: f64,
    /// Seconds the VM spends stalled on queued packets (`netstat` T_net),
    /// capped at the epoch length.
    pub stall_seconds: f64,
}

/// Resolves NIC contention across every VM on a physical machine.
///
/// `nic_mbps` is the line rate in MiB/s.  When the combined demand exceeds
/// the line rate, bandwidth is shared in proportion to demand: the paper's
/// interfering workload is unthrottled bidirectional UDP (`iperf`), which
/// does not back off, so a small well-behaved flow loses roughly its
/// proportional share rather than being protected max-min-fairly.
// simlint: test-accessor (the frozen reference in tests/resolver_equivalence.rs)
pub fn resolve_nic<D: AsDemand>(
    nic_mbps: f64,
    demands: &[D],
    epoch_seconds: f64,
) -> Vec<NicOutcome> {
    let mut out = Vec::with_capacity(demands.len());
    resolve_nic_into(nic_mbps, demands, epoch_seconds, &mut out);
    out
}

/// Allocation-free core of [`resolve_nic`]: leaves one [`NicOutcome`] per
/// demand in `out` (cleared first), reusing its capacity across epochs.
pub(crate) fn resolve_nic_into<D: AsDemand>(
    nic_mbps: f64,
    demands: &[D],
    epoch_seconds: f64,
    out: &mut Vec<NicOutcome>,
) {
    assert!(nic_mbps > 0.0, "NIC bandwidth must be positive");
    assert!(epoch_seconds > 0.0, "epoch must have positive duration");
    out.clear();

    // Demand-proportional allocation: everything is granted when the total
    // demand fits the line rate; otherwise every flow is scaled by the same
    // factor (the paper's interfering workload is unthrottled bidirectional
    // UDP, which does not back off, so there is no max-min protection).
    let capacity = nic_mbps * epoch_seconds;
    let total: f64 = demands
        .iter()
        .map(|d| d.as_demand().net_total_mb().max(0.0))
        .sum();
    let scale = if total <= capacity || total <= 0.0 {
        1.0
    } else {
        capacity.max(0.0) / total
    };

    out.extend(demands.iter().map(|d| {
        let want = d.as_demand().net_total_mb().max(0.0);
        if want <= 0.0 {
            return NicOutcome {
                achieved_mb: 0.0,
                completed_fraction: 1.0,
                stall_seconds: 0.0,
            };
        }
        let got = want * scale;
        let completed_fraction = (got / want).min(1.0);
        // Transmission time at the achieved rate, plus the epoch fraction
        // spent blocked on traffic that never got through.
        let tx_time = got / nic_mbps;
        let blocked = (1.0 - completed_fraction) * epoch_seconds;
        NicOutcome {
            achieved_mb: got,
            completed_fraction,
            stall_seconds: (tx_time * 0.1 + blocked).min(epoch_seconds),
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::ResourceDemand;

    fn net_vm(tx: f64, rx: f64) -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(1.0e8)
            .net_tx_mb(tx)
            .net_rx_mb(rx)
            .build()
    }

    #[test]
    fn under_capacity_everything_completes() {
        let a = net_vm(30.0, 20.0);
        let b = net_vm(10.0, 10.0);
        let out = resolve_nic(125.0, &[&a, &b], 1.0);
        assert_eq!(out[0].completed_fraction, 1.0);
        assert_eq!(out[1].completed_fraction, 1.0);
        assert!((out[0].achieved_mb - 50.0).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_shares_in_proportion_to_demand() {
        let big = net_vm(200.0, 0.0);
        let small = net_vm(20.0, 0.0);
        let out = resolve_nic(125.0, &[&big, &small], 1.0);
        // Both flows are scaled by the same factor 125/220.
        let scale = 125.0 / 220.0;
        assert!((out[0].achieved_mb - 200.0 * scale).abs() < 1e-9);
        assert!((out[1].achieved_mb - 20.0 * scale).abs() < 1e-9);
        assert!((out[0].completed_fraction - out[1].completed_fraction).abs() < 1e-9);
        assert!(out[0].completed_fraction < 1.0);
    }

    #[test]
    fn idle_vm_has_zero_net_stall() {
        let idle = ResourceDemand::builder().instructions(1.0e9).build();
        let busy = net_vm(500.0, 0.0);
        let out = resolve_nic(125.0, &[&idle, &busy], 1.0);
        assert_eq!(out[0].stall_seconds, 0.0);
        assert_eq!(out[0].achieved_mb, 0.0);
    }

    #[test]
    fn stall_grows_with_oversubscription() {
        let victim = net_vm(60.0, 0.0);
        let mild = net_vm(60.0, 0.0);
        let harsh = net_vm(600.0, 0.0);
        let with_mild = resolve_nic(125.0, &[&victim, &mild], 1.0);
        let with_harsh = resolve_nic(125.0, &[&victim, &harsh], 1.0);
        assert!(with_harsh[0].stall_seconds >= with_mild[0].stall_seconds);
        assert!(with_harsh[0].completed_fraction <= with_mild[0].completed_fraction);
    }

    #[test]
    fn stall_never_exceeds_epoch() {
        let a = net_vm(10_000.0, 10_000.0);
        let b = net_vm(10_000.0, 10_000.0);
        for o in resolve_nic(125.0, &[&a, &b], 1.0) {
            assert!(o.stall_seconds <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn allocations_never_exceed_capacity() {
        let vms: Vec<ResourceDemand> = (0..5).map(|i| net_vm(40.0 * (i + 1) as f64, 0.0)).collect();
        let refs: Vec<&ResourceDemand> = vms.iter().collect();
        let out = resolve_nic(125.0, &refs, 1.0);
        let total: f64 = out.iter().map(|o| o.achieved_mb).sum();
        assert!(total <= 125.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "NIC bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let a = net_vm(1.0, 0.0);
        resolve_nic(0.0, &[&a], 1.0);
    }
}
