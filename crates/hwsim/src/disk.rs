//! Shared-disk contention model.
//!
//! The paper's second canonical example (§1): "two VMs, each with sequential
//! disk I/O when running in isolation, may produce a random access pattern on
//! a shared disk when running together."  This module captures exactly that:
//! a VM's effective disk bandwidth depends on how sequential its accesses
//! remain once they are interleaved with other VMs' streams, and the disk's
//! time is shared among the contenders.
//!
//! The output per VM is a service time (how long its I/O needs), a stall time
//! (how long the VM sits idle waiting for the disk, the `iostat` T_disk of
//! Table 1) and the fraction of its requested bytes that completed.

use crate::demand::AsDemand;

/// Per-VM outcome of resolving the shared disk for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskOutcome {
    /// Seconds of disk service the VM's traffic requires under contention.
    pub service_seconds: f64,
    /// Seconds the VM spends stalled waiting on disk this epoch (capped at
    /// the epoch length).
    pub stall_seconds: f64,
    /// Fraction of the requested bytes the disk completed this epoch.
    pub completed_fraction: f64,
}

/// Resolves disk contention across every VM on a physical machine.
///
/// * `seq_mbps` / `rand_mbps` — the disk's sequential and random bandwidth.
/// * `demands` — one entry per VM (VMs without disk traffic get a zero outcome).
/// * `epoch_seconds` — epoch length.
// simlint: test-accessor (the frozen reference in tests/resolver_equivalence.rs)
pub fn resolve_disk<D: AsDemand>(
    seq_mbps: f64,
    rand_mbps: f64,
    demands: &[D],
    epoch_seconds: f64,
) -> Vec<DiskOutcome> {
    let mut out = Vec::with_capacity(demands.len());
    resolve_disk_into(seq_mbps, rand_mbps, demands, epoch_seconds, &mut out);
    out
}

/// Allocation-free core of [`resolve_disk`]: leaves one [`DiskOutcome`] per
/// demand in `out` (cleared first), reusing its capacity across epochs.
pub(crate) fn resolve_disk_into<D: AsDemand>(
    seq_mbps: f64,
    rand_mbps: f64,
    demands: &[D],
    epoch_seconds: f64,
    out: &mut Vec<DiskOutcome>,
) {
    assert!(
        seq_mbps > 0.0 && rand_mbps > 0.0,
        "disk bandwidths must be positive"
    );
    assert!(epoch_seconds > 0.0, "epoch must have positive duration");
    out.clear();

    let active: usize = demands
        .iter()
        .filter(|d| d.as_demand().disk_total_mb() > 0.0)
        .count();

    // Effective per-VM service time: interleaving with other active streams
    // destroys sequentiality.  With k active streams a VM retains roughly
    // 1/k of its original sequential runs.  The first pass stores the raw
    // service time in the outcome slot; the second finalizes it.
    out.extend(demands.iter().map(|d| {
        let d = d.as_demand();
        let bytes = d.disk_total_mb();
        let service_seconds = if bytes <= 0.0 {
            0.0
        } else {
            let seq_retained = if active <= 1 {
                d.disk_seq_fraction
            } else {
                d.disk_seq_fraction / active as f64
            };
            let bandwidth = seq_retained * seq_mbps + (1.0 - seq_retained) * rand_mbps;
            bytes / bandwidth.max(f64::MIN_POSITIVE)
        };
        DiskOutcome {
            service_seconds,
            stall_seconds: 0.0,
            completed_fraction: 1.0,
        }
    }));

    let total_service: f64 = out.iter().map(|o| o.service_seconds).sum();
    let utilization = total_service / epoch_seconds;
    let completed_fraction = if utilization <= 1.0 {
        1.0
    } else {
        1.0 / utilization
    };

    for o in out.iter_mut() {
        let s = o.service_seconds;
        if s <= 0.0 {
            *o = DiskOutcome {
                service_seconds: 0.0,
                stall_seconds: 0.0,
                completed_fraction: 1.0,
            };
            continue;
        }
        // The VM waits for its own transfers plus, on average, half of
        // the service demanded by every other VM queued ahead of it.
        let others = total_service - s;
        let wait = (s + 0.5 * others) * completed_fraction;
        *o = DiskOutcome {
            service_seconds: s * completed_fraction,
            stall_seconds: wait.min(epoch_seconds),
            completed_fraction,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::ResourceDemand;

    fn io_vm(read_mb: f64, seq: f64) -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(1.0e8)
            .disk_read_mb(read_mb)
            .disk_seq_fraction(seq)
            .build()
    }

    fn cpu_vm() -> ResourceDemand {
        ResourceDemand::builder().instructions(1.0e9).build()
    }

    #[test]
    fn vm_without_io_has_zero_stall() {
        let a = cpu_vm();
        let b = io_vm(50.0, 1.0);
        let out = resolve_disk(100.0, 2.0, &[&a, &b], 1.0);
        assert_eq!(out[0].stall_seconds, 0.0);
        assert_eq!(out[0].completed_fraction, 1.0);
        assert!(out[1].stall_seconds > 0.0);
    }

    #[test]
    fn solo_sequential_io_runs_at_sequential_bandwidth() {
        let a = io_vm(50.0, 1.0);
        let out = resolve_disk(100.0, 2.0, &[&a], 1.0);
        assert!((out[0].service_seconds - 0.5).abs() < 1e-9);
        assert_eq!(out[0].completed_fraction, 1.0);
    }

    #[test]
    fn sharing_breaks_sequentiality_and_inflates_stalls() {
        let a = io_vm(30.0, 1.0);
        let b = io_vm(30.0, 1.0);
        let solo = resolve_disk(100.0, 2.0, &[&a], 1.0);
        let shared = resolve_disk(100.0, 2.0, &[&a, &b], 1.0);
        // Together, each stream loses sequentiality and the same bytes take
        // far longer — the paper's §1 disk example.
        assert!(shared[0].stall_seconds > solo[0].stall_seconds);
        assert!(shared[0].completed_fraction < 1.0);
    }

    #[test]
    fn stall_never_exceeds_epoch() {
        let a = io_vm(10_000.0, 0.0);
        let b = io_vm(10_000.0, 0.0);
        let out = resolve_disk(100.0, 2.0, &[&a, &b], 1.0);
        for o in out {
            assert!(o.stall_seconds <= 1.0 + 1e-12);
            assert!(o.completed_fraction <= 1.0);
            assert!(o.completed_fraction > 0.0);
        }
    }

    #[test]
    fn random_io_is_slower_than_sequential() {
        let seq = io_vm(10.0, 1.0);
        let rnd = io_vm(10.0, 0.0);
        let s = resolve_disk(100.0, 2.0, &[&seq], 1.0);
        let r = resolve_disk(100.0, 2.0, &[&rnd], 1.0);
        assert!(r[0].service_seconds > s[0].service_seconds);
    }

    #[test]
    fn completed_fraction_is_shared_fairly() {
        let a = io_vm(200.0, 1.0);
        let b = io_vm(200.0, 1.0);
        let out = resolve_disk(100.0, 2.0, &[&a, &b], 1.0);
        assert!((out[0].completed_fraction - out[1].completed_fraction).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "disk bandwidths must be positive")]
    fn zero_bandwidth_rejected() {
        let a = io_vm(1.0, 1.0);
        resolve_disk(0.0, 2.0, &[&a], 1.0);
    }
}
