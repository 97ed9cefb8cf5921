//! The controller's per-VM memory: one record per VM, its analysis window
//! in one slab shared by every VM.
//!
//! The sweep touches every report once, so this table is on the always-on
//! path: recording an epoch is one probe of the VM → [`Ring`] table, which
//! holds the ring's cursor in the probed entry itself, and one row write
//! into the slot's ring.  Everything else reaches a record by the ring
//! that probe returned.

use cloudsim::pm::VmEpochReport;
use cloudsim::VmId;
use hwsim::{CounterSnapshot, ResourceDemand};

use crate::epoch_index::MulMap;

/// One epoch of a VM's window: the counters observed in production and the
/// demand to replay in the sandbox.
pub(super) type WindowRow = (CounterSnapshot, ResourceDemand);

/// How many reports ahead of the row being written the next rows are read.
/// The slab is larger than a core's cache and a row spans four cache lines,
/// so writing rows one after another stalls on each row's misses; reading
/// a row this far ahead starts its misses early, and its write then finds
/// the lines in cache.  On `managed_hotmail` (seed 7, 2.5 M rows, a shared
/// 2-core x86 host) this cut the row writes from ≈ 0.33 s to ≈ 0.21 s.
const ROW_LOOKAHEAD: usize = 16;

/// Where a VM's window lives: its slot in the slab and the ring's cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Ring {
    /// The VM's slot: its record and its `analysis_window` slab rows.
    slot: u32,
    /// Ring row the next epoch is written to: the oldest row once full.
    next: u32,
    /// Rows of the ring holding an epoch, at most `analysis_window`.
    filled: u32,
}

/// Everything the controller remembers about one VM between epochs besides
/// its window: one record, one owner ([`VmRecords`]), one lifetime (until
/// [`super::DeepDive::forget_vms`]).
///
/// The window is the simulation's request-duplicating proxy: "DeepDive
/// relies on a proxy that intercepts the clients' traffic to: 1) duplicate
/// and send copies of the requests to the sandboxed environment, and 2)
/// forward the traffic to/from the production VM" (§4.2), so the sandboxed
/// clone experiences *the same workload* as the production VM.  Here "the
/// same workload" is the intrinsic [`ResourceDemand`] the production VM
/// generated each epoch, kept beside the counters that epoch produced.  The
/// VM's last `analysis_window` epochs live in its slot of the slab, a ring
/// its [`Ring`] indexes; the record itself is read only by an analysis.
#[derive(Debug, Default)]
pub(super) struct VmRecord {
    /// First epoch at which the VM may be analyzed again (a simple
    /// controller against oscillating invocations, §4.4).
    pub(super) cooldown_until: u64,
    /// While the VM's analysis waits out a sandbox-pool outage: the epoch
    /// at which waiting turns into a degraded (warning-only) decision.
    pub(super) deferred_until: Option<u64>,
}

/// Every tracked VM's record and window, by slot.
#[derive(Debug)]
pub(super) struct VmRecords {
    /// Rows per window (`analysis_window`, at least one).
    width: usize,
    /// The ring of every tracked VM.
    rings: MulMap<VmId, Ring>,
    /// Records by slot; a free slot holds a default record.
    records: Vec<VmRecord>,
    /// `width` rows per slot: slot `s`'s ring is
    /// `rows[s * width..(s + 1) * width]`.
    rows: Vec<WindowRow>,
    /// Slots [`VmRecords::forget`] freed, reused last-freed first.
    free: Vec<u32>,
    /// This epoch's row to write for every report.  Reused scratch.
    targets: Vec<usize>,
    /// Probes of `rings` since construction, a clock-free work counter.
    probes: u64,
}

impl VmRecords {
    /// An empty table for windows of `width` rows (at least one).
    pub(super) fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
            rings: MulMap::default(),
            records: Vec::new(),
            rows: Vec::new(),
            free: Vec::new(),
            targets: Vec::new(),
            probes: 0,
        }
    }

    /// Records every report as the newest row of its VM's window, dropping
    /// the oldest once the window is full, and leaves in `rings` each
    /// report's ring as it now stands.  A VM seen for the first time (or
    /// again after [`VmRecords::forget`]) gets a fresh record in a free
    /// slot.  One probe per report, and no read of a record.
    pub(super) fn record_epoch(&mut self, reports: &[VmEpochReport], rings: &mut Vec<Ring>) {
        rings.clear();
        self.targets.clear();
        let width = self.width;
        for report in reports {
            self.probes += 1;
            let (records, rows, free) = (&mut self.records, &mut self.rows, &mut self.free);
            let ring = self.rings.entry(report.vm_id).or_insert_with(|| {
                let slot = free.pop().unwrap_or_else(|| {
                    records.push(VmRecord::default());
                    rows.resize(rows.len() + width, WindowRow::default());
                    (records.len() - 1) as u32
                });
                Ring {
                    slot,
                    next: 0,
                    filled: 0,
                }
            });
            self.targets
                .push(ring.slot as usize * width + ring.next as usize);
            ring.next = if ring.next as usize + 1 == width {
                0
            } else {
                ring.next + 1
            };
            ring.filled = (ring.filled + 1).min(width as u32);
            rings.push(*ring);
        }
        for (at, report) in reports.iter().enumerate() {
            if let Some(&ahead) = self.targets.get(at + ROW_LOOKAHEAD) {
                // One read per cache line of the row ahead.
                let (counters, demand) = &self.rows[ahead];
                std::hint::black_box(
                    counters.cpu_unhalted
                        + counters.bus_trans_ifetch
                        + demand.mem_refs_per_instr
                        + demand.disk_read_mb
                        + demand.net_rx_mb,
                );
            }
            let row = &mut self.rows[self.targets[at]];
            row.0 = report.counters;
            row.1.clone_from(&report.demand);
        }
    }

    /// The record of `ring`'s VM.
    pub(super) fn record_mut(&mut self, ring: Ring) -> &mut VmRecord {
        &mut self.records[ring.slot as usize]
    }

    /// The window `ring` holds, oldest epoch first.
    pub(super) fn window(&self, ring: Ring) -> impl Iterator<Item = &WindowRow> + '_ {
        let rows = &self.rows[ring.slot as usize * self.width..][..self.width];
        let filled = ring.filled as usize;
        let oldest = if filled < self.width {
            0
        } else {
            ring.next as usize
        };
        let (wrapped, from_oldest) = rows.split_at(oldest);
        from_oldest.iter().chain(wrapped).take(filled)
    }

    /// Drops `vm`'s record and frees its slot for the next new VM.
    pub(super) fn forget(&mut self, vm: VmId) {
        self.probes += 1;
        if let Some(ring) = self.rings.remove(&vm) {
            self.records[ring.slot as usize] = VmRecord::default();
            self.free.push(ring.slot);
        }
    }

    /// Number of VMs holding a record.
    pub(super) fn len(&self) -> usize {
        self.rings.len()
    }

    /// `vm`'s ring, without counting a probe.
    #[cfg(test)]
    pub(super) fn ring(&self, vm: VmId) -> Option<Ring> {
        self.rings.get(&vm).copied()
    }

    /// The record of `ring`'s VM.
    #[cfg(test)]
    pub(super) fn record(&self, ring: Ring) -> &VmRecord {
        &self.records[ring.slot as usize]
    }

    /// Every record, free slots' defaults included.
    #[cfg(test)]
    pub(super) fn records(&self) -> &[VmRecord] {
        &self.records
    }

    /// Probes of the VM → slot table since construction.
    #[cfg(test)]
    pub(super) fn probes(&self) -> u64 {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report of `vm` whose counters and demand carry `tag`.
    fn report(vm: u64, tag: f64) -> VmEpochReport {
        use cloudsim::{Cluster, ClusterSeed, EpochEngine, PmId, Scheduler};
        use workloads::{AppId, ClientEmulator, DataServing};

        let mut cluster =
            Cluster::homogeneous(1, hwsim::MachineSpec::xeon_x5472(), Scheduler::default());
        let workload = Box::new(DataServing::with_defaults(AppId(1)));
        let client = ClientEmulator::new(8_000.0, 4.0);
        let vm_ = cloudsim::Vm::new(VmId(vm), workload, client);
        cluster.place_on(PmId(0), vm_).unwrap();
        let mut report =
            EpochEngine::serial(ClusterSeed::new(1)).step(&mut cluster, |_| 0.8)[0].clone();
        report.counters.inst_retired = tag;
        report.demand.instructions = tag;
        report
    }

    fn tags(records: &VmRecords, ring: Ring) -> Vec<f64> {
        records.window(ring).map(|(c, _)| c.inst_retired).collect()
    }

    #[test]
    fn windows_keep_the_newest_rows_oldest_first_and_slots_recycle() {
        let mut records = VmRecords::new(3);
        let mut rings = Vec::new();
        let mut push = |records: &mut VmRecords, vm: u64, tag: f64| {
            records.record_epoch(&[report(vm, tag)], &mut rings);
            rings[0]
        };
        let mut a = push(&mut records, 1, 1.0);
        let b = push(&mut records, 2, 10.0);
        assert_ne!(a.slot, b.slot);
        for tag in 2..=5 {
            a = push(&mut records, 1, tag as f64);
        }
        assert_eq!(tags(&records, a), [3.0, 4.0, 5.0]);
        assert_eq!(tags(&records, b), [10.0]);
        records.forget(VmId(1));
        records.forget(VmId(7));
        assert_eq!(records.len(), 1);
        // A new VM takes the freed slot and starts from an empty window.
        let c = push(&mut records, 3, 20.0);
        assert_eq!(c.slot, a.slot);
        assert_eq!(tags(&records, c), [20.0]);
        assert_eq!(records.probes(), 9);
    }

    #[test]
    fn an_epoch_of_many_reports_lands_every_row_in_its_own_window() {
        // More reports than the write pass reads ahead, over three epochs.
        let mut records = VmRecords::new(2);
        let mut rings = Vec::new();
        let template = report(0, 0.0);
        for epoch in 0..3u64 {
            let reports: Vec<VmEpochReport> = (0..40u64)
                .map(|vm| {
                    let mut r = template.clone();
                    r.vm_id = VmId(vm);
                    r.counters.inst_retired = (100 * epoch + vm) as f64;
                    r
                })
                .collect();
            records.record_epoch(&reports, &mut rings);
        }
        assert_eq!(records.probes(), 120);
        for (vm, &ring) in rings.iter().enumerate() {
            let vm = vm as f64;
            assert_eq!(tags(&records, ring), [100.0 + vm, 200.0 + vm]);
        }
    }
}
