//! The controller's per-VM memory: one phase per VM, its analysis window
//! in one slab shared by every VM.
//!
//! The sweep touches every report once, so this table is on the always-on
//! path: recording an epoch is one probe of the VM → [`Ring`] table, which
//! holds the ring's cursor in the probed entry itself, and one row write
//! into the slot's ring.  Everything else reaches a VM by the ring that
//! probe returned.
//!
//! A VM's [`VmPhase`] is what Figure 2's loop remembers between warnings:
//! the cooldown after a decision ("a simple controller against oscillating
//! invocations", §4.4) or the deferral that waits out a sandbox-pool
//! outage.  Every transition is one call of [`step`], at epoch *t*:
//!
//! | phase | event | next phase | outcome |
//! |---|---|---|---|
//! | `CoolingDown`, *t* < `until` | escalation | unchanged | skip |
//! | `Watching` or `Deferred` | escalation, pool up | `Watching` | analyze |
//! | `Watching` | escalation, pool down | `Deferred` until *t* + 12 | defer |
//! | `Deferred`, *t* < `deadline` | escalation, pool down¹ | unchanged | wait |
//! | `Deferred`, *t* = `deadline` | escalation, pool down | cooled, ordinary | degrade |
//! | any | verdict, confirmed² or not | cooled, confirmed or ordinary | skip |
//! | any | forget | `Watching` | skip |
//!
//! `CoolingDown` at or past `until` and `Deferred` past `deadline` read as
//! `Watching`, so a deferral that lapsed while its VM was quiet never
//! degrades a later warning.  Cooled, *n*, is `CoolingDown` until *t* + *n*
//! (`Watching` if *n* is 0): no phase holds an epoch at or before *t*.
//! ¹ Known limit: a new outage that begins before an old deadline shares
//! it; the wait is bounded by [`ANALYSIS_DEFERRAL_EPOCHS`] either way.
//! ² A failed mitigation is no phase: its retries queue per episode in
//! `DeepDive::pending_migrations`, at *t* + 1, 3 and 7, and can outlive the
//! victim's cooldown (fig8 runs with `confirmed_cooldown: 6`).

use cloudsim::pm::VmEpochReport;
use cloudsim::VmId;
use hwsim::{CounterSnapshot, ResourceDemand};

use super::DeepDiveConfig;
use crate::epoch_index::MulMap;

/// One epoch of a VM's window: the counters observed in production and the
/// demand to replay in the sandbox.
///
/// The window is the simulation's request-duplicating proxy: "DeepDive
/// relies on a proxy that intercepts the clients' traffic to: 1) duplicate
/// and send copies of the requests to the sandboxed environment, and 2)
/// forward the traffic to/from the production VM" (§4.2), so the sandboxed
/// clone experiences *the same workload* as the production VM.  Here "the
/// same workload" is the intrinsic [`ResourceDemand`] the production VM
/// generated each epoch, kept beside the counters that epoch produced.  The
/// VM's last `analysis_window` epochs live in its slot of the slab, a ring
/// its [`Ring`] indexes.
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
    /// The VM's slot: its phase and its `analysis_window` slab rows.
    slot: u32,
    /// Ring row the next epoch is written to: the oldest row once full.
    next: u32,
    /// Rows of the ring holding an epoch, at most `analysis_window`.
    filled: u32,
}

/// Epochs a warning may wait for its sandbox pool to come back from an
/// outage before the controller gives up on analyzing and falls back to a
/// warning-only (degraded) decision.
const ANALYSIS_DEFERRAL_EPOCHS: u64 = 12;

/// Everything the controller remembers about one VM between warnings
/// besides its window: one phase, one owner ([`VmRecords`]), one lifetime
/// (until [`super::DeepDive::forget_vms`]), read and written only by
/// [`step`] (the module doc's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum VmPhase {
    /// No gate holds.
    Watching,
    /// Analyzed or degraded lately: warnings before `until` are skipped.
    CoolingDown { until: u64 },
    /// The analysis waits out a sandbox-pool outage; a warning at
    /// `deadline` with the pool still down degrades.
    Deferred { deadline: u64 },
}

/// What happens to a tracked VM at `epoch`.
#[derive(Debug, Clone, Copy)]
pub(super) enum Event {
    /// The warning system escalated a warning; the VM's pool is up or down.
    Escalation { epoch: u64, pool_up: bool },
    /// An analysis ran and confirmed interference or not.
    Verdict { epoch: u64, confirmed: bool },
    /// The VM left for good.
    Forget,
}

/// What the controller does about an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Outcome {
    /// Nothing: the VM cools down, or the event only moved its phase.
    Skip,
    /// Wait for the pool until `deadline`.
    Defer { deadline: u64 },
    /// Keep waiting for the pool.
    Wait,
    /// Give up waiting: a warning-only decision.
    Degrade,
    /// Analyze now.
    Analyze,
}

/// One transition of the module doc's table, under `config`'s cooldowns.
fn step(phase: VmPhase, event: Event, config: &DeepDiveConfig) -> (VmPhase, Outcome) {
    // A confirmed verdict cools down for at least the ordinary cooldown.
    let cooled = |t: u64, confirmed: bool| {
        let confirmed = confirmed.then_some(config.confirmed_cooldown);
        match confirmed.unwrap_or(0).max(config.analysis_cooldown) {
            0 => VmPhase::Watching,
            epochs => VmPhase::CoolingDown { until: t + epochs },
        }
    };
    let (epoch, pool_up) = match event {
        Event::Forget => return (VmPhase::Watching, Outcome::Skip),
        Event::Verdict { epoch, confirmed } => return (cooled(epoch, confirmed), Outcome::Skip),
        Event::Escalation { epoch, pool_up } => (epoch, pool_up),
    };
    match phase {
        VmPhase::CoolingDown { until } if epoch < until => (phase, Outcome::Skip),
        _ if pool_up => (VmPhase::Watching, Outcome::Analyze),
        VmPhase::Deferred { deadline } if epoch < deadline => (phase, Outcome::Wait),
        VmPhase::Deferred { deadline } if epoch == deadline => {
            (cooled(epoch, false), Outcome::Degrade)
        }
        _ => {
            let deadline = epoch + ANALYSIS_DEFERRAL_EPOCHS;
            (VmPhase::Deferred { deadline }, Outcome::Defer { deadline })
        }
    }
}

/// Every tracked VM's phase and window, by slot.
#[derive(Debug)]
pub(super) struct VmRecords {
    /// Rows per window (`analysis_window`, at least one).
    width: usize,
    /// The ring of every tracked VM.
    rings: MulMap<VmId, Ring>,
    /// Phases by slot; a free slot is `Watching`.
    records: Vec<VmPhase>,
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
    /// again after [`VmRecords::forget`]) gets a free slot, `Watching`.
    /// One probe per report, and no read of a phase.
    pub(super) fn record_epoch(&mut self, reports: &[VmEpochReport], rings: &mut Vec<Ring>) {
        rings.clear();
        self.targets.clear();
        let width = self.width;
        for report in reports {
            self.probes += 1;
            let (records, rows, free) = (&mut self.records, &mut self.rows, &mut self.free);
            let ring = self.rings.entry(report.vm_id).or_insert_with(|| {
                let slot = free.pop().unwrap_or_else(|| {
                    records.push(VmPhase::Watching);
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

    /// Moves `ring`'s VM through `event` — the one write of a phase — and
    /// says what to do about it.
    pub(super) fn step(&mut self, ring: Ring, event: Event, config: &DeepDiveConfig) -> Outcome {
        let phase = &mut self.records[ring.slot as usize];
        let outcome;
        (*phase, outcome) = step(*phase, event, config);
        outcome
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

    /// Drops `vm`'s phase and window and frees its slot for the next new VM.
    pub(super) fn forget(&mut self, vm: VmId, config: &DeepDiveConfig) {
        self.probes += 1;
        if let Some(ring) = self.rings.remove(&vm) {
            self.step(ring, Event::Forget, config);
            self.free.push(ring.slot);
        }
    }

    /// Number of tracked VMs.
    pub(super) fn len(&self) -> usize {
        self.rings.len()
    }

    /// `vm`'s ring, without counting a probe.
    #[cfg(test)]
    pub(super) fn ring(&self, vm: VmId) -> Option<Ring> {
        self.rings.get(&vm).copied()
    }

    /// The phase of `ring`'s VM.
    #[cfg(test)]
    pub(super) fn phase(&self, ring: Ring) -> VmPhase {
        self.records[ring.slot as usize]
    }

    /// Every slot's phase, free slots' `Watching` included.
    #[cfg(test)]
    pub(super) fn phases(&self) -> &[VmPhase] {
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
        records.forget(VmId(1), &DeepDiveConfig::default());
        records.forget(VmId(7), &DeepDiveConfig::default());
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

    #[test]
    fn a_phase_fits_in_two_words() {
        assert!(std::mem::size_of::<VmPhase>() <= 16);
    }

    /// The gates as the two fields they were before they became one phase
    /// — a cooldown epoch and an optional deadline — with the table's rules
    /// written out as plain `if`s: the reference `step` is checked against.
    #[derive(Default)]
    struct TwoFields {
        cooldown_until: u64,
        deferred_until: Option<u64>,
    }

    impl TwoFields {
        fn apply(&mut self, event: Event, config: &DeepDiveConfig) -> Outcome {
            let (epoch, pool_up) = match event {
                Event::Forget => {
                    *self = Self::default();
                    return Outcome::Skip;
                }
                Event::Verdict { epoch, confirmed } => {
                    self.deferred_until = None;
                    self.cooldown_until = epoch + config.analysis_cooldown;
                    if confirmed && config.confirmed_cooldown > config.analysis_cooldown {
                        self.cooldown_until = epoch + config.confirmed_cooldown;
                    }
                    return Outcome::Skip;
                }
                Event::Escalation { epoch, pool_up } => (epoch, pool_up),
            };
            if epoch < self.cooldown_until {
                return Outcome::Skip;
            }
            if pool_up {
                self.deferred_until = None;
                return Outcome::Analyze;
            }
            // A deadline already past is stale.
            match self.deferred_until.filter(|&deadline| epoch <= deadline) {
                Some(deadline) if epoch == deadline => {
                    self.deferred_until = None;
                    self.cooldown_until = epoch + config.analysis_cooldown;
                    Outcome::Degrade
                }
                Some(_) => Outcome::Wait,
                None => {
                    let deadline = epoch + ANALYSIS_DEFERRAL_EPOCHS;
                    self.deferred_until = Some(deadline);
                    Outcome::Defer { deadline }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn step_follows_the_table_and_never_holds_a_past_epoch(
            analysis_cooldown in 0u64..6,
            confirmed_cooldown in 0u64..12,
            // Per event: its kind and the epochs since the previous one.
            events in proptest::collection::vec((0u8..6, 0u64..16), 1..64),
        ) {
            let config = DeepDiveConfig { analysis_cooldown, confirmed_cooldown, ..Default::default() };
            let (mut phase, mut reference, mut epoch) = (VmPhase::Watching, TwoFields::default(), 0);
            for (kind, gap) in events {
                epoch += gap;
                let event = match kind {
                    0 => Event::Escalation { epoch, pool_up: true },
                    // Outages weigh double, so deferrals run to their deadline.
                    1 | 2 => Event::Escalation { epoch, pool_up: false },
                    3 | 4 => Event::Verdict { epoch, confirmed: kind == 4 },
                    _ => Event::Forget,
                };
                let outcome;
                (phase, outcome) = step(phase, event, &config);
                proptest::prop_assert_eq!(outcome, reference.apply(event, &config), "{:?}", event);
                let held = match phase {
                    VmPhase::Watching => None,
                    VmPhase::CoolingDown { until } => Some(until),
                    VmPhase::Deferred { deadline } => Some(deadline),
                };
                proptest::prop_assert!(held.is_none_or(|held| held > epoch), "{:?} at {}", phase, epoch);
            }
        }
    }
}
