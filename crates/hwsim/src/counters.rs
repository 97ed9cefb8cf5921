//! The low-level metric set DeepDive observes (Table 1 of the paper).
//!
//! The paper lists a dozen hardware performance counters covering the core,
//! the cache hierarchy and the front-side bus, and approximates disk and
//! network stalls from `iostat` / `netstat` (idle CPU cycles while an I/O
//! request or a packet is outstanding).  [`CounterSnapshot`] carries exactly
//! this set for one VM over one monitoring epoch.
//!
//! Snapshots support the arithmetic DeepDive needs: differencing consecutive
//! samples, accumulating over longer windows, and *normalizing by the number
//! of instructions retired* — the trick (§4.1) that makes metric values
//! insensitive to load intensity so that the warning system can distinguish
//! workload changes from interference.

/// Identifier for each low-level metric used by DeepDive (Table 1).
///
/// The `iostat`/`netstat` entries are not hardware counters but system-level
/// statistics; they are included here because DeepDive treats all of them
/// uniformly as dimensions of its metric space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Clock cycles when the core was not halted.
    CpuUnhalted,
    /// Number of instructions retired.
    InstRetired,
    /// Cache lines allocated in the L1 data cache (L1D replacements).
    L1dRepl,
    /// L2-cacheable instruction fetches.
    L2Ifetch,
    /// Number of lines allocated in the L2 (last-level on the Xeon X5472).
    L2LinesIn,
    /// Retired loads.
    MemLoad,
    /// Cycles during which resource stalls occurred.
    ResourceStalls,
    /// Number of completed bus transactions (any type).
    BusTranAny,
    /// Number of instruction-fetch bus transactions.
    BusTransIfetch,
    /// Burst read bus transactions.
    BusTranBrd,
    /// Outstanding cacheable data-read bus request duration (cycles).
    BusReqOut,
    /// Number of mispredicted branches retired.
    BrMissPred,
    /// Idle CPU seconds while a disk I/O request was outstanding (`iostat`).
    DiskStallSeconds,
    /// Idle CPU seconds while a packet sat in the send/receive queue (`netstat`).
    NetStallSeconds,
}

impl Metric {
    /// All metrics, in a stable order used to build metric vectors.
    pub const ALL: [Metric; 14] = [
        Metric::CpuUnhalted,
        Metric::InstRetired,
        Metric::L1dRepl,
        Metric::L2Ifetch,
        Metric::L2LinesIn,
        Metric::MemLoad,
        Metric::ResourceStalls,
        Metric::BusTranAny,
        Metric::BusTransIfetch,
        Metric::BusTranBrd,
        Metric::BusReqOut,
        Metric::BrMissPred,
        Metric::DiskStallSeconds,
        Metric::NetStallSeconds,
    ];

    /// Human-readable counter name matching the paper's Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::CpuUnhalted => "cpu_unhalted",
            Metric::InstRetired => "inst_retired",
            Metric::L1dRepl => "l1d_repl",
            Metric::L2Ifetch => "l2_ifetch",
            Metric::L2LinesIn => "l2_lines_in",
            Metric::MemLoad => "mem_load",
            Metric::ResourceStalls => "resource_stalls",
            Metric::BusTranAny => "bus_tran_any",
            Metric::BusTransIfetch => "bus_trans_ifetch",
            Metric::BusTranBrd => "bus_tran_brd",
            Metric::BusReqOut => "bus_req_out",
            Metric::BrMissPred => "br_miss_pred",
            Metric::DiskStallSeconds => "iostat_t_disk",
            Metric::NetStallSeconds => "netstat_t_net",
        }
    }
}

/// The values of every Table 1 metric for one VM over one monitoring epoch.
///
/// All counter fields are event counts over the epoch (not rates); the two
/// I/O stall fields are in seconds of stalled (idle-but-waiting) CPU time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Clock cycles when the core was not halted.
    pub cpu_unhalted: f64,
    /// Instructions retired.
    pub inst_retired: f64,
    /// Cache lines allocated in the L1 data cache.
    pub l1d_repl: f64,
    /// L2-cacheable instruction fetches.
    pub l2_ifetch: f64,
    /// Lines allocated in the shared last-level cache.
    pub l2_lines_in: f64,
    /// Retired loads.
    pub mem_load: f64,
    /// Cycles during which resource stalls occurred.
    pub resource_stalls: f64,
    /// Completed bus transactions of any type.
    pub bus_tran_any: f64,
    /// Instruction-fetch bus transactions.
    pub bus_trans_ifetch: f64,
    /// Burst-read bus transactions.
    pub bus_tran_brd: f64,
    /// Outstanding cacheable data-read bus-request duration, in cycles.
    pub bus_req_out: f64,
    /// Mispredicted branches retired.
    pub br_miss_pred: f64,
    /// Idle CPU seconds with an outstanding disk request (`iostat` T_disk).
    pub disk_stall_seconds: f64,
    /// Idle CPU seconds with a queued packet (`netstat` T_net).
    pub net_stall_seconds: f64,
}

impl CounterSnapshot {
    /// Returns a snapshot with every field set to zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Looks up a single metric value by its [`Metric`] identifier.
    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::CpuUnhalted => self.cpu_unhalted,
            Metric::InstRetired => self.inst_retired,
            Metric::L1dRepl => self.l1d_repl,
            Metric::L2Ifetch => self.l2_ifetch,
            Metric::L2LinesIn => self.l2_lines_in,
            Metric::MemLoad => self.mem_load,
            Metric::ResourceStalls => self.resource_stalls,
            Metric::BusTranAny => self.bus_tran_any,
            Metric::BusTransIfetch => self.bus_trans_ifetch,
            Metric::BusTranBrd => self.bus_tran_brd,
            Metric::BusReqOut => self.bus_req_out,
            Metric::BrMissPred => self.br_miss_pred,
            Metric::DiskStallSeconds => self.disk_stall_seconds,
            Metric::NetStallSeconds => self.net_stall_seconds,
        }
    }

    /// Sets a single metric value by its [`Metric`] identifier.
    pub fn set(&mut self, metric: Metric, value: f64) {
        match metric {
            Metric::CpuUnhalted => self.cpu_unhalted = value,
            Metric::InstRetired => self.inst_retired = value,
            Metric::L1dRepl => self.l1d_repl = value,
            Metric::L2Ifetch => self.l2_ifetch = value,
            Metric::L2LinesIn => self.l2_lines_in = value,
            Metric::MemLoad => self.mem_load = value,
            Metric::ResourceStalls => self.resource_stalls = value,
            Metric::BusTranAny => self.bus_tran_any = value,
            Metric::BusTransIfetch => self.bus_trans_ifetch = value,
            Metric::BusTranBrd => self.bus_tran_brd = value,
            Metric::BusReqOut => self.bus_req_out = value,
            Metric::BrMissPred => self.br_miss_pred = value,
            Metric::DiskStallSeconds => self.disk_stall_seconds = value,
            Metric::NetStallSeconds => self.net_stall_seconds = value,
        }
    }

    /// Returns the snapshot as a vector in the canonical [`Metric::ALL`] order.
    pub fn to_vec(&self) -> Vec<f64> {
        Metric::ALL.iter().map(|m| self.get(*m)).collect()
    }

    /// Builds a snapshot from a vector in the canonical [`Metric::ALL`] order.
    ///
    /// # Panics
    /// Panics if `values` does not have exactly [`Metric::ALL`] entries.
    pub fn from_vec(values: &[f64]) -> Self {
        assert_eq!(
            values.len(),
            Metric::ALL.len(),
            "counter vector must have {} entries",
            Metric::ALL.len()
        );
        let mut snap = Self::zero();
        for (metric, value) in Metric::ALL.iter().zip(values) {
            snap.set(*metric, *value);
        }
        snap
    }

    /// Element-wise sum of two snapshots (accumulating over epochs).
    pub fn add(&self, other: &Self) -> Self {
        let mut out = Self::zero();
        for metric in Metric::ALL {
            out.set(metric, self.get(metric) + other.get(metric));
        }
        out
    }

    /// Element-wise difference (`self - other`), used to turn two cumulative
    /// counter reads into a per-epoch delta.
    pub fn delta(&self, other: &Self) -> Self {
        let mut out = Self::zero();
        for metric in Metric::ALL {
            out.set(metric, self.get(metric) - other.get(metric));
        }
        out
    }

    /// Scales every field by `factor`.
    pub fn scale(&self, factor: f64) -> Self {
        let mut out = Self::zero();
        for metric in Metric::ALL {
            out.set(metric, self.get(metric) * factor);
        }
        out
    }

    /// Cycles per instruction observed in this epoch.
    ///
    /// Returns `0.0` when no instruction retired (an idle epoch), so callers
    /// never divide by zero.
    pub fn cpi(&self) -> f64 {
        if self.inst_retired <= 0.0 {
            0.0
        } else {
            self.cpu_unhalted / self.inst_retired
        }
    }

    /// Normalizes every counter by the number of instructions retired,
    /// yielding *per-kilo-instruction* values (and stall seconds per billion
    /// instructions for the two I/O metrics).
    ///
    /// This is the normalization of §4.1: it makes the metric vector
    /// insensitive to the load intensity, so that a workload running at 30%
    /// and 90% load maps to (nearly) the same point in the metric space while
    /// genuine interference moves the point.
    pub fn normalized_per_kilo_instruction(&self) -> CounterSnapshot {
        if self.inst_retired <= 0.0 {
            return CounterSnapshot::zero();
        }
        let per_ki = 1_000.0 / self.inst_retired;
        let mut out = CounterSnapshot::zero();
        for metric in Metric::ALL {
            let value = match metric {
                // Instructions normalize to a constant; keep the raw count so
                // the consumer can still recover absolute scale if needed.
                Metric::InstRetired => self.inst_retired,
                // I/O stall *seconds* are normalized per billion instructions
                // so they land in a comparable numeric range.
                Metric::DiskStallSeconds | Metric::NetStallSeconds => {
                    self.get(metric) * 1.0e9 / self.inst_retired
                }
                _ => self.get(metric) * per_ki,
            };
            out.set(metric, value);
        }
        out
    }

    /// True when every field is finite and non-negative — the well-formedness
    /// invariant every producer in this workspace maintains.
    pub fn is_well_formed(&self) -> bool {
        Metric::ALL
            .iter()
            .all(|m| self.get(*m).is_finite() && self.get(*m) >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSnapshot {
        CounterSnapshot {
            cpu_unhalted: 3.0e9,
            inst_retired: 2.0e9,
            l1d_repl: 4.0e7,
            l2_ifetch: 1.0e6,
            l2_lines_in: 8.0e6,
            mem_load: 6.0e8,
            resource_stalls: 9.0e8,
            bus_tran_any: 9.0e6,
            bus_trans_ifetch: 5.0e5,
            bus_tran_brd: 7.0e6,
            bus_req_out: 2.0e8,
            br_miss_pred: 1.2e7,
            disk_stall_seconds: 0.05,
            net_stall_seconds: 0.01,
        }
    }

    #[test]
    fn metric_all_covers_every_field_exactly_once() {
        // Round-tripping through to_vec/from_vec must be lossless, which only
        // holds when ALL enumerates every field exactly once.
        let snap = sample();
        let round = CounterSnapshot::from_vec(&snap.to_vec());
        assert_eq!(snap, round);
        assert_eq!(Metric::ALL.len(), 14);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len());
    }

    #[test]
    fn delta_and_add_are_inverse() {
        let a = sample();
        let b = sample().scale(2.5);
        let d = b.delta(&a);
        let b_again = a.add(&d);
        for m in Metric::ALL {
            assert!((b.get(m) - b_again.get(m)).abs() < 1e-9 * b.get(m).abs().max(1.0));
        }
    }

    #[test]
    fn cpi_is_ratio_of_cycles_to_instructions() {
        let snap = sample();
        assert!((snap.cpi() - 1.5).abs() < 1e-12);
        assert_eq!(CounterSnapshot::zero().cpi(), 0.0);
    }

    #[test]
    fn normalization_is_load_invariant() {
        // Doubling the work done in an epoch must not move the normalized
        // metric vector (other than the raw instruction count itself).
        let one = sample();
        let two = sample().scale(2.0);
        let n1 = one.normalized_per_kilo_instruction();
        let n2 = two.normalized_per_kilo_instruction();
        for m in Metric::ALL {
            if m == Metric::InstRetired {
                continue;
            }
            assert!(
                (n1.get(m) - n2.get(m)).abs() < 1e-9 * n1.get(m).abs().max(1e-12),
                "metric {:?} not load-invariant: {} vs {}",
                m,
                n1.get(m),
                n2.get(m)
            );
        }
    }

    #[test]
    fn normalization_of_idle_epoch_is_zero() {
        let idle = CounterSnapshot::zero();
        assert_eq!(
            idle.normalized_per_kilo_instruction(),
            CounterSnapshot::zero()
        );
    }

    #[test]
    fn well_formedness_rejects_nan_and_negative() {
        let mut bad = sample();
        assert!(bad.is_well_formed());
        bad.mem_load = f64::NAN;
        assert!(!bad.is_well_formed());
        let mut neg = sample();
        neg.bus_tran_any = -1.0;
        assert!(!neg.is_well_formed());
    }

    #[test]
    #[should_panic(expected = "counter vector must have")]
    fn from_vec_rejects_wrong_length() {
        CounterSnapshot::from_vec(&[1.0, 2.0]);
    }
}
